let () =
  Alcotest.run "consensus"
    [
      ("util", Suite_util.suite);
      ("poly", Suite_poly.suite);
      ("anxor", Suite_anxor.suite);
      ("arena", Suite_arena.suite);
      ("matching", Suite_matching.suite);
      ("ranking", Suite_ranking.suite);
      ("core", Suite_core.suite);
      ("pdb", Suite_pdb.suite);
      ("readonce", Suite_readonce.suite);
      ("pdb-aggregate", Suite_pdb_aggregate.suite);
      ("io", Suite_io.suite);
      ("textio", Suite_textio.suite);
      ("rank", Suite_rank.suite);
      ("extensions", Suite_extensions.suite);
      ("properties", Suite_props.suite);
      ("engine", Suite_engine.suite);
      ("cache", Suite_cache.suite);
      ("obs", Suite_obs.suite);
      ("report", Suite_report.suite);
      ("oracle", Suite_oracle.suite);
      ("serve", Suite_serve.suite);
    ]
