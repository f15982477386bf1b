(** {!Consensus_util.Json} under its historical name.  Nothing in the
    repository needs the alias except the benchmark probe under
    [perfbench/_probe], which names [Consensus_obs.Json] and cannot change
    without changing the benchmark; new code uses [Consensus_util.Json]. *)

include module type of struct
  include Consensus_util.Json
end
