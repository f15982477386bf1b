#!/usr/bin/env python3
"""Repository benchmark: served and bare consensus queries.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  serve_hot    small resident databases, every intermediate cached:
               the HTTP front end, protocol and scheduler dominate
  serve_churn  600 resident BID databases and Zipf-skewed queries whose
               intermediates are over twice the cache: the kernels
               dominate and the cache hits, stores and evicts
  kernel_mix   no daemon: Api.run_result and Inference.probability on
               each kernel, on a private engine pool

The benchmark builds the daemon and its probe (perfbench/_probe) from
the sources in the working directory, in a workspace of its own under
.bench_build (or $CARGO_TARGET_DIR), generates the workload's databases
from the seed, and verifies every answer against a reference computed
once in process.  The serve workloads start `consensus_cli serve` on the
generated files with every flag at its default and drive it with a
closed loop of nproc clients.  --trace 0 prints the end-to-end metrics;
--trace 1 makes the traced run and prints the per-layer metrics.  The
last line of stdout is one JSON object; a run record with quartiles and
provenance is written under <build dir>/records.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_hot", "serve_churn", "kernel_mix")
SOURCES = ("dune-project", "lib", "bin")
# Set-ups timed per run; setup_s is their median.  Daemon set-ups stop early
# once SETUP_MIN_REPS are in and SETUP_BUDGET_S has passed.
SETUP_REPS = 15
SETUP_MIN_REPS = 5
SETUP_BUDGET_S = 3.0
WINDOWS = 10
P99_MIN_OPS = 1000
KERNEL_FAMILIES = ("bid_sweep", "median_dp", "genfunc_tree", "hungarian", "kemeny",
                   "min_cost_flow", "cluster", "inference")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---------- build ----------

def sync_tree(src, dst):
    """Make dst a copy of src, rewriting only files whose bytes differ."""
    os.makedirs(dst, exist_ok=True)
    src_names = {n for n in os.listdir(src) if n != "_build"}
    for name in os.listdir(dst):
        if name not in src_names:
            path = os.path.join(dst, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name in src_names:
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            sync_tree(s, d)
        else:
            with open(s, "rb") as f:
                data = f.read()
            if os.path.isfile(d):
                with open(d, "rb") as f:
                    if f.read() == data:
                        continue
            with open(d, "wb") as f:
                f.write(data)


def build(root, build_dir):
    for name in SOURCES:
        if not os.path.exists(os.path.join(root, name)):
            raise BenchError("no %s here: run from the repository root" % name)
    ws = os.path.join(build_dir, "ws")
    os.makedirs(ws, exist_ok=True)
    root_files = [n for n in os.listdir(root)
                  if n.endswith(".opam") or n in ("dune-project", "dune", "dune-workspace")]
    for name in os.listdir(ws):
        if name not in ("lib", "bin", "probe", "_build") and name not in root_files:
            path = os.path.join(ws, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name in root_files:
        shutil.copyfile(os.path.join(root, name), os.path.join(ws, name))
    sync_tree(os.path.join(root, "lib"), os.path.join(ws, "lib"))
    sync_tree(os.path.join(root, "bin"), os.path.join(ws, "bin"))
    sync_tree(os.path.join(HERE, "_probe"), os.path.join(ws, "probe"))
    # The compiler's temporary files and dune's cache stay in the build dir.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(build_dir, "cache"))
    cmd = ["dune", "build", "--root", ws, "--profile", "release",
           "./bin/consensus_cli.exe", "./probe/probe.exe"]
    t0 = time.time()
    res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if res.returncode != 0:
        sys.stderr.write(res.stdout.decode(errors="replace"))
        raise BenchError("build failed")
    log("build ok (%.1f s)" % (time.time() - t0))
    out = os.path.join(ws, "_build", "default")
    return os.path.join(out, "bin", "consensus_cli.exe"), os.path.join(out, "probe", "probe.exe")


def source_digest(root):
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10).stdout.decode().strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# ---------- statistics ----------

def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def loglog_slope(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


# ---------- probe output ----------

def read_kv(path):
    kv = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition(" ")
            kv.setdefault(key, []).append(value)
    return kv


def kv_float(kv, key, default=0.0):
    return float(kv[key][-1]) if key in kv else default


def read_ops(path):
    ops = []
    with open(path) as f:
        for line in f:
            phase, worker, item, t0, t1, status, ok = line.rstrip("\n").split("\t")
            ops.append({"phase": phase, "item": int(item), "t0": float(t0), "t1": float(t1),
                        "status": int(status), "ok": ok == "1"})
    return ops


def read_spans(path):
    spans = []
    if not os.path.exists(path):
        return spans
    with open(path) as f:
        for line in f:
            worker, sid, parent, name, t0, t1, tag = line.rstrip("\n").split("\t")
            spans.append({"worker": int(worker), "id": int(sid), "parent": int(parent),
                          "name": name, "t0": float(t0), "t1": float(t1), "tag": tag})
    return spans


def parse_tag(tag):
    return dict(kv.split("=", 1) for kv in tag.split(";") if "=" in kv)


def read_prometheus(path):
    values = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, _, rest = line.partition(" ")
            if "{" in name:
                continue
            try:
                values[name] = float(rest.split()[0])
            except (ValueError, IndexError):
                pass
    return values


# ---------- daemon ----------

def http_get(port, path, timeout=10):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Daemon:
    """One `consensus serve` process on an ephemeral port."""

    def __init__(self, exe, db_files, log_path):
        self.log_path = log_path
        args = [exe, "serve", "--port", "0"]
        for name, path in db_files:
            args += ["--db", "%s=%s" % (name, path)]
        t0 = time.perf_counter()
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=self.log, cwd=os.path.dirname(log_path))
        self.port = None
        deadline = t0 + 60
        try:
            while self.port is None:
                if self.proc.poll() is not None:
                    raise BenchError("daemon exited with %d" % self.proc.returncode)
                if time.perf_counter() > deadline:
                    raise BenchError("daemon did not start")
                with open(log_path, "rb") as f:
                    m = re.search(rb"listening on [^:\s]+:(\d+)", f.read())
                if m:
                    self.port = int(m.group(1))
                else:
                    time.sleep(0.0005)
            while True:
                try:
                    if http_get(self.port, "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise BenchError("daemon never became healthy")
                time.sleep(0.0005)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.proc.poll() is None:
            try:
                if self.port is not None:
                    http_get(self.port, "/quit", timeout=5)
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    def access_log(self):
        entries = {}
        with open(self.log_path, "rb") as f:
            for line in f:
                if b'"event":"access"' not in line:
                    continue
                try:
                    e = json.loads(line)
                except ValueError:
                    continue
                entries[e.get("request")] = e
        return entries


# ---------- runs ----------

def run_probe(probe, args, timeout):
    res = subprocess.run([probe] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         timeout=timeout, cwd=args[args.index("--dir") + 1])
    if res.returncode != 0:
        sys.stderr.write(res.stderr.decode(errors="replace"))
        raise BenchError("probe %s failed (%d)" % (args[0], res.returncode))
    return res.stdout.decode()


def generate(probe, workload, seed, run_dir):
    out = run_probe(probe, ["gen", "--workload", workload, "--seed", str(seed),
                            "--dir", run_dir], 120)
    dbs = []
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == "db":
            info = dict(f.split("=", 1) for f in fields[3:])
            path = os.path.join(run_dir, fields[2])
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            dbs.append({"name": fields[1], "file": fields[2], "path": path,
                        "keys": int(info["keys"]), "alts": int(info["alts"]),
                        "bytes": int(info["bytes"]), "sha256": digest})
    return dbs


def serve_run(exe, probe, a, run_dir, dbs, clients):
    db_files = [(d["name"], d["path"]) for d in dbs]
    setups = []
    daemon = None
    try:
        t0 = time.perf_counter()
        for rep in range(SETUP_REPS):
            if rep >= SETUP_MIN_REPS and time.perf_counter() - t0 > SETUP_BUDGET_S:
                break
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(exe, db_files, os.path.join(run_dir, "daemon%d.log" % rep))
            setups.append(daemon.setup_s)
        run_probe(probe, ["serve", "--workload", a.workload, "--seed", str(a.seed),
                          "--dir", run_dir, "--port", str(daemon.port),
                          "--seconds", str(a.seconds), "--clients", str(clients),
                          "--trace", str(a.trace), "--pid", str(daemon.proc.pid)], 170)
        access = daemon.access_log() if a.trace else {}
    finally:
        if daemon is not None:
            daemon.stop()
    return setups, access


def kernel_run(probe, a, run_dir):
    run_probe(probe, ["kernel", "--workload", a.workload, "--seed", str(a.seed),
                      "--dir", run_dir, "--seconds", str(a.seconds), "--trace", str(a.trace),
                      "--setup-reps", str(SETUP_REPS)], 170)
    kv = read_kv(os.path.join(run_dir, "kv.txt"))
    return [float(v) for v in kv["setup_s"]], kv_float(kv, "peak_rss_kb") / 1024.0


def phase_window(kv, phase):
    return kv_float(kv, "phase.%s.t0" % phase), kv_float(kv, "phase.%s.t1" % phase)


def end_to_end(ops, t0, t1, setups, rss):
    """The end-to-end metrics with their within-run repetitions, and the
    ones printed but not bounded in BENCHMARK.json: latency_p90_ms, whose
    run-to-run spread on the kernel-bound workloads comes near the largest
    bound a metric may have, and latency_p99_ms, where at least P99_MIN_OPS
    ops leave ten samples beyond it.

    Each metric pools the whole timed window: on a shared machine whose
    speed switches between states for seconds at a time, a pooled figure
    moves smoothly with the share of the run spent in each, where a median
    over slices jumps between them.  The run record also keeps each
    metric's quartiles over WINDOWS equal slices of the window."""
    lat = [1000.0 * (o["t1"] - o["t0"]) for o in ops if o["ok"] and t0 <= o["t1"] <= t1]
    width = (t1 - t0) / WINDOWS
    per_window = [[] for _ in range(WINDOWS)]
    for o in ops:
        if o["ok"] and t0 <= o["t1"] <= t1:
            per_window[min(int((o["t1"] - t0) / width), WINDOWS - 1)].append(
                1000.0 * (o["t1"] - o["t0"]))
    m = {
        "throughput": (len(lat) / (t1 - t0), "ops/s", [len(w) / width for w in per_window]),
        "latency_p50_ms": (percentile(lat, 50), "ms", [percentile(w, 50) for w in per_window]),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (rss, "MiB", [rss]),
    }
    extra = {"latency_p90_ms": (percentile(lat, 90), "ms",
                                [percentile(w, 90) for w in per_window])}
    if len(lat) >= P99_MIN_OPS:
        extra["latency_p99_ms"] = (percentile(lat, 99), "ms",
                                   [percentile(w, 99) for w in per_window])
    return m, extra, len(lat)


def span_ms(spans, name, tag=None):
    return [1000.0 * (s["t1"] - s["t0"]) for s in spans
            if s["name"] == name and (tag is None or s["tag"] == tag)]


def med(values, default=0.0):
    return statistics.median(values) if values else default


def per_layer(a, kv, ops, spans, access, before, after, items):
    """Per-layer metrics of a traced run, plus details for the run record."""
    m = {}
    detail = {}
    served = a.workload != "kernel_mix"

    # Tracing overhead: the same closed loop untraced, then traced.
    thr = {}
    for phase in ("untraced", "traced"):
        span = sum(float(b) - float(a) for a, b in zip(kv["phase.%s.t0" % phase],
                                                         kv["phase.%s.t1" % phase]))
        thr[phase] = sum(1 for o in ops if o["phase"] == phase and o["ok"]) / span
    m["trace.overhead_pct"] = (100.0 * (thr["untraced"] - thr["traced"]) / thr["untraced"]
                               if thr["untraced"] else 0.0, "%")
    detail["throughput_by_phase"] = thr

    # Client phases and daemon-side timings of each traced HTTP op.
    http_ops = [s for s in spans if s["name"] == "http.op"]
    children = {}
    for s in spans:
        if s["name"].startswith("http.") and s["parent"] >= 0:
            children.setdefault((s["worker"], s["parent"]), []).append(s)
    connect, first_byte, overhead, unattributed, elapsed = [], [], [], [], []
    queue_wait, run_ms, self_ms, attributed = [], [], [], []
    by_family_served = {}
    for op in http_ops:
        tag = parse_tag(op["tag"])
        if tag.get("status") != "200":
            continue
        lat = 1000.0 * (op["t1"] - op["t0"])
        kids = children.get((op["worker"], op["id"]), [])
        self_ms.append(lat - sum(1000.0 * (k["t1"] - k["t0"]) for k in kids))
        for k in kids:
            if k["name"] == "http.connect":
                connect.append(1000.0 * (k["t1"] - k["t0"]))
            elif k["name"] == "http.wait":
                first_byte.append(1000.0 * (k["t1"] - k["t0"]))
        e = float(tag.get("elapsed_ms", "nan"))
        if not math.isnan(e):
            elapsed.append(e)
            overhead.append(lat - e)
            by_family_served.setdefault(items[int(tag["item"])], []).append(e)
        entry = access.get(tag.get("req"))
        if entry is not None:
            queue_wait.append(entry["queue_wait_ms"])
            run_ms.append(entry["run_ms"])
            unattributed.append(lat - entry["queue_wait_ms"] - entry["run_ms"])
            attributed.append((entry["queue_wait_ms"] + entry["run_ms"]) / lat)
    m["expose.connect_ms.p50"] = (med(connect), "ms")
    m["expose.first_byte_ms.p50"] = (med(first_byte), "ms")
    timed_ops = [o for o in ops if o["phase"] in ("untraced", "traced")]
    conns = sum(float(v) for k in ("connections.untraced", "connections.traced")
                for v in kv.get(k, []))
    m["expose.connections_per_op"] = (conns / len(timed_ops) if served and timed_ops else 0.0,
                                      "count")
    m["daemon.overhead_ms.p50"] = (med(overhead), "ms")
    m["daemon.overhead_ms.p99"] = (percentile(overhead, 99), "ms")
    m["daemon.unattributed_ms.p50"] = (med(unattributed), "ms")
    m["scheduler.queue_wait_ms.p50"] = (med(queue_wait), "ms")
    m["scheduler.queue_wait_ms.p99"] = (percentile(queue_wait, 99), "ms")
    m["scheduler.run_ms.p50"] = (med(run_ms), "ms")
    m["api.elapsed_ms.p50"] = (med(elapsed), "ms")
    detail["http_ops_traced"] = len(http_ops)
    detail["http_ops_joined_to_access_log"] = len(unattributed)
    detail["client_self_ms.p50"] = med(self_ms)
    detail["daemon_attributed_share.p50"] = med(attributed)

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    m["scheduler.rejected"] = (delta("serve_rejected_total"), "count")
    hits, misses = delta("cache_hits_total"), delta("cache_misses_total")
    m["cache.hits"] = (hits, "count")
    m["cache.misses"] = (misses, "count")
    m["cache.evictions"] = (delta("cache_evictions_total"), "count")
    m["cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "fraction")
    m["cache.bytes_resident"] = (after.get("cache_bytes_resident", 0.0), "bytes")

    # Bare calls from the probe.
    m["protocol.parse_us.p50"] = (1000.0 * med(span_ms(spans, "protocol.parse")), "us")
    m["protocol.render_us.p50"] = (1000.0 * med(span_ms(spans, "protocol.render")), "us")
    for fam in KERNEL_FAMILIES:
        m["api.run_ms.%s.p50" % fam] = (med(span_ms(spans, "api.run", fam)), "ms")
    ratios = {}
    for fam, vals in sorted(by_family_served.items()):
        bare = span_ms(spans, "api.run", fam)
        if bare and med(bare) > 0:
            ratios[fam] = med(vals) / med(bare)
    m["api.served_over_bare"] = (med(list(ratios.values())), "ratio")
    detail["served_over_bare_by_family"] = ratios
    for metric, span in (("marginals.rank_table_ms.p50", "marginals.rank_table"),
                         ("marginals.rank_table_slow_ms.p50", "marginals.rank_table_slow"),
                         ("hungarian.minimize_ms.p50", "hungarian.minimize"),
                         ("min_cost_flow.median_ms.p50", "min_cost_flow.median"),
                         ("cluster_consensus.pivot_ms.p50", "cluster_consensus.pivot"),
                         ("inference.probability_ms.p50", "inference.probability")):
        m[metric] = (med(span_ms(spans, span)), "ms")
    hits_ro = kv_float(kv, "inference.readonce_hits")
    misses_ro = kv_float(kv, "inference.readonce_misses")
    m["inference.readonce_hit_ratio"] = (hits_ro / (hits_ro + misses_ro)
                                         if hits_ro + misses_ro else 0.0, "fraction")
    m["inference.expansions"] = (kv_float(kv, "inference.expansions"), "count")
    chunks = kv_float(kv, "pool.chunks")
    m["pool.wall_s"] = (kv_float(kv, "pool.wall_s"), "s")
    m["pool.worker_chunk_ratio"] = (kv_float(kv, "pool.by_worker") / chunks if chunks else 0.0,
                                    "fraction")
    m["sexp_io.load_s"] = (med(span_ms(spans, "sexp_io.load")) / 1000.0, "s")

    m["gc.minor_words_per_op"] = (kv_float(kv, "gc.minor_words") / max(1.0, kv_float(kv, "gc.ops")),
                                  "words")
    m["gc.major_collections"] = (kv_float(kv, "gc.major_collections"), "count")
    if served:
        m["gc.pause_s"] = (delta("gc_pause_seconds_sum"), "s")
    else:
        m["gc.pause_s"] = (kv_float(kv, "gc.pause_s"), "s")

    for metric in ("rank_table", "hungarian", "topk_median"):
        by_n = {}
        for s in spans:
            if s["name"] == "slope." + metric:
                by_n.setdefault(int(s["tag"]), []).append(s["t1"] - s["t0"])
        points = sorted((n, statistics.median(v)) for n, v in by_n.items())
        detail["slope." + metric] = points
        m["slope." + metric] = (loglog_slope(points) if len(points) > 1 else 0.0, "exponent")
    return m, detail


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds < 2:
        raise BenchError("--seconds must be at least 2")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe, probe = build(root, build_dir)

    run_dir = os.path.join(build_dir, "runs", "current")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    clients = len(os.sched_getaffinity(0))
    dbs = generate(probe, a.workload, a.seed, run_dir)

    access, before, after = {}, {}, {}
    if a.workload == "kernel_mix":
        setups, rss = kernel_run(probe, a, run_dir)
    else:
        setups, access = serve_run(exe, probe, a, run_dir, dbs, clients)
        rss = kv_float(read_kv(os.path.join(run_dir, "kv.txt")), "daemon.peak_rss_kb") / 1024.0
        before = read_prometheus(os.path.join(run_dir, "metrics_before.txt"))
        after = read_prometheus(os.path.join(run_dir, "metrics_after.txt"))
    kv = read_kv(os.path.join(run_dir, "kv.txt"))
    ops = read_ops(os.path.join(run_dir, "ops.tsv"))
    items = {int(k.split(".")[1]): v[-1] for k, v in kv.items() if k.startswith("item.")}
    warm_failed = int(kv_float(kv, "warm.failed"))
    attempted = len(ops)
    failed = sum(1 for o in ops if not o["ok"])

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "commit": (command_output(["git", "-C", root, "rev-parse", "HEAD"])
                   if os.path.isdir(os.path.join(root, ".git")) else None),
        "source_sha256": source_digest(root),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocaml", "-vnum"]),
        "nproc": clients,
        "clients": clients if a.workload != "kernel_mix" else 1,
        "repetitions": {"setup": len(setups), "windows": WINDOWS},
        "dbs": [{k: v for k, v in d.items() if k != "path"} for d in dbs],
        "cache_working_set_bytes": kv_float(kv, "cache.working_set_bytes"),
        "cache_capacity_bytes": kv_float(kv, "cache.capacity_bytes"),
        "attempted": attempted,
        "failed": failed,
        "warmup_failed": warm_failed,
        "setup_phases_s": {k: kv_float(kv, k) for k in ("refs.s", "warm.s") if k in kv},
        "error_rate": failed / attempted if attempted else 1.0,
    }
    metrics = {}
    lines = []
    if a.trace == 0:
        t0, t1 = phase_window(kv, "main")
        e2e, extra, n_ok = end_to_end(ops, t0, t1, setups, rss)
        record["ok_ops"] = n_ok
        record["metrics"] = {}
        for name, (value, unit, reps) in list(e2e.items()) + list(extra.items()):
            if name in e2e:
                metrics[name] = {"value": value, "unit": unit}
            record["metrics"][name] = dict(value=value, unit=unit, **quartiles(reps))
            lines.append("%-28s %14.6f %s" % (name, value, unit))
        if "latency_p99_ms" not in extra:
            lines.append("%-28s %14s (%d ops < %d)" % ("latency_p99_ms", "n/a", n_ok, P99_MIN_OPS))
        lines.append("%-28s %14.6f %s" % ("error_rate", record["error_rate"], "fraction"))
    else:
        layer, detail = per_layer(a, kv, ops, read_spans(os.path.join(run_dir, "spans.tsv")),
                                  access, before, after, items)
        record["detail"] = detail
        record["metrics"] = {}
        for name, (value, unit) in layer.items():
            metrics[name] = {"value": value, "unit": unit}
            record["metrics"][name] = {"value": value, "unit": unit}
            lines.append("%-34s %14.6f %s" % (name, value, unit))

    rec_dir = os.path.join(build_dir, "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, "%s-seed%d-trace%d-%d.json" % (
        a.workload, a.seed, a.trace, int(time.time() * 1000)))
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("workload %s seed %d: %d ops attempted, %d failed; record %s" % (
        a.workload, a.seed, attempted, failed, os.path.relpath(rec_path, root)))
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0 and warm_failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(2)
