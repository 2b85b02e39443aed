#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <paper_mix|fleet_rpc|write_mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root; scratch files (sockets, WAL directories,
span logs) go to .bench_run. The last line of standard output is the
result JSON printed by the benchmark binary; this script checks that its
metrics are exactly the ones BENCHMARK.json declares for the mode (in a
traced run: the workload's LAYERS, to which it adds BENCHMARK.json's other
per-layer metrics at 0, layers the workload does not pass through), and
that every process the run started has ended before it exits.
"""

import ctypes
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36

# Per-layer metrics each workload's traced run measures.
SETUP_LAYERS = ["biozon.generate_s", "core.build_s", "core.prune_s",
                "engine.index_s", "setup.warmup_s"]
SERVICE_LAYERS = ["service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
                  "service.cache_hit_ratio", "service.cache_hit_us_p50"]
RUN_LAYERS = ["loadgen.fail_ratio", "trace.overhead_ratio", "trace.coverage"]
LAYERS = {
    "paper_mix": SETUP_LAYERS + SERVICE_LAYERS + RUN_LAYERS + [
        "engine.exec_ms_p50", "engine.exec_ms_p99",
        "engine.full_top.exec_ms_p50", "engine.fast_top.exec_ms_p50",
        "engine.full_topk.exec_ms_p50", "engine.fast_topk.exec_ms_p50",
        "engine.full_topk_et.exec_ms_p50", "engine.fast_topk_et.exec_ms_p50",
        "engine.full_topk_opt.exec_ms_p50",
        "engine.fast_topk_opt.exec_ms_p50",
        "engine.rows_scanned_per_query", "engine.probes_per_query",
        "engine.subqueries_per_query", "engine.cpu_us_per_query",
        "columnar.path_share", "columnar.block_skip_ratio",
        "optimizer.regret_ratio"],
    "fleet_rpc": SETUP_LAYERS + SERVICE_LAYERS + RUN_LAYERS + [
        "net.fleet_ready_s", "shard.scatter_ms_p50",
        "shard.merge_us_per_query", "net.rtt_us_p50", "net.rtt_us_p99",
        "net.overhead_us_p50", "wire.encode_us_per_frame",
        "wire.decode_us_per_frame", "wire.request_bytes",
        "wire.response_bytes", "replica.hedge_ratio", "replica.failovers"],
    "write_mix": SETUP_LAYERS + SERVICE_LAYERS + RUN_LAYERS + [
        "engine.exec_ms_p50", "engine.exec_ms_p99", "mutation.write_p50_ms",
        "mutation.write_p90_ms", "mutation.apply_ms_p50",
        "mutation.apply_ms_p90", "mutation.restaged_pairs_per_batch",
        "mutation.wal_append_us_p50", "mutation.wal_bytes_per_batch",
        "mutation.fold_ms_p50", "mutation.folds",
        "loadgen.write_lag_ms_p90"],
}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest", "shard_server"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def reap_all(deadline):
    """Waits for every child, including orphans adopted as subreaper."""
    while time.time() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            time.sleep(0.05)
    return False


def run(cmd, env):
    """Runs cmd in its own process group; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S}s")
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        proc.returncode = 124
    # Whatever the binary left behind in its group (shard servers on an
    # abort) is stopped here, and reaped: this process is their subreaper.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if not reap_all(time.time() + 30):
        log("a child process did not end")
        return 1, out
    return proc.returncode, out


def complete_result(line, workload, trace):
    """Returns (result line, None), or (None, problem) when the binary's
    metrics are not exactly the declared ones with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys " + str(sorted(result))
    expected = set(LAYERS[workload]) if trace else set(declared)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = sorted(expected - set(got))
    extra = sorted(set(got) - expected)
    units = sorted(n for n in got if got[n] != declared.get(n))
    if missing or extra or units:
        return None, (f"metrics differ: missing {missing} extra {extra} "
                      f"units {units}")
    for name, unit in declared.items():
        result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    return json.dumps(result), None


def main(argv):
    selftest = "--selftest" in argv
    trace = False
    workload = None
    if not selftest:
        if "--trace" in argv:
            trace = argv[argv.index("--trace") + 1] == "1"
        if "--workload" in argv:
            workload = argv[argv.index("--workload") + 1]
        if workload not in LAYERS:
            log(f"unknown workload {workload}; one of {sorted(LAYERS)}")
            return 2
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except OSError:
        pass

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 1
    if selftest:
        return subprocess.run([os.path.join(build_dir,
                                            "perfbench_selftest")]).returncode

    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    cmd = [os.path.join(build_dir, "perfbench"), *argv,
           "--server", os.path.join(build_dir, "tools", "shard_server"),
           "--run-dir", ".bench_run"]
    code, out = run(cmd, env)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        log(f"benchmark exited with {code}")
        return code or 1
    last, problem = complete_result(lines[-1], workload, trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problem:
        log("result rejected: " + problem)
        return 1
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
