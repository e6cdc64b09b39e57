#!/usr/bin/env python3
"""End-to-end train -> forget benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload femnist_su_journal --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the library from src/ plus bench_main.cc) in Release
mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The run checks its own output; a failed check makes "correct" false and the
exit code 1. Build and usage errors exit 2 without printing a result.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("femnist_su_journal", "shakespeare_cu_lossy", "lazy_su_coalesced")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


# --------------------------------------------------------------------------
# Arithmetic (unit-tested by selftest.py).

def percentile_rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples."""
    tenths = round(pct * 10)  # exact integer arithmetic: no 99.9 * n rounding
    return max(1, -(-tenths * n // 1000))


def beyond(n, pct):
    """Samples that lie beyond the pct-th percentile of n samples."""
    return n - percentile_rank(n, pct)


def percentile(values, pct):
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), pct) - 1]


def tail_percentile(n):
    """Highest percentile with at least MIN_BEYOND samples beyond it, or None."""
    for pct in TAIL_PERCENTILES:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def rate(count, seconds):
    """Work per second over a phase; the phase must have run."""
    if seconds <= 0:
        raise ValueError("phase did not run")
    return count / seconds


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


# --------------------------------------------------------------------------
# Metric assembly.

MIB = 1024.0 * 1024.0


class Metrics:
    def __init__(self):
        self.values = {}

    def add(self, name, value, unit):
        if not valid_name(name) or not valid_unit(unit):
            raise ValueError("bad metric name or unit: %r %r" % (name, unit))
        if name in self.values:
            raise ValueError("duplicate metric: " + name)
        self.values[name] = {"value": value, "unit": unit}

    def timing(self, prefix, unit, scale, durations, tail=False, peak=False):
        """Median (+ chosen tail percentile, max) of span durations in ns."""
        n = len(durations)
        vals = [d * scale for d in durations] or [0.0]
        self.add(prefix + ".p50", percentile(vals, 50.0), unit)
        if tail:
            pct = tail_percentile(n)
            self.add(prefix + ".tail", percentile(vals, pct) if pct else max(vals), unit)
            self.add(prefix + ".tail_pct", pct if pct else 100.0, "pct")
        if peak:
            self.add(prefix + ".max", max(vals), unit)
        self.add(prefix + ".count", n, "count")


def end_to_end(raw):
    p = raw["pass"]
    m = Metrics()
    m.add("setup_s", statistics.median(raw["setup_s"]), "s")
    m.add("train_steps_per_s", rate(p["local_steps"], p["train_s"]), "1/s")
    m.add("unlearn_requests_per_s", rate(p["requests"], p["unlearn_s"]), "1/s")
    m.add("replayed_iters_per_request", p["replayed_iters"] / p["requests"], "count")
    m.add("unlearn_wire_kib_per_request",
          p["unlearn_wire_bytes"] / 1024.0 / p["requests"], "KiB")
    m.add("train_wire_kib_per_round", p["train_wire_bytes"] / 1024.0 / p["rounds"], "KiB")
    m.add("disk_mib", p["disk_bytes"] / MIB, "MiB")
    m.add("peak_rss_mib", raw["peak_rss_mib"], "MiB")
    m.add("final_accuracy", p["final_accuracy"], "share")
    m.add("request_ok_share", p["requests_ok"] / p["requests"], "share")
    return m.values


def load_spans(path):
    with open(path) as f:
        doc = json.load(f)
    names = doc["names"]
    spans = doc["spans"]
    # Parents are recorded before their children, so one forward pass finds
    # each span's phase (its root span's name).
    phase = []
    for name, parent, _request, _start, _end in spans:
        phase.append(names[name] if parent < 0 else phase[parent])
    by_name = {}
    for (name, _parent, _request, start, end), ph in zip(spans, phase):
        by_name.setdefault((names[name], ph), []).append(end - start)
    return by_name


def per_layer(raw, spans):
    t = raw["traced"]
    u = raw["pass"]
    ch = t["channel"]

    def d(name, phase):
        return spans.get((name, phase), [])

    m = Metrics()
    train_ns = sum(d("train", "train"))
    # core
    m.timing("core.round_ms", "ms", 1e-6, d("core.round", "train"), tail=True)
    m.timing("core.submit_us", "us", 1e-3, d("core.submit", "unlearn"))
    m.timing("core.flush_ms", "ms", 1e-6, d("core.flush", "unlearn"), peak=True)
    replayed = max(t["replayed_iters"], 1)
    m.add("core.replay_ms_per_iter", t["flush_wall_s"] * 1e3 / replayed, "ms")
    m.add("core.triggered_share", t["triggered"] / t["requests"], "share")
    m.add("core.coalescing_factor", t["sequential_replayed_iters"] / replayed, "ratio")
    m.add("core.substituted_batches_per_request",
          t["substituted_batches"] / t["requests"], "count")
    m.add("core.redrawn_rounds_per_request", t["redrawn_rounds"] / t["requests"], "count")
    # nn
    m.timing("nn.step_us", "us", 1e-3, d("nn.step", "probe"))
    m.add("nn.local_steps", t["local_steps"], "count")
    # metrics
    evals = d("metrics.eval", "train")
    m.timing("metrics.eval_ms", "ms", 1e-6, evals)
    m.add("metrics.eval_share", sum(evals) / train_ns, "share")
    # io
    io_train = [x for (name, ph), v in spans.items()
                if name.startswith("io.") and name != "io.checkpoint" and ph == "train"
                for x in v]
    io_all = [x for (name, ph), v in spans.items()
              if name.startswith("io.") and name != "io.checkpoint" for x in v]
    m.add("io.journal_us_per_record", sum(io_all) * 1e-3 / max(len(io_all), 1), "us")
    m.add("io.journal_records", len(io_all), "count")
    m.add("io.journal_share", sum(io_train) / train_ns, "share")
    m.timing("io.commit_ms", "ms", 1e-6, d("io.commit", "train"), tail=True)
    m.add("io.journal_mib", t["journal_bytes"] / MIB, "MiB")
    m.add("io.checkpoint_ms", sum(d("io.checkpoint", "io.checkpoint")) * 1e-6, "ms")
    m.add("io.checkpoint_mib", t["checkpoint_bytes"] / MIB, "MiB")
    # transport
    m.add("transport.attempts_per_message", ch["attempts"] / max(ch["messages"], 1), "ratio")
    m.add("transport.crc_rejects", ch["crc_rejects"], "count")
    m.add("transport.retransmit_kib", ch["retransmit_bytes"] / 1024.0, "KiB")
    m.add("transport.forced_deliveries", ch["forced_deliveries"], "count")
    m.add("transport.encode_us", percentile(d("transport.encode", "probe"), 50) * 1e-3, "us")
    m.add("transport.decode_us", percentile(d("transport.decode", "probe"), 50) * 1e-3, "us")
    # state
    m.add("state.tree_aggregate_us",
          percentile(d("state.tree_aggregate", "probe"), 50) * 1e-3, "us")
    m.add("state.resident_mib", t["store_resident_bytes"] / MIB, "MiB")
    m.add("state.spilled_mib", t["store_spilled_bytes"] / MIB, "MiB")
    m.add("state.spilled_blocks", t["spilled_blocks"], "count")
    decode_ns = percentile(d("state.codec_decode", "probe"), 50)
    m.add("state.codec_decode_mbps", t["codec_bytes"] / decode_ns * 1e3, "MB/s")
    # data
    m.add("data.build_s", statistics.median(raw["data_build_s"]), "s")
    m.add("data.shard_generations", t["shard_generations"], "count")
    m.add("data.materialized_shards", t["materialized_shards"], "count")
    # rng / fl
    m.timing("rng.selection_us", "us", 1e-3, d("rng.selection", "train"))
    m.timing("fl.upload_aggregate_ms", "ms", 1e-6, d("fl.upload_aggregate", "train"))
    # util
    crc_ns = percentile(d("util.crc32", "probe"), 50)
    m.add("util.crc32_mbps", t["model_bytes"] / crc_ns * 1e3, "MB/s")
    # tracing overhead: traced vs untraced phase time, same inputs.
    m.add("trace.train_overhead_pct", (t["train_s"] / u["train_s"] - 1.0) * 100.0, "%")
    m.add("trace.unlearn_overhead_pct", (t["unlearn_s"] / u["unlearn_s"] - 1.0) * 100.0, "%")
    m.add("trace.spans", t["spans"], "count")
    return m.values


# Counts that must repeat exactly between passes and runs of one seed.
EXACT_KEYS = ("local_steps", "rounds", "train_wire_bytes", "unlearn_wire_bytes",
              "requests", "requests_ok", "flushes", "triggered",
              "substituted_batches", "redrawn_rounds", "replays", "replayed_iters",
              "sequential_replayed_iters", "final_accuracy", "model_crc32")


def check(raw):
    """Problems found in the run's own output (empty when correct)."""
    problems = []
    passes = [raw["pass"]] + ([raw["traced"]] if "traced" in raw else [])
    for p in passes:
        problems += p["errors"]
        if not p["session_ok"]:
            problems.append("journal session status is not OK")
        if not p["model_matches_store"]:
            problems.append("trainer model is not the final recorded global model")
        if p["requests_ok"] != p["requests"]:
            problems.append("%d of %d requests not honored and verified"
                            % (p["requests"] - p["requests_ok"], p["requests"]))
    if len(passes) == 2:
        for key in EXACT_KEYS:
            if passes[0][key] != passes[1][key]:
                problems.append("traced pass differs from untraced on " + key)
    return problems


# --------------------------------------------------------------------------
# Build and run.

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=Release"])
            jobs = str(min(4, os.cpu_count() or 1))
            steps.append(["cmake", "--build", bdir, "-j", jobs,
                          "--target", "fats_perfbench"])
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                    raise RuntimeError("build failed, see " + log_path)
    return os.path.join(bdir, "fats_perfbench")


def run_binary(binary, bdir, workload, seed, seconds, trace):
    work = os.path.join(bdir, "runs", "%s-%d-%d" % (workload, seed, os.getpid()))
    trace_out = os.path.join(bdir, "traces", workload + ".json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%r" % seconds, "--work_dir=" + work,
           "--trace_out=" + trace_out] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("benchmark binary failed (exit %d)" % proc.returncode)
    return json.loads(lines[-1]), trace_out


def measure(workload, seed, seconds, trace):
    """Builds, runs one workload, and returns (result dict, raw output)."""
    bdir = build_dir()
    binary = build(bdir)
    raw, trace_out = run_binary(binary, bdir, workload, seed, seconds, trace)
    problems = check(raw)
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    metrics = per_layer(raw, load_spans(trace_out)) if trace else end_to_end(raw)
    p = raw["pass"]
    result = {"correct": not problems, "attempted": p["requests"],
              "failed": p["requests"] - p["requests_ok"], "metrics": metrics}
    return result, raw


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, raw = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    print("model_crc32 %s" % raw["pass"]["model_crc32"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
