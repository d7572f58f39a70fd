#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded scenario workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. It builds the benchmark package
(`perfbench/Cargo.toml`, its own workspace; `CARGO_TARGET_DIR` or
`.bench_build`) and then drives its two binaries as separate processes:

* `perfbench selfcheck` - interpreted == generated on `churn-multicast`,
  and a second seed must change the output digest.
* `--trace 0`: `perfbench run` - set-up and run repetitions for T seconds
  in a process that observes nothing, then, on a workload whose peak
  RSS moves with the seed, `perfbench peak` runs of the next seeds, one
  process each. Reports the end-to-end metrics `setup_s`, `run_s` and
  `rss_peak_mb` (the processes' VmHWM), each a median.
* `--trace 1`: a short `perfbench run` (the untraced reference), then
  `perfbench-traced` (one observed run: agent callback timer, counting
  allocator, shard profile, telemetry) and `perfbench micro` (per-layer
  micro-benchmarks). Reports every per-layer metric. Callback spans are
  written to `.perfbench-out/`.

Every run's checked outputs (`out.*`, including the report digest) must
match the first run of the invocation, the untraced reference, and, on
`churn-multicast`, the self-check's interpreted and generated runs. For
seeds 0-99 they must also equal the outputs stored in
`perfbench/expected.json`, so a change that alters simulated results on
every back end fails too. Each mismatch, panic or failed sanity
invariant counts as a failed operation and makes the command exit
non-zero. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.

A change meant to alter simulated results regenerates the stored
outputs in the same change (about six minutes on two cores):

    python3 perfbench/run.py --write-expected

`BENCHMARK.json` lists the workloads and metrics; `perfbench/layers.json`
names, for every per-layer metric, the end-to-end metric and workloads
it should move. Both are checked before anything runs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXPECTED = os.path.join(HERE, "expected.json")
# Seeds whose outputs `--write-expected` stores, per workload.
EXPECTED_SEEDS = range(0, 100)
# Every process together must end well inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run (bad config, build failure)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_config():
    """BENCHMARK.json and the layer map, self-checked."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read the benchmark config: {e}")
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    names = workloads + list(e2e) + list(per_layer)
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        raise BenchError(f"metric/workload names malformed or repeated: {bad}")
    bad = [m["name"] for m in list(e2e.values()) + list(per_layer.values())
           if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher")]
    if bad:
        raise BenchError(f"bad unit or direction: {bad}")
    if set(layers) != set(per_layer):
        raise BenchError(
            "layers.json and BENCHMARK.json per_layer disagree: "
            f"{sorted(set(layers) ^ set(per_layer))}")
    for name, entry in layers.items():
        if entry["moves"] not in e2e or not entry["on"] or not set(entry["on"]) <= set(workloads):
            raise BenchError(f"layers.json entry for {name} names an unknown metric or workload")
    return workloads, e2e, per_layer


def fingerprint():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "--version"]),
        "loadavg": list(os.getloadavg()),
        "git_commit": out(["git", "rev-parse", "HEAD"]),
    }


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"cannot build the benchmark: {e}")
    if done.returncode != 0:
        raise BenchError("the benchmark package does not build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    return os.path.join(target, "release")


class Runner:
    """Runs benchmark processes, one at a time, under one deadline."""

    def __init__(self, bindir):
        self.bindir = bindir
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, binary, *args):
        """The JSON object a benchmark process printed last, or None if
        it failed, printed none or ran past the deadline."""
        cmd = [os.path.join(self.bindir, binary)] + [str(a) for a in args]
        left = self.deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            log(f"perfbench: {binary} {args[0]} ran past the deadline")
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            log(f"perfbench: {binary} {args[0]} exited with {done.returncode}")
            return None
        return json.loads(lines[-1])


def load_expected():
    """The stored outputs: {workload: {seed (a string): {out.*}}}."""
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read the expected outputs: {e}")


def write_expected(workloads):
    """Stores the outputs of every workload for EXPECTED_SEEDS, one
    process per half of the seed range so that two cores share the work."""
    bindir = build()
    half = (EXPECTED_SEEDS.start + EXPECTED_SEEDS.stop) // 2
    expected = {}
    for w in workloads:
        procs = [subprocess.Popen([os.path.join(bindir, "perfbench"), "expect",
                                   "--workload", w, "--from", str(lo), "--to", str(hi)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
                 for lo, hi in ((EXPECTED_SEEDS.start, half), (half, EXPECTED_SEEDS.stop))]
        outs = [p.communicate()[0] for p in procs]
        if any(p.returncode != 0 for p in procs):
            raise BenchError(f"cannot produce the expected outputs of {w}")
        expected[w] = {k: v for out in outs for k, v in json.loads(out.splitlines()[-1]).items()}
        log(f"perfbench: {len(expected[w])} seeds of {w} done")
    with open(EXPECTED, "w") as f:
        f.write("{\n")
        for i, (w, seeds) in enumerate(expected.items()):
            f.write(f"{json.dumps(w)}: {{\n")
            f.write(",\n".join(f"  {json.dumps(s)}: {json.dumps(o)}" for s, o in seeds.items()))
            f.write("\n}" + (",\n" if i + 1 < len(expected) else "\n"))
        f.write("}\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--write-expected", action="store_true",
                   help="store the outputs of every workload for seeds 0-99 and exit")
    a = p.parse_args()

    workloads, e2e, per_layer = load_config()
    if a.write_expected:
        return write_expected(workloads)
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.workload not in workloads:
        raise BenchError(f"unknown workload {a.workload!r}; known: {workloads}")
    expected = load_expected().get(a.workload, {})
    run = Runner(build())
    stamp = fingerprint()
    print(json.dumps({"fingerprint": stamp}), flush=True)
    w, seed = a.workload, a.seed
    attempted, failed = 0, 0
    problems = []

    def account(result, ops):
        nonlocal attempted, failed
        if result is None:
            attempted, failed = attempted + ops, failed + ops
            problems.append("a benchmark process failed")
            return {}
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        return result

    def expect_same(what, got, want):
        nonlocal failed
        if got is not None and got != want:
            failed += 1
            problems.append(f"{what}: {got} != {want}")

    check = account(run("perfbench", "selfcheck", "--seed", seed), 3)
    if check.get("why"):
        problems.append(check["why"])
    seconds = a.seconds if a.trace == 0 else a.seconds / 4
    timed = account(run("perfbench", "run", "--workload", w, "--seed", seed,
                        "--seconds", seconds), 1)
    outputs = timed.get("outputs")
    if w == "churn-multicast":
        expect_same("timed run vs self-check (interpreted)", outputs, check.get("interpreted"))
    if str(seed) in expected:
        expect_same("timed run vs perfbench/expected.json", outputs, expected[str(seed)])
    if not timed.get("run_s"):
        outputs = None
    rss_kb = [timed["rss_peak_kb"]] if outputs is not None else []
    for other in range(seed + 1, seed + int(timed.get("rss_seeds", 1))):
        peak = account(run("perfbench", "peak", "--workload", w, "--seed", other), 1)
        if str(other) in expected:
            expect_same(f"seed {other} run vs perfbench/expected.json",
                        peak.get("outputs"), expected[str(other)])
        rss_kb += [peak["rss_peak_kb"]] if peak else []

    metrics, samples = {}, {}
    if a.trace == 0 and outputs is not None:
        metrics["setup_s"] = statistics.median(timed["setup_s"])
        metrics["run_s"] = statistics.median(timed["run_s"])
        metrics["rss_peak_mb"] = statistics.median(rss_kb) / 1024
        samples = {"setup_s": len(timed["setup_s"]), "run_s": len(timed["run_s"]),
                   "rss_peak_mb": len(rss_kb)}
    elif a.trace == 1 and outputs is not None:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{w}-{seed}.json")
        traced = account(run("perfbench-traced", "--workload", w, "--seed", seed,
                             "--spans", spans, "--stamp", json.dumps(stamp)), 1)
        expect_same("traced vs untraced run", traced.get("outputs"), outputs)
        expect_same("traced generated vs interpreted run",
                    traced.get("generated_outputs"), outputs)
        micro = traced and run("perfbench", "micro", "--workload", w, "--seed", seed,
                               "--pending", int(traced["core.pending_peak"]))
        if micro:
            untraced_s = statistics.median(timed["run_s"])
            events = traced["core.events"]
            derived = {
                "core.us_per_event": untraced_s * 1e6 / events,
                "core.events_per_s": events / untraced_s,
                "mem.rss_kb_per_node": statistics.median(rss_kb) / timed["nodes"],
                "bench.trace_overhead": traced["traced_run_s"] / untraced_s - 1,
            }
            merged = {**traced, **micro, **derived}
            missing = [m for m in per_layer if m not in merged]
            if missing:
                raise BenchError(f"per-layer metrics not produced: {missing}")
            metrics = {m: merged[m] for m in per_layer}
            samples = {k[:-len(".samples")]: v for k, v in micro.items() if k.endswith(".samples")}
            log(f"perfbench: callback spans written to {os.path.relpath(spans, ROOT)}")
        elif traced:
            account(None, 1)

    if outputs is not None:
        print(json.dumps({"workload": w, "seed": seed, **outputs}), flush=True)
    units = {**{n: m["unit"] for n, m in e2e.items()},
             **{n: m["unit"] for n, m in per_layer.items()}}
    for name, value in metrics.items():
        n = f"  (median of {samples[name]:.0f})" if name in samples else ""
        print(f"{name:40} {value:>16.6g} {units[name]}{n}", flush=True)
    print(f"{'ops':40} {attempted:>16} count", flush=True)
    print(f"{'ops_failed':40} {failed:>16} count", flush=True)
    for why in problems:
        log(f"perfbench: FAILED: {why}")
    if failed == 0 and not metrics:
        raise BenchError("no metrics were produced")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
