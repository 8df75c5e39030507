#!/usr/bin/env python3
"""Benchmark entry point: netlist-to-verdict wall time, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe with dune, then
runs cold iterations of the workload, each in its own process, until S
seconds have passed. The first iteration also verifies the verdicts
against reference engines, outside its timed window. Every
iteration of a run must report identical verdict counts, and for a seed
listed in perfbench/expected.json they must equal the pinned counts.

--trace 0 reports the end-to-end metrics (medians over the iterations);
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics (medians over the traced ones) plus the tracing
overhead. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record (every iteration, host metadata) is written to
perfbench/out/results/. Exit status: 0 when every check passed, 1 when a
check failed, 2 when the benchmark could not be built or run.

    python3 perfbench/run.py --write-expected --seed N [--workload NAME]

re-pins the verdict counts of every (or one) workload for seed N.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")
OUT = os.path.join(HERE, "out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

WORKLOADS = ["inject-seu-avr", "inject-models-avr", "prune-msp-norf", "dist-seu-avr"]

# Setups measured per run at least: setup-only processes top up the
# iterations when the run allows only a few of them.
MIN_SETUPS = 3
# A run must end within 180 s of its start, build excluded.
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=840,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        log(proc.stdout)
        fail("build failed")


def iterate(workload, seed, deadline, trace=False, check=False, setup_only=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--out-dir", OUT]
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s iteration did not finish before the run deadline" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr)
        fail("%s iteration exited %d" % (workload, proc.returncode))
    it = json.loads(lines[-1])
    if proc.returncode == 1 and all(c["ok"] for c in it["checks"]):
        fail("%s iteration exited 1 without a failed check" % workload)
    return it


def median(values):
    return statistics.median(values) if values else 0.0


def source_digest():
    """Digest of the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def host_metadata(ocaml):
    return {
        "nproc": os.cpu_count(),
        "ocaml": ocaml,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "loadavg_start": os.getloadavg(),
    }


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def verify(workload, seed, iterations):
    """Cross-iteration checks: the reported checks passed, every
    iteration gave the same verdicts, and pinned counts match."""
    problems = []
    for it in iterations:
        for c in it["checks"]:
            if not c["ok"]:
                problems.append("%s: %s" % (c["name"], c["detail"]))
    full = [it for it in iterations if not it.get("setup_only")]
    first = full[0]["verdicts"]
    if any(it["verdicts"] != first for it in full):
        problems.append("verdict counts differ between iterations of one run")
    pinned = load_json(EXPECTED).get(workload, {}).get(str(seed))
    if pinned is not None and pinned != first:
        problems.append("verdicts %s differ from the pinned %s" % (first, pinned))
    return problems


def run(args):
    bench = load_json(BENCH_JSON)
    build()
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    iterations = []
    while True:
        traced = args.trace == 1 and len(iterations) % 2 == 1
        iterations.append(iterate(args.workload, args.seed, deadline, trace=traced,
                                  check=not iterations))
        # The checks run outside the measuring window.
        measured = time.monotonic() - start - sum(it["check_s"] for it in iterations)
        if measured >= args.seconds and (args.trace == 0 or len(iterations) >= 2):
            break
    setups = [it["setup_s"] for it in iterations]
    while len(setups) < MIN_SETUPS:
        it = iterate(args.workload, args.seed, deadline, setup_only=True)
        it["setup_only"] = True
        iterations.append(it)
        setups.append(it["setup_s"])
    full = [it for it in iterations if not it.get("setup_only")]
    plain = [it for it in full if not it["traced"]]
    traced = [it for it in full if it["traced"]]

    problems = verify(args.workload, args.seed, iterations)
    correct = not problems
    for p in problems:
        log("perfbench: check failed: " + p)

    if args.trace == 0:
        metrics = {
            "wall_s": median([it["wall_s"] for it in plain]),
            "faults_per_s": median([it["faults_per_s"] for it in plain]),
            "setup_s": median(setups),
            "peak_heap_mb": median([it["peak_heap_mb"] for it in plain]),
        }
        specs = bench["end_to_end"]
    else:
        metrics = {}
        for spec in bench["per_layer"]:
            name = spec["name"]
            metrics[name] = median([it["layers"].get(name, 0.0) for it in traced])
        base = median([it["wall_s"] for it in plain])
        metrics["trace_overhead_pct"] = (
            100.0 * (median([it["wall_s"] for it in traced]) - base) / base
        )
        specs = bench["per_layer"]
    metrics = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}

    attempted = sum(it["attempted"] for it in full)
    failed = sum(it["failed"] for it in full)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(full[0].get("ocaml")),
        "elapsed_s": time.monotonic() - start,
        "problems": problems,
        "result": result,
        "iterations": iterations,
    }
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d-%s.json" % (
        args.workload, args.seed, args.trace, time.strftime("%Y%m%dT%H%M%S"))
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    log("perfbench: %s seed %d: %d iterations in %.1fs, load %.2f"
        % (args.workload, args.seed, len(iterations), record["elapsed_s"],
           record["host"]["loadavg_start"][0]))
    print(json.dumps(result))
    return 0 if correct else 1


def write_expected(args):
    build()
    os.makedirs(OUT, exist_ok=True)
    pinned = load_json(EXPECTED) if os.path.exists(EXPECTED) else {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        it = iterate(workload, args.seed, time.monotonic() + RUN_DEADLINE_S, check=True)
        problems = ["%s: %s" % (c["name"], c["detail"]) for c in it["checks"] if not c["ok"]]
        if problems:
            fail("%s: %s" % (workload, "; ".join(problems)), code=1)
        pinned.setdefault(workload, {})[str(args.seed)] = it["verdicts"]
        log("pinned %s seed %d: %s" % (workload, args.seed, it["verdicts"]))
    with open(EXPECTED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=14)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    if not os.path.exists(os.path.join(ROOT, "lib")):
        fail("run from a checkout of the repository (lib/ is missing)")
    if args.write_expected:
        return write_expected(args)
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
