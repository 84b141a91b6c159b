"""Benchmark of the ultracalc CLI on three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Every workload runs single-threaded in its own fresh interpreter with
PYTHONHASHSEED=0 (``worker.py``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_PASS_S, SpeedProbe  # noqa: E402

SETUP_SPAWNS = 7
IMPORT_SPAWNS = 5
WORKER_GRACE_S = 100
TRACE_TIMEOUT_S = 170


def child_env() -> dict:
    return {**os.environ, "PYTHONHASHSEED": "0"}


def worker_cmd(workload, seed, work, *extra) -> list:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--work", str(work),
        *extra,
    ]


def spawn(cmd, timeout):
    """Run a worker; return (seconds until it printed 'ready', its last line)."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {first.strip()}")
    lines = rest.strip().splitlines()
    return ready, (lines[-1] if lines else "")


def setup_seconds(workload, seed, work) -> float:
    """Median time from a fresh interpreter to the first operation ready.

    Each start is scaled to the nominal machine speed by the speed-probe
    passes made just before and after it.  One unmeasured start first
    compiles ultracalc's bytecode, which a user pays once per install.
    """
    cmd = worker_cmd(workload, seed, work, "--setup-only")
    spawn(cmd, WORKER_GRACE_S)
    probe = SpeedProbe()

    def probe_s():
        return statistics.median(probe.run_once() for _ in range(3))

    before = probe_s()
    scaled = []
    for _ in range(SETUP_SPAWNS):
        seconds = spawn(cmd, WORKER_GRACE_S)[0]
        after = probe_s()
        scaled.append(seconds * NOMINAL_PASS_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled)


def import_micros() -> dict:
    """Median self import time of each layer module, from -X importtime."""
    code = "import ultracalc.cli"
    env = child_env()
    env["PYTHONPATH"] = "src"
    samples = {layer: [] for layer in tracer.LAYERS}
    for _ in range(IMPORT_SPAWNS + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, env=env, timeout=WORKER_GRACE_S, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+ultracalc\.(\w+)$", line)
            if m:
                seen[m.group(2)] = int(m.group(1))
        for layer in tracer.LAYERS:
            samples[layer].append(seen[layer])
    # The first spawn may compile bytecode; it is left out.
    return {f"{k}.import_us": statistics.median(v[1:]) for k, v in samples.items()}


def run(args) -> dict:
    work = Path(".bench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            imports = import_micros()
            cmd = worker_cmd(args.workload, args.seed, work, "--trace", "1")
            _, line = spawn(cmd, TRACE_TIMEOUT_S)
            result = json.loads(line)
            values = {**result["metrics"], **imports}
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
            metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
        else:
            setup = setup_seconds(args.workload, args.seed, work)
            cmd = worker_cmd(args.workload, args.seed, work, "--seconds", str(args.seconds))
            _, line = spawn(cmd, args.seconds + WORKER_GRACE_S)
            result = json.loads(line)
            rounds = result["rounds"]
            every_pass = statistics.median(r[2] for r in rounds if r[2] is not None)
            rates = [
                samples / op_s * (probe_s or every_pass) / NOMINAL_PASS_S
                for op_s, samples, probe_s in rounds
            ]
            print(
                f"{args.workload} seed {args.seed}: {len(rounds)} rounds, median raw samples/s "
                f"{statistics.median(samples / op_s for op_s, samples, _ in rounds):.1f}, "
                f"median probe pass {every_pass * 1e3:.3f} ms",
                file=sys.stderr,
            )
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "samples_per_s": {"value": statistics.median(rates), "unit": "1/s"},
                "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def selftest() -> int:
    """One round per workload with all checks on, then the negative controls."""
    ok = True
    cases = [(w, "none") for w in workloads.WORKLOADS]
    cases += [("verify-exact", "fault"), ("verify-exact", "reference"), ("verify-digits", "reference")]
    for workload, inject in cases:
        work = Path(".bench_work") / f"selftest-{workload}-{inject}-{os.getpid()}"
        try:
            cmd = worker_cmd(workload, 0, work, "--rounds", "1", "--inject", inject)
            result = json.loads(spawn(cmd, 2 * WORKER_GRACE_S)[1])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        known = result["known_faults"]
        if inject == "none":
            passed = result["correct"] and result["failed"] == known
            passed = passed and known == (workload == "counterexamples")
        else:
            # A negative control passes when its operation is reported failed.
            passed = not result["correct"] and result["failed"] == 1
        ok = ok and passed
        print(
            f"{'ok  ' if passed else 'FAIL'} {workload} inject={inject}: "
            f"attempted {result['attempted']}, failed {result['failed']}, "
            f"problems {result['problems'][:2]}"
        )
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    if [m["name"] for m in declared] != [name for name, _, _ in tracer.PER_LAYER]:
        ok = False
        print("FAIL BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (Path("src") / "ultracalc" / "cli.py").is_file():
        print("run.py: src/ultracalc not found; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
