"""One workload in a fresh interpreter: set-up, timed rounds and checks.

Started by ``run.py`` with the checkout as working directory.  It
imports ultracalc from ``src``, writes the workload's configs, prints
``ready`` and then runs whole rounds of the workload's operations, each
through ``ultracalc.cli.main`` in this process.  Only the commands are
timed; the checks of their reports run between them.  The last line of
standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import SpeedProbe  # noqa: E402

# One speed-probe pass (a few ms) every this many seconds of a timed command.
PROBE_INTERVAL_S = 0.05


class SpeedSampler:
    """Samples how fast the machine runs while the timed commands run.

    A real-time interval timer interrupts a command every ``interval``
    seconds; the handler runs one pass of a short ``SpeedProbe`` and
    records its duration.  The passes' time is taken out of the
    command's time.
    """

    def __init__(self, probe: SpeedProbe, interval: float):
        self.probe = probe
        self.interval = interval
        self.passes = []
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        self.passes.append(self.probe.run_once())

    def time(self, fn, *args):
        """Return fn(*args), its seconds without probe passes, and the passes."""
        first = len(self.passes)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        passes = self.passes[first:]
        return result, elapsed - sum(passes), passes


def _plain_time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, []


def run_round(
    workload, op_seeds, work, *, sampler=None, check_reference=True, perturb=False, keep=False
):
    """Run one round: every operation of the workload once, each checked.

    Returns the round's command seconds, samples, speed-probe passes,
    per-operation outcomes and, with ``keep``, the bytes of every report
    written.
    """
    import ultracalc.cli

    timer = sampler.time if sampler is not None else _plain_time
    result = {
        "op_s": 0.0, "samples": 0, "passes": [], "ops": [], "reports": {}, "report_bytes": 0
    }
    for i, (op, seed) in enumerate(zip(workloads.OPERATIONS[workload], op_seeds)):
        out = work / f"out-{i}"
        argv = [
            op.command,
            "--config", str(work / op.config),
            "--seed", str(seed),
            "--out", str(out),
            "--format", "both",
        ]
        rc, seconds, passes = timer(ultracalc.cli.main, argv)
        result["passes"] += passes
        try:
            outcome = workloads.CHECKERS[op.name](out, rc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            outcome = workloads.Outcome(problems=[f"reports unreadable: {exc!r}"])
        if op.command == "verify" and check_reference:
            backend = "exact" if workload == "verify-exact" else "digits"
            outcome.problems.extend(workloads.reference_problems(backend, seed, perturb))
        files = sorted(out.iterdir()) if out.is_dir() else []
        result["report_bytes"] += sum(f.stat().st_size for f in files)
        if keep:
            for f in files:
                result["reports"][f"{op.name}/{f.name}"] = f.read_bytes()
        shutil.rmtree(out, ignore_errors=True)
        result["op_s"] += seconds
        result["samples"] += outcome.samples
        result["ops"].append(
            {
                "name": op.name,
                "seed": seed,
                "seconds": seconds,
                "samples": outcome.samples,
                "failed": outcome.failed,
                "known_fault": outcome.known_fault,
                "problems": outcome.problems,
            }
        )
    return result


def summarize(rounds) -> dict:
    ops = [op for r in rounds for op in r["ops"]]
    problems = [f"{op['name']} seed {op['seed']}: {p}" for op in ops for p in op["problems"]]
    return {
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "known_faults": sum(op["known_fault"] for op in ops),
        "problems": problems[:20],
        "correct": not problems,
    }


def timed_run(args, work) -> dict:
    """Whole rounds until the next one would end after ``--seconds``.

    Each round is reported with its command seconds, its samples and the
    mean duration of the speed-probe passes made during its commands.
    """
    sampler = SpeedSampler(SpeedProbe(), PROBE_INTERVAL_S)
    seeds = workloads.round_seeds(args.workload, args.seed)
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while True:
        if args.rounds:
            if len(rounds) >= args.rounds:
                break
        elif rounds and time.perf_counter() - start + last > args.seconds:
            break
        began = time.perf_counter()
        rounds.append(
            run_round(
                args.workload,
                next(seeds),
                work,
                sampler=sampler,
                perturb=args.inject == "reference",
            )
        )
        last = time.perf_counter() - began
    out = summarize(rounds)
    out["rounds"] = [
        [r["op_s"], r["samples"], statistics.fmean(r["passes"]) if r["passes"] else None]
        for r in rounds
    ]
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def traced_run(args, work) -> dict:
    """One untraced round, then the same round twice under the tracer.

    The traced reports must equal the untraced ones byte for byte, and
    the two traced rounds must give the same counts.
    """
    from tracer import Tracer

    op_seeds = next(workloads.round_seeds(args.workload, args.seed))
    plain = run_round(args.workload, op_seeds, work, keep=True)
    tracer = Tracer()
    tracer.install()
    first = run_round(args.workload, op_seeds, work, check_reference=False, keep=True)
    metrics = tracer.metrics()
    counts = tracer.deterministic_counts()
    problems = list(tracer.problems)
    spans = work.parent / f"{args.workload}.spans.jsonl"
    tracer.write_spans(spans)
    tracer.reset()
    second = run_round(args.workload, op_seeds, work, check_reference=False)
    problems += tracer.problems
    if tracer.deterministic_counts() != counts:
        problems.append("two traced rounds with the same seeds gave different counts")
    if first["reports"] != plain["reports"]:
        differ = sorted(
            k for k in set(first["reports"]) | set(plain["reports"])
            if first["reports"].get(k) != plain["reports"].get(k)
        )
        problems.append(f"tracing changed the reports {differ}")
    out = summarize([plain, first, second])
    out["problems"] = (problems + out["problems"])[:20]
    out["correct"] = out["correct"] and not problems
    metrics["cli.report_bytes"] = first["report_bytes"]
    metrics["trace.overhead_pct"] = 100.0 * (first["op_s"] / plain["op_s"] - 1.0)
    out["metrics"] = metrics
    out["spans"] = len(tracer.spans)
    out["spans_file"] = str(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--rounds", type=int, default=0, help="fixed round count (self-test)")
    parser.add_argument(
        "--inject",
        choices=("none", "fault", "reference"),
        default="none",
        help="negative controls: verify's inject_fault, or a perturbed reference value",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import ultracalc.cli  # noqa: F401

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workloads.write_configs(work, args.workload, inject_fault=args.inject == "fault")
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = traced_run(args, work) if args.trace else timed_run(args, work)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
