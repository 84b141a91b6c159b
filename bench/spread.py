"""Run the benchmark repeatedly and report each metric's median and spread.

    python3 bench/spread.py --seeds 1-10 --seconds 30 [--workload NAME ...]

Runs ``run.py`` once per seed and workload, one run at a time, cycling
through the workloads seed by seed.  For every end-to-end metric it
prints the median, the first and third quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the
metric's bound in BENCHMARK.json, the failed share of operations, and
the same for the raw samples per second, before scaling to the nominal
machine speed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in names}
    shares = {w: set() for w in names}
    for seed in seed_list(args.seeds):
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            raw = re.search(r"median raw samples/s ([0-9.]+)", proc.stderr)
            values[w].setdefault("raw samples_per_s", []).append(float(raw.group(1)))
            if not result["correct"]:
                print(f"{w} seed {seed}: outputs NOT correct", file=sys.stderr)
            shares[w].add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for w in names:
        ratios = sorted({str(Fraction(f, a)) for f, a in shares[w]})
        print(f"\n{w}: failed share of attempted per run {ratios}")
        for m in spec["end_to_end"] + [{"name": "raw samples_per_s", "bound": "none"}]:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"  {m['name']:18s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {(q3 - q1) / med:.3f}  (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
