"""The benchmark's workloads, their seeds and the checks of every output.

An operation is one ``ultracalc`` CLI command.  Each check reads the
reports the command wrote and compares them with values and properties
computed here or in ``reference``, never with ultracalc's own verdict
flags.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

import reference

P = reference.P
PRECISION = 32
WORKLOADS = ("verify-exact", "verify-digits", "counterexamples")

# Acceptance sizes of criteria 1-7; the CLI's run_checks reads them as
# per-check case counts.
VERIFY_CASES = {
    "leibniz": 100,
    "scaling": 100,
    "symmetry": 100,
    "closed_form": 200,
    "closed_form_upsilon": 100,
    "restriction": 60,
    "sup_bound": 1000,
    "chain": 50,
}
# Identity samples each check must report at those sizes (2480 in all):
# leibniz 100 cases x orders 1-3; scaling 100 x 3 identities; symmetry
# 50 cases x 2! + 50 x 3! permutations; closed_form 200 + 100;
# restriction 60; rank 2 dimensions x 2 orders x 5 functions;
# sup_bound 20 polynomials x 50 points; chain 50 cases x 2 orders.
EXPECTED_SAMPLES = {
    "leibniz": 300,
    "scaling": 300,
    "symmetry": 400,
    "closed_form": 300,
    "restriction": 60,
    "rank": 20,
    "sup_bound": 1000,
    "chain": 100,
}
REFERENCE_CASES = 12

K_MAX = 10
FLATNESS_CURVES = 5
FLATNESS_SAMPLES = 20  # curve_flatness_check default: levels 2..6, 4 samples each
ZERO_SECTION = 100
PATCHWORK_DEPTH = 3
PATCHWORK_ROWS = PATCHWORK_DEPTH * 2 * 4  # pieces x orders 1, 2 x 4 samples
# `gallery patchwork` fails on 20 of seeds 0-199 at depth 3, through the
# quotient-bound fault in cli._gallery_patchwork.  Seed 6 is the first
# of them; every round runs it, so the fault shows in every run in the
# same share, whatever the benchmark seed.
PATCHWORK_FAULT_SEED = 6


def configs(workload: str, inject_fault: bool = False) -> dict:
    """Config file name -> config of every command the workload runs."""
    if workload in ("verify-exact", "verify-digits"):
        cfg = {
            "schema": 1,
            "suite": "verify",
            "prime": P,
            "backend": "exact",
            "seed": 0,
            "verify": {"cases": VERIFY_CASES, "inject_fault": inject_fault},
        }
        if workload == "verify-digits":
            cfg.update(backend="digits", precision=PRECISION)
        return {"verify.json": cfg}
    if workload == "counterexamples":
        return {
            "probe.json": {
                "schema": 1,
                "suite": "probe",
                "prime": P,
                "seed": 0,
                "function": {"gallery": "thm41", "params": {"m": 1}},
                "probe": {"order": 0, "center": [0, 0], "radius_exponent": 0, "samples": 4},
            },
            "thm41.json": {
                "schema": 1,
                "suite": "gallery",
                "prime": P,
                "gallery": {"name": "thm41", "k_max": K_MAX, "flatness_curves": FLATNESS_CURVES},
            },
            "patchwork.json": {
                "schema": 1,
                "suite": "gallery",
                "prime": P,
                "gallery": {"name": "patchwork", "depth": PATCHWORK_DEPTH},
            },
        }
    raise ValueError(f"unknown workload: {workload}")


@dataclass(frozen=True)
class Operation:
    name: str
    command: str
    config: str
    fixed_seed: int | None = None


OPERATIONS = {
    "verify-exact": (Operation("verify", "verify", "verify.json"),),
    "verify-digits": (Operation("verify", "verify", "verify.json"),),
    "counterexamples": (
        Operation("probe-thm41", "probe", "probe.json"),
        Operation("gallery-thm41", "gallery", "thm41.json"),
        Operation("gallery-patchwork", "gallery", "patchwork.json", PATCHWORK_FAULT_SEED),
    ),
}


def write_configs(work: Path, workload: str, inject_fault: bool = False) -> None:
    for name, cfg in configs(workload, inject_fault).items():
        (work / name).write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")


def round_seeds(workload: str, seed: int):
    """Endless stream of per-round seed lists, one seed per operation.

    String seeding hashes with SHA-512, so the stream depends on the
    workload name and the benchmark seed only, not on PYTHONHASHSEED.
    """
    rng = Random(f"ultracalc-bench/{workload}/{seed}")
    while True:
        yield [
            op.fixed_seed if op.fixed_seed is not None else rng.randrange(2**31)
            for op in OPERATIONS[workload]
        ]


@dataclass
class Outcome:
    """What the checks found in one operation's reports."""

    samples: int = 0
    problems: list = field(default_factory=list)
    known_fault: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.known_fault


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def scalar_value(data: dict) -> Fraction:
    """The rational a report's scalar JSON stands for (digits as written)."""
    if "num" in data:
        return Fraction(int(data["num"]), int(data["den"]))
    if data["val"] == "inf":
        return Fraction(0)
    p = data["p"]
    return sum(
        (Fraction(d) * Fraction(p) ** (data["val"] + i) for i, d in enumerate(data["digits"])),
        Fraction(0),
    )


def check_verify(out: Path, rc: int) -> Outcome:
    result = Outcome()
    if rc != 0:
        result.problems.append(f"verify exited {rc}")
    report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    checks = report["checks"]
    if set(checks) != set(EXPECTED_SAMPLES):
        result.problems.append(f"verify ran checks {sorted(checks)}")
    for name, expected in EXPECTED_SAMPLES.items():
        rep = checks.get(name)
        if rep is None:
            continue
        if rep["samples"] != expected or rep["failures"] or rep["indeterminate"]:
            result.problems.append(
                f"{name}: {rep['samples']} samples (want {expected}), "
                f"{len(rep['failures'])} failures, {rep['indeterminate']} indeterminate"
            )
        result.samples += rep["samples"]
    rows = {r[0]: r[1:4] for r in _csv_rows(out / "verify_report.csv")}
    for name, rep in checks.items():
        want = [str(rep["samples"]), str(len(rep["failures"])), str(rep["indeterminate"])]
        if rows.get(name) != want:
            result.problems.append(f"{name}: CSV row {rows.get(name)} differs from JSON {want}")
    note = report["differential_normalization"]
    raw = scalar_value(note["raw_extension"][0])
    scaled = scalar_value(note["factorial_scaled"][0])
    # x**3 at x = 2 in unit directions: f''(2) = 12 and 2! * f''(2) = 24.
    if (raw, scaled) != (12, 24):
        result.problems.append(f"differential note gives {raw} and {scaled}, not 12 and 24")
    return result


def check_probe(out: Path, rc: int) -> Outcome:
    result = Outcome()
    if rc != 0:
        result.problems.append(f"probe exited {rc}")
    report = json.loads((out / "probe_report.json").read_text(encoding="utf-8"))
    order0 = report["report"]["orders"][0]
    if order0["verdict"] == "ContinuousExtension":
        result.problems.append("thm41 order-0 verdict is ContinuousExtension")
    if not order0["witnesses"]:
        result.problems.append("thm41 order-0 verdict carries no witness")
    rows = _csv_rows(out / "probe_samples.csv")
    if not rows:
        result.problems.append("probe wrote no sample rows")
    result.samples = len(rows)
    return result


def check_thm41(out: Path, rc: int) -> Outcome:
    result = Outcome()
    if rc != 0:
        result.problems.append(f"gallery thm41 exited {rc}")
    report = json.loads((out / "gallery_report.json").read_text(encoding="utf-8"))
    witness = report["witness"]
    if [w["k"] for w in witness] != list(range(1, K_MAX + 1)):
        result.problems.append(f"witness rows k = {[w['k'] for w in witness]}")
    max_norms = []
    for w in witness:
        k = w["k"]
        x_norm, y_norm = Fraction(w["x_norm"]), Fraction(w["y_norm"])
        # y_k = p**k and x_k = h_1(y_k) = p**(k**2 + k) for m = 1.
        if Fraction(w["value_norm"]) != 1:
            result.problems.append(f"witness {k}: value_norm {w['value_norm']}")
        if y_norm != Fraction(1, P**k):
            result.problems.append(f"witness {k}: y_norm {w['y_norm']}")
        if x_norm != Fraction(1, P ** (k * k + k)):
            result.problems.append(f"witness {k}: x_norm {w['x_norm']}")
        max_norms.append(max(x_norm, y_norm))
    if any(b >= a for a, b in zip(max_norms, max_norms[1:])):
        result.problems.append("witness max_norm does not fall strictly")
    csv_rows = _csv_rows(out / "witness.csv")
    want = [[str(w["k"]), w["x_norm"], w["y_norm"], w["value_norm"]] for w in witness]
    if csv_rows != want:
        result.problems.append("witness.csv differs from the JSON witness rows")
    if report["zero_section"] != {"samples": ZERO_SECTION, "all_zero": True}:
        result.problems.append(f"zero section {report['zero_section']}")
    flatness = report["flatness"]
    if len(flatness) != FLATNESS_CURVES:
        result.problems.append(f"{len(flatness)} flatness curves")
    for i, rep in enumerate(flatness):
        if rep["samples"] != FLATNESS_SAMPLES or rep["failures"]:
            result.problems.append(
                f"flatness curve {i}: {rep['samples']} samples, {len(rep['failures'])} failures"
            )
    result.samples = (
        len(witness) + report["zero_section"]["samples"] + sum(r["samples"] for r in flatness)
    )
    return result


def check_patchwork(out: Path, rc: int) -> Outcome:
    result = Outcome()
    report = json.loads((out / "gallery_report.json").read_text(encoding="utf-8"))
    expected = reference.disjoint_pairs(PATCHWORK_DEPTH)
    if not all(expected.values()):
        result.problems.append("reference geometry has overlapping supports")
    got = {tuple(r["pieces"]): r["relation"] == "disjoint" for r in report["disjoint_supports"]}
    if got != expected:
        result.problems.append(f"support relations {got} differ from reference {expected}")
    rows = report["quotient_bounds"]
    if len(rows) != PATCHWORK_ROWS:
        result.problems.append(f"{len(rows)} quotient-bound rows, want {PATCHWORK_ROWS}")
    over = 0
    for r in rows:
        within = Fraction(r["measured"]) <= Fraction(r["ceiling"])
        if within != r["within"]:
            result.problems.append(f"row {r}: 'within' contradicts measured and ceiling")
        over += not within
    if len(_csv_rows(out / "patchwork_bounds.csv")) != len(rows):
        result.problems.append("patchwork_bounds.csv row count differs from the JSON")
    if rc == 1 and over and not result.problems:
        # The known fault: a correct curve reported over its ceiling.
        result.known_fault = True
    elif rc != 0 or over:
        result.problems.append(f"patchwork exited {rc} with {over} rows over the ceiling")
    result.samples = len(rows)
    return result


CHECKERS = {
    "verify": check_verify,
    "probe-thm41": check_probe,
    "gallery-thm41": check_thm41,
    "gallery-patchwork": check_patchwork,
}


def _digits_problem(got, expected: Fraction) -> str | None:
    """Compare a digit-backend scalar with the expansion of ``expected``.

    The scalar claims to know its value modulo p**abs_prec; every digit
    below that position must match the exact reference.
    """
    known = got.abs_prec
    vals = [0]
    if got.val is not None:
        vals.append(got.val)
    if expected != 0:
        vals.append(reference.valuation(expected))
    if known == math.inf:
        value = Fraction(0) if got.val is None else Fraction(got.unit_int()) * Fraction(P) ** got.val
        return None if value == expected else f"exact digits give {value}, want {expected}"
    start = min(vals + [known])
    want = reference.expansion(expected, start, known)
    have = []
    for n in range(start, known):
        i = n - got.val if got.val is not None else -1
        have.append(got.unit_digits[i] if 0 <= i < len(got.unit_digits) else 0)
    if have != want:
        return f"digits {have} at p**{start}..p**{known - 1}, want {want}"
    return None


def reference_problems(backend: str, seed: int, perturb: bool = False) -> list:
    """Compare engine.phi with the stdlib recursion on random polynomials.

    ``perturb`` shifts one reference value by 1, a negative control that
    must be reported.
    """
    from ultracalc.engine import PhiPoint, phi
    from ultracalc.field import FieldContext, Prime
    from ultracalc.functions import MultiPolynomial, Poly

    ctx = FieldContext(Prime(P), backend=backend, precision=PRECISION)
    rng = Random(seed)
    problems = []
    for case in range(REFERENCE_CASES):
        terms, x, vs, ts = reference.random_case(rng)
        expected = reference.partial_quotient(terms, x, vs, ts)
        if perturb and case == 0:
            expected += 1
        poly = MultiPolynomial(len(x), 1, {e: ctx.vector([c]) for e, c in terms.items()})
        pt = PhiPoint(
            ctx.vector(x), tuple(ctx.vector(v) for v in vs), tuple(ctx.scalar(t) for t in ts)
        )
        got = phi(Poly(poly), pt).scalar()
        if backend == "exact":
            problem = None if got.value == expected else f"phi gives {got.value}, want {expected}"
        else:
            problem = _digits_problem(got, expected)
        if problem:
            problems.append(f"reference case {case} (order {len(vs)}): {problem}")
    return problems
