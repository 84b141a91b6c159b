"""Batch front-end: verify | probe | gallery.

Runs are driven by a single JSON config file, checked against one
schema table before anything runs, produce deterministic JSON/CSV
reports (full config echo, library version, no timestamps), and exit 0
on success, 1 when a check did not pass, 2 on configuration errors.
Output files are written once, via atomic rename.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import fields
from fractions import Fraction
from random import Random

from . import __version__
from .errors import ConfigError, UltracalcError
from .field import Ball, FieldContext, PadicVector, Prime
from .functions import (
    build_gallery,
    check_section,
    expr_from_json,
    gallery_schema,
    polynomial_curve,
)
from .gallery import (
    build_counterexample,
    curve_flatness_check,
    discontinuity_witness,
    patchwork_curve,
)
from .probe import ProbeConfig, probe_smoothness
from .verify import ALL_CHECKS, CASE_DEFAULTS, random_integral_vector, run_checks

# The config schema: every key of every section, as ``key: (type,
# default, minimum)`` for ``functions.check_section``; a count is at
# least 1, and a list of checks names at least one (only an absent list
# means all of them).  A default that code elsewhere also uses is taken
# from there: the field context's, ProbeConfig's fields (the probe
# section spells the region as a center and a radius exponent and takes
# its seed from the run), verify's case counts and the gallery builders'
# parameters; thm41 adds the sizes of its checks.  A function given as a
# gallery item names it and its parameters.
SCHEMA = {
    "config": {
        "schema": (int, 1, None),
        "suite": (str, None, None),
        "prime": (int, 5, None),
        "precision": (int, FieldContext.precision, 1),
        "backend": (str, FieldContext.backend, None),
        "seed": (int, 0, None),
        "verify": (dict, {}, None),
        "probe": (dict, None, None),
        "gallery": (dict, None, None),
        "function": (dict, None, None),
    },
    "verify": {
        "checks": (list, None, 1),
        "cases": (dict, {}, None),
        "inject_fault": (bool, False, None),
    },
    "verify.cases": {key: (int, n, 1) for key, n in CASE_DEFAULTS.items()},
    "probe": {
        **{
            knob.name: (type(knob.default), knob.default, None)
            for knob in fields(ProbeConfig)
            if knob.name not in ("region", "seed")
        },
        "center": (list, None, None),
        "radius_exponent": (int, 0, None),
    },
    "gallery.thm41": {
        "name": (str, None, None),
        **gallery_schema("thm41"),
        "k_max": (int, 10, 1),
        "flatness_curves": (int, 5, 1),
    },
    "gallery.patchwork": {"name": (str, None, None), **gallery_schema("patchwork")},
    "function": {"gallery": (str, None, None), "params": (dict, {}, None)},
}


def load_config(path: str) -> tuple[dict, dict]:
    """The config as read, and its settings: every section checked
    against ``SCHEMA``, every default filled in."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    settings = check_section(cfg, SCHEMA["config"], "config")
    if settings["schema"] != 1:
        raise ConfigError(f"unsupported schema version: {settings['schema']}")
    verify = settings["verify"] = check_section(settings["verify"], SCHEMA["verify"], "verify")
    verify["cases"] = check_section(verify["cases"], SCHEMA["verify.cases"], "verify.cases")
    unknown = [c for c in verify["checks"] or () if c not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}")
    if settings["probe"] is not None:
        settings["probe"] = check_section(settings["probe"], SCHEMA["probe"], "probe")
    gallery = settings["gallery"]
    if gallery is not None:
        item = f"gallery.{gallery.get('name')}"
        if item not in SCHEMA:
            raise ConfigError(f"unknown gallery item: {gallery.get('name')!r}")
        settings["gallery"] = check_section(gallery, SCHEMA[item], "gallery")
    return cfg, settings


def _build(command: str, settings: dict, seed: int):
    """The run's field context and the object its command works on.

    Every object made from config values is made here, and here only a
    ValueError, TypeError, KeyError or ArithmeticError means a bad value
    in the config: elsewhere it is a fault of the program.
    """
    if settings[command] is None:
        raise ConfigError(f"{command} runs need a '{command}' section")
    try:
        ctx = FieldContext(
            Prime(settings["prime"]),
            backend=settings["backend"],
            precision=settings["precision"],
        )
        if command == "probe":
            return ctx, _probe_job(ctx, settings, seed)
        if command == "gallery":
            return ctx, _gallery_item(ctx, settings["gallery"])
        return ctx, None
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise ConfigError(f"{command}: {type(exc).__name__}: {exc}") from exc


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _dump_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# A run returns its report body, the name of its CSV file, and that
# file's header and rows.
def _write_reports(out_dir: str, fmt: str, payload: dict, csv_name: str, header, rows) -> None:
    if fmt in ("json", "both"):
        name = f"{payload['suite']}_report.json"
        _atomic_write(os.path.join(out_dir, name), _dump_json(payload))
    if fmt in ("csv", "both"):
        _atomic_write(os.path.join(out_dir, csv_name), _dump_csv(header, rows))


# -- verify ----------------------------------------------------------------------


def run_verify(section: dict, ctx: FieldContext, seed: int):
    reports = run_checks(
        ctx,
        seed,
        checks=section["checks"],
        sizes=section["cases"],
        inject_fault=section["inject_fault"],
    )
    body = {
        "suite": "verify",
        "checks": {name: rep.to_json() for name, rep in reports.items()},
        "differential_normalization": _differential_note(ctx),
        "failures": sum(len(rep.failures) for rep in reports.values()),
        "indeterminate": sum(rep.indeterminate for rep in reports.values()),
        "passed": all(rep.passed for rep in reports.values()),
    }
    header = ("check", "samples", "failures", "indeterminate", "passed")
    rows = [
        (name, rep.samples, len(rep.failures), rep.indeterminate, rep.passed)
        for name, rep in sorted(reports.items())
    ]
    return body, "verify_report.csv", header, rows


def _differential_note(ctx: FieldContext) -> dict:
    """Both normalizations of the zero-increment differential, side by side.

    The raw order-2 extension of x**3 at x = 2 in unit directions is
    6*x = 12; the factorial-scaled convention doubles it.  Reports carry
    both so downstream users can pick a convention knowingly.
    """
    from .engine import differential
    from .functions import MultiPolynomial

    cube = MultiPolynomial.univariate(
        [ctx.zero_vector(1)] * 3 + [ctx.vector([1])]
    )
    out = differential(cube, ctx.scalar(2), [ctx.one(), ctx.one()])
    return {
        "example": "order-2 differential of x**3 at x=2, unit directions",
        "raw_extension": out["raw"].to_json(),
        "factorial_scaled": out["factorial_scaled"].to_json(),
        "note": (
            "the factorial-scaled convention differs from the raw "
            "zero-increment extension by n!; both are reported"
        ),
    }


# -- probe -----------------------------------------------------------------------


def _resolve_function(spec: dict | None, ctx: FieldContext):
    if spec is None:
        raise ConfigError("probe runs need a 'function' entry")
    if "gallery" in spec:
        item = check_section(spec, SCHEMA["function"], "function")
        return build_gallery(item["gallery"], ctx, **item["params"]), item["gallery"]
    return expr_from_json(ctx, spec), spec.get("kind", "expr")


def _probe_job(ctx: FieldContext, settings: dict, seed: int):
    """The function to probe, its ProbeConfig and the points to focus on."""
    f, name = _resolve_function(settings["function"], ctx)
    knobs = dict(settings["probe"])
    center = knobs.pop("center")
    if center is None:
        center = [0] * f.input_dim
    # Exact numbers only: a float or a bool would be read as a rational.
    if any(type(c) not in (int, str) for c in center):
        raise ConfigError(f"probe.center takes ints and rational strings, got {center!r}")
    if len(center) != f.input_dim:
        raise ConfigError(f"probe.center must be a list of {f.input_dim} numbers")
    region = Ball(ctx.vector([Fraction(c) for c in center]), knobs.pop("radius_exponent"))
    pc = ProbeConfig(region=region, seed=seed, **knobs)
    focus = None
    if name == "thm41":
        # The witness points (h(pi**k), pi**k); the probe evaluates them.
        cf = build_counterexample(ctx, f.params["m"])
        ys = [ctx.pi_pow(k) for k in range(1, pc.j1 - pc.j0 + 2)]
        focus = [PadicVector([*cf.h_vector(y).entries, y]) for y in ys]
    return f, pc, focus


def run_probe(ctx: FieldContext, job):
    f, pc, focus = job
    report = probe_smoothness(f, pc, focus=focus)
    body = {"suite": "probe", "report": report.to_json(ctx.p)}
    header = ("sample", "order", "stage", "pass_kind", "valuation", "norm")
    return body, "probe_samples.csv", header, report.csv_rows()


# -- gallery ---------------------------------------------------------------------


def _flatness_curves(ctx: FieldContext, m: int, count: int, seed: int):
    rng = Random(seed)
    curves = []
    for _ in range(count):
        zero = ctx.zero_vector(m + 1)
        linear = random_integral_vector(ctx, rng, m + 1)
        quadratic = random_integral_vector(ctx, rng, m + 1)
        curves.append(polynomial_curve([zero, linear, quadratic]))
    return curves


def _gallery_item(ctx: FieldContext, section: dict):
    if section["name"] == "thm41":
        return build_counterexample(ctx, section["m"])
    return patchwork_curve(ctx, section["depth"], target_dim=section["target_dim"])


def _gallery_thm41(ctx, section, cf, seed):
    m = section["m"]
    witness = discontinuity_witness(cf, section["k_max"])
    rows = [
        (w["k"], str(w["x_norm"]), str(w["y_norm"]), str(w["value_norm"]))
        for w in witness
    ]
    rng = Random(seed)
    zero_checks = 0
    for _ in range(100):
        x = random_integral_vector(ctx, rng, m)
        if cf.evaluate(x, ctx.zero()).is_zero():
            zero_checks += 1
    flatness = [
        curve_flatness_check(cf, u, seed=seed + i)
        for i, u in enumerate(_flatness_curves(ctx, m, section["flatness_curves"], seed))
    ]
    body = {
        "suite": "gallery",
        "item": "thm41",
        "witness": [dict(zip(("k", "x_norm", "y_norm", "value_norm"), row)) for row in rows],
        "zero_section": {"samples": 100, "all_zero": zero_checks == 100},
        "flatness": flatness,
        "passed": (
            all(w["value_norm"] == Fraction(1) for w in witness)
            and zero_checks == 100
            and all(rep["passed"] for rep in flatness)
        ),
    }
    return body, "witness.csv", ("k", "x_norm", "y_norm", "f_norm"), rows


def _gallery_patchwork(ctx, pw, seed):
    from .engine import UpsilonPoint, upsilon
    from .verify import (
        random_increment,
        random_nonneg_unit_bounded,
        random_unit_bounded,
    )

    depth = pw.depth
    relations = []
    for a in range(depth):
        for b in range(a + 1, depth):
            ball_a = Ball(
                PadicVector([pw.centers[a]]), pw.support_radius_exponent(a)
            )
            ball_b = Ball(
                PadicVector([pw.centers[b]]), pw.support_radius_exponent(b)
            )
            relations.append(
                {"pieces": [a + 1, b + 1], "relation": ball_a.relation(ball_b)}
            )
    rng = Random(seed)
    expr = pw.as_curve().expr
    bound_rows = []
    violations = 0
    for j in range(depth):
        for q in (1, 2):
            for _ in range(4):
                base_ball = Ball(
                    PadicVector([pw.centers[j]]), pw.support_radius_exponent(j)
                )
                x = ctx.sample_ball(base_ball, rng)

                def build(order, displacement):
                    if order == 0:
                        if displacement:
                            return UpsilonPoint.leaf(
                                PadicVector([random_unit_bounded(ctx, rng, False)])
                            )
                        return UpsilonPoint.leaf(x)
                    t = (
                        random_nonneg_unit_bounded(ctx, rng, False)
                        if displacement
                        else random_increment(ctx, rng, 0, 2)
                    )
                    return UpsilonPoint.node(
                        build(order - 1, displacement), build(order - 1, True), t
                    )

                pt = build(q, False)
                measured = upsilon(expr, pt).norm()
                ceiling = pw.quotient_bound_rhs(j, q, Fraction(1))
                bound_rows.append(
                    (j + 1, q, str(measured), str(ceiling), measured <= ceiling)
                )
                if measured > ceiling:
                    violations += 1
    header = ("piece", "order", "measured", "ceiling", "within")
    body = {
        "suite": "gallery",
        "item": "patchwork",
        "disjoint_supports": relations,
        "quotient_bounds": [dict(zip(header, row)) for row in bound_rows],
        "passed": all(r["relation"] == "disjoint" for r in relations) and violations == 0,
    }
    return body, "patchwork_bounds.csv", header, bound_rows


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultracalc",
        description="batch verification, smoothness probes and gallery runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "probe", "gallery"):
        s = sub.add_parser(name)
        s.add_argument("--config", required=True, help="path to a JSON config")
        s.add_argument("--seed", type=int, default=None, help="override config seed")
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument(
            "--format", choices=("json", "csv", "both"), default="both"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, settings = load_config(args.config)
        suite = settings["suite"]
        if suite is not None and suite != args.command:
            raise ConfigError(
                f"config declares suite '{suite}' but the command is "
                f"'{args.command}'"
            )
        seed = args.seed if args.seed is not None else settings["seed"]
        ctx, built = _build(args.command, settings, seed)
        if args.command == "verify":
            report = run_verify(settings["verify"], ctx, seed)
        elif args.command == "probe":
            report = run_probe(ctx, built)
        elif settings["gallery"]["name"] == "thm41":
            report = _gallery_thm41(ctx, settings["gallery"], built, seed)
        else:
            report = _gallery_patchwork(ctx, built, seed)
        body, csv_name, header, rows = report
        payload = {"config": cfg, "version": __version__, **body}
        _write_reports(args.out, args.format, payload, csv_name, header, rows)
        # A probe report holds evidence, not a verdict to pass or fail.
        return 0 if body.get("passed", True) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UltracalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
