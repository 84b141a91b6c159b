"""Batch front-end: verify | probe | gallery.

Runs are driven by a single JSON config file with strict key
validation, produce deterministic JSON/CSV reports (full config echo,
library version, no timestamps), and exit 0 on success, 1 on identity
failure, 2 on configuration errors.  Output files are written once,
via atomic rename.
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
from .functions import build_gallery, expr_from_json, polynomial_curve
from .gallery import (
    build_counterexample,
    curve_flatness_check,
    discontinuity_witness,
    patchwork_curve,
)
from .probe import ProbeConfig, probe_smoothness
from .verify import ALL_CHECKS, random_integral_vector, run_checks

_TOP_KEYS = {
    "schema",
    "suite",
    "prime",
    "precision",
    "backend",
    "seed",
    "verify",
    "probe",
    "gallery",
    "function",
}
_VERIFY_KEYS = {"checks", "cases", "inject_fault"}
# The probe section spells the region as a center and a radius exponent
# and takes its seed from the run; every other ProbeConfig field is a
# key of the same name, type and default.
_PROBE_DEFAULTS = {
    knob.name: knob.default
    for knob in fields(ProbeConfig)
    if knob.name not in ("region", "seed")
}
_PROBE_KEYS = set(_PROBE_DEFAULTS) | {"center", "radius_exponent"}
_GALLERY_KEYS = {"name", "k_max", "m", "flatness_curves", "depth", "target_dim"}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("schema", 1) != 1:
        raise ConfigError(f"unsupported schema version: {cfg.get('schema')}")
    if "verify" in cfg:
        _require_keys(cfg["verify"], _VERIFY_KEYS, "verify")
    if "probe" in cfg:
        _require_keys(cfg["probe"], _PROBE_KEYS, "probe")
    if "gallery" in cfg:
        _require_keys(cfg["gallery"], _GALLERY_KEYS, "gallery")
    backend = cfg.get("backend", "exact")
    if backend not in ("exact", "digits"):
        raise ConfigError(f"unknown backend: {backend}")
    return cfg


def context_from(cfg: dict) -> FieldContext:
    try:
        prime = Prime(int(cfg.get("prime", 5)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return FieldContext(
        prime, backend=cfg.get("backend", "exact"), precision=int(cfg.get("precision", 32))
    )


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


def _base_payload(cfg: dict) -> dict:
    return {"config": cfg, "version": __version__}


# -- verify ----------------------------------------------------------------------


def run_verify(cfg: dict, out_dir: str, fmt: str, seed: int) -> int:
    ctx = context_from(cfg)
    section = cfg.get("verify", {})
    checks = section.get("checks")
    if checks is not None:
        unknown = [c for c in checks if c not in ALL_CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
    sizes = section.get("cases", {})
    if not isinstance(sizes, dict):
        raise ConfigError("verify.cases must map check names to sizes")
    inject = bool(section.get("inject_fault", False))
    reports = run_checks(ctx, seed, checks=checks, sizes=sizes, inject_fault=inject)
    payload = _base_payload(cfg)
    payload["suite"] = "verify"
    payload["checks"] = {name: rep.to_json() for name, rep in reports.items()}
    payload["differential_normalization"] = _differential_note(ctx)
    failures = sum(len(rep.failures) for rep in reports.values())
    indeterminate = sum(rep.indeterminate for rep in reports.values())
    payload["failures"] = failures
    payload["indeterminate"] = indeterminate
    payload["passed"] = failures == 0
    if fmt in ("json", "both"):
        _atomic_write(os.path.join(out_dir, "verify_report.json"), _dump_json(payload))
    if fmt in ("csv", "both"):
        rows = [
            (name, rep.samples, len(rep.failures), rep.indeterminate, rep.passed)
            for name, rep in sorted(reports.items())
        ]
        _atomic_write(
            os.path.join(out_dir, "verify_report.csv"),
            _dump_csv(("check", "samples", "failures", "indeterminate", "passed"), rows),
        )
    return 0 if failures == 0 else 1


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


def _resolve_function(cfg: dict, ctx: FieldContext):
    spec = cfg.get("function")
    if spec is None:
        raise ConfigError("probe runs need a 'function' entry")
    if "gallery" in spec:
        extra = set(spec) - {"gallery", "params"}
        if extra:
            raise ConfigError(f"unknown keys in function: {sorted(extra)}")
        name = spec["gallery"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("function.params must be an object")
        return build_gallery(name, ctx, **params), name
    return expr_from_json(ctx, spec), spec.get("kind", "expr")


def _probe_config(section: dict, ctx: FieldContext, dim: int, seed: int) -> ProbeConfig:
    """The section's ProbeConfig; every key has the type of its default."""
    for key, default in {**_PROBE_DEFAULTS, "radius_exponent": 0}.items():
        if key in section and type(section[key]) is not type(default):
            want = type(default).__name__
            raise ConfigError(f"probe.{key} must be {want}, got {section[key]!r}")
    center = section.get("center", [0] * dim)
    if not isinstance(center, list) or len(center) != dim:
        raise ConfigError(f"probe.center must be a list of {dim} numbers")
    knobs = {key: section[key] for key in _PROBE_DEFAULTS if key in section}
    try:
        region = Ball(
            ctx.vector([Fraction(c) for c in center]), section.get("radius_exponent", 0)
        )
        return ProbeConfig(region=region, seed=seed, **knobs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"probe: {exc}") from exc


def run_probe(cfg: dict, out_dir: str, fmt: str, seed: int) -> int:
    ctx = context_from(cfg)
    section = cfg.get("probe")
    if section is None:
        raise ConfigError("probe runs need a 'probe' section")
    f, name = _resolve_function(cfg, ctx)
    pc = _probe_config(section, ctx, f.input_dim, seed)
    focus = None
    if name == "thm41":
        # The witness points (h(pi**k), pi**k); the probe evaluates them.
        cf = build_counterexample(ctx, f.params["m"])
        ys = [ctx.pi_pow(k) for k in range(1, pc.j1 - pc.j0 + 2)]
        focus = [PadicVector([*cf.h_vector(y).entries, y]) for y in ys]
    report = probe_smoothness(f, pc, focus=focus)
    payload = _base_payload(cfg)
    payload["suite"] = "probe"
    payload["report"] = report.to_json(ctx.p)
    if fmt in ("json", "both"):
        _atomic_write(os.path.join(out_dir, "probe_report.json"), _dump_json(payload))
    if fmt in ("csv", "both"):
        _atomic_write(
            os.path.join(out_dir, "probe_samples.csv"),
            _dump_csv(
                ("sample", "order", "stage", "pass_kind", "valuation", "norm"),
                report.csv_rows(),
            ),
        )
    return 0


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


def run_gallery(cfg: dict, out_dir: str, fmt: str, seed: int) -> int:
    ctx = context_from(cfg)
    section = cfg.get("gallery")
    if section is None:
        raise ConfigError("gallery runs need a 'gallery' section")
    name = section.get("name")
    if name == "thm41":
        return _gallery_thm41(cfg, ctx, section, out_dir, fmt, seed)
    if name == "patchwork":
        return _gallery_patchwork(cfg, ctx, section, out_dir, fmt, seed)
    raise ConfigError(f"unknown gallery item: {name}")


def _gallery_thm41(cfg, ctx, section, out_dir, fmt, seed) -> int:
    m = int(section.get("m", 1))
    k_max = int(section.get("k_max", 10))
    n_curves = int(section.get("flatness_curves", 5))
    cf = build_counterexample(ctx, m)
    witness = discontinuity_witness(cf, k_max)
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
        for i, u in enumerate(_flatness_curves(ctx, m, n_curves, seed))
    ]
    payload = _base_payload(cfg)
    payload["suite"] = "gallery"
    payload["item"] = "thm41"
    payload["witness"] = [
        {
            "k": w["k"],
            "x_norm": str(w["x_norm"]),
            "y_norm": str(w["y_norm"]),
            "value_norm": str(w["value_norm"]),
        }
        for w in witness
    ]
    payload["zero_section"] = {"samples": 100, "all_zero": zero_checks == 100}
    payload["flatness"] = flatness
    payload["passed"] = (
        all(w["value_norm"] == Fraction(1) for w in witness)
        and zero_checks == 100
        and all(rep["passed"] for rep in flatness)
    )
    if fmt in ("json", "both"):
        _atomic_write(os.path.join(out_dir, "gallery_report.json"), _dump_json(payload))
    if fmt in ("csv", "both"):
        _atomic_write(
            os.path.join(out_dir, "witness.csv"),
            _dump_csv(("k", "x_norm", "y_norm", "f_norm"), rows),
        )
    return 0 if payload["passed"] else 1


def _gallery_patchwork(cfg, ctx, section, out_dir, fmt, seed) -> int:
    from .engine import UpsilonPoint, upsilon
    from .verify import (
        random_increment,
        random_nonneg_unit_bounded,
        random_unit_bounded,
    )

    depth = int(section.get("depth", 3))
    target_dim = int(section.get("target_dim", 2))
    pw = patchwork_curve(ctx, depth, target_dim=target_dim)
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
    payload = _base_payload(cfg)
    payload["suite"] = "gallery"
    payload["item"] = "patchwork"
    payload["disjoint_supports"] = relations
    payload["quotient_bounds"] = [
        {
            "piece": r[0],
            "order": r[1],
            "measured": r[2],
            "ceiling": r[3],
            "within": r[4],
        }
        for r in bound_rows
    ]
    payload["passed"] = (
        all(r["relation"] == "disjoint" for r in relations) and violations == 0
    )
    if fmt in ("json", "both"):
        _atomic_write(os.path.join(out_dir, "gallery_report.json"), _dump_json(payload))
    if fmt in ("csv", "both"):
        _atomic_write(
            os.path.join(out_dir, "patchwork_bounds.csv"),
            _dump_csv(("piece", "order", "measured", "ceiling", "within"), bound_rows),
        )
    return 0 if payload["passed"] else 1


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
        cfg = load_config(args.config)
        suite = cfg.get("suite")
        if suite is not None and suite != args.command:
            raise ConfigError(
                f"config declares suite '{suite}' but the command is "
                f"'{args.command}'"
            )
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if args.command == "verify":
            return run_verify(cfg, args.out, args.format, seed)
        if args.command == "probe":
            return run_probe(cfg, args.out, args.format, seed)
        return run_gallery(cfg, args.out, args.format, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UltracalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
