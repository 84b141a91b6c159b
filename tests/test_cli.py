"""CLI: config validation, exit codes, deterministic reports."""

import contextlib
import copy
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc.cli import main
from ultracalc.errors import ConfigError
from ultracalc.cli import load_config


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


VERIFY_CFG = {
    "schema": 1,
    "suite": "verify",
    "prime": 5,
    "backend": "exact",
    "seed": 7,
    "verify": {
        "cases": {
            "leibniz": 4,
            "scaling": 6,
            "symmetry": 6,
            "closed_form": 10,
            "closed_form_upsilon": 6,
            "restriction": 8,
            "sup_bound": 60,
            "chain": 6,
        }
    },
}


def test_verify_run_exits_zero_and_writes_reports(tmp_path):
    cfg = write(tmp_path, "cfg.json", VERIFY_CFG)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {
        "leibniz",
        "scaling",
        "symmetry",
        "closed_form",
        "restriction",
        "rank",
        "sup_bound",
        "chain",
    }
    assert (tmp_path / "out" / "verify_report.csv").exists()


def test_unknown_config_key_exits_two_without_output(tmp_path):
    bad = dict(VERIFY_CFG)
    bad["mystery"] = 1
    cfg = write(tmp_path, "bad.json", bad)
    out = str(tmp_path / "nothing")
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_unknown_nested_key_rejected(tmp_path):
    bad = {"schema": 1, "suite": "probe", "probe": {"order": 1, "bogus": 2}}
    cfg = write(tmp_path, "bad2.json", bad)
    assert main(["probe", "--config", cfg]) == 2


def test_suite_command_mismatch_rejected(tmp_path):
    cfg = write(tmp_path, "cfg.json", VERIFY_CFG)
    assert main(["probe", "--config", cfg]) == 2


def test_fault_injection_exits_one_with_named_check(tmp_path):
    bad = {
        "schema": 1,
        "suite": "verify",
        "prime": 5,
        "seed": 7,
        "verify": {"checks": ["leibniz"], "cases": {"leibniz": 3}, "inject_fault": True},
    }
    cfg = write(tmp_path, "fault.json", bad)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["checks"]["leibniz"]["failures"]


def test_probe_counterexample_reports_witness(tmp_path):
    cfg = write(
        tmp_path,
        "probe.json",
        {
            "schema": 1,
            "suite": "probe",
            "prime": 5,
            "seed": 3,
            "function": {"gallery": "thm41", "params": {"m": 1}},
            "probe": {"order": 0, "center": [0, 0], "radius_exponent": 0, "samples": 3},
        },
    )
    out = str(tmp_path / "out")
    assert main(["probe", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "probe_report.json").read_text())
    order0 = report["report"]["orders"][0]
    assert order0["verdict"] != "ContinuousExtension"
    assert order0["witnesses"]
    assert (tmp_path / "out" / "probe_samples.csv").exists()


def test_probe_polynomial_smooth_at_order_three(tmp_path):
    poly = {
        "kind": "poly",
        "polynomial": {
            "m": 1,
            "l": 1,
            "terms": [
                {"exp": [1], "coeff": [{"p": 5, "num": "2", "den": "1"}]},
                {"exp": [3], "coeff": [{"p": 5, "num": "1", "den": "1"}]},
            ],
        },
    }
    cfg = write(
        tmp_path,
        "probe.json",
        {
            "schema": 1,
            "suite": "probe",
            "prime": 5,
            "seed": 3,
            "function": poly,
            "probe": {"order": 3, "center": [0], "radius_exponent": 0, "samples": 3},
        },
    )
    out = str(tmp_path / "out")
    assert main(["probe", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "probe_report.json").read_text())
    verdicts = [o["verdict"] for o in report["report"]["orders"]]
    assert verdicts == ["ContinuousExtension"] * 4


def test_probe_rerun_is_byte_identical(tmp_path):
    cfg = write(
        tmp_path,
        "probe.json",
        {
            "schema": 1,
            "suite": "probe",
            "prime": 5,
            "seed": 9,
            "function": {"gallery": "thm41", "params": {"m": 1}},
            "probe": {"order": 0, "center": [0, 0], "samples": 2},
        },
    )
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["probe", "--config", cfg, "--out", out1]) == 0
    assert main(["probe", "--config", cfg, "--out", out2]) == 0
    a = (tmp_path / "a" / "probe_report.json").read_bytes()
    b = (tmp_path / "b" / "probe_report.json").read_bytes()
    assert a == b


def test_gallery_thm41_witness_csv(tmp_path):
    cfg = write(
        tmp_path,
        "g.json",
        {
            "schema": 1,
            "suite": "gallery",
            "prime": 5,
            "seed": 0,
            "gallery": {"name": "thm41", "k_max": 10, "flatness_curves": 5},
        },
    )
    out = str(tmp_path / "out")
    assert main(["gallery", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "out" / "witness.csv").read_text().strip().splitlines()
    assert rows[0] == "k,x_norm,y_norm,f_norm"
    assert len(rows) == 11
    assert all(line.endswith(",1") for line in rows[1:])
    report = json.loads((tmp_path / "out" / "gallery_report.json").read_text())
    assert report["passed"] and len(report["flatness"]) == 5


def test_gallery_patchwork_disjoint(tmp_path):
    cfg = write(
        tmp_path,
        "g2.json",
        {
            "schema": 1,
            "suite": "gallery",
            "prime": 5,
            "seed": 0,
            "gallery": {"name": "patchwork", "depth": 3},
        },
    )
    out = str(tmp_path / "out")
    assert main(["gallery", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "gallery_report.json").read_text())
    assert all(r["relation"] == "disjoint" for r in report["disjoint_supports"])
    assert all(r["within"] for r in report["quotient_bounds"])


def test_gallery_unknown_item_exits_two(tmp_path):
    cfg = write(
        tmp_path,
        "g3.json",
        {"schema": 1, "suite": "gallery", "prime": 5, "gallery": {"name": "nope"}},
    )
    assert main(["gallery", "--config", cfg]) == 2


def test_format_json_only_skips_csv(tmp_path):
    cfg = write(tmp_path, "cfg.json", VERIFY_CFG)
    out = str(tmp_path / "jsononly")
    assert main(["verify", "--config", cfg, "--out", out, "--format", "json"]) == 0
    assert (tmp_path / "jsononly" / "verify_report.json").exists()
    assert not (tmp_path / "jsononly" / "verify_report.csv").exists()


def test_seed_override_changes_samples(tmp_path):
    cfg = write(
        tmp_path,
        "probe.json",
        {
            "schema": 1,
            "suite": "probe",
            "prime": 5,
            "seed": 9,
            "function": {"gallery": "reciprocal"},
            "probe": {"order": 0, "center": [1], "radius_exponent": -1, "samples": 2},
        },
    )
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    assert main(["probe", "--config", cfg, "--out", out1]) == 0
    assert main(["probe", "--config", cfg, "--out", out2, "--seed", "10"]) == 0
    a = json.loads((tmp_path / "s1" / "probe_report.json").read_text())
    b = json.loads((tmp_path / "s2" / "probe_report.json").read_text())
    assert a["report"]["config"]["seed"] != b["report"]["config"]["seed"]


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_load_config_rejects_wrong_schema(tmp_path):
    path = write(tmp_path, "v2.json", {"schema": 2, "suite": "verify"})
    with pytest.raises(ConfigError):
        load_config(path)


# sha256 of every report file the README example configs write.  Reports
# are promised byte-identical for a fixed config and seed, so a refactor
# that moves any of these digests has changed what users get.
README_GOLDEN = {
    "verify": {
        "verify_report.csv": "ccf0fe23de289889edb2ff72f2da2b617062456b5aee8fc6120b86718fc7145b",
        "verify_report.json": "85e45b37f5893477cbeebd8cb18050fe411eacdf054985085e95356130132737",
    },
    "probe": {
        "probe_report.json": "8b9e6755f0b06291f488c74dbc5f1cdd1d34e70ec508ee0a1438b01cdfb29f81",
        "probe_samples.csv": "43629beaadbc25b90bc9f53515c002d2723d4b8db752b54fc0b46f3b39af54f3",
    },
    "gallery": {
        "gallery_report.json": "d3069205ed9f05fc5d2dec1f9398fba3265de6dbe08f37c227893628a8284c3e",
        "witness.csv": "5d93ce994b80509c2d42a68b27a594d6642b71894935a2f308d1c51e9cf6549d",
    },
}


def test_readme_example_reports_match_golden_digests(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert [cfg["suite"] for cfg in examples] == list(README_GOLDEN)
    for cfg in examples:
        suite = cfg["suite"]
        path = write(tmp_path, f"{suite}.json", cfg)
        out = tmp_path / suite
        assert main([suite, "--config", path, "--out", str(out)]) == 0
        digests = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()
        }
        assert digests == README_GOLDEN[suite], suite


CUBIC = {
    "kind": "poly",
    "polynomial": {
        "m": 1,
        "l": 1,
        "terms": [
            {"exp": [1], "coeff": [{"p": 5, "num": "2", "den": "1"}]},
            {"exp": [3], "coeff": [{"p": 5, "num": "1", "den": "1"}]},
        ],
    },
}


def _probe_cfg(function, probe, **top):
    cfg = {"schema": 1, "suite": "probe", "prime": 5, "seed": 3}
    return {**cfg, "function": function, "probe": probe, **top}


# Probe walks the README example does not reach: the sampled order-0
# directions and the quotient walks with equal and randomized offsets, on
# both backends (precision 8 runs out of digits on every quotient walk).
WALK_GOLDEN = {
    "poly-order2-exact": (
        _probe_cfg(CUBIC, {"order": 2, "center": [0], "samples": 3}),
        {
            "probe_report.json": "b3b404bd554c1e8953c7755b0791ba4dd4e289f4a3ca4149321a281b4833db17",
            "probe_samples.csv": "5367a9616c32bc8bdd868cf4c59faf86989c98dda480844ec834f7a3edfb326c",
        },
    ),
    "poly-order2-digits": (
        _probe_cfg(CUBIC, {"order": 2, "center": [0], "samples": 3}, backend="digits"),
        {
            "probe_report.json": "50ce06626755d422719f653efb65eb05e928ef000c63a4cdcfa7255bbf5cb1a0",
            "probe_samples.csv": "5367a9616c32bc8bdd868cf4c59faf86989c98dda480844ec834f7a3edfb326c",
        },
    ),
    "poly-order2-digits8": (
        _probe_cfg(
            CUBIC, {"order": 2, "center": [0], "samples": 3}, backend="digits", precision=8
        ),
        # The Lipschitz fit leaves out the 11 differences that vanish only
        # to working precision: its "samples" reads 53, not 64.
        {
            "probe_report.json": "514335df02cd993916624a5c04337dbdf47ecf1bcd16ab71aebb9ff541941e16",
            "probe_samples.csv": "4f500f2f0f4378d320598a15f193ed0ea2a017777d34cc3b0e6fb6cf3cac1355",
        },
    ),
    "thm41-order1-fixed-increments": (
        _probe_cfg(
            {"gallery": "thm41", "params": {"m": 1}},
            {"order": 1, "center": [0, 0], "samples": 3, "randomize_increments": False},
        ),
        {
            "probe_report.json": "53bbf03c7a25a0ed9507d4a8dc3baf0be59828543469594ea13835454fcad521",
            "probe_samples.csv": "ff92582dacd5177614b50415a5c97b2978dd8126d9c15c1ad1cb1e4d856ea796",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(WALK_GOLDEN))
def test_probe_walk_reports_match_golden_digests(tmp_path, case):
    cfg, golden = WALK_GOLDEN[case]
    out = tmp_path / "out"
    path = write(tmp_path, "cfg.json", cfg)
    assert main(["probe", "--config", path, "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == golden


@pytest.mark.parametrize("precision", [8, 32])
def test_digit_backend_thm41_probe_reports_indeterminate(tmp_path, precision):
    # The witness points are built without evaluating f, so a gate the
    # digits cannot resolve is an indeterminate walk, not a run error,
    # and a focus walk that stops early grants nothing.
    cfg = _probe_cfg(
        {"gallery": "thm41", "params": {"m": 1}},
        {"order": 0, "center": [0, 0], "samples": 4},
        backend="digits",
        precision=precision,
    )
    out = tmp_path / "out"
    path = write(tmp_path, "cfg.json", cfg)
    assert main(["probe", "--config", path, "--out", str(out)]) == 0
    order0 = json.loads((out / "probe_report.json").read_text())["report"]["orders"][0]
    assert order0["verdict"] == "Indeterminate"
    assert order0["indeterminate"] >= 1


THM41 = {"gallery": "thm41", "params": {"m": 1}}


@pytest.mark.parametrize(
    "function,probe",
    [
        (THM41, {"order": "abc"}),
        (THM41, {"order": True}),
        (THM41, {"samples": 0}),
        (THM41, {"j0": 3, "j1": 3}),
        (THM41, {"randomize_increments": 1}),
        (THM41, {"center": ["a", 0]}),
        (THM41, {"radius_exponent": 0.5}),
        ({"gallery": "thm41", "params": {"m": 1, "zzz": 2}}, {"order": 0}),
        ({"gallery": "thm41", "params": {"m": "1"}}, {"order": 0}),
    ],
    ids=[
        "order-str",
        "order-bool",
        "samples-0",
        "j0-equals-j1",
        "randomize-int",
        "center-str",
        "radius-float",
        "gallery-unknown-param",
        "gallery-param-str",
    ],
)
def test_malformed_probe_values_exit_two(tmp_path, capsys, function, probe):
    cfg = write(tmp_path, "bad.json", _probe_cfg(function, probe))
    out = tmp_path / "out"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_probe_section_defaults_come_from_probe_config(tmp_path):
    from dataclasses import fields

    from ultracalc.probe import ProbeConfig

    out = tmp_path / "out"
    cfg = write(tmp_path, "cfg.json", _probe_cfg(CUBIC, {}))
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    echoed = json.loads((out / "probe_report.json").read_text())["report"]["config"]
    for knob in fields(ProbeConfig):
        if knob.name not in ("region", "seed"):
            assert echoed[knob.name] == knob.default, knob.name
    assert echoed["order"] == 1


def test_probe_center_takes_rational_strings(tmp_path):
    out = tmp_path / "out"
    probe = {"order": 0, "center": ["1/5"], "samples": 1}
    cfg = write(tmp_path, "cfg.json", _probe_cfg(CUBIC, probe))
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    region = json.loads((out / "probe_report.json").read_text())["report"]["config"]["region"]
    assert region["center"] == [{"p": 5, "num": "1", "den": "5"}]


def _with(cfg, path, value):
    """A deep copy of ``cfg`` with the key at ``path`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return cfg


SMALL_VERIFY = {
    "schema": 1,
    "suite": "verify",
    "prime": 5,
    "seed": 7,
    "verify": {"checks": ["rank", "leibniz"], "cases": {"leibniz": 1}},
}
SMALL_THM41 = {
    "schema": 1,
    "suite": "gallery",
    "prime": 5,
    "gallery": {"name": "thm41", "k_max": 2, "flatness_curves": 1},
}
SMALL_PATCHWORK = {
    "schema": 1,
    "suite": "gallery",
    "prime": 5,
    "gallery": {"name": "patchwork", "depth": 2},
}
SMALL_PROBE = _probe_cfg(THM41, {"order": 0, "center": [0, 0], "samples": 1})

# Configs the program misread before it had one schema: each raised a
# traceback, ran something other than what it says, or rejected a list
# of check names one character at a time.  Each case: the valid config,
# the key to set, its value and what the one-line message must say.
MISREAD = {
    "precision-0": (SMALL_VERIFY, ("precision",), 0, "config.precision must be at least 1"),
    "seed-str": (SMALL_VERIFY, ("seed",), "x", "config.seed must be int"),
    "verify-list": (SMALL_VERIFY, ("verify",), [], "config.verify must be dict"),
    "cases-str": (
        SMALL_VERIFY, ("verify", "cases", "leibniz"), "5", "verify.cases.leibniz must be int"
    ),
    "depth-str": (SMALL_PATCHWORK, ("gallery", "depth"), "x", "gallery.depth must be int"),
    "depth-0": (SMALL_PATCHWORK, ("gallery", "depth"), 0, "gallery.depth must be at least 1"),
    "k_max-0": (SMALL_THM41, ("gallery", "k_max"), 0, "gallery.k_max must be at least 1"),
    "m-0": (SMALL_THM41, ("gallery", "m"), 0, "gallery.m must be at least 1"),
    "poly-without-polynomial": (
        SMALL_PROBE, ("function",), {"kind": "poly"}, "'poly' needs keys ['polynomial']"
    ),
    "sum-without-parts": (
        SMALL_PROBE, ("function",), {"kind": "sum"}, "'sum' needs keys ['parts']"
    ),
    "precision-float": (SMALL_VERIFY, ("precision",), 32.7, "config.precision must be int"),
    "prime-float": (SMALL_VERIFY, ("prime",), 5.5, "config.prime must be int"),
    "inject_fault-str": (
        SMALL_VERIFY, ("verify", "inject_fault"), "no", "verify.inject_fault must be bool"
    ),
    "cases-typo": (
        SMALL_VERIFY,
        ("verify", "cases", "leibnitz"),
        5,
        "unknown keys in verify.cases: ['leibnitz']",
    ),
    "cases-rank": (
        SMALL_VERIFY, ("verify", "cases", "rank"), 3, "unknown keys in verify.cases: ['rank']"
    ),
    "thm41-depth": (SMALL_THM41, ("gallery", "depth"), 5, "unknown keys in gallery: ['depth']"),
    "cases-negative": (
        SMALL_VERIFY, ("verify", "cases", "leibniz"), -3, "verify.cases.leibniz must be at least 1"
    ),
    "flatness_curves-0": (
        SMALL_THM41, ("gallery", "flatness_curves"), 0, "gallery.flatness_curves must be at least 1"
    ),
    "checks-str": (SMALL_VERIFY, ("verify", "checks"), "leibniz", "verify.checks must be list"),
    "checks-empty": (
        SMALL_VERIFY, ("verify", "checks"), [], "verify.checks must have length at least 1"
    ),
    "center-float": (
        SMALL_PROBE, ("probe", "center"), [0.1], "probe.center takes ints and rational strings"
    ),
    "center-bool": (
        SMALL_PROBE, ("probe", "center"), [True], "probe.center takes ints and rational strings"
    ),
}


@pytest.mark.parametrize("case", sorted(MISREAD))
def test_misread_configs_exit_two_with_one_line(tmp_path, capsys, case):
    base, key, value, message = MISREAD[case]
    cfg = _with(base, key, value)
    out = tmp_path / "out"
    path = write(tmp_path, "cfg.json", cfg)
    assert main([cfg["suite"], "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_undecided_verify_run_exits_one(tmp_path):
    # At precision 4 some leibniz samples run out of digits: the check
    # decides none of them, so neither it nor the run has passed.
    cfg = {
        "schema": 1,
        "suite": "verify",
        "prime": 5,
        "backend": "digits",
        "precision": 4,
        "seed": 7,
        "verify": {"checks": ["leibniz"], "cases": {"leibniz": 50}},
    }
    out = tmp_path / "out"
    assert main(["verify", "--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 1
    report = json.loads((out / "verify_report.json").read_text())
    leibniz = report["checks"]["leibniz"]
    assert leibniz["failures"] == [] and leibniz["indeterminate"] > 0
    assert leibniz["passed"] is False
    assert report["failures"] == 0 and report["passed"] is False


def test_increment_lost_to_precision_is_indeterminate_not_an_error(tmp_path, capsys):
    # The README verify example at precision 4: some sup_bound
    # increments t are nonzero but vanish to working precision, O(p^k).
    # Those samples decide nothing; they used to end the run with exit 2.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    assert cfg["suite"] == "verify" and cfg["seed"] == 7
    cfg.update(backend="digits", precision=4)
    cfg["verify"] = {"checks": ["sup_bound"], "cases": {"sup_bound": 100}}
    out = tmp_path / "out"
    assert main(["verify", "--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = json.loads((out / "verify_report.json").read_text())
    sup_bound = report["checks"]["sup_bound"]
    assert sup_bound["failures"] == [] and sup_bound["indeterminate"] > 0
    assert report["failures"] == 0 and report["passed"] is False


FUZZ_BASES = {"verify": SMALL_VERIFY, "probe": SMALL_PROBE, "gallery": SMALL_THM41}
# Small numbers only: a valid count runs, and the run time grows fast
# with some of them (the thm41 gallery item takes seconds at m = 2).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-3, 3, allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _key_paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_exit_cleanly(data):
    # One key of a small valid config takes a random JSON value, or an
    # unknown key joins its section: the run ends in an exit code.
    command = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    base = FUZZ_BASES[command]
    path = data.draw(st.sampled_from(list(_key_paths(base))))
    if data.draw(st.booleans()):
        cfg = _with(base, path, data.draw(JSON_VALUES))
    else:
        cfg = _with(base, path[:-1] + ("unknown-" + data.draw(st.text(max_size=4)),), 1)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        rc = main([command, "--config", config, "--out", os.path.join(tmp, "out")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# The benchmark's verify config (all eight checks, p = 5) at a tenth of
# its case counts, on the digit backend, and at full size at precision 8
# for seed 7, where 35 of its samples run out of digits.  The digests
# pin the reports of the step-by-step leaf evaluation, so sharing leaf
# values within a sample and drawing samples into int pairs must leave
# every byte as it was.
BENCH_VERIFY_CASES = {
    "leibniz": 100,
    "scaling": 100,
    "symmetry": 100,
    "closed_form": 200,
    "closed_form_upsilon": 100,
    "restriction": 60,
    "sup_bound": 1000,
    "chain": 50,
}
REDUCED_VERIFY_CASES = {key: n // 10 for key, n in BENCH_VERIFY_CASES.items()}
DIGIT_VERIFY_GOLDEN = {
    (1, 32, "reduced"): (
        "82cd2ee0cab156ae62c61280913913b30559d02bf2eb85840d7966bf5886161b",
        "747c854f8860b17869155400a6ec0cce0a7a3f25dfc9345fbfecefcb44a9a9fc",
    ),
    (2, 32, "reduced"): (
        "99c70506129d6883c592bbfa1f8ade74491ba5376bc8034cacf11337f1c01c84",
        "747c854f8860b17869155400a6ec0cce0a7a3f25dfc9345fbfecefcb44a9a9fc",
    ),
    (3, 32, "reduced"): (
        "d56eb3a4020e42784c0d6c8f2b7072c1c54dd258c14c381e3b52d5a8cee2acfd",
        "747c854f8860b17869155400a6ec0cce0a7a3f25dfc9345fbfecefcb44a9a9fc",
    ),
    (7, 32, "reduced"): (
        "f2cd091ac6dd704ea0804415db43cb11f48943a95112f511b95307efa8a8e619",
        "747c854f8860b17869155400a6ec0cce0a7a3f25dfc9345fbfecefcb44a9a9fc",
    ),
    (7, 8, "full"): (
        "b510be42c27a33608fd44c7dc75cd7ca5a2e5a9b953eb049b0b3e0dbeb08b113",
        "b734360bb295f3e4466ec9ae6c480a2a4c79ed626de3a9aa4ef3a8516f78c8ba",
    ),
}


@pytest.mark.parametrize("seed,precision,size", sorted(DIGIT_VERIFY_GOLDEN))
def test_digit_verify_reports_match_golden_digests(tmp_path, seed, precision, size):
    cases = BENCH_VERIFY_CASES if size == "full" else REDUCED_VERIFY_CASES
    cfg = {
        "schema": 1,
        "suite": "verify",
        "prime": 5,
        "backend": "digits",
        "precision": precision,
        "seed": seed,
        "verify": {"cases": cases},
    }
    out = tmp_path / "out"
    rc = main(["verify", "--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)])
    report = json.loads((out / "verify_report.json").read_text())
    lost = sum(check["indeterminate"] for check in report["checks"].values())
    assert (rc, lost) == ((1, 35) if precision == 8 else (0, 0))
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("verify_report.json", "verify_report.csv")
    )
    assert digests == DIGIT_VERIFY_GOLDEN[seed, precision, size]
