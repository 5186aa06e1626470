"""Problem files, canonical JSON, and the command line."""

import json

import numpy as np
import pytest

from diskfold import (
    ProblemFormatError,
    canonical_json,
    label_from_json,
    label_to_json,
    layout_augmented,
    parse_problem,
    serialize_problem,
)
from diskfold.cli import main
from diskfold.presets import preset

from conftest import HEX_FLAT


@pytest.fixture()
def hex_file(tmp_path):
    p = tmp_path / "hex.json"
    p.write_text(canonical_json(preset("hex_tangent")) + "\n")
    return p


@pytest.fixture()
def perturbed_hex_file(tmp_path):
    # the stock starting label for this preset is already flat, so tests
    # that need the solver to do actual work start from a nudged f_init
    data = preset("hex_tangent")
    prob = parse_problem(data)
    rng = np.random.default_rng(7)
    f = HEX_FLAT["hex_tangent"] + 0.05 * rng.standard_normal(8)
    data["f_init"] = label_to_json(prob.aug, f)
    p = tmp_path / "hex_perturbed.json"
    p.write_text(canonical_json(data) + "\n")
    return p


def test_parse_round_trip():
    data = preset("hex_tangent")
    prob = parse_problem(data)
    text = serialize_problem(prob)
    again = parse_problem(text)
    assert again.disk.faces == prob.disk.faces
    assert again.alpha == prob.alpha
    assert again.eta == prob.eta
    assert again.mu == prob.mu
    assert again.apex_alpha == prob.apex_alpha


def test_canonical_json_is_deterministic():
    a = canonical_json(preset("ring_lattice"))
    b = canonical_json(json.loads(a))
    assert a == b
    # round-tripping floats through repr-precision text is lossless
    assert json.loads(a) == json.loads(b)


def test_parse_reports_paths():
    base = preset("triangle")

    bad = dict(base)
    del bad["alpha"]
    with pytest.raises(ProblemFormatError, match="alpha"):
        parse_problem(bad)

    bad = dict(base)
    bad["faces"] = [[0, 1]]
    with pytest.raises(ProblemFormatError, match="/faces/0"):
        parse_problem(bad)

    bad = dict(base)
    bad["eta"] = {"1,0": 1.0}
    with pytest.raises(ProblemFormatError, match="/eta"):
        parse_problem(bad)

    bad = dict(base)
    bad["mu"] = dict(base["mu"])
    bad["mu"]["99"] = 0.0
    with pytest.raises(ProblemFormatError, match="/mu"):
        parse_problem(bad)

    bad = dict(base)
    bad["flavor"] = "lemon"
    with pytest.raises(ProblemFormatError, match="flavor"):
        parse_problem(bad)

    with pytest.raises(ProblemFormatError):
        parse_problem("{not json")


def test_f_init_round_trip():
    data = preset("hex_tangent")
    prob = parse_problem(data)
    fj = label_to_json(prob.aug, HEX_FLAT["hex_tangent"])
    assert set(fj) == {str(v) for v in prob.disk.vertices} | {"hat"}
    back = label_from_json(prob.aug, fj)
    assert np.array_equal(back, HEX_FLAT["hex_tangent"])

    data2 = dict(data)
    data2["f_init"] = fj
    prob2 = parse_problem(data2)
    assert np.array_equal(prob2.f_init, HEX_FLAT["hex_tangent"])
    assert "f_init" in json.loads(serialize_problem(prob2))


# -- command line -------------------------------------------------------


def test_cli_validate(hex_file, capsys):
    assert main(["validate", str(hex_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 7
    assert out["apex"] == 7


def test_cli_preset_writes_parseable_problems(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["preset", "ring_lattice", "--rings", "1", "--scenario", "orthogonal", "--out", str(out)]) == 0
    prob = parse_problem(out.read_text())
    assert len(prob.disk.vertices) == 7


def test_cli_solve_newton(hex_file, capsys):
    assert main(["solve", str(hex_file), "--tol", "1e-12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True
    assert out["residual"] <= 1e-12
    assert out["method"] == "newton"
    assert set(out["f"]) == {str(v) for v in range(7)} | {"hat"}


def test_cli_solve_flow(perturbed_hex_file, capsys):
    assert main(["solve", str(perturbed_hex_file), "--method", "flow", "--time", "5", "--dt", "0.01"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "flow"
    assert out["final_residual"] < out["initial_residual"]


@pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "-0.1"), ("--time", "-1"), ("--time", "nan")])
def test_cli_solve_flow_rejects_bad_time_arguments(hex_file, capsys, flag, value):
    assert main(["solve", str(hex_file), "--method", "flow", flag, value]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be positive and finite" in err
    assert "Traceback" not in err


def test_cli_solve_budget_exhausted_is_numerical_error(perturbed_hex_file, capsys):
    assert main(["solve", str(perturbed_hex_file), "--max-iter", "1", "--tol", "1e-14"]) == 2


def test_cli_curvature(hex_file, capsys):
    assert main(["curvature", str(hex_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["sum"]) <= 1e-10
    assert out["max_abs"] >= 0.0


def test_cli_layout_and_render(hex_file, tmp_path, capsys):
    assert main(["layout", str(hex_file), "--normalize"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["positions"]) == {str(v) for v in range(7)} | {"hat"}
    assert out["consistency_residual"] <= 1e-9
    apex = out["positions"]["hat"]
    assert abs(apex[0]) <= 1e-9 and abs(apex[1]) <= 1e-9

    svg = tmp_path / "hex.svg"
    assert main(["render", str(hex_file), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert text.count("<circle") >= 8


def test_cli_rank(hex_file, capsys):
    assert main(["rank", str(hex_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["shape"] == [26, 32]
    assert out["rank"] == len([s for s in out["singular_values"] if s > out["cutoff"] * out["singular_values"][0]])


def test_cli_mobius_check(hex_file, capsys):
    assert main(["mobius-check", str(hex_file), "--eps", "1e-3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["checks"]) == 6
    assert all(c["ok"] for c in out["checks"])


def test_cli_mobius_check_develops_once(hex_file, capsys, monkeypatch):
    import diskfold.cli as cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("traversal", "bfs"))
        return layout_augmented(*args, **kwargs)

    monkeypatch.setattr(cli, "layout_augmented", counted)
    assert main(["mobius-check", str(hex_file)]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 12
    assert calls == ["bfs"]


def _patch_everywhere(monkeypatch, fn, wrap):
    """Replace fn in every diskfold module that binds it with wrap(fn)."""
    import sys

    wrapped = wrap(fn)
    for name, mod in list(sys.modules.items()):
        if name.startswith("diskfold") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, wrapped)


def test_cli_mobius_check_realizes_once(hex_file, capsys, monkeypatch):
    from diskfold.conformal import AngleSystem
    from diskfold.layout import realize_mpoints

    realized, compiled = [], []
    _patch_everywhere(monkeypatch, realize_mpoints, lambda fn: lambda *a: realized.append(1) or fn(*a))
    init = AngleSystem.__init__
    monkeypatch.setattr(AngleSystem, "__init__", lambda self, *a: compiled.append(1) or init(self, *a))
    assert main(["mobius-check", str(hex_file)]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 12
    assert len(realized) == 1
    assert len(compiled) <= 3


@pytest.mark.parametrize("extra", [[], ["--normalize"]])
def test_cli_render_builds_no_mpoints(hex_file, capsys, monkeypatch, extra):
    from diskfold.layout import realize_mpoints

    def refuse(fn):
        def call(*args):
            raise AssertionError("render realized M-points")

        return call

    _patch_everywhere(monkeypatch, realize_mpoints, refuse)
    assert main(["render", str(hex_file), *extra]) == 0
    assert capsys.readouterr().out.startswith("<svg ")


def _fresh_main(argv, capsys):
    """Output of main(argv) as the first call of a process: no parser yet."""
    import diskfold.cli as cli

    cli._build_parser.cache_clear()
    return main(argv), capsys.readouterr()


@pytest.mark.parametrize(
    "first, second",
    [
        (["mobius-check", "HEX", "--eps", "1e-3"], ["mobius-check", "HEX"]),
        (["render", "HEX", "--size", "320"], ["render", "HEX"]),
    ],
)
def test_cli_main_twice_in_one_process(hex_file, capsys, first, second):
    import diskfold.cli as cli

    first, second = ([str(hex_file) if a == "HEX" else a for a in argv] for argv in (first, second))
    want = [_fresh_main(first, capsys), _fresh_main(second, capsys)]
    cli._build_parser.cache_clear()
    got = []
    for argv in (first, second):
        got.append((main(argv), capsys.readouterr()))
    assert got == want
    assert cli._build_parser.cache_info().misses == 1


def test_cli_input_errors(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [0, 1, 2]}')
    assert main(["validate", str(bad)]) == 1
    # usage errors exit 1 as well, not argparse's default 2
    assert main(["solve"]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        (command, flag, value, message)
        for command in ("solve", "layout", "render", "rank", "mobius-check")
        for flag, value, message in (
            ("--tol", "nan", "must be positive and finite"),
            ("--tol", "-1", "must be positive and finite"),
            ("--max-iter", "-3", "must be non-negative"),
            ("--svd-cutoff", "nan", "must be finite and in [0, 1)"),
            ("--svd-cutoff", "-1", "must be finite and in [0, 1)"),
            ("--svd-cutoff", "inf", "must be finite and in [0, 1)"),
        )
    ],
)
def test_cli_rejects_bad_newton_flags(hex_file, capsys, command, flag, value, message):
    assert main([command, str(hex_file), flag, value]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rank", "HEX", "--jacobian", "--perturb", "nan"], "--perturb"),
        (["rank", "HEX", "--jacobian", "--perturb", "inf"], "--perturb"),
        (["rank", "HEX", "--jacobian", "--perturb", "-0.1"], "--perturb"),
        (["rank", "HEX", "--jacobian", "--perturb", "1e308"], "--perturb"),
        (["rank", "HEX", "--jacobian", "--perturb", "0.01", "--seed", "-1"], "--seed"),
        (["render", "HEX", "--size", "0"], "--size"),
        (["preset", "ring_lattice", "--rings", "0"], "--rings"),
        (["mobius-check", "HEX", "--eps", "nan"], "--eps"),
        (["mobius-check", "HEX", "--eps", "1e-3", "0"], "--eps"),
    ],
)
def test_cli_bad_input_exits_1_without_traceback(hex_file, capsys, argv, flag):
    argv = [str(hex_file) if a == "HEX" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


def test_cli_rank_jacobian_perturbed(hex_file, capsys):
    assert main(["rank", str(hex_file), "--jacobian", "--perturb", "0.01"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == "curvature_jacobian"
    assert out["shape"] == [8, 8]
    # off the flat label only the shift direction stays in the kernel
    assert out["rank"] == 7
