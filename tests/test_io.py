"""Problem files, canonical JSON, and the command line."""

import json
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskfold import (
    AngleSystem,
    ProblemFormatError,
    canonical_json,
    constraint_matrix,
    label_from_json,
    label_to_json,
    layout_augmented,
    newton_flat,
    normalize_to_unit_disk,
    numerical_rank,
    parse_problem,
    serialize_problem,
)
from diskfold.cli import main
from diskfold.presets import SCENARIOS, preset
from diskfold import problem_io
from diskfold.problem_io import IdRows

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
    assert again.aug.disk.faces == prob.aug.disk.faces
    assert again.cs.alpha == prob.cs.alpha
    assert again.cs.eta == prob.cs.eta


def test_canonical_json_is_deterministic():
    a = canonical_json(preset("ring_lattice"))
    b = canonical_json(json.loads(a))
    assert a == b
    # round-tripping floats through repr-precision text is lossless
    assert json.loads(a) == json.loads(b)


def _canonical_json_reference(obj) -> str:
    """The recursive isinstance writer canonical_json replaced: the
    reference for its text."""

    def render(x):
        if isinstance(x, dict):
            items = sorted(x.items(), key=lambda kv: str(kv[0]))
            inner = ", ".join(f"{json.dumps(str(k))}: {render(v)}" for k, v in items)
            return "{" + inner + "}"
        if isinstance(x, (list, tuple)):
            return "[" + ", ".join(render(v) for v in x) + "]"
        if isinstance(x, bool) or x is None:
            return json.dumps(x)
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        if isinstance(x, str):
            return json.dumps(x)
        raise TypeError(f"cannot serialize {type(x)!r}")

    return render(obj)


_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]))
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(),
)
# int and str keys, often 1 and "1" in one object: they tie in the sort
_SMALL = st.integers(-9, 9)
_KEYS = st.one_of(_SMALL, _SMALL.map(str), st.text(max_size=3))
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=6),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_canonical_json_matches_the_recursive_writer(obj):
    assert canonical_json(obj) == _canonical_json_reference(obj)


def test_canonical_json_subclasses_and_unknown_types():
    obj = OrderedDict([("b", np.float32(0.1)), ("a", [np.int32(3), (True, None)])])
    assert canonical_json(obj) == _canonical_json_reference(obj)
    for bad in (np.bool_(True), object(), {1.5}):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json(bad)


def test_id_rows_write_like_an_id_keyed_dict():
    """IdRows write the text of the dict {str(v) or "hat": row} of the
    writer it replaced, and read as that mapping."""
    data = _relabelled(preset("ring_lattice", n_rings=3), np.random.default_rng(5))
    aug = parse_problem(data).aug
    keys = [str(v) for v in aug.disk.vertices] + ["hat"]
    rng = np.random.default_rng(0)
    for rows in (rng.normal(size=len(keys)), rng.normal(size=(len(keys), 2)), rng.normal(size=(len(keys), 4))):
        ref = dict(zip(keys, rows.tolist()))
        got = IdRows(aug, rows)
        assert canonical_json(got) == _canonical_json_reference(ref)
        assert canonical_json({"x": got, "y": 1}) == _canonical_json_reference({"x": ref, "y": 1})
        assert list(got) == keys and dict(got.items()) == ref and len(got) == len(keys)
        with pytest.raises(KeyError):
            got[str(aug.apex)]


GOLDEN = Path(__file__).parent / "golden"


def _ring2_solved(tmp_path, scenario):
    """ring_lattice --rings 2 as a problem file, and the label that
    `diskfold solve` wrote for it (tests/golden/solve_ring2_*.json)."""
    problem = tmp_path / "r2.json"
    assert main(["preset", "ring_lattice", "--rings", "2", "--scenario", scenario, "--out", str(problem)]) == 0
    return problem, json.loads((GOLDEN / f"solve_ring2_{scenario}.json").read_text())["f"]


@pytest.mark.parametrize("traversal", ["bfs", "dfs"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_layout_matches_golden(tmp_path, scenario, traversal):
    """`diskfold layout --normalize` of ring_lattice --rings 2, byte for
    byte as written before the output stage moved to array passes.

    The problem carries the recorded solved label as f_init, which is
    flat, so layout takes no Newton step: the file pins the output stage,
    not which member of the Mobius family of flat labels Newton picks."""
    problem, f = _ring2_solved(tmp_path, scenario)
    problem.write_text(canonical_json({**json.loads(problem.read_text()), "f_init": f}) + "\n")
    out = tmp_path / "layout.json"
    argv = ["layout", str(problem), "--normalize", "--traversal", traversal, "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"layout_ring2_{scenario}_{traversal}.json").read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_solve_matches_the_recorded_label(tmp_path, scenario):
    """Today's solve of ring_lattice --rings 2 against the recorded label.

    A flat label is fixed only modulo span{1, x, y}, the Mobius moves at
    the layout's centers x, y: the labels agree to 1e-12 once that span
    is projected out and to 1e-8 raw."""
    problem, recorded = _ring2_solved(tmp_path, scenario)
    out = tmp_path / "solved.json"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    prob = problem_io.parse_problem(problem.read_text())
    old = label_from_json(prob.aug, recorded)
    d = label_from_json(prob.aug, json.loads(out.read_text())["f"]) - old
    q = np.linalg.qr(np.column_stack([np.ones(len(old)), layout_augmented(prob.cs, old).positions]))[0]
    assert np.max(np.abs(d - q @ (q.T @ d))) <= 1e-12
    assert np.max(np.abs(d)) <= 1e-8


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


DEEP_JSON = "[" * 100000 + "]" * 100000
DEEP_MESSAGE = r"^invalid JSON: maximum recursion depth exceeded"


def test_deeply_nested_json_is_a_format_error(tmp_path, capsys):
    with pytest.raises(ProblemFormatError, match=DEEP_MESSAGE):
        parse_problem(DEEP_JSON)
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    with open(path) as fh, pytest.raises(ProblemFormatError, match=DEEP_MESSAGE):
        parse_problem(fh)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("diskfold: input error: invalid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_file_name_is_not_json_text(tmp_path, capsys):
    # a str is JSON text, so a file name fails to decode; the message
    # says how to read a path, and the CLI, which reads through an open
    # file, keeps its message
    hint = " (a str is read as JSON text: pass an open file to read a path)"
    with pytest.raises(ProblemFormatError) as info:
        parse_problem("r128_orthogonal.json")
    assert str(info.value) == "invalid JSON: Expecting value: line 1 column 1 (char 0)" + hint
    path = tmp_path / "name.json"
    path.write_text("r128_orthogonal.json")
    with open(path) as fh, pytest.raises(ProblemFormatError) as info:
        parse_problem(fh)
    assert str(info.value) == "invalid JSON: Expecting value: line 1 column 1 (char 0)"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "diskfold: input error: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"


def test_f_init_round_trip():
    data = preset("hex_tangent")
    prob = parse_problem(data)
    fj = label_to_json(prob.aug, HEX_FLAT["hex_tangent"])
    assert set(fj) == {str(v) for v in prob.aug.disk.vertices} | {"hat"}
    back = label_from_json(prob.aug, fj)
    assert np.array_equal(back, HEX_FLAT["hex_tangent"])

    data2 = dict(data)
    data2["f_init"] = fj
    prob2 = parse_problem(data2)
    assert np.array_equal(prob2.f_init, HEX_FLAT["hex_tangent"])
    assert "f_init" in json.loads(serialize_problem(prob2))


@pytest.mark.parametrize("name, rings", [("hex_tangent", 2), ("ring_lattice", 2)])
def test_label_from_json_round_trip_is_bit_identical(name, rings):
    aug = parse_problem(preset(name, n_rings=rings)).aug
    f = np.random.default_rng(rings).normal(size=len(aug.vertices))
    back = label_from_json(aug, json.loads(canonical_json(label_to_json(aug, f))))
    assert back.tobytes() == f.tobytes()


def test_label_from_json_names_the_bad_key():
    aug = parse_problem(preset("hex_tangent")).aug
    good = json.loads(canonical_json(label_to_json(aug, HEX_FLAT["hex_tangent"])))
    cases = [
        ({k: x for k, x in good.items() if k != "hat"}, '^/label: missing the apex entry "hat"$'),
        ({**good, "99": 0.0}, "^/label/99: unknown vertex$"),
        ({**good, "3": float("inf")}, "^/label/3: number must be finite$"),
    ]
    for data, message in cases:
        with pytest.raises(ProblemFormatError, match=message):
            label_from_json(aug, data)


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
    assert len(prob.aug.disk.vertices) == 7


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


def _python(*args: str, timeout: float | None = None):
    """The CompletedProcess of python with args, in a fresh process that
    imports this diskfold; killed after timeout seconds."""
    import subprocess
    import sys
    from pathlib import Path

    import diskfold

    src = str(Path(diskfold.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def _flow_cli(problem, time: str, dt: str):
    """(exit code, stderr) of a flow solve in a fresh process, killed after 20 s."""
    run = _python("-m", "diskfold.cli", "solve", str(problem), "--method", "flow", "--time", time, "--dt", dt, timeout=20)
    return run.returncode, run.stderr


def test_cli_solve_flow_rejects_a_step_count_that_overflows(hex_file):
    rc, err = _flow_cli(hex_file, "1e300", "1e-300")
    assert (rc, err) == (1, "diskfold: input error: --time and --dt: t_end / dt must be finite, got 1e+300 / 1e-300\n")


@pytest.mark.parametrize("time, dt, steps", [("1e200", "1e-100", "1e+300"), ("1e9", "0.01", "1e+11")])
def test_cli_solve_flow_rejects_more_samples_than_the_bound(hex_file, time, dt, steps):
    # 1e300 grid steps would never return: the bound rejects them before
    # the first evaluation, in a process killed after 20 s if it does not
    rc, err = _flow_cli(hex_file, time, dt)
    assert (rc, err) == (
        1, f"diskfold: input error: --time and --dt: {steps} steps of 8 entries record more than "
        "MAX_FLOW_FLOATS = 1e+08 floats\n",
    )


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


def _relabelled(data: dict, rng) -> dict:
    """The problem with vertex ids 2v+1 listed in shuffled order, faces
    rotated and in shuffled order."""
    verts = data["vertices"]
    new = {v: 2 * int(p) + 1 for v, p in zip(verts, rng.permutation(len(verts)))}
    faces = [[new[v] for v in f] for f in data["faces"]]
    faces = [f[k:] + f[:k] for f, k in zip(faces, rng.integers(0, 3, len(faces)))]

    def vmap(d):
        return {k if k == "hat" else str(new[int(k)]): x for k, x in d.items()}

    def emap(k):
        a, b = sorted(new[int(x)] for x in k.split("-"))
        return f"{a}-{b}"

    return {
        "vertices": [new[verts[i]] for i in rng.permutation(len(verts))],
        "faces": [faces[i] for i in rng.permutation(len(faces))],
        "alpha": vmap(data["alpha"]),
        "eta": {emap(k): x for k, x in data["eta"].items()},
        "mu": vmap(data["mu"]),
    }


def test_the_solve_path_builds_no_id_views():
    prob = parse_problem(preset("ring_lattice", n_rings=4))
    res = newton_flat(prob.cs)
    assert res.converged
    label_to_json(prob.aug, res.f)
    for complex_ in (prob.aug.disk, prob.aug):
        assert not {"faces", "edges", "boundary_edges", "interior_vertices"} & vars(complex_).keys()
    assert not {"alpha", "eta"} & vars(prob.cs).keys()
    # built when asked, from the arrays
    assert prob.cs.eta[(0, 1)] == 1.0 and "eta" in vars(prob.cs) and "edges" in vars(prob.aug)


def test_ids_past_int64_parse_solve_and_serialize():
    small = preset("ring_lattice", n_rings=2)
    big_id = {v: 2**64 + 3 * v for v in small["vertices"]}

    def vmap(d):
        return {k if k == "hat" else str(big_id[int(k)]): x for k, x in d.items()}

    def emap(k):
        u, v = (big_id[int(x)] for x in k.split("-"))
        return f"{u}-{v}"

    big = {
        "vertices": [big_id[v] for v in small["vertices"]],
        "faces": [[big_id[v] for v in f] for f in small["faces"]],
        "alpha": vmap(small["alpha"]),
        "eta": {emap(k): x for k, x in small["eta"].items()},
        "mu": vmap(small["mu"]),
    }
    ps, pb = parse_problem(small), parse_problem(big)
    assert pb.aug.compiled.ids.dtype == object
    assert pb.aug.apex == 2**64 + 3 * (len(small["vertices"]) - 1) + 1
    fs, fb = newton_flat(ps.cs).f, newton_flat(pb.cs).f
    assert np.array_equal(fs, fb)
    assert serialize_problem(pb, fb) == canonical_json({**big, "f_init": vmap(label_to_json(ps.aug, fs))})


def _shifted(data: dict, shift: int) -> dict:
    """The problem with every vertex id raised by shift."""

    def vmap(d):
        return {k if k == "hat" else str(int(k) + shift): x for k, x in d.items()}

    return {
        "vertices": [v + shift for v in data["vertices"]],
        "faces": [[v + shift for v in f] for f in data["faces"]],
        "alpha": vmap(data["alpha"]),
        "eta": {"-".join(str(int(x) + shift) for x in k.split("-")): h for k, h in data["eta"].items()},
        "mu": vmap(data["mu"]),
        "f_init": vmap(data["f_init"]),
    }


def _recorded_by_key(monkeypatch) -> list:
    """The sections that problem_io._by_key reads from now on, by where."""
    read = []
    by_key = problem_io._by_key

    def recorded(raw, where, *rest):
        read.append(where)
        return by_key(raw, where, *rest)

    monkeypatch.setattr(problem_io, "_by_key", recorded)
    return read


def _ring_with_f_init() -> dict:
    data = preset("ring_lattice", n_rings=3, scenario="orthogonal")
    f0 = np.random.default_rng(3).normal(size=len(data["vertices"]) + 1).tolist()
    data["f_init"] = {**{str(v): x for v, x in zip(data["vertices"], f0)}, "hat": f0[-1]}
    return data


@pytest.mark.parametrize("shift", [2**40, 10**19, 2**64])
def test_sections_with_ids_past_int64_are_read_whole(shift, monkeypatch):
    # 2**40: products of two ids overflow int64; 10**19: the ids pass int64
    # and their keys 18 digits; 2**64: past uint64 too.  The array reader
    # reads every section, into the arrays of the unshifted file bit for bit
    data = _ring_with_f_init()
    read = _recorded_by_key(monkeypatch)
    small = parse_problem(json.dumps(data))
    big = parse_problem(json.dumps(_shifted(data, shift)))
    label = label_from_json(big.aug, _shifted(data, shift)["f_init"])
    assert read == []
    assert big.aug.disk.vertices == tuple(v + shift for v in small.aug.disk.vertices)
    for name in ("alpha_array", "eta_array"):
        assert getattr(big.cs, name).tobytes() == getattr(small.cs, name).tobytes()
    assert big.f_init.tobytes() == small.f_init.tobytes() == label.tobytes()


def test_int_keyed_sections_are_read_key_by_key(monkeypatch):
    # a dictionary's int keys are not the text keys of a file: the per-key
    # reader takes alpha, mu and f_init, into the arrays of the file
    data = _ring_with_f_init()
    ints = {k: {x if x == "hat" else int(x): v for x, v in data[k].items()} for k in ("alpha", "mu", "f_init")}
    read = _recorded_by_key(monkeypatch)
    text = parse_problem(json.dumps(data))
    assert read == []
    keyed = parse_problem({**data, **ints})
    assert read == ["/alpha", "/mu", "/f_init"]
    for name in ("alpha_array", "eta_array"):
        assert getattr(keyed.cs, name).tobytes() == getattr(text.cs, name).tobytes()
    assert keyed.f_init.tobytes() == text.f_init.tobytes()
    assert label_from_json(keyed.aug, ints["f_init"]).tobytes() == text.f_init.tobytes()


def test_cli_layout_keeps_the_ids_of_a_relabelled_lattice(tmp_path, capsys):
    data = _relabelled(preset("ring_lattice", n_rings=3, scenario="orthogonal"), np.random.default_rng(3))
    path = tmp_path / "relabelled.json"
    path.write_text(canonical_json(data) + "\n")
    aug = parse_problem(path.read_text()).aug
    ids = list(aug.disk.vertices)
    assert ids != sorted(ids)
    # solved to 1e-12, so that every face chain closes to that order
    assert main(["layout", str(path), "--tol", "1e-12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["positions"]) == {str(v) for v in data["vertices"]} | {"hat"}
    # every edge of the file, the augmented ones (v, hat) included, at its length
    pos = {k: np.array(p) for k, p in out["positions"].items()}
    alpha, f = data["alpha"], out["f"]
    eta = [(*k.split("-"), h) for k, h in data["eta"].items()] + [(v, "hat", m) for v, m in data["mu"].items()]
    assert len(eta) == len(aug.edges)
    worst = 0.0
    for u, v, h in eta:
        eu, ev = np.exp(f[u]), np.exp(f[v])
        length = np.sqrt(alpha[u] * eu * eu + alpha[v] * ev * ev + 2.0 * h * eu * ev)
        worst = max(worst, abs(float(np.linalg.norm(pos[u] - pos[v])) - length) / length)
    assert worst <= 1e-12


def test_cli_rank(hex_file, capsys):
    assert main(["rank", str(hex_file), "--spectrum"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["shape"] == [26, 32]
    assert out["rank"] == len([s for s in out["singular_values"] if s > out["cutoff"] * out["singular_values"][0]])


@pytest.fixture()
def ring4_file(tmp_path):
    p = tmp_path / "ring4.json"
    p.write_text(canonical_json(preset("ring_lattice", n_rings=4)) + "\n")
    return p


def _spectrum_report(path) -> str:
    """rank's full-spectrum report, built from library calls: the solved
    label, its realization in the unit-disk frame, then every singular
    value of M."""
    prob = parse_problem(path.read_text())
    f = prob.f_init
    if f is None or np.max(np.abs(AngleSystem(prob.cs).curvature(f))) > 1e-8:
        f = newton_flat(prob.cs, f).f
    m = constraint_matrix(normalize_to_unit_disk(layout_augmented(prob.cs, f)))
    rank, s = numerical_rank(m, 1e-10)
    out = {"matrix": "constraint_matrix", "shape": list(m.shape), "cutoff": 1e-10, "rank": rank}
    out["singular_values"] = [float(x) for x in s]
    return canonical_json(out) + "\n"


@pytest.mark.parametrize("which", ["hex", "ring4"])
def test_cli_rank_spectrum_is_the_full_dense_report(hex_file, ring4_file, capsys, which):
    path = hex_file if which == "hex" else ring4_file
    assert main(["rank", str(path), "--spectrum"]) == 0
    assert capsys.readouterr().out == _spectrum_report(path)


@pytest.mark.parametrize("which", ["hex", "ring4"])
def test_cli_rank_reports_the_certificate(hex_file, ring4_file, capsys, which):
    path = hex_file if which == "hex" else ring4_file
    assert main(["rank", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"matrix", "shape", "cutoff", "rank", "s_max", "smallest_singular_values", "certificate"}
    assert out["certificate"] == "jacobian_kernel"
    dense = json.loads(_spectrum_report(path))
    assert out["rank"] == dense["rank"] == out["shape"][0]
    assert out["shape"] == dense["shape"]
    # s_max and the smallest values are J's, sigma_4 on: its first three are 0
    assert main(["rank", str(path), "--jacobian", "--spectrum"]) == 0
    s = json.loads(capsys.readouterr().out)["singular_values"]
    assert out["s_max"] == pytest.approx(s[0], rel=1e-12)
    assert out["smallest_singular_values"] == pytest.approx(s[::-1][3:7], rel=1e-8)


@pytest.mark.parametrize("which", ["hex", "ring4"])
def test_cli_rank_never_builds_or_realizes_m(hex_file, ring4_file, capsys, monkeypatch, which):
    import diskfold.cli as cli
    import diskfold.layout as layout
    import diskfold.rigidity as rigidity

    def no_m(*args, **kwargs):
        raise AssertionError("plain rank read M")

    for owner, attr in ((rigidity, "constraint_matrix"), (cli, "constraint_matrix"), (layout, "realize_mpoints")):
        monkeypatch.setattr(owner, attr, no_m)
    path = hex_file if which == "hex" else ring4_file
    assert main(["rank", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    n = out["shape"][1] // 4
    assert out["rank"] == 4 * n - 6 == out["shape"][0]


NOT_CERTIFIED = (
    "diskfold: numerical failure: full row rank of M (26 x 32) was not certified; rank --spectrum gives its dense SVD\n"
)


def test_cli_rank_exits_2_on_a_singular_factor(hex_file, capsys, monkeypatch):
    import scipy.sparse.linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    assert main(["rank", str(hex_file)]) == 2
    assert capsys.readouterr() == ("", NOT_CERTIFIED)


def test_cli_rank_spectrum_counts_a_duplicated_row(hex_file, capsys, monkeypatch):
    import diskfold.cli as cli

    def duplicated(layout):
        m = constraint_matrix(layout)
        m[1] = m[0]
        return m

    monkeypatch.setattr(cli, "constraint_matrix", duplicated)
    assert main(["rank", str(hex_file), "--spectrum"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["shape"] == [26, 32]
    assert out["rank"] == 25
    assert out["singular_values"][-1] <= 1e-10 * out["singular_values"][0]


@pytest.mark.parametrize("flags", [[], ["--spectrum"]])
def test_cli_rank_without_room_for_the_dense_m_exits_2(hex_file, capsys, monkeypatch, flags):
    # the dense M takes 18.6 GiB at ring 64: --spectrum names its shape in
    # one line, and plain rank, whose certificate reads J, never asks for it
    import diskfold.cli as cli

    def no_room(layout):
        raise MemoryError

    monkeypatch.setattr(cli, "row_rank_certificate", lambda layout, cutoff: None)
    monkeypatch.setattr(cli, "constraint_matrix", no_room)
    assert main(["rank", str(hex_file), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if flags:
        assert captured.err == (
            "diskfold: numerical failure: --spectrum needs M (26 x 32) dense, which does not fit in memory\n"
        )
    else:
        assert captured.err == NOT_CERTIFIED


@pytest.mark.parametrize(
    "flag, owner, attr",
    [("--jacobian", "system", "jacobian"), ("--jacobian", "cli", "numerical_rank"), ("--spectrum", "cli", "numerical_rank")],
)
def test_cli_rank_dense_route_without_memory_exits_2(hex_file, capsys, monkeypatch, flag, owner, attr):
    # densifying or the SVD itself may run out of memory (the dense J of
    # ring 128 orthogonal takes 18.3 GiB): one line naming the matrix
    import diskfold.cli as cli

    def no_room(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(AngleSystem if owner == "system" else cli, attr, no_room)
    assert main(["rank", str(hex_file), flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    which = "J (8 x 8)" if flag == "--jacobian" else "M (26 x 32)"
    assert captured.err == f"diskfold: numerical failure: {flag} needs {which} dense, which does not fit in memory\n"


def test_cli_rank_jacobian_keeps_the_dense_route(hex_file, capsys):
    assert main(["rank", str(hex_file), "--jacobian"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"] == "svd"
    # J's kernel at a flat label: the shift and the two Mobius translations
    assert out["rank"] == 5


def test_cli_mobius_check(hex_file, capsys):
    assert main(["mobius-check", str(hex_file), "--eps", "1e-3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["checks"]) == 6
    assert all(c["ok"] for c in out["checks"])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_mobius_check_passes_on_ring4(tmp_path, capsys, scenario):
    # the bounds are absolute, so the check runs on the normalized layout
    # whatever the lattice's own scale
    path = tmp_path / "ring4.json"
    path.write_text(canonical_json(preset("ring_lattice", n_rings=4, scenario=scenario)) + "\n")
    assert main(["mobius-check", str(path)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 12 and all(c["ok"] for c in checks)


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
    assert len(compiled) == 1


@pytest.mark.parametrize("command", ["layout", "render", "rank", "mobius-check"])
@pytest.mark.parametrize("start", ["flat", "perturbed"])
def test_cli_compiles_one_system(hex_file, perturbed_hex_file, capsys, monkeypatch, command, start):
    compiled = []
    init = AngleSystem.__init__
    monkeypatch.setattr(AngleSystem, "__init__", lambda self, *a: compiled.append(1) or init(self, *a))
    path = hex_file if start == "flat" else perturbed_hex_file
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert len(compiled) == 1


@pytest.mark.parametrize(
    "argv", [["curvature"], ["solve"], ["solve", "--method", "flow", "--time", "0.1"]]
)
def test_cli_start_compiles_one_system(hex_file, capsys, monkeypatch, argv):
    # hex_file has no f_init, so each command builds default_start first
    compiled = []
    init = AngleSystem.__init__
    monkeypatch.setattr(AngleSystem, "__init__", lambda self, *a: compiled.append(1) or init(self, *a))
    assert main([argv[0], str(hex_file), *argv[1:]]) == 0
    capsys.readouterr()
    assert len(compiled) == 1


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


#: Run in a fresh interpreter: the argv lists given as JSON in argv[1]
#: go through cli.main in turn, and the report lists, after the import
#: and after each command, its exit code and whether any scipy module
#: is loaded.
_SCIPY_PROBE = """
import json, sys
from diskfold.cli import main

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

report = [["import", 0, scipy_loaded()]]
for argv in json.loads(sys.argv[1]):
    report.append([argv[0], main(argv), scipy_loaded()])
print(json.dumps(report))
"""


def _scipy_report(argvs) -> list:
    run = _python("-c", _SCIPY_PROBE, json.dumps(argvs))
    run.check_returncode()
    return json.loads(run.stdout)


def test_only_newton_and_rank_load_scipy(perturbed_hex_file, tmp_path):
    # every diskfold call is a fresh process, and importing scipy costs
    # more than all the numpy work of these commands on small inputs
    data = preset("hex_tangent")
    data["f_init"] = label_to_json(parse_problem(data).aug, HEX_FLAT["hex_tangent"])
    flat = tmp_path / "hex_flat.json"
    flat.write_text(canonical_json(data) + "\n")
    out = str(tmp_path / "out")
    plain = [
        ["validate", str(flat)],
        ["curvature", str(flat)],
        ["solve", str(perturbed_hex_file), "--method", "flow", "--time", "1"],
        ["layout", str(flat), "--normalize"],
        ["render", str(flat)],
        ["mobius-check", str(flat)],
    ]
    newton = ["solve", str(perturbed_hex_file)]
    report = _scipy_report([argv + ["--out", out] for argv in plain + [newton]])
    assert report == [["import", 0, False]] + [[argv[0], 0, False] for argv in plain] + [["solve", 0, True]]
    assert _scipy_report([["rank", str(flat), "--out", out]]) == [["import", 0, False], ["rank", 0, True]]


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
    # bytes that no text encoding of the file decodes are an input error too
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe\x00x")
    capsys.readouterr()
    assert main(["validate", str(undecodable)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("diskfold: input error:") and "Traceback" not in err
    # usage errors exit 1 as well, not argparse's default 2
    assert main(["solve"]) == 1
    assert main(["no-such-command"]) == 1


def test_cli_validate_rejects_an_int_too_large_for_a_float(tmp_path, capsys):
    data = preset("hex_tangent")
    data["alpha"]["hat"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert '"hat": 1' + "0" * 400 + "}" in path.read_text()
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "/alpha/hat: number out of float range" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--perturb", "0.3", "--seed", "5"],
        ["--perturb", "0.3"],
        ["--perturb", "0"],
        ["--seed", "5"],
        ["--jacobian", "--seed", "5"],
        ["--jacobian", "--perturb", "0", "--seed", "5"],
    ],
)
def test_cli_rank_perturb_needs_jacobian(hex_file, capsys, flags):
    # without --jacobian these flags, and --seed without a --perturb move,
    # once changed nothing in the output
    assert main(["rank", str(hex_file), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if "--jacobian" in flags:
        assert captured.err == "diskfold: input error: --seed draws the --perturb move, and needs it\n"
    else:
        assert captured.err == "diskfold: input error: --perturb and --seed move the label of --jacobian, and need it\n"


def test_cli_rank_jacobian_perturbed(hex_file, capsys):
    assert main(["rank", str(hex_file), "--jacobian", "--perturb", "0.01", "--seed", "0"]) == 0
    seeded = capsys.readouterr().out
    assert main(["rank", str(hex_file), "--jacobian", "--perturb", "0.01"]) == 0
    assert capsys.readouterr().out == seeded  # the seed defaults to 0
    out = json.loads(seeded)
    assert out["matrix"] == "curvature_jacobian"
    assert out["shape"] == [8, 8]
    # off the flat label only the shift direction stays in the kernel
    assert out["rank"] == 7


# -- every schema rejection of parse_problem, pinned with its full message --


def _drop(d, key):
    d.pop(key)


def _put(section, key, value):
    def edit(d):
        d[section][key] = value
    return edit


def _without(section, key):
    return lambda d: d[section].pop(key)


def _rename(section, key, new):
    return lambda d: d[section].__setitem__(new, d[section].pop(key))


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


def _with_f_init(edit=None):
    def make(d):
        d["f_init"] = {**{str(v): 0.0 for v in range(7)}, "hat": 1.0}
        if edit is not None:
            edit(d)
    return make


NAN = float("nan")
# hex_tangent: vertices 0..6, interior vertex 0, boundary cycle 1..6
PARSE_REJECTIONS = {
    "faces not a list": (_set("faces", None), "/faces: must be a list"),
    "missing keys": (lambda d: (_drop(d, "eta"), _drop(d, "mu")), "missing keys ['eta', 'mu']"),
    "unknown keys": (_set("flavor", 1), "unknown keys ['flavor']"),
    "empty vertices": (_set("vertices", []), "/vertices: must be a nonempty list"),
    "vertices not a list": (_set("vertices", {"0": 0}), "/vertices: must be a nonempty list"),
    "bool vertex": (lambda d: d["vertices"].__setitem__(3, True), "/vertices/3: must be a nonnegative integer"),
    "negative vertex": (lambda d: d["vertices"].__setitem__(2, -2), "/vertices/2: must be a nonnegative integer"),
    "string vertex": (lambda d: d["vertices"].__setitem__(1, "1"), "/vertices/1: must be a nonnegative integer"),
    "float vertex": (lambda d: d["vertices"].__setitem__(4, 4.0), "/vertices/4: must be a nonnegative integer"),
    "short face": (lambda d: d["faces"].__setitem__(2, [0, 3]), "/faces/2: must be a list of three vertex ids"),
    "bool in face": (lambda d: d["faces"][1].__setitem__(0, False), "/faces/1: must be a list of three vertex ids"),
    "string in face": (lambda d: d["faces"][5].__setitem__(2, "1"), "/faces/5: must be a list of three vertex ids"),
    "face not a list": (lambda d: d["faces"].__setitem__(0, 7), "/faces/0: must be a list of three vertex ids"),
    "not a disk": (
        lambda d: d["faces"].__setitem__(1, list(d["faces"][0])),
        "not a triangulated disk: duplicate face (face=(0, 1, 2))",
    ),
    "alpha not an object": (_set("alpha", [1.0]), "/alpha: must be an object"),
    "alpha without hat": (_without("alpha", "hat"), '/alpha: missing the apex entry "hat"'),
    "bool alpha hat": (_put("alpha", "hat", True), "/alpha/hat: expected a number, got True"),
    "string alpha hat": (_put("alpha", "hat", "1"), "/alpha/hat: expected a number, got '1'"),
    "nan alpha hat": (_put("alpha", "hat", NAN), "/alpha/hat: number must be finite"),
    "alpha key 01": (_put("alpha", "01", 1.0), "/alpha: key '01' is not a vertex id"),
    "alpha key x": (_put("alpha", "x", 1.0), "/alpha: key 'x' is not a vertex id"),
    "alpha unknown vertex": (_put("alpha", "9", 1.0), "/alpha/9: unknown vertex"),
    "bool alpha": (_put("alpha", "3", False), "/alpha/3: expected a number, got False"),
    "string alpha": (_put("alpha", "3", "1.0"), "/alpha/3: expected a number, got '1.0'"),
    "infinite alpha": (_put("alpha", "3", float("inf")), "/alpha/3: number must be finite"),
    "huge int alpha hat": (_put("alpha", "hat", 10**400), "/alpha/hat: number out of float range"),
    "huge int alpha": (_put("alpha", "3", -(10**400)), "/alpha/3: number out of float range"),
    "null alpha": (_put("alpha", "5", None), "/alpha/5: expected a number, got None"),
    "missing alpha": (
        lambda d: (d["alpha"].pop("3"), d["alpha"].pop("0")), "/alpha: missing vertices [0, 3]",
    ),
    "eta not an object": (_set("eta", 1.0), "/eta: must be an object"),
    "eta key 3-1": (_put("eta", "3-1", 1.0), "/eta/3-1: ids must satisfy i < j"),
    "eta key 1-1": (_put("eta", "1-1", 1.0), "/eta/1-1: ids must satisfy i < j"),
    "eta key 1-2-3": (_put("eta", "1-2-3", 1.0), "/eta/1-2-3: key must look like 'i-j'"),
    "eta key x": (_put("eta", "x", 1.0), "/eta/x: key must look like 'i-j'"),
    "eta key x-1": (_put("eta", "x-1", 1.0), "/eta/x-1: key 'x' is not a vertex id"),
    "eta key 01-2": (_put("eta", "01-2", 1.0), "/eta/01-2: key '01' is not a vertex id"),
    "eta key 1-02": (_put("eta", "1-02", 1.0), "/eta/1-02: key '02' is not a vertex id"),
    # a renamed key keeps the count of keys right, so only the keys tell
    "eta key 01-2 for 1-2": (_rename("eta", "1-2", "01-2"), "/eta/01-2: key '01' is not a vertex id"),
    "eta key +1-2 for 1-2": (_rename("eta", "1-2", "+1-2"), "/eta/+1-2: key '+1' is not a vertex id"),
    "eta key 2-1 for 1-2": (_rename("eta", "1-2", "2-1"), "/eta/2-1: ids must satisfy i < j"),
    "eta key 1-4 for 1-2": (_rename("eta", "1-2", "1-4"), "/eta/1-4: not an edge of the disk"),
    "eta key 1-2,0-1 for 1-2": (_rename("eta", "1-2", "1-2,0-1"), "/eta/1-2,0-1: key must look like 'i-j'"),
    "eta key \u0661-\u0662 for 1-2": (
        _rename("eta", "1-2", "\u0661-\u0662"), "/eta/\u0661-\u0662: key '\u0661' is not a vertex id",
    ),
    "eta non-edge": (_put("eta", "1-4", 1.0), "/eta/1-4: not an edge of the disk"),
    "eta unknown vertex": (_put("eta", "1-99", 1.0), "/eta/1-99: not an edge of the disk"),
    "bool eta": (_put("eta", "0-1", True), "/eta/0-1: expected a number, got True"),
    "string eta": (_put("eta", "0-1", "x"), "/eta/0-1: expected a number, got 'x'"),
    "nan eta": (_put("eta", "1-2", NAN), "/eta/1-2: number must be finite"),
    "huge int eta": (_put("eta", "1-2", 10**400), "/eta/1-2: number out of float range"),
    "missing eta": (
        lambda d: (d["eta"].pop("1-6"), d["eta"].pop("0-1")), "/eta: missing edges [(0, 1), (1, 6)]",
    ),
    "mu not an object": (_set("mu", []), "/mu: must be an object"),
    "mu interior vertex": (_put("mu", "0", 0.0), "/mu/0: not a boundary vertex"),
    "mu unknown vertex": (_put("mu", "99", 0.0), "/mu/99: not a boundary vertex"),
    "mu key 01": (_put("mu", "01", 0.0), "/mu: key '01' is not a vertex id"),
    "mu key x": (_put("mu", "x", 0.0), "/mu: key 'x' is not a vertex id"),
    "bool mu": (_put("mu", "2", True), "/mu/2: expected a number, got True"),
    "string mu": (_put("mu", "2", "0"), "/mu/2: expected a number, got '0'"),
    "infinite mu": (_put("mu", "2", float("-inf")), "/mu/2: number must be finite"),
    "missing mu": (
        lambda d: (d["mu"].pop("6"), d["mu"].pop("2")), "/mu: missing boundary vertices [2, 6]",
    ),
    "f_init not an object": (_set("f_init", [0.0]), "/f_init: must be an object"),
    "f_init without hat": (_with_f_init(_without("f_init", "hat")), '/f_init: missing the apex entry "hat"'),
    "bool f_init hat": (_with_f_init(_put("f_init", "hat", True)), "/f_init/hat: expected a number, got True"),
    "nan f_init hat": (_with_f_init(_put("f_init", "hat", NAN)), "/f_init/hat: number must be finite"),
    "f_init key 01": (_with_f_init(_put("f_init", "01", 0.0)), "/f_init: key '01' is not a vertex id"),
    "f_init key x": (_with_f_init(_put("f_init", "x", 0.0)), "/f_init: key 'x' is not a vertex id"),
    "f_init unknown vertex": (_with_f_init(_put("f_init", "7", 0.0)), "/f_init/7: unknown vertex"),
    "string f_init": (_with_f_init(_put("f_init", "4", "0")), "/f_init/4: expected a number, got '0'"),
    "infinite f_init": (_with_f_init(_put("f_init", "4", float("inf"))), "/f_init/4: number must be finite"),
    "missing f_init": (_with_f_init(_without("f_init", "5")), "/f_init: missing vertices [5]"),
    # the first offence wins: the sections in schema order, keys in file order
    "alpha before eta": (
        lambda d: (_put("eta", "x", 1.0)(d), _put("alpha", "x", 1.0)(d)), "/alpha: key 'x' is not a vertex id",
    ),
    "first key in file order": (
        lambda d: d.__setitem__("mu", {"x": 0.0, **d["mu"], "0": True}), "/mu: key 'x' is not a vertex id",
    ),
    "bad entry before missing ones": (
        lambda d: d.__setitem__("alpha", {"hat": 1.0, "2": "2"}), "/alpha/2: expected a number, got '2'",
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_REJECTIONS))
def test_parse_rejection_messages_are_pinned(case):
    edit, message = PARSE_REJECTIONS[case]
    data = json.loads(json.dumps(preset("hex_tangent")))
    edit(data)
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(data)
    assert str(info.value) == message
    # the same problem as JSON text gives the same message
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(json.dumps(data))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "problem must be a JSON object"),
        ('{"vertices": [0, 1, 2], "faces": [[0, 1, 2]], "alpha": {"0": NaN}}', "missing keys ['eta', 'mu']"),
    ],
)
def test_parse_rejects_text(text, message):
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(text)
    assert str(info.value) == message
