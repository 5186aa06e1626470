"""Conformal lengths, angles, curvature and the curvature Jacobian."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskfold import (
    AngleSystem,
    ConformalStructure,
    InadmissibleLabelError,
    StructureError,
    attach_boundary_data,
    augment,
    curvature_flow,
    layout_augmented,
    layout_disk,
    measure_equivalence_check,
    newton_flat,
    normalize_to_unit_disk,
    realize_mpoints,
    render_svg,
)
from diskfold.complexes import edge_key
from diskfold.conformal import COS_CLAMP_TOL, Evaluation
from diskfold.presets import SCENARIOS, build, hex_flower, random_admissible, ring_lattice, scenario_data, triangle_disk
from diskfold.solver import default_start

from conftest import HEX_FLAT, flipped_disk


def _hex(scenario="tangent"):
    disk = hex_flower()
    aug = augment(disk)
    alpha, eta, mu = scenario_data(disk, scenario)
    return aug, attach_boundary_data(aug, alpha, eta, mu)


def _ring2(scenario="tangent"):
    disk = ring_lattice(2)
    aug = augment(disk)
    alpha, eta, mu = scenario_data(disk, scenario)
    return aug, attach_boundary_data(aug, alpha, eta, mu)


label_entry = st.floats(min_value=-0.25, max_value=0.25)


def _labels(aug):
    n = len(aug.vertices)
    return st.lists(label_entry, min_size=n, max_size=n).map(np.array)


def test_tangent_lengths_are_radius_sums():
    """alpha = eta = 1 makes every disk edge length e^{f_u} + e^{f_v}."""
    aug, cs = _hex()
    f = {v: 0.1 * v for v in aug.vertices}
    lengths = dict(zip(aug.edges, AngleSystem(cs).evaluate(f).lengths))
    for (u, v) in aug.disk.edges:
        expect = np.exp(f[u]) + np.exp(f[v])
        assert lengths[(u, v)] == pytest.approx(expect, rel=1e-14)


def test_apex_edges_use_folded_weights():
    # mu = -1 on the tangent scenario: internal tangency |R - r|
    aug, cs = _hex()
    f = {v: 0.0 for v in aug.vertices}
    f[aug.apex] = np.log(3.0)
    lengths = dict(zip(aug.edges, AngleSystem(cs).evaluate(f).lengths))
    for w in aug.disk.boundary_cycle:
        assert lengths[edge_key(w, aug.apex)] == pytest.approx(2.0, rel=1e-14)


def test_angles_sum_to_pi():
    aug, cs = _hex()
    sysm = AngleSystem(cs)
    rng = np.random.default_rng(5)
    f = HEX_FLAT["hex_tangent"] + rng.uniform(-0.05, 0.05, 8)
    th = sysm.angles(f)
    assert np.allclose(th.sum(axis=1), np.pi, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_angle_sums_and_gauss_bonnet(data):
    """Angle sums are pi per face and curvatures sum to zero exactly."""
    # near-zero labels are generically admissible for mu = 0
    aug, cs = _ring2("orthogonal")
    sysm = AngleSystem(cs)
    f = data.draw(_labels(aug))
    if not sysm.admissible(f):
        return
    th = sysm.angles(f)
    assert np.allclose(th.sum(axis=1), np.pi, atol=1e-11)
    K = sysm.curvature(f)
    assert abs(K.sum()) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.data(), st.floats(min_value=-3.0, max_value=3.0))
def test_curvature_is_shift_invariant(data, c):
    """Adding a constant to f rescales all lengths and changes no angle."""
    aug, cs = _hex("orthogonal")
    sysm = AngleSystem(cs)
    f = data.draw(_labels(aug))
    if not sysm.admissible(f):
        return
    K0 = sysm.curvature(f)
    K1 = sysm.curvature(f + c)
    assert np.max(np.abs(K1 - K0)) <= 1e-9


def test_flat_labels_have_zero_curvature():
    for name, f in HEX_FLAT.items():
        scenario = name.split("_")[1]
        aug, cs = _hex(scenario)
        K = AngleSystem(cs).curvature(f)
        assert np.max(np.abs(K)) <= 1e-13


def test_curvature_signs_and_constants():
    # uniform label on the hex disk: each disk angle is pi/3, the
    # interior vertex is flat, every augmented angle contributes with
    # the opposite sign
    aug, cs = _hex()
    f = np.zeros(8)
    f[-1] = np.log(3.0)  # apex edges have length 2 = disk edge length
    sysm = AngleSystem(cs)
    K = sysm.curvature(f)
    i0 = aug.vertex_index[0]
    assert K[i0] == pytest.approx(0.0, abs=1e-12)
    # boundary vertex: disk sheet holds 2 pi/3, augmented sheet the same
    ib = aug.vertex_index[1]
    assert K[ib] == pytest.approx(0.0, abs=1e-12)
    assert abs(K.sum()) <= 1e-12


def test_inadmissible_labels_are_rejected():
    aug, cs = _hex()
    sysm = AngleSystem(cs)

    # apex circle equal to a boundary circle: the folded edge collapses
    f = np.zeros(8)
    assert not sysm.admissible(f)
    kind, i, values = sysm.evaluate(f).violation
    assert kind == "edge" and values == 0.0
    with pytest.raises(InadmissibleLabelError) as info:
        sysm.angles(f)
    assert info.value.simplex == aug.edges[i]
    with pytest.raises(InadmissibleLabelError):
        sysm.accept(sysm.evaluate(f))

    # apex slightly larger: edges exist but the folded faces do not
    # close (e^0.5 - 1 twice against a disk edge of length 2)
    f = np.zeros(8)
    f[-1] = 0.5
    v = sysm.evaluate(f).violation
    assert v is not None and v[0] == "face"


def test_negative_length_square_detected():
    disk = triangle_disk()
    aug = augment(disk)
    alpha = {v: 1.0 for v in disk.vertices}
    eta = {e: -5.0 for e in disk.edges}  # hyperideal: l^2 < 0 at f = 0
    mu = {v: 0.0 for v in disk.boundary_cycle}
    cs = attach_boundary_data(aug, alpha, eta, mu)
    sysm = AngleSystem(cs)
    v = sysm.evaluate(np.zeros(4)).violation
    assert v is not None and v[0] == "edge"


def test_structure_validation():
    disk = hex_flower()
    aug = augment(disk)
    alpha, eta, mu = scenario_data(disk, "tangent")
    del eta[next(iter(eta))]
    with pytest.raises(StructureError):
        attach_boundary_data(aug, alpha, eta, mu)


def _drop_keys(d, *keys):
    return {k: x for k, x in d.items() if k not in keys}


def _with(d, key, value):
    return {**d, key: value}


NAN, INF = float("nan"), float("inf")
# hex_flower: vertices 0..6, boundary cycle 1..6, apex 7
STRUCTURE_REJECTIONS = {
    "missing alpha": (lambda a, e, m: (_drop_keys(a, 3, 0), e, m, 1.0), "alpha misses vertices [0, 3]"),
    "missing eta": (lambda a, e, m: (a, _drop_keys(e, (1, 6), (0, 2)), m, 1.0), "eta misses edges [(0, 2), (1, 6)]"),
    "missing mu": (lambda a, e, m: (a, e, _drop_keys(m, 4, 2), 1.0), "mu misses boundary vertex 2"),
    "alpha before eta": (lambda a, e, m: (_drop_keys(a, 5), _drop_keys(e, (0, 1)), m, 1.0), "alpha misses vertices [5]"),
    "nan alpha": (lambda a, e, m: (_with(a, 5, NAN), e, m, 1.0), "alpha[5] is not finite"),
    "infinite apex alpha": (lambda a, e, m: (a, e, m, INF), "alpha[7] is not finite"),
    "nan eta": (lambda a, e, m: (a, _with(e, (1, 2), NAN), m, 1.0), "eta[(1, 2)] is not finite"),
    "infinite mu": (lambda a, e, m: (a, e, _with(m, 3, -INF), 1.0), "eta[(3, 7)] is not finite"),
    "alpha checked first": (lambda a, e, m: (_with(a, 6, NAN), _with(e, (0, 1), NAN), m, 1.0), "alpha[6] is not finite"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_REJECTIONS))
def test_structure_rejection_messages_are_pinned(case):
    disk = hex_flower()
    aug = augment(disk)
    edit, message = STRUCTURE_REJECTIONS[case]
    alpha, eta, mu, apex_alpha = edit(*scenario_data(disk, "tangent"))
    with pytest.raises(StructureError) as info:
        attach_boundary_data(aug, alpha, eta, mu, apex_alpha=apex_alpha)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda a, e: (_drop_keys(a, 7, 2), e), "alpha misses vertices [2, 7]"),
        (lambda a, e: (a, _drop_keys(e, (6, 7))), "eta misses edges [(6, 7)]"),
        (lambda a, e: (_with(a, 99, NAN), e), "alpha[99] is not finite"),
        (lambda a, e: (a, _with(e, (0, 4), INF)), "eta[(0, 4)] is not finite"),
    ],
)
def test_angle_system_rejection_messages_are_pinned(edit, message):
    aug, cs = _hex()
    alpha, eta = edit(dict(cs.alpha), dict(cs.eta))
    with pytest.raises(StructureError) as info:
        AngleSystem(ConformalStructure.on(aug, alpha, eta))
    assert str(info.value) == message


#: Every entry that reads one kind of complex from its structure, called
#: with a structure on the other kind: the augmented-only entries with the
#: hex structure gathered onto its plain disk (the output stage with the
#: plain disk's layout), layout_disk with the augmented one.
_ON_THE_OTHER_KIND = {
    "default_start": lambda cs, on_disk, f, lay: default_start(on_disk),
    "newton_flat": lambda cs, on_disk, f, lay: newton_flat(on_disk, f),
    "curvature_flow": lambda cs, on_disk, f, lay: curvature_flow(on_disk, f, 0.1, 0.01),
    "layout_augmented": lambda cs, on_disk, f, lay: layout_augmented(on_disk, f),
    "layout_disk": lambda cs, on_disk, f, lay: layout_disk(cs, f),
    "realize_mpoints": lambda cs, on_disk, f, lay: realize_mpoints(lay),
    "normalize_to_unit_disk": lambda cs, on_disk, f, lay: normalize_to_unit_disk(lay),
    "render_svg": lambda cs, on_disk, f, lay: render_svg(lay),
    "measure_equivalence_check": lambda cs, on_disk, f, lay: measure_equivalence_check(on_disk, f),
}


@pytest.mark.parametrize("entry", sorted(_ON_THE_OTHER_KIND))
def test_a_structure_serves_only_its_own_complex(entry):
    aug, cs = _hex()
    f = HEX_FLAT["hex_tangent"]
    on_disk = ConformalStructure.on(aug.disk, cs.alpha, cs.eta)
    lay = layout_disk(on_disk, f[:-1])
    kinds = ("AugmentedDisk", "CombinatorialDisk")
    got, need = kinds if entry == "layout_disk" else kinds[::-1]
    with pytest.raises(StructureError, match=f"^the structure's complex is {got}, not {need}$"):
        _ON_THE_OTHER_KIND[entry](cs, on_disk, f, lay)


@pytest.mark.parametrize(
    "call, got",
    [
        pytest.param(lambda aug, cs: newton_flat(aug, cs), "AugmentedDisk", id="newton_flat"),
        pytest.param(lambda aug, cs: default_start(aug), "AugmentedDisk", id="default_start"),
        pytest.param(lambda aug, cs: layout_disk(aug.disk, cs), "CombinatorialDisk", id="layout_disk"),
    ],
)
def test_an_old_style_call_names_the_api_change(call, got):
    """A complex where the structure goes raises TypeError, not an
    AttributeError from inside the entry."""
    aug, cs = _hex()
    with pytest.raises(TypeError, match=f"^expected a ConformalStructure, got {got}$"):
        call(aug, cs)


def test_structure_arrays_gather_in_complex_order():
    disk = ring_lattice(2)
    aug = augment(disk)
    rng = np.random.default_rng(4)
    alpha = {v: rng.uniform(0.7, 1.4) for v in disk.vertices}
    eta = {e: rng.uniform(0.9, 1.5) for e in disk.edges}
    mu = {v: rng.uniform(-0.4, 0.4) for v in disk.boundary_cycle}
    cs = attach_boundary_data(aug, alpha, eta, mu, apex_alpha=0.7)
    a, h = cs.alpha_array, cs.eta_array
    assert a.tolist() == [cs.alpha[v] for v in aug.vertices]
    assert h.tolist() == [cs.eta[e] for e in aug.edges]
    assert not a.flags.writeable and not h.flags.writeable
    # aligned arrays give the same structure
    aligned = attach_boundary_data(
        aug,
        np.array([alpha[v] for v in disk.vertices]),
        np.array([eta[e] for e in disk.edges]),
        np.array([mu[v] for v in disk.boundary_cycle]),
        apex_alpha=0.7,
    )
    assert aligned.alpha == cs.alpha and aligned.eta == cs.eta
    # so do the structure's own arrays through on, non-finite ones named by id
    again = ConformalStructure.on(aug, a, h)
    assert again.alpha_array.tobytes() == a.tobytes() and again.eta_array.tobytes() == h.tobytes()
    with pytest.raises(StructureError, match=rf"^alpha\[{aug.apex}\] is not finite$"):
        ConformalStructure.on(aug, np.append(a[:-1], np.nan), h)
    bad_eta = h.copy()
    bad_eta[2] = np.inf
    with pytest.raises(StructureError) as info:
        ConformalStructure.on(aug, a, bad_eta)
    assert str(info.value) == f"eta[{aug.edges[2]}] is not finite"
    # the id gather at the edge: the disk's rows of the augmented arrays
    on_disk = ConformalStructure.on(aug.disk, cs.alpha, cs.eta)
    ne = len(disk.compiled.E)
    assert on_disk.alpha_array.tobytes() == cs.alpha_array[:-1].tobytes()
    assert on_disk.eta_array.tobytes() == cs.eta_array[np.argsort(aug.source)[:ne]].tobytes()
    with pytest.raises(StructureError, match=r"^expected 19 values, got shape \(3,\)$"):
        attach_boundary_data(aug, np.zeros(3), eta, mu)


def edge_length(cs: ConformalStructure, f, edge) -> float:
    """Scalar reference: the length of one edge under the label (a mapping)."""
    u, v = edge
    l2 = (
        cs.alpha[u] * np.exp(2 * f[u])
        + cs.alpha[v] * np.exp(2 * f[v])
        + 2 * cs.eta[edge_key(u, v)] * np.exp(f[u] + f[v])
    )
    if not l2 > 0:
        raise InadmissibleLabelError(
            f"squared length {l2!r} on edge {edge} is not positive", simplex=edge
        )
    return float(np.sqrt(l2))


def face_angles(cs: ConformalStructure, f, face) -> tuple:
    """Scalar reference: the angles of one face at its corners, in face order."""
    i, j, k = face
    a = edge_length(cs, f, (j, k))
    b = edge_length(cs, f, (i, k))
    c = edge_length(cs, f, (i, j))
    if not (a + b > c and b + c > a and a + c > b):
        raise InadmissibleLabelError(
            f"triangle inequality fails on face {face}: lengths {(a, b, c)}",
            simplex=face,
        )
    out = []
    for (op, s1, s2) in ((a, b, c), (b, a, c), (c, a, b)):
        cosv = (s1 * s1 + s2 * s2 - op * op) / (2 * s1 * s2)
        if abs(cosv) > 1.0 + COS_CLAMP_TOL:
            raise InadmissibleLabelError(f"degenerate angle in face {face}", simplex=face)
        out.append(float(np.arccos(np.clip(cosv, -1.0, 1.0))))
    return tuple(out)


def _scalar_verdict_and_curvature(aug, cs, f):
    """Verdict and K through edge_length / face_angles, one face at a time."""
    fd = dict(zip(aug.vertices, f))
    K = {v: 0.0 for v in aug.vertices}
    for v in aug.disk.interior_vertices:
        K[v] = 2.0 * np.pi
    K[aug.apex] = -2.0 * np.pi
    for i, face in enumerate(aug.faces):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # wide labels overflow exp
                th = face_angles(cs, fd, face)
        except InadmissibleLabelError:
            return False, None
        sign = -1.0 if i < aug.n_disk_faces else 1.0
        for v, angle in zip(face, th):
            K[v] += sign * angle
    return True, np.array([K[v] for v in aug.vertices])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["tangent", "orthogonal", "inscribed"]),
       st.sampled_from([0.02, 0.3, 1.0, 4.0, 400.0]))
def test_verdict_and_curvature_match_scalar_path(data, scenario, scale):
    """admissible, accept and curvature agree with the scalar
    edge_length / face_angles path, admissible labels or not."""
    aug, cs = _ring2(scenario)
    sysm = AngleSystem(cs)
    n = len(aug.vertices)
    noise = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array))
    f = default_start(cs) + scale * noise
    ok, K_ref = _scalar_verdict_and_curvature(aug, cs, f)
    assert sysm.admissible(f) == ok
    if ok:
        sysm.accept(sysm.evaluate(f))
        assert np.max(np.abs(sysm.curvature(f) - K_ref)) <= 1e-14
    else:
        with pytest.raises(InadmissibleLabelError):
            sysm.accept(sysm.evaluate(f))
        with pytest.raises(InadmissibleLabelError):
            sysm.curvature(f)


def test_degenerate_angle_reported():
    """Sides 1.45..., 1.5e-10 and 1.45... pass the strict triangle
    inequality in floating point, but the cosines of the two wide angles
    round to 1 + 5e-8 and -1 - 5e-8: an angle violation, reported at the
    first corner that shows it, so the label is not admissible."""
    disk = triangle_disk()
    eta = {(0, 1): 1.052031767064613, (0, 2): 1.1811752847538073e-20, (1, 2): 1.052031766841666}
    cs = ConformalStructure.on(disk, {v: 0.0 for v in disk.vertices}, eta)  # l^2 = 2 eta at f = 0
    sysm = AngleSystem(cs)
    f = np.zeros(3)
    assert not sysm.admissible(f)
    kind, i, cos = sysm.evaluate(f).violation
    assert (kind, i) == ("angle", 0) and cos > 1.0 + COS_CLAMP_TOL
    views = (lambda f: sysm.accept(sysm.evaluate(f)), sysm.angles, sysm.curvature, sysm.jacobian, sysm.sparse_jacobian)
    for view in views:
        with pytest.raises(InadmissibleLabelError) as info:
            view(f)
        assert str(info.value) == "degenerate angle in face (0, 1, 2)"
        assert info.value.simplex == (0, 1, 2)


def test_non_finite_labels_rejected():
    aug, cs = _hex()
    sysm = AngleSystem(cs)
    f = np.zeros(8)
    f[0] = 400.0  # exp overflow
    assert not sysm.admissible(f)


# -- the evaluation pass, bit for bit ------------------------------------


def _reference_pass(cs: ConformalStructure, f: np.ndarray) -> Evaluation:
    """One evaluation in the pass's original op order: np.exp(2 * fe),
    (b * b + c * c - a * a) / (2 * b * c), the maximum then minimum
    clamp, and one bincount over const, then the signed angles."""
    ix, n = cs.complex.compiled, len(cs.complex.vertices)
    fe = f[ix.E.T]
    with np.errstate(over="ignore", invalid="ignore"):
        ends = cs.alpha_array[ix.E.T] * np.exp(2 * fe)
        cross = np.exp(fe[0] + fe[1])
        l2 = ends[0] + ends[1] + 2 * cs.eta_array * cross
        l = np.sqrt(l2)
    terms = (ends, cross)
    a, b, c = l[ix.FE], l[ix.FE[:, [1, 2, 0]]], l[ix.FE[:, [2, 0, 1]]]
    closed = b + c > a
    if not closed.all():
        bad = ~np.isfinite(l2)
        if not bad.any():
            bad = ~(l2 > 0)
        if bad.any():
            i = int(np.argmax(bad))
            return Evaluation(f, terms, violation=("edge", i, float(l2[i])))
        i = int(np.argmin(closed.all(axis=1)))
        return Evaluation(f, terms, violation=("face", i, tuple(float(x) for x in a[i])), lengths=l)
    cosv = (b * b + c * c - a * a) / (2 * b * c)
    off = np.abs(cosv) > 1.0 + COS_CLAMP_TOL
    if off.any():
        col = int(np.argmax(off.any(axis=0)))
        i = int(np.argmax(np.abs(cosv[:, col])))
        return Evaluation(f, terms, violation=("angle", i, float(cosv[i, col])), lengths=l)
    th = np.arccos(np.minimum(np.maximum(cosv, -1.0), 1.0))
    index = np.concatenate([np.arange(n), ix.F.ravel()])
    K = np.bincount(index, np.concatenate([ix.const, (ix.fold_sign[:, None] * th).ravel()]))
    return Evaluation(f, terms, lengths=l, angles=th, curvature=K)


def _same_bits(x, y) -> bool:
    """Both None, or equal arrays whose bytes agree too (so -0.0 and nan
    count), which np.array_equal alone does not see."""
    if x is None or y is None:
        return x is y
    x, y = np.asarray(x), np.asarray(y)
    return np.array_equal(x, y, equal_nan=True) and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _pass_kind(cs, f) -> str:
    """The pass's verdict on f, after checking every field of it
    against _reference_pass and admissible against it: 'ok', 'edge',
    'face' or 'angle'."""
    ev = cs.system.evaluate(f)
    ref = _reference_pass(cs, ev.f)
    for name in ("f", "lengths", "angles", "curvature"):
        assert _same_bits(getattr(ev, name), getattr(ref, name)), name
    assert all(_same_bits(x, y) for x, y in zip(ev.terms, ref.terms)) and len(ev.terms) == 2
    if ref.violation is None:
        assert ev.violation is None
        kind = "ok"
    else:
        assert ev.violation[:2] == ref.violation[:2] and _same_bits(ev.violation[2], ref.violation[2])
        kind = ref.violation[0]
    assert cs.system.admissible(f) == (kind == "ok")
    return kind


@pytest.mark.parametrize("name", sorted(HEX_FLAT))
def test_evaluation_pass_matches_reference_on_hex_presets(name):
    cs = build(name)
    rng = np.random.default_rng(5)
    for f in (HEX_FLAT[name], HEX_FLAT[name] + 0.05 * rng.standard_normal(8), default_start(cs)):
        assert _pass_kind(cs, f) == "ok"


@pytest.mark.parametrize("rings", [2, 4])
@pytest.mark.parametrize("scenario", ["tangent", "orthogonal", "inscribed"])
def test_evaluation_pass_matches_reference_on_lattices(rings, scenario):
    """Seeded labels around the default start at scales 0.02 to 400 hit
    admissible labels, edge violations (overflowed and zero squared
    lengths) and face violations, and every field agrees."""
    cs = build("ring_lattice", n_rings=rings, scenario=scenario)
    f0 = default_start(cs)
    rng = np.random.default_rng(rings)
    kinds = set()
    for scale in (0.02, 0.3, 1.0, 4.0, 400.0):
        for _ in range(50):
            kinds.add(_pass_kind(cs, f0 + scale * rng.uniform(-1.0, 1.0, len(f0))))
    assert {"ok", "edge", "face"} <= kinds


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([2, 4]), st.sampled_from(["tangent", "orthogonal", "inscribed"]),
       st.sampled_from([0.02, 0.3, 1.0, 4.0, 400.0]))
def test_evaluation_pass_matches_reference(data, rings, scenario, scale):
    cs = build("ring_lattice", n_rings=rings, scenario=scenario)
    aug = cs.complex
    n = len(aug.vertices)
    noise = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array))
    _pass_kind(cs, default_start(cs) + scale * noise)


def test_evaluation_pass_matches_reference_on_degenerate_angle():
    """The triangle of test_degenerate_angle_reported."""
    disk = triangle_disk()
    eta = {(0, 1): 1.052031767064613, (0, 2): 1.1811752847538073e-20, (1, 2): 1.052031766841666}
    cs = ConformalStructure.on(disk, {v: 0.0 for v in disk.vertices}, eta)
    assert _pass_kind(cs, np.zeros(3)) == "angle"


# -- Jacobian -----------------------------------------------------------


def _fd_jacobian(sysm, f, h=1e-6):
    n = len(f)
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (sysm.curvature(f + e) - sysm.curvature(f - e)) / (2 * h)
    return J


def test_jacobian_matches_finite_differences():
    aug, cs = _ring2()
    sysm = AngleSystem(cs)
    rng = np.random.default_rng(42)
    for _ in range(5):
        f = default_start(cs) + rng.uniform(-0.05, 0.05, len(aug.vertices))
        J = sysm.jacobian(f)
        ref = np.max(np.abs(J))
        assert np.max(np.abs(J - _fd_jacobian(sysm, f))) <= 1e-6 * max(1.0, ref)


def test_jacobian_rows_sum_to_zero():
    # J 1 = 0 (shift invariance) and, on an augmented disk, 1^T J = 0:
    # the identity that lets the Newton step ground J at the apex
    rng = np.random.default_rng(9)
    disk = ring_lattice(4)
    ring = augment(disk)
    ring_cs = attach_boundary_data(ring, *scenario_data(disk, "tangent"))
    cases = [
        (*_hex(), HEX_FLAT["hex_tangent"] + rng.uniform(-0.08, 0.08, 8)),
        (ring, ring_cs, default_start(ring_cs)),
    ]
    for aug, cs, f in cases:
        sysm = AngleSystem(cs)
        J = sysm.jacobian(f)
        n = len(f)
        assert np.max(np.abs(J @ np.ones(n))) <= 1e-12
        assert np.max(np.abs(np.ones(n) @ J)) <= 1e-12
        # the diagonal and both directions of every edge, no border
        assert sysm.sparse_jacobian(f).nnz == n + 2 * len(aug.edges)


def _scenario_structures(disks):
    """(cs, default start) of each disk in every scenario."""
    for disk in disks:
        aug = augment(disk)
        for scenario in SCENARIOS:
            cs = attach_boundary_data(aug, *scenario_data(disk, scenario))
            yield cs, default_start(cs)


def _random_structures(count, seed):
    """(cs, f) of count random_admissible draws on ring_lattice(3)."""
    disk, rng = ring_lattice(3), np.random.default_rng(seed)
    for _ in range(count):
        _, cs, f = random_admissible(disk, rng)
        yield cs, f


def _chain_rule_jacobian(sysm, f):
    """dK/df, dense, by the chain rule through the side lengths.

    In a face with angles th_i opposite sides a = l_jk, b = l_ik,
    c = l_ij and area A:

        d th_i / d a = a / (2 A)
        d th_i / d b = -a cos(th_k) / (2 A)
        d th_i / d c = -a cos(th_j) / (2 A)

    times d l_uv / d f_u = (alpha_u e^{2 f_u} + eta_uv e^{f_u + f_v}) / l_uv
    and the face's fold sign.
    """
    ix, ev = sysm.compiled, sysm.accept(sysm.evaluate(f))
    f, l = ev.f, ev.lengths
    u, v = ix.E.T
    cross = sysm.eta * np.exp(f[u] + f[v])
    dl = np.array([sysm.alpha[u] * np.exp(2 * f[u]) + cross, sysm.alpha[v] * np.exp(2 * f[v]) + cross]) / l
    J = np.zeros((len(f), len(f)))
    for corners, sides, sign, th in zip(ix.F, ix.FE, ix.fold_sign, ev.angles):
        L = l[sides]
        s = L.sum() / 2
        area = np.sqrt(s * np.prod(s - L))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            for side, dth in ((i, L[i]), (j, -L[i] * np.cos(th[k])), (k, -L[i] * np.cos(th[j]))):
                e = sides[side]
                for end in (0, 1):
                    J[corners[i], ix.E[e, end]] += sign * dth / (2 * area) * dl[end, e]
    return J


def test_jacobian_matches_the_chain_rule():
    # finite differences resolve about 1e-6; the chain rule resolves roundoff
    disks = [hex_flower(), *map(ring_lattice, (1, 2, 3, 4)), *(flipped_disk(4, seed) for seed in range(5))]
    cases = [*_scenario_structures(disks), *_random_structures(20, 8)]
    for cs, f in cases:
        J = cs.system.jacobian(f)
        assert np.max(np.abs(J - _chain_rule_jacobian(cs.system, f))) <= 1e-13 * np.max(np.abs(J))


def test_jacobian_is_symmetric_here():
    # one weight per edge, written to both directions: exactly symmetric
    cases = [*_scenario_structures([hex_flower(), ring_lattice(4)]), *_random_structures(3, 10)]
    for cs, f in cases:
        J = cs.system.jacobian(f)
        assert np.array_equal(J, J.T)


def test_jacobian_buffer_is_compiled_once_and_refilled():
    aug, cs = _hex()
    sysm = AngleSystem(cs)
    f1 = HEX_FLAT["hex_tangent"]
    f2 = f1 + 0.05 * np.random.default_rng(6).standard_normal(8)
    sysm.curvature(f1)
    assert "_jacobian_buffer" not in vars(sysm)
    J, G = sysm._assemble(f1)
    data1 = J.data.copy()
    # a second assembly refills the same pair in place
    J2, G2 = sysm._assemble(sysm.evaluate(f2))
    assert J2 is J and G2 is G and not np.array_equal(J.data, data1)
    assert np.array_equal(G.toarray(), J.toarray()[:-1, :-1])
    assert G.shape == (7, 7) and G.nnz == np.count_nonzero(sysm._jacobian_buffer[4])
    # sparse_jacobian's results are copies: the next assembly leaves them be
    J1 = sysm.sparse_jacobian(f1)
    sysm.sparse_jacobian(f2)
    assert J1 is not J and np.array_equal(J1.toarray(), sysm.jacobian(f1))
    assert np.array_equal(J1.data, data1)


def test_structure_compiles_one_system_for_the_library_chain(monkeypatch):
    from diskfold.layout import layout_augmented, layout_disk
    from diskfold.measures import measure_equivalence_check
    from diskfold.solver import curvature_flow, newton_flat

    compiled = []
    init = AngleSystem.__init__
    monkeypatch.setattr(AngleSystem, "__init__", lambda self, *a: compiled.append(a[0].complex) or init(self, *a))
    aug, cs = _hex()
    f0 = HEX_FLAT["hex_tangent"] + 0.05 * np.random.default_rng(3).standard_normal(8)
    default_start(cs)
    res = newton_flat(cs, f0)
    assert res.converged
    curvature_flow(cs, f0, 1.0, 0.01)
    layout_augmented(cs, res.f)
    assert measure_equivalence_check(cs, res.f) <= 1e-12
    assert compiled == [aug] and cs.system.complex is aug
    # the disk alone takes a structure of its own, built at the edge by id,
    # which compiles its own system
    disk = aug.disk
    lay = layout_disk(ConformalStructure.on(disk, cs.alpha, cs.eta), res.f[:-1])
    assert compiled == [aug, disk] and lay.consistency_residual <= 1e-12
    assert cs.system.complex is aug



# -- labels on a plain disk ---------------------------------------------


def _plain_hex():
    disk = hex_flower()
    alpha, eta, _ = scenario_data(disk, "tangent")
    return disk, AngleSystem(ConformalStructure.on(disk, alpha, eta))


def test_plain_disk_label_missing_vertex():
    disk, sysm = _plain_hex()
    f = {v: 0.0 for v in disk.vertices if v != 3}
    with pytest.raises(ValueError, match=r"label misses vertices \[3\]"):
        sysm.curvature(f)


def test_plain_disk_label_not_finite():
    disk, sysm = _plain_hex()
    f = np.zeros(len(disk.vertices))
    f[2] = np.nan
    with pytest.raises(ValueError, match="label entries must be finite") as info:
        sysm.curvature(f)
    assert not isinstance(info.value, InadmissibleLabelError)


def test_plain_disk_label_is_copied():
    disk, sysm = _plain_hex()
    f = np.zeros(len(disk.vertices))
    ev = sysm.evaluate(f)
    assert ev.f is not f and np.array_equal(ev.f, f)
    arr = disk.label_array(f)
    arr[0] = 1.0
    assert f[0] == 0.0
