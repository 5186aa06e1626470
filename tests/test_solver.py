"""Newton solver and curvature flow against closed-form configurations,
and the sparse Newton step against a dense truncated-SVD reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskfold import (
    AngleSystem,
    InadmissibleLabelError,
    SolverError,
    attach_boundary_data,
    augment,
    curvature_flow,
    default_start,
    gauge_normalize,
    newton_flat,
)
from diskfold import solver
from diskfold.conformal import Evaluation
from diskfold.problem_io import parse_problem
from diskfold.presets import (
    SCENARIOS,
    build,
    preset,
    ring_lattice,
    random_admissible,
    scenario_data,
    triangle_disk,
)

from conftest import HEX_FLAT, HEX_GAP, boundary_gaps, flipped_disk


def _log3_start(aug):
    """Disk at 0, apex at log 3: the first point of default_start's
    search, off flat on every preset but hex_tangent."""
    f = np.zeros(len(aug.vertices))
    f[-1] = np.log(3.0)
    return f


def test_hexagonal_gaps_match_closed_forms():
    # residual drops to ~1e-15 but the label may drift ~1e-10 along the
    # translation gauge directions, which move individual gaps
    for name, gap in HEX_GAP.items():
        aug, cs = build(name)
        res = newton_flat(cs, tol=1e-12)
        assert res.converged and res.iterations <= 25
        for g in boundary_gaps(aug, res.f):
            assert g == pytest.approx(gap, abs=1e-8)


def test_newton_from_prescribed_start():
    aug, cs = build("hex_tangent")
    f0 = np.zeros(8)
    f0[-1] = np.log(2.8)
    res = newton_flat(cs, f0)
    assert res.converged
    assert res.residual <= 1e-10
    assert res.iterations <= 25


def test_single_triangle_closed_forms():
    disk = triangle_disk()
    aug = augment(disk)
    # tangent: three radius-r circles in the unit circle, r = 1/(1+2/sqrt 3)
    cs = attach_boundary_data(aug, *scenario_data(disk, "tangent"))
    res = newton_flat(cs, tol=1e-12)
    assert res.converged
    gap = np.log(1.0 + 2.0 / np.sqrt(3.0))
    for g in boundary_gaps(aug, res.f):
        assert g == pytest.approx(gap, abs=1e-10)
    # inscribed: equilateral triangle in the unit circle, side sqrt(3)
    cs = attach_boundary_data(aug, *scenario_data(disk, "inscribed"))
    res = newton_flat(cs, tol=1e-12)
    assert res.converged
    for g in boundary_gaps(aug, res.f):
        assert g == pytest.approx(-0.5 * np.log(3.0), abs=1e-10)


def test_converged_label_is_gauge_equivalent_to_analytic():
    aug, cs = build("hex_tangent")
    res = newton_flat(cs, tol=1e-12)
    got = gauge_normalize(aug, res.f)
    want = gauge_normalize(aug, HEX_FLAT["hex_tangent"])
    assert np.max(np.abs(got - want)) <= 1e-9


def test_default_start_is_admissible(monkeypatch):
    # disk at 0, admissible, flat at the apex, at most 15 evaluations and
    # the same bits on a second call
    evals = []
    ev = AngleSystem.evaluate_iterate
    monkeypatch.setattr(AngleSystem, "evaluate_iterate", lambda self, f: evals.append(1) or ev(self, f))
    cases = [(h, {}) for h in ("hex_tangent", "hex_orthogonal", "hex_inscribed")]
    cases += [("ring_lattice", {"n_rings": r, "scenario": s}) for r in range(1, 9) for s in SCENARIOS]
    for name, kw in cases:
        aug, cs = build(name, **kw)
        evals.clear()
        f = default_start(cs)
        assert len(evals) <= 15, (name, kw)
        assert np.array_equal(f[:-1], np.zeros(len(f) - 1))
        assert cs.system.admissible(f)
        assert abs(cs.system.curvature(f)[-1]) <= 1e-12, (name, kw)
        assert default_start(cs).tobytes() == f.tobytes()


def test_inadmissible_default_start_raises():
    # mu = -2 makes every augmented edge's squared length negative at the
    # first trial a = log 3: 1 + 9 - 2 * 2 * 3 = -2
    disk = ring_lattice(1)
    aug = augment(disk)
    alpha, eta, _ = scenario_data(disk, "tangent")
    cs = attach_boundary_data(aug, alpha, eta, {v: -2.0 for v in disk.boundary_cycle})
    for solve in (default_start, newton_flat):
        with pytest.raises(InadmissibleLabelError, match="is not positive"):
            solve(cs)


def test_overflowed_squared_length_is_not_finite():
    # e^{2 * 1e308} overflows, so every squared length is inf
    aug, cs = build("hex_tangent")
    f = np.full(len(aug.vertices), 1e308)
    system = AngleSystem(cs)
    for check in (lambda f: system.accept(system.evaluate(f)), system.curvature, lambda f: newton_flat(cs, f)):
        with pytest.raises(InadmissibleLabelError) as info:
            check(f)
        assert str(info.value) == "squared length inf on edge (0, 1) is not finite"
        assert info.value.simplex == (0, 1)


@pytest.mark.parametrize(
    "rings, scenario", [(10, "orthogonal")] + [(32, s) for s in SCENARIOS]
)
def test_newton_converges_from_the_default_start_on_large_lattices(rings, scenario):
    aug, cs = build("ring_lattice", n_rings=rings, scenario=scenario)
    res = newton_flat(cs)
    assert res.converged and res.residual <= 1e-10
    assert res.iterations <= 10


def test_newton_converges_on_the_fixed_random_sample():
    # the 60 structures of the benchmark's random_newton, drawn the same way
    rng = np.random.default_rng(0)
    statuses = []
    for rings in (3, 4):
        disk = ring_lattice(rings)
        for _ in range(30):
            aug, cs, _ = random_admissible(disk, rng)
            statuses.append(newton_flat(cs).status)
    assert statuses == ["converged"] * 60


def _tangent_on_flipped(rings, seed):
    disk = flipped_disk(rings, seed)
    aug = augment(disk)
    return newton_flat(attach_boundary_data(aug, *scenario_data(disk, "tangent")))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("rings", [4, 8])
def test_tangent_converges_on_flip_randomized_disks(rings, seed):
    # every disk deforms to one internally tangent to the circle, so a
    # tangent failure here is a solver bug
    res = _tangent_on_flipped(rings, seed)
    assert res.converged and res.iterations <= 8
    again = _tangent_on_flipped(rings, seed)
    assert again.f.tobytes() == res.f.tobytes() and again.history == res.history


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**16 - 1))
def test_tangent_always_converges_on_flip_randomized_disks(rings, seed):
    # the property behind the parametrized corpus above, over any seed
    res = _tangent_on_flipped(rings, seed)
    assert res.converged and res.iterations <= 8, (res.status, res.iterations)
    again = _tangent_on_flipped(rings, seed)
    assert again.f.tobytes() == res.f.tobytes() and again.history == res.history


def _ring4_draw(seed, k):
    """The k-th ring-4 structure of a random_newton-style sample: 30
    random_admissible draws on ring 3, then the ring-4 draws."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        random_admissible(ring_lattice(3), rng)
    disk = ring_lattice(4)
    for _ in range(k):
        random_admissible(disk, rng)
    return random_admissible(disk, rng)[1]


def test_long_ritz_steps_are_dropped_off_the_plateau():
    # keeping a near-null Ritz direction whose step is longer than one
    # log-unit pinned this solve at residual 0.5818 for 17 iterations
    # (35 in all); both directions go at the first step
    res = newton_flat(_ring4_draw(0, 10))
    assert res.converged and res.iterations <= 8
    assert res.history[0] > 1.0 and res.steps[0][1] == 2


def test_held_out_draw_converges_without_stalling():
    # before the step-length rule: "max iterations reached" at 100, the
    # residual creeping from 0.599 to 0.585
    res = newton_flat(_ring4_draw(2, 2))
    assert res.converged and res.iterations <= 8


def test_steps_record_each_accepted_step():
    aug, cs = build("hex_orthogonal")
    for res in (newton_flat(cs, _log3_start(aug), tol=1e-12), newton_flat(_ring4_draw(0, 10))):
        assert len(res.steps) == len(res.history) - 1 == res.iterations
        assert all(0.0 < t <= 1.0 and dropped in (0, 1, 2) for t, dropped in res.steps)
    budget = newton_flat(cs, _log3_start(aug), max_iter=1, tol=1e-14)
    assert len(budget.steps) == len(budget.history) - 1 == 1


def test_inadmissible_start_raises():
    aug, cs = build("hex_tangent")
    with pytest.raises(InadmissibleLabelError):
        newton_flat(cs, np.zeros(8))


def _degenerate_at(monkeypatch, cs, call: int) -> list:
    """Make the call-th evaluate_iterate of cs's system come back with an
    angle violation on face 0, as a degenerate angle does; the returned
    list grows by one per call."""
    sysm = cs.system
    evaluate = sysm.evaluate_iterate
    calls = []

    def once(f):
        calls.append(f)
        ev = evaluate(f)
        if len(calls) == call:
            return Evaluation(ev.f, ev.terms, violation=("angle", 0, -1.0 - 1e-8), lengths=ev.lengths)
        return ev

    monkeypatch.setattr(sysm, "evaluate_iterate", once)
    return calls


def test_degenerate_trial_halves_the_newton_step(monkeypatch):
    aug, cs = build("hex_tangent")
    f0 = HEX_FLAT["hex_tangent"] + 0.05 * np.random.default_rng(3).standard_normal(8)
    ref = newton_flat(cs, f0)
    assert ref.converged and ref.steps[0][0] == 1.0
    # the first line-search trial comes back degenerate: it halves like
    # any inadmissible trial, and the solve goes on
    calls = _degenerate_at(monkeypatch, cs, 1)
    res = newton_flat(cs, f0)
    assert res.converged and res.residual <= 1e-10
    assert res.steps[0][0] == 0.5 and len(calls) > res.iterations


def test_degenerate_stage_halves_the_flow_step(monkeypatch):
    aug, cs = build("hex_tangent")
    f0 = HEX_FLAT["hex_tangent"] + 0.05 * np.random.default_rng(3).standard_normal(8)
    ref = curvature_flow(cs, f0, 0.05, 0.01)
    # the first step's second stage comes back degenerate
    _degenerate_at(monkeypatch, cs, 1)
    res = curvature_flow(cs, f0, 0.05, 0.01)
    assert res.halvings == ref.halvings + 1 and res.integrated == ref.integrated == 5
    # two RK4 half steps in place of one: the same flow to O(dt^5)
    assert np.max(np.abs(res.f - ref.f)) <= 1e-8


def test_iteration_budget_respected():
    aug, cs = build("hex_tangent")
    f0 = np.zeros(8)
    f0[-1] = np.log(2.8)
    res = newton_flat(cs, f0, max_iter=1, tol=1e-14)
    assert not res.converged
    assert res.status == "max iterations reached"
    assert res.iterations == 1


def test_residual_history_is_monotone():
    aug, cs = build("hex_orthogonal")
    # default_start is already flat here, so start off it to take steps
    res = newton_flat(cs, _log3_start(aug), tol=1e-12)
    assert len(res.history) > 2
    assert all(b < a for a, b in zip(res.history, res.history[1:]))


def test_random_instances_fail_cleanly_or_converge():
    """No crash on wild data: every outcome is a labeled status."""
    disk = ring_lattice(2)
    rng = np.random.default_rng(123)
    seen = set()
    for _ in range(120):
        aug, cs, f = random_admissible(disk, rng)
        res = newton_flat(cs, f)
        seen.add(res.status)
        if res.converged:
            assert res.residual <= 1e-10
    assert "converged" in seen
    assert seen <= {
        "converged",
        "line search stalled",
        "max iterations reached",
        "jacobian breakdown",
    }


def test_newton_rejects_bad_parameters():
    aug, cs = build("hex_tangent")
    bad = [
        {"tol": np.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": np.inf},
        {"max_iter": -3},
        {"svd_cutoff": np.nan}, {"svd_cutoff": -1.0}, {"svd_cutoff": np.inf}, {"svd_cutoff": 1.0},
    ]
    for kw in bad:
        with pytest.raises(ValueError, match=next(iter(kw))):
            newton_flat(cs, **kw)
    # the edges of the accepted ranges still solve
    assert newton_flat(cs, max_iter=0, svd_cutoff=0.0).converged


# -- the sparse step against the dense truncated SVD ----------------------


def _pinv_apply(J: np.ndarray, K: np.ndarray, svd_cutoff: float, residual: float):
    """Minimum-norm solution of J x = K with noise-aware truncation, by a
    dense SVD: the reference for solver._newton_step.  Of the two
    smallest singular values after the always-null constant direction,
    each is also dropped when the step along it, |u^T K| / s, exceeds
    one.  Also returns how many singular values beyond the constant
    direction it dropped."""
    u, s, vt = np.linalg.svd(J)
    if s[0] == 0.0:
        return np.zeros_like(K), 0
    guard = min(residual, np.sqrt(np.finfo(float).eps) * s[0])
    thr = max(svd_cutoff * s[0], guard)
    uk = u.T @ K
    keep = s > thr
    keep[-3:-1] &= np.abs(uk[-3:-1]) <= s[-3:-1]
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return vt.T @ (inv * uk), int(np.sum(~keep)) - 1


def _steps(aug, cs, f, svd_cutoff=1e-10, shift=0.0):
    """(sparse step, dropped), (dense reference step, dropped) at label f,
    both for the right-hand side K + shift * 1."""
    sysm = AngleSystem(cs)
    ev = sysm.accept(sysm.evaluate(f))
    K = ev.curvature
    residual = float(np.max(np.abs(K)))
    start = solver._start_vectors(len(K))
    K = K + shift
    got = solver._newton_step(*sysm._assemble(ev), K, svd_cutoff, residual, start)
    return got, _pinv_apply(sysm.jacobian(ev), K, svd_cutoff, residual)


def _assert_same_step(got, want):
    (x, dropped), (x_ref, dropped_ref) = got, want
    assert dropped == dropped_ref
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_step_at_a_flat_label_adds_no_inverse_steps(monkeypatch):
    # at a converged label both Ritz values are roundoff below thr, and
    # their settle test compared noise with noise: 502 inverse steps here,
    # as on rings 4, 8 and 32, and 15 s for a ring-128 orthogonal solve
    aug, cs = build("ring_lattice", n_rings=2)
    res = newton_flat(cs, tol=1e-13)
    assert res.converged
    calls = []
    orthonormal = solver._orthonormal
    monkeypatch.setattr(solver, "_orthonormal", lambda y: calls.append(1) or orthonormal(y))
    (_, dropped), _ = _steps(aug, cs, res.f)
    assert dropped == 2
    assert len(calls) <= 3


def test_step_matches_dense_reference_far_from_flat():
    aug, cs = build("ring_lattice", n_rings=3)
    f = _log3_start(aug)
    assert np.max(np.abs(AngleSystem(cs).curvature(f))) >= 1.0
    # J's left kernel holds the constant vector, so the step must ignore
    # a constant added to K, as the reference does
    for shift in (0.0, 1e-9):
        got, want = _steps(aug, cs, f, shift=shift)
        assert got[1] == 0
        _assert_same_step(got, want)


def test_step_drops_the_two_mobius_directions_near_flat():
    aug, cs = build("ring_lattice", n_rings=3, scenario="inscribed")
    near = newton_flat(cs, tol=1e-9)  # stops one step short of 1e-10
    assert 1e-10 < near.residual <= 1e-9
    for shift in (0.0, 1e-9):
        got, want = _steps(aug, cs, near.f, shift=shift)
        assert got[1] == 2
        _assert_same_step(got, want)


def test_step_keeps_mobius_directions_just_above_the_threshold():
    # sigma_Mobius ~1.8e-7 against thr ~9.5e-8; taking s_max = |J|_inf
    # would raise thr to 1.87e-7 here and drop them
    aug, cs = build("ring_lattice", n_rings=16, scenario="orthogonal")
    near = newton_flat(cs, tol=1e-4)
    (x, dropped), (x_ref, dropped_ref) = _steps(aug, cs, near.f)
    assert dropped == dropped_ref == 0
    # kept near-null directions leave condition ~4e7, so ~1e-8 agreement
    assert np.linalg.norm(x - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


def test_step_matches_dense_reference_on_random_structures():
    rng = np.random.default_rng(2024)
    for rings, n in ((3, 38), (4, 62)):
        disk = ring_lattice(rings)
        for _ in range(8):
            aug, cs, f = random_admissible(disk, rng)
            assert len(f) == n
            _assert_same_step(*_steps(aug, cs, f))


def _dense_step(J, G, K, svd_cutoff, residual, start):
    return _pinv_apply(J.toarray(), K, svd_cutoff, residual)


@pytest.mark.parametrize(
    "name, rings, scenario",
    [("ring_lattice", r, s) for r in (1, 3, 6) for s in SCENARIOS]
    + [(h, None, None) for h in ("hex_tangent", "hex_orthogonal", "hex_inscribed")],
)
def test_newton_matches_dense_reference_solver(monkeypatch, name, rings, scenario):
    kw = {} if rings is None else {"n_rings": rings, "scenario": scenario}
    aug, cs = build(name, **kw)
    # default_start is flat on the hex presets and ring 1, so start
    # every case off it to compare steps
    f0 = _log3_start(aug)
    res = newton_flat(cs, f0)
    with monkeypatch.context() as m:
        m.setattr(solver, "_newton_step", _dense_step)
        ref = newton_flat(cs, f0)
    assert (res.status, res.iterations) == (ref.status, ref.iterations)
    assert res.converged
    diff = gauge_normalize(aug, res.f) - gauge_normalize(aug, ref.f)
    assert np.max(np.abs(diff)) <= 1e-8


def test_singular_factor_is_a_jacobian_breakdown(monkeypatch):
    import scipy.sparse.linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    aug, cs = build("hex_orthogonal")
    # default_start is already flat here, so start off it to reach a factor
    res = newton_flat(cs, _log3_start(aug))
    assert not res.converged
    assert (res.status, res.iterations) == ("jacobian breakdown", 0)


def test_gauge_normalize_pins_apex():
    aug, cs = build("hex_tangent")
    f = np.linspace(0.0, 1.4, 8)
    g = gauge_normalize(aug, f)
    assert g[-1] == 0.0
    assert np.allclose(g, f - f[-1])
    # a mapping comes back as the same array
    d = gauge_normalize(aug, {v: f[i] for i, v in enumerate(aug.vertices)})
    assert isinstance(d, np.ndarray) and d.tobytes() == g.tobytes()


# -- flow ---------------------------------------------------------------


def test_flow_reduces_curvature():
    aug, cs = build("hex_tangent")
    rng = np.random.default_rng(3)
    f0 = HEX_FLAT["hex_tangent"] + 0.05 * rng.standard_normal(8)
    sysm = AngleSystem(cs)
    r0 = np.max(np.abs(sysm.curvature(f0)))
    fr = curvature_flow(cs, f0, 50.0, 0.01)
    assert fr.final_residual <= r0 / 1e3
    assert fr.times[0] == 0.0 and fr.times[-1] == pytest.approx(50.0)


def test_flow_fixed_at_equilibrium():
    aug, cs = build("hex_tangent")
    fr = curvature_flow(cs, HEX_FLAT["hex_tangent"], 1.0, 0.01)
    assert fr.final_residual <= 1e-12
    assert np.max(np.abs(fr.f - HEX_FLAT["hex_tangent"])) <= 1e-12


def test_flow_step_collapse_reported():
    aug, cs = build("hex_tangent")
    f0 = np.zeros(8)
    f0[-1] = np.log(2.8)
    # a huge step keeps overshooting the admissible set
    with pytest.raises(SolverError):
        curvature_flow(cs, f0, 40.0, 40.0, max_halvings=2)


def test_flow_rejects_a_step_count_that_overflows():
    aug, cs = build("hex_tangent")
    with pytest.raises(ValueError, match=r"^t_end / dt must be finite, got 1e\+300 / 1e-300$"):
        curvature_flow(cs, HEX_FLAT["hex_tangent"], 1e300, 1e-300)


def test_flow_requires_admissible_start():
    aug, cs = build("hex_tangent")
    with pytest.raises(InadmissibleLabelError):
        curvature_flow(cs, np.zeros(8), 1.0, 0.01)


def test_flow_rejects_bad_time_arguments():
    aug, cs = build("hex_tangent")
    f0 = HEX_FLAT["hex_tangent"]
    for t_end, dt in ((1.0, 0.0), (1.0, -0.1), (-1.0, 0.01), (0.0, 0.01),
                      (np.nan, 0.01), (1.0, np.inf), (np.inf, 0.01), (1.0, np.nan)):
        with pytest.raises(ValueError, match="positive and finite"):
            curvature_flow(cs, f0, t_end, dt)


def test_flow_rejects_negative_max_halvings():
    aug, cs = build("hex_tangent")
    with pytest.raises(ValueError, match="max_halvings must be >= 0"):
        curvature_flow(cs, HEX_FLAT["hex_tangent"], 1.0, 0.01, max_halvings=-1)
    # zero is allowed: the flow runs until a stage would need a halving
    fr = curvature_flow(cs, HEX_FLAT["hex_tangent"], 1.0, 0.01, max_halvings=0)
    assert fr.halvings == 0


def _reference_flow(aug, cs, f0, t_end, dt, max_halvings=30):
    """The RK4 flow written on AngleSystem.admissible and .curvature only.

    Returns (times, labels, residuals, number of halvings).
    """
    sysm = AngleSystem(cs)
    sign = np.full(len(f0), -1.0)
    sign[-1] = 1.0

    def field(x):
        if not sysm.admissible(x):
            raise SolverError("stage left the admissible set")
        return sign * sysm.curvature(x)

    def step(x, h):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        out = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not sysm.admissible(out):
            raise SolverError("step left the admissible set")
        return out

    f = np.array(f0, dtype=float)
    times, labels = [0.0], [f]
    residuals = [float(np.max(np.abs(sysm.curvature(f))))]
    t, total_halvings = 0.0, 0
    for _ in range(max(int(np.ceil(t_end / dt - 1e-12)), 1)):
        h_goal = min(dt, t_end - t)
        remaining, h, halvings = h_goal, h_goal, 0
        while remaining > 1e-16 * t_end:
            try:
                f = step(f, min(h, remaining))
            except SolverError:
                halvings += 1
                assert halvings <= max_halvings
                h /= 2.0
                continue
            remaining -= min(h, remaining)
        total_halvings += halvings
        t += h_goal
        times.append(t)
        labels.append(f)
        residuals.append(float(np.max(np.abs(sysm.curvature(f)))))
    return np.array(times), np.array(labels), np.array(residuals), total_halvings


def _relabelled(data: dict, rng) -> dict:
    """The same problem with permuted vertex ids, rotated faces in
    shuffled order: the relabelling of the benchmark's input files."""
    verts = data["vertices"]
    new = {v: int(p) for v, p in zip(verts, rng.permutation(len(verts)))}
    faces = [[new[v] for v in f] for f in data["faces"]]
    faces = [f[k:] + f[:k] for f, k in zip(faces, rng.integers(0, 3, len(faces)))]
    faces = [faces[i] for i in rng.permutation(len(faces))]

    def vmap(d):
        return {k if k == "hat" else str(new[int(k)]): x for k, x in d.items()}

    def emap(k):
        a, b = sorted(new[int(x)] for x in k.split("-"))
        return f"{a}-{b}"

    return {
        "vertices": sorted(new.values()),
        "faces": faces,
        "alpha": vmap(data["alpha"]),
        "eta": {emap(k): x for k, x in data["eta"].items()},
        "mu": vmap(data["mu"]),
        "f_init": vmap(data["f_init"]),
    }


def _flow_start(start):
    """(aug, cs, f0) of a named flow start."""
    if start == "ring4":
        aug, cs = build("ring_lattice", n_rings=4)
        return aug, cs, default_start(cs)
    # criterion 12's start: the flat label plus 0.05 N(0, 1) from default_rng(12)
    f0 = HEX_FLAT["hex_tangent"] + 0.05 * np.random.default_rng(12).standard_normal(8)
    if start == "criterion12":
        return (*build("hex_tangent"), f0)
    # relabelled with default_rng(3), its flow ends in a two-step cycle
    data = preset("hex_tangent")
    data["f_init"] = {**{str(v): x for v, x in zip(data["vertices"], f0[:-1])}, "hat": f0[-1]}
    prob = parse_problem(_relabelled(data, np.random.default_rng(3)))
    return prob.aug, prob.cs, prob.f_init


def test_flow_to_the_fixed_point_is_bit_for_bit_the_reference():
    """Criterion 12's flow to t = 13.5: 1,350 grid steps, of which 1,332
    are integrated and the last 18 replay the fixed point.
    curvature_flow (one pass per stage, k + k, a ufunc-reduce residual)
    gives the bits of _reference_flow, which keeps the original op order:
    x + 0.5 * h * k1 and (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)."""
    aug, cs, f0 = _flow_start("criterion12")
    times, labels, residuals, halvings = _reference_flow(aug, cs, f0, 13.5, 0.01)
    fr = curvature_flow(cs, f0, 13.5, 0.01)
    assert len(fr.times) == 1351
    assert np.array_equal(fr.times, times)
    assert np.array_equal(fr.labels, labels)
    assert np.array_equal(fr.residuals, residuals)
    assert fr.integrated == 1332 and fr.halvings == halvings == 0


@pytest.mark.parametrize(
    "start, t_end, dt, halves, recurs",
    [
        pytest.param("criterion12", 1.0, 0.01, False, False, id="1.0-0.01-False"),
        pytest.param("criterion12", 3.0, 1.5, True, False, id="3.0-1.5-True"),
        pytest.param("criterion12", 50.0, 0.01, False, True, id="criterion12-fixed-point"),
        pytest.param("period2", 50.0, 0.01, False, True, id="two-step-cycle"),
        pytest.param("period2", 50.005, 0.01, False, True, id="short-last-step"),
        pytest.param("ring4", 5.0, 0.01, False, False, id="ring4-no-recurrence"),
    ],
)
def test_flow_matches_reference_rk4_bit_for_bit(start, t_end, dt, halves, recurs):
    """One evaluation per stage, and replaying the steps of a label that
    repeats, give the same numbers as separate admissible and curvature
    calls on every step, with and without step halving."""
    aug, cs, f0 = _flow_start(start)
    times, labels, residuals, halvings = _reference_flow(aug, cs, f0, t_end, dt)
    assert (halvings > 0) == halves
    fr = curvature_flow(cs, f0, t_end, dt)
    assert np.array_equal(fr.times, times)
    assert np.array_equal(fr.labels, labels)
    assert np.array_equal(fr.residuals, residuals)
    n_steps = len(times) - 1
    assert (fr.integrated < n_steps) == recurs
    assert fr.integrated <= n_steps and fr.halvings == halvings
    if start == "period2":
        assert not np.array_equal(labels[-2], labels[-3])
        assert np.array_equal(labels[-2], labels[-4])
