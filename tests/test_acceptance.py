"""End-to-end acceptance suite.

One test per shipped criterion, run at the pinned tolerances.  Every
test prints a single pass/fail line (shown with -s / -rA; the pytest
verdict itself is the permanent record).  Criterion 11 is a report:
the rank is printed together with the spectrum, only the matrix shape
is asserted.
"""

import json
import time

import numpy as np
import pytest

from diskfold import (
    AngleSystem,
    InfinitesimalMobius,
    build,
    constraint_matrix,
    curvature_flow,
    layout_augmented,
    layout_edge_error,
    measure_equivalence_check,
    mobius_orbit_check,
    mprod,
    newton_flat,
    normalize_to_unit_disk,
    numerical_rank,
    random_admissible,
    ring_lattice,
    verify_boundary_condition,
)

from conftest import HEX_FLAT, boundary_gaps

N_SAMPLES = 500
N_JACOBIAN = 50


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")


def _hex_pipeline(name: str, scenario: str, gap: float):
    """Newton from the prescribed start, then normalized verification."""
    cs = build(name)
    aug = cs.complex
    f0 = np.zeros(len(aug.vertices))
    f0[-1] = np.log(2.8)
    t0 = time.perf_counter()
    res = newton_flat(cs, f0, tol=1e-10)
    elapsed = time.perf_counter() - t0
    assert res.converged, res.status
    gap_dev = max(abs(g - gap) for g in boundary_gaps(aug, res.f))
    lay = normalize_to_unit_disk(layout_augmented(cs, res.f))
    rep = verify_boundary_condition(aug, lay.mpoints, scenario)
    return res, elapsed, gap_dev, rep


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(20260817)
    disk = ring_lattice(2)
    return [random_admissible(disk, rng) for _ in range(N_SAMPLES)]


@pytest.fixture(scope="module")
def flat_instances():
    """Every preset this suite converges: the three hexagons, two triangles."""
    out = []
    for name, scenario in [
        ("hex_tangent", "tangent"),
        ("hex_orthogonal", "orthogonal"),
        ("hex_inscribed", "inscribed"),
        ("triangle", "tangent"),
        ("triangle", "inscribed"),
    ]:
        cs = build(name, scenario=scenario)
        aug = cs.complex
        res = newton_flat(cs, tol=1e-12)
        assert res.converged, (name, scenario, res.status)
        out.append((f"{name}/{scenario}", aug, cs, res.f))
    return out


def test_criterion_01_hex_tangent():
    res, elapsed, gap_dev, rep = _hex_pipeline("hex_tangent", "tangent", np.log(3.0))
    ok = (
        res.residual <= 1e-10
        and res.iterations <= 25
        and elapsed < 1.0
        and gap_dev <= 1e-8
        and rep.max_residual <= 1e-9
    )
    _line(
        1,
        ok,
        f"residual={res.residual:.2e} iters={res.iterations} time={elapsed:.3f}s "
        f"gap_dev={gap_dev:.2e} tangency={rep.max_residual:.2e}",
    )
    assert ok


def test_criterion_02_hex_orthogonal():
    res, elapsed, gap_dev, rep = _hex_pipeline(
        "hex_orthogonal", "orthogonal", 0.5 * np.log(3.0)
    )
    ok = res.residual <= 1e-10 and gap_dev <= 1e-8 and rep.max_residual <= 1e-9
    _line(
        2,
        ok,
        f"residual={res.residual:.2e} gap_dev={gap_dev:.2e} "
        f"orthogonality={rep.max_residual:.2e}",
    )
    assert ok


def test_criterion_03_hex_inscribed():
    res, elapsed, _, rep = _hex_pipeline("hex_inscribed", "inscribed", 0.0)
    ok = res.residual <= 1e-10 and rep.max_residual <= 1e-9
    _line(3, ok, f"residual={res.residual:.2e} on_circle={rep.max_residual:.2e}")
    assert ok


def test_criterion_04_total_curvature(samples):
    worst = max(
        abs(float(AngleSystem(cs).curvature(f).sum())) for aug, cs, f in samples
    )
    ok = worst <= 1e-10
    _line(4, ok, f"max |sum K| = {worst:.2e} over {len(samples)} samples")
    assert ok


def test_criterion_05_measure_equivalence(samples):
    worst_ratio = 0.0
    for aug, cs, f in samples:
        K = AngleSystem(cs).curvature(f)
        bound = 1e-12 * (1.0 + float(np.max(np.abs(K))))
        dev = measure_equivalence_check(cs, f)
        worst_ratio = max(worst_ratio, dev / bound)
    ok = worst_ratio <= 1.0
    _line(5, ok, f"worst deviation/bound = {worst_ratio:.2e}")
    assert ok


def test_criterion_06_jacobian(samples):
    h = 1e-6
    worst_rel, worst_rowsum = 0.0, 0.0
    for aug, cs, f in samples[:N_JACOBIAN]:
        sys = AngleSystem(cs)
        J = sys.jacobian(f)
        fd = np.empty_like(J)
        for j in range(len(f)):
            e = np.zeros(len(f))
            e[j] = h
            fd[:, j] = (sys.curvature(f + e) - sys.curvature(f - e)) / (2.0 * h)
        worst_rel = max(worst_rel, np.max(np.abs(J - fd)) / np.max(np.abs(fd)))
        worst_rowsum = max(worst_rowsum, float(np.max(np.abs(J.sum(axis=1)))))
    ok = worst_rel <= 1e-6 and worst_rowsum <= 1e-12
    _line(
        6,
        ok,
        f"max rel FD deviation = {worst_rel:.2e}, max |J.1| = {worst_rowsum:.2e} "
        f"over {N_JACOBIAN} labels",
    )
    assert ok


def test_criterion_07_coordinate_kernel(flat_instances):
    worst = 0.0
    for name, aug, cs, f in flat_instances:
        J = AngleSystem(cs).jacobian(f)
        lay = layout_augmented(cs, f)
        x, y = lay.positions.T
        scale = np.linalg.norm(J, np.inf)
        dev = max(np.max(np.abs(J @ x)), np.max(np.abs(J @ y))) / scale
        worst = max(worst, dev)
    ok = worst <= 1e-8
    _line(7, ok, f"max (|J.x|, |J.y|) / |J| = {worst:.2e} over {len(flat_instances)} instances")
    assert ok


def test_criterion_08_mobius_invariance():
    cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"]
    fields = ("a", "b", "c", "d", "t", "r")
    lay = layout_augmented(cs, f)
    worst_k, worst_v = 0.0, 0.0
    for name in fields:
        g = InfinitesimalMobius(**{name: 1.0})
        for eps in (1e-3, 1e-4):
            rep = mobius_orbit_check(lay, g, eps)
            worst_k = max(worst_k, rep.max_abs_curvature / (100.0 * eps * eps))
            worst_v = max(worst_v, rep.max_variation_dev / (10.0 * eps))
    ok = worst_k <= 1.0 and worst_v <= 1.0
    _line(
        8,
        ok,
        f"max |K|/(100 eps^2) = {worst_k:.2e}, "
        f"max variation dev/(10 eps) = {worst_v:.2e}",
    )
    assert ok


def test_criterion_09_traversal_independence(flat_instances):
    worst_pos, worst_edge = 0.0, 0.0
    for name, aug, cs, f in flat_instances:
        bfs = layout_augmented(cs, f, traversal="bfs")
        dfs = layout_augmented(cs, f, traversal="dfs")
        pts = bfs.positions
        diameter = max(
            float(np.linalg.norm(p - q)) for p in pts for q in pts
        )
        dev = float(np.max(np.linalg.norm(bfs.positions - dfs.positions, axis=1)))
        worst_pos = max(worst_pos, dev / (1e-9 * diameter))
        worst_edge = max(
            worst_edge,
            layout_edge_error(bfs) / 1e-9,
            layout_edge_error(dfs) / 1e-9,
        )
    ok = worst_pos <= 1.0 and worst_edge <= 1.0
    _line(
        9,
        ok,
        f"position dev/(1e-9 diam) = {worst_pos:.2e}, "
        f"edge dev/1e-9 = {worst_edge:.2e}",
    )
    assert ok


def test_criterion_10_realized_products(flat_instances):
    worst = 0.0
    for name, aug, cs, f in flat_instances:
        # the rows of the realization, one per vertex, and per edge its two ends
        mp, E = layout_augmented(cs, f).mpoints, aug.compiled.E
        a, e = cs.alpha_array, cs.eta_array
        dev_a = np.abs(mprod(mp, mp) - a) / np.maximum(1.0, np.abs(a))
        dev_e = np.abs(-mprod(mp[E[:, 0]], mp[E[:, 1]]) - e) / np.maximum(1.0, np.abs(e))
        worst = max(worst, float(np.max(dev_a)), float(np.max(dev_e)))
    ok = worst <= 1e-10
    _line(10, ok, f"max relative product deviation = {worst:.2e}")
    assert ok


def test_criterion_11_rank_report():
    cs = build("hex_tangent")
    res = newton_flat(cs, tol=1e-12)
    assert res.converged
    C = constraint_matrix(layout_augmented(cs, res.f))
    assert C.shape == (26, 32)
    rank, sv = numerical_rank(C, cutoff=1e-10)
    report = {
        "shape": list(C.shape),
        "cutoff": 1e-10,
        "rank": rank,
        "singular_values": [float(s) for s in sv],
    }
    _line(11, True, f"REPORT rank {rank} of shape 26x32")
    print(json.dumps(report))


def test_criterion_12_flow():
    cs = build("hex_tangent")
    sys = AngleSystem(cs)
    rng = np.random.default_rng(12)
    f0 = HEX_FLAT["hex_tangent"] + 0.05 * rng.standard_normal(8)
    r0 = float(np.max(np.abs(sys.curvature(f0))))
    t0 = time.perf_counter()
    flow = curvature_flow(cs, f0, 50.0, 0.01)
    elapsed = time.perf_counter() - t0
    drift = curvature_flow(cs, HEX_FLAT["hex_tangent"], 50.0, 0.01)
    stays = float(np.max(drift.residuals))
    ok = flow.final_residual <= r0 / 1e3 and elapsed < 5.0 and stays <= 1e-12
    _line(
        12,
        ok,
        f"reduction {r0 / flow.final_residual:.1e}x in {elapsed:.2f}s, "
        f"equilibrium drift {stays:.2e}",
    )
    assert ok
