"""Finding flat labels: Newton iteration and the curvature flow.

Flat means K_v = 0 at every vertex of the augmented disk.  The flat
labels of a solvable structure form a three-parameter family (the
Mobius deformations), so the curvature Jacobian is rank-deficient and
the Newton step uses a pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import AugmentedDisk
from .conformal import AngleSystem, ConformalStructure

__all__ = [
    "SolverError",
    "NewtonResult",
    "FlowResult",
    "default_start",
    "newton_flat",
    "curvature_flow",
    "gauge_normalize",
]


class SolverError(RuntimeError):
    """The iteration could not continue."""


def _pinv_apply(J: np.ndarray, K: np.ndarray, svd_cutoff: float, residual: float) -> np.ndarray:
    """Minimum-norm solution of J x = K with noise-aware truncation."""
    u, s, vt = np.linalg.svd(J)
    if s[0] == 0.0:
        return np.zeros_like(K)
    guard = min(residual, np.sqrt(np.finfo(float).eps) * s[0])
    thr = max(svd_cutoff * s[0], guard)
    inv = np.where(s > thr, 1.0 / np.where(s > thr, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ K))


@dataclass
class NewtonResult:
    f: np.ndarray
    curvature: np.ndarray
    residual: float
    iterations: int
    converged: bool
    status: str
    history: list = field(default_factory=list)


@dataclass
class FlowResult:
    times: np.ndarray
    labels: np.ndarray
    residuals: np.ndarray

    @property
    def f(self) -> np.ndarray:
        return self.labels[-1]

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


def default_start(aug: AugmentedDisk, cs: ConformalStructure) -> np.ndarray:
    """Zero on the disk, apex at log(2 * max boundary scale + 1).

    Places the apex circle safely outside the boundary scales so the
    augmented faces start admissible in the common scenarios.
    """
    f = np.zeros(len(aug.vertices))
    m = max(np.exp(f[aug.vertex_index[v]]) for v in aug.disk.boundary_cycle)
    f[-1] = np.log(2.0 * m + 1.0)
    return f


def newton_flat(
    aug: AugmentedDisk,
    cs: ConformalStructure,
    f0=None,
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
    svd_cutoff: float = 1e-10,
    max_backtracks: int = 40,
) -> NewtonResult:
    """Drive max |K| below tol by damped Newton steps.

    Each step is the minimum-norm least-squares solution through a
    truncated SVD and is halved until the label stays admissible and
    the residual strictly decreases.  Two families of singular values
    are treated as zero: those below ``svd_cutoff`` * s_max (the
    numerical kernel), and those below the current residual (capped at
    sqrt(eps) * s_max).  The latter guard matters near convergence: the
    Mobius gauge directions shrink proportionally with the residual,
    and dividing the roundoff noise of K by such a singular value would
    inject a spurious gauge motion of order noise/sigma into the label.

    Returns a result with converged=False (status explains why) when
    the line search stalls or the iteration budget runs out; raises
    only for an inadmissible starting label.
    """
    sys = AngleSystem(aug, cs)
    ev = sys.accept(sys.evaluate(default_start(aug, cs) if f0 is None else f0))
    f, K = ev.f, ev.curvature

    history = []
    residual = float(np.max(np.abs(K)))
    history.append(residual)
    for it in range(max_iter):
        if residual <= tol:
            return NewtonResult(f, K, residual, it, True, "converged", history)
        J = sys.jacobian(ev)
        if not np.all(np.isfinite(J)):
            # Heron area of some face rounded to zero: the angle
            # derivatives blew up and no sensible step exists
            return NewtonResult(
                f, K, residual, it, False, "jacobian breakdown", history
            )
        step = -_pinv_apply(J, K, svd_cutoff, residual)
        t = 1.0
        for _ in range(max_backtracks):
            trial = sys.evaluate_iterate(f + t * step)
            if trial.violation is None:
                Kn = sys.accept(trial).curvature
                rn = float(np.max(np.abs(Kn)))
                if rn < residual:
                    ev, f, K, residual = trial, trial.f, Kn, rn
                    break
            t /= 2.0
        else:
            return NewtonResult(
                f, K, residual, it, False, "line search stalled", history
            )
        history.append(residual)
    converged = residual <= tol
    status = "converged" if converged else "max iterations reached"
    return NewtonResult(f, K, residual, max_iter, converged, status, history)


def curvature_flow(
    aug: AugmentedDisk,
    cs: ConformalStructure,
    f0,
    t_end: float,
    dt: float,
    *,
    max_halvings: int = 30,
) -> FlowResult:
    """Integrate df/dt = -K (apex: +K) with fixed-step RK4.

    The sign flip at the apex matches the fold: both sheets relax
    toward zero curvature.  Samples are recorded on the dt grid; when a
    Runge-Kutta stage leaves the admissible set the grid step is
    integrated in halved substeps, up to ``max_halvings`` times before
    giving up with a SolverError.  Each step evaluates the label four
    times: three inner stages and the new point, whose curvature is
    also the recorded residual and the next step's first stage.
    t_end and dt must be positive and finite (ValueError otherwise).
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    sys = AngleSystem(aug, cs)
    sign = np.full(len(aug.vertices), -1.0)
    sign[-1] = 1.0

    def field_at(x) -> np.ndarray:
        ev = sys.evaluate_iterate(x)
        if ev.violation is not None:
            raise _StageError()
        return sign * sys.accept(ev).curvature

    def rk4(x, k1, h):
        # the field at the new point is the next step's k1
        k2 = field_at(x + 0.5 * h * k1)
        k3 = field_at(x + 0.5 * h * k2)
        k4 = field_at(x + h * k3)
        out = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return out, field_at(out)

    ev = sys.accept(sys.evaluate(f0))
    f, k = ev.f, sign * ev.curvature
    n_steps = max(int(np.ceil(t_end / dt - 1e-12)), 1)
    times = [0.0]
    labels = [f]
    residuals = [float(np.max(np.abs(k)))]
    t = 0.0
    for i in range(n_steps):
        h_goal = min(dt, t_end - t)
        remaining = h_goal
        halvings = 0
        h = h_goal
        while remaining > 1e-16 * t_end:
            try:
                f, k = rk4(f, k, min(h, remaining))
            except _StageError:
                halvings += 1
                if halvings > max_halvings:
                    raise SolverError(
                        f"step collapse at t={t + h_goal - remaining!r}: "
                        f"flow left the admissible set"
                    ) from None
                h /= 2.0
                continue
            remaining -= min(h, remaining)
        t += h_goal
        times.append(t)
        labels.append(f)
        residuals.append(float(np.max(np.abs(k))))
    return FlowResult(np.array(times), np.array(labels), np.array(residuals))


class _StageError(Exception):
    pass


def gauge_normalize(aug: AugmentedDisk, f):
    """Shift the label so the apex entry is zero.

    Curvature is invariant under uniform shifts, so this fixes the
    scale gauge without changing the geometry up to similarity.
    """
    if isinstance(f, dict):
        c = float(f[aug.apex])
        return {v: float(x) - c for v, x in f.items()}
    arr = aug.label_array(f)
    return arr - arr[-1]
