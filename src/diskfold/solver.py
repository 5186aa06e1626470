"""Finding flat labels: Newton iteration and the curvature flow.

Flat means K_v = 0 at every vertex of the augmented disk.  The flat
labels of a solvable structure form a three-parameter family (the
Mobius deformations), so the curvature Jacobian J is singular: the
constant vector spans its exact kernel at every label (a uniform shift
changes no angle), and at a flat label the two Mobius translations join
it.  On an augmented disk the curvatures sum to zero identically, so
1^T J = 0 as well: the apex's row of J is minus the sum of the others.
Each Newton step therefore factors J grounded at the apex, without its
last row and column, once with splu (see _newton_step), and uses the
same factor to find the two Mobius directions by inverse iteration or
shift-invert Lanczos and drop each from the step when it is numerically
null, or when the step along it would move the label by more than one
log-unit (away from a flat label such a direction can take over the step
and stall the line search).

curvature_flow integrates the flow with fixed-step RK4 on the dt grid.
A full grid step is a deterministic function of its start label, so
once a label repeats bit for bit (the flow has reached a floating-point
fixed point or cycle) the flow replays the recorded steps instead of
evaluating them again, with the same numbers.

newton_flat starts from default_start unless given a label: the disk
at 0 and the apex entry found by a one-dimensional root find on the
apex curvature, which carries the fold sheet's constant term -2*pi.  Newton
steps are orthogonal to the constant vector, so a solved label keeps
its start's mean.  The start, Newton and the flow take a structure on
an augmented disk (StructureError otherwise) and evaluate through its
system, ConformalStructure.system, which serves one thread at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import AugmentedDisk
from .conformal import ConformalStructure, _complex_of

__all__ = [
    "SolverError",
    "NewtonResult",
    "FlowResult",
    "default_start",
    "newton_flat",
    "curvature_flow",
    "flow_steps",
    "gauge_normalize",
]


class SolverError(RuntimeError):
    """The iteration could not continue."""


#: splu settings for a principal block of J: minimum degree on G + G^T, diagonal pivots preferred
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1, "options": {"SymmetricMode": True}}


def _newton_step(J, G, K: np.ndarray, svd_cutoff: float, residual: float, start: np.ndarray) -> tuple:
    """Truncated minimum-norm solution x of J x = K, and how many
    near-kernel directions the truncation dropped.

    J and G = J[:-1, :-1] are the pair AngleSystem._assemble refills,
    and ``start`` two fixed vectors orthogonal to the constant vector
    (_start_vectors).  One sparse LU factor of G, J grounded at the
    apex, gives solutions orthogonal to the constant vector, J's exact
    kernel.
    Every solve first removes the right-hand side's mean: K sums to zero
    only up to roundoff, and that sum would otherwise land on the apex
    row.  It then solves the first n - 1 rows, sets the apex entry to 0 and
    subtracts the solution's mean; since 1^T J = 0 the dropped apex row
    holds as well.  The same factor runs two steps of block inverse
    iteration from ``start``, and a Rayleigh-Ritz step on that block
    gives the two directions v with the smallest |J v|: the Mobius
    translations near a flat label.  Each v is projected out of K and of
    x when |J v| <= thr, where
    thr = max(svd_cutoff * s_max, min(residual, sqrt(eps) * s_max))
    and s_max is J's largest singular value, estimated by power steps,
    or when |v^T K| > |J v|: then the step along v, |v^T K| / |J v|,
    would move the label by more than one log-unit.  Two inverse steps
    leave a v far from null off by about (|J v| / sigma_3)^2, so when some
    v above thr has a step longer than _LOOSE_LENGTH, shift-invert Lanczos
    on the same factor (eigsh from the sum of the block's columns)
    converges J's two eigenpairs nearest 0, and the drop reads their Ritz
    pairs.  Near a flat label v^T K is O(residual^2) and |J v| is
    O(residual), or both are roundoff and v is below thr, so it only runs
    away from one.  Raises RuntimeError when splu finds the grounded J
    exactly singular or Lanczos does not converge (ArpackError).
    """
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    lu = splu(G, **_SPLU_OPTIONS)

    def solve(b):
        # J grounded at the apex: b's mean would all land on the apex row
        x = np.zeros_like(b)
        x[:-1] = lu.solve(b[:-1] - b.sum(axis=0) / len(b))
        return x - x.sum(axis=0) / len(x)

    def ritz_pairs(y):
        # (|J v|, the rows of wt with v = y wt_i, |v^T K|) for both Ritz vectors
        _, sig, wt = np.linalg.svd(J @ y, full_matrices=False)
        return sig, wt, np.abs((K @ y) @ wt.T)

    def threshold(s_max):
        return max(svd_cutoff * s_max, min(residual, np.sqrt(np.finfo(float).eps) * s_max))

    def drop_threshold(sig):
        # thr grows with s_max and |J|_inf >= s_max (J is symmetric), so the
        # power steps only run when some Ritz value could be dropped
        thr = threshold(np.bincount(J.indices, np.abs(J.data)).max())
        return threshold(_power_estimate(J, start[:, 0])) if sig.min() <= thr else thr

    y = _orthonormal(solve(_orthonormal(solve(start))))
    sig, wt, kv = ritz_pairs(y)
    thr = drop_threshold(sig)
    if ((kv > _LOOSE_LENGTH * sig) & (sig > thr)).any():  # a loose pair
        inv = LinearOperator(J.shape, matvec=solve, dtype=float)
        y = eigsh(J, k=2, sigma=0.0, OPinv=inv, v0=y.sum(axis=1))[1]
        sig, wt, kv = ritz_pairs(y)
        thr = drop_threshold(sig)
    drop = y @ wt[(sig <= thr) | (kv > sig)].T

    # J is symmetric, so projecting K as well keeps the solve from ever
    # carrying the O(noise / sigma) component along a dropped direction
    x = solve(K - drop @ (drop.T @ K))
    return x - drop @ (drop.T @ x), drop.shape[1]


#: A Ritz pair above thr is loose, and Lanczos converges both pairs, when
#: the step along it is longer than this many log-units.
_LOOSE_LENGTH = 0.1

#: Power steps behind the estimate of J's largest singular value.
_POWER_STEPS = 8

#: Step halvings of one Newton line search before it counts as stalled.
MAX_BACKTRACKS = 40

#: Halvings of one curvature_flow grid step before it counts as a collapse.
MAX_HALVINGS = 30

#: The most label entries one curvature_flow records, (steps + 1) x n
#: floats: 800 MB of samples.
MAX_FLOW_FLOATS = 10**8


def _power_estimate(J, z: np.ndarray) -> float:
    """|J z| / |z| after _POWER_STEPS power steps on J from z."""
    for _ in range(_POWER_STEPS):
        z = J @ z
        z /= np.linalg.norm(z)
    return float(np.linalg.norm(J @ z))


def _orthonormal(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of y's two columns (Gram-Schmidt, twice)."""
    a = y[:, 0] / np.linalg.norm(y[:, 0])
    b = y[:, 1] - a * (a @ y[:, 1])
    b -= a * (a @ b)
    return np.column_stack([a, b / np.linalg.norm(b)])


def _start_vectors(n: int) -> np.ndarray:
    """Two fixed vectors orthogonal to the constant vector, shape (n, 2)."""
    t = np.arange(n)
    v = np.column_stack([np.cos(0.7 * t), np.sin(1.3 * t)])
    return v - v.mean(axis=0)


@dataclass
class NewtonResult:
    f: np.ndarray
    curvature: np.ndarray
    residual: float
    iterations: int
    converged: bool
    status: str
    history: list = field(default_factory=list)
    #: one (t, dropped) pair per accepted step: its length along the Newton
    #: direction and how many Ritz directions _newton_step dropped from it
    steps: list = field(default_factory=list)


@dataclass
class FlowResult:
    times: np.ndarray
    labels: np.ndarray
    residuals: np.ndarray
    #: grid steps integrated; the others replayed a recorded step
    integrated: int
    #: stage halvings over the integrated steps
    halvings: int

    @property
    def f(self) -> np.ndarray:
        return self.labels[-1]

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


#: The start stops once |K_apex| is this small ...
_START_TOL = 1e-12
#: ... or after this many evaluations past the first.
_START_EVALS = 100


def default_start(cs: ConformalStructure) -> np.ndarray:
    """Zero on the disk, and the apex entry a that zeroes the apex curvature.

    The apex carries the fold sheet's whole constant term -2 pi, so with
    the disk at 0 a one-dimensional root find on K_apex(a) removes most
    of the residual before Newton starts.  The search begins at
    a = log 3 = log(2 * max boundary scale + 1), with every boundary
    scale e^0 = 1, where the apex circle lies outside the boundary
    circles; when that label is inadmissible it raises
    InadmissibleLabelError.  K_apex falls as a grows, and an
    inadmissible label counts as "a too small".  Doubling
    steps find a bracket, then a safeguarded secant (Illinois) narrows
    it, bisecting when the secant point leaves the bracket or either end
    has no curvature.  The search stops at |K_apex| <= _START_TOL, at a
    collapsed bracket or after _START_EVALS evaluations, and returns the
    admissible label with the smallest |K_apex| it evaluated, so it
    never returns an inadmissible label.
    """
    _complex_of(cs, AugmentedDisk)
    sys = cs.system
    f = np.zeros(sys.n_vertices)
    f[-1] = a = best = np.log(3.0)
    k = best_k = float(sys.accept(sys.evaluate_iterate(f)).curvature[-1])
    # lo: K > 0 or inadmissible (klo None); hi: K < 0; None while unbracketed
    lo = hi = klo = khi = None
    step, side = 1.0, 0
    for _ in range(_START_EVALS):
        if abs(best_k) <= _START_TOL:
            break
        if k is None or k > 0:
            lo, klo = a, k
            if side == 1 and khi is not None:
                khi /= 2.0
            side = 1
        else:
            hi, khi = a, k
            if side == -1 and klo is not None:
                klo /= 2.0
            side = -1
        if hi is None:
            a = lo + step
            step *= 2.0
        elif lo is None:
            a = hi - step
            step *= 2.0
        else:
            a = 0.5 * (lo + hi)
            if klo is not None:
                sec = hi - khi * (hi - lo) / (khi - klo)
                if lo < sec < hi:
                    a = sec
            if not lo < a < hi:
                break
        f[-1] = a
        K = sys.evaluate_iterate(f).curvature
        k = None if K is None else float(K[-1])
        if k is not None and abs(k) < abs(best_k):
            best, best_k = a, k
    f[-1] = best
    return f


def newton_flat(
    cs: ConformalStructure,
    f0=None,
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
    svd_cutoff: float = 1e-10,
) -> NewtonResult:
    """Drive max |K| below tol by damped Newton steps.

    Each step is the minimum-norm solution of J x = -K with noise-aware
    truncation, and is halved until the label stays admissible and the
    residual strictly decreases: a trial with any violation, a degenerate
    angle as much as a bad edge or face, halves like one whose residual
    does not fall.  The step comes from one sparse LU
    factor of J grounded at the apex, exact since 1^T J = 0, and is
    always orthogonal to the constant vector, J's exact kernel.  The
    same factor gives, by two steps of block inverse iteration and a
    Rayleigh-Ritz step, the two directions v with the smallest |J v|;
    near a flat label these are the Mobius translations (when the step
    along one is long, Lanczos on the factor converges them).  Such a v is
    projected out of the step when |J v| <= thr, where

        thr = max(svd_cutoff * s_max, min(residual, sqrt(eps) * s_max))

    and s_max is J's largest singular value, estimated by power steps,
    or when |v^T K| > |J v|, that is when the step along the unit
    vector v is longer than one log-unit.  So ``svd_cutoff``
    is the relative size below which these two directions count as
    numerical kernel; no other direction is ever dropped.  The residual
    guard matters near convergence: the Mobius directions shrink
    proportionally with the residual, and dividing the roundoff noise
    of K by such a singular value would inject a spurious gauge motion
    of order noise/sigma into the label.  The step-length test matters
    away from a flat label, where |J v| can fall to 1e-7 while K still
    has an O(1) component along v: the step would then be dominated by
    a long move along v that the line search can only cut to a sliver.
    Near a flat label v^T K is O(residual^2) and |J v| is O(residual),
    so the test does not fire there and convergence stays quadratic.

    tol must be positive and finite, max_iter >= 0, and svd_cutoff finite
    and in [0, 1) (ValueError otherwise).
    The result's ``history`` holds the residual before the first step and
    after every accepted one, and ``steps`` one (t, dropped) pair per
    accepted step: the step length the line search accepted and how many
    of the two directions were dropped.
    Returns a result with converged=False (status explains why) when the
    line search stalls (MAX_BACKTRACKS halvings), the budget runs out,
    or the Jacobian breaks down (a non-finite entry, a singular factor or Lanczos failing);
    raises only for bad parameters or an inadmissible starting label.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    if not (np.isfinite(svd_cutoff) and 0 <= svd_cutoff < 1):
        raise ValueError(f"svd_cutoff must be finite and in [0, 1), got {svd_cutoff!r}")
    _complex_of(cs, AugmentedDisk)
    sys = cs.system
    ev = sys.accept(sys.evaluate(default_start(cs) if f0 is None else f0))
    f, K = ev.f, ev.curvature
    start = _start_vectors(len(f))

    history, steps = [], []
    residual = float(np.max(np.abs(K)))
    history.append(residual)
    for it in range(max_iter):
        if residual <= tol:
            return NewtonResult(f, K, residual, it, True, "converged", history, steps)
        J, G = sys._assemble(ev)
        try:
            # a Heron area rounded to zero blows up the angle derivatives; splu
            # (singular factor) and eigsh (no convergence) raise RuntimeError
            if not np.isfinite(J.data).all():
                raise RuntimeError("non-finite jacobian")
            step, dropped = _newton_step(J, G, K, svd_cutoff, residual, start)
        except RuntimeError:
            return NewtonResult(
                f, K, residual, it, False, "jacobian breakdown", history, steps
            )
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = sys.evaluate_iterate(f - t * step)
            if trial.violation is None:
                rn = float(np.max(np.abs(trial.curvature)))
                if rn < residual:
                    ev, f, K, residual = trial, trial.f, trial.curvature, rn
                    break
            t /= 2.0
        else:
            return NewtonResult(
                f, K, residual, it, False, "line search stalled", history, steps
            )
        history.append(residual)
        steps.append((t, dropped))
    converged = residual <= tol
    status = "converged" if converged else "max iterations reached"
    return NewtonResult(f, K, residual, max_iter, converged, status, history, steps)


def curvature_flow(cs: ConformalStructure, f0, t_end: float, dt: float) -> FlowResult:
    """Integrate df/dt = -K (apex: +K) with fixed-step RK4.

    The sign flip at the apex matches the fold: both sheets relax
    toward zero curvature.  Samples are recorded on the dt grid; when a
    Runge-Kutta stage leaves the admissible set (a bad edge, face or
    degenerate angle alike) the grid step is integrated in halved
    substeps, up to MAX_HALVINGS times before giving up with a
    SolverError.  Each step evaluates the label four times: three inner
    stages and the new point, whose curvature is also the recorded
    residual and the next step's first stage.

    A full grid step (length dt) is a deterministic function of its
    start label alone: its first stage is the field there, and halving
    restarts from dt on every step.  So when a full step starts from a
    label that an earlier full step started from, bit for bit, the flow
    replays the recorded successor and residual instead of integrating;
    a flow that settles into a floating-point fixed point or cycle
    before t_end stops evaluating, with the same numbers.  The result's
    ``integrated`` counts the grid steps integrated and ``halvings`` the
    stage halvings they took.
    t_end and dt are checked by flow_steps before any evaluation.
    """
    n_steps = flow_steps(len(_complex_of(cs, AugmentedDisk).vertices), t_end, dt)
    sys = cs.system
    evaluate = sys.evaluate_iterate
    sign = np.full(sys.n_vertices, -1.0)
    sign[-1] = 1.0

    def field_at(x) -> np.ndarray:
        ev = evaluate(x)
        if ev.violation is not None:
            raise _StageError()
        return sign * ev.curvature

    def rk4(x, k1, h):
        # the field at the new point is the next step's k1
        k2 = field_at(x + 0.5 * h * k1)
        k3 = field_at(x + 0.5 * h * k2)
        k4 = field_at(x + h * k3)
        out = x + (h / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)
        return out, field_at(out)

    ev = sys.accept(sys.evaluate(f0))
    f, k = ev.f, sign * ev.curvature
    times, labels, residuals = np.zeros(n_steps + 1), np.empty((n_steps + 1, len(f))), np.empty(n_steps + 1)
    labels[0], residuals[0] = f, np.maximum.reduce(np.abs(k))
    # open addressing, at most half full: hash(labels[i] bytes) -> i, else -1
    mask = (2 << n_steps.bit_length()) - 1
    starts = np.full(mask + 1, -1, dtype=np.int32)  # n_steps <= MAX_FLOW_FLOATS
    t = 0.0
    integrated = halvings = 0
    for i in range(n_steps):
        h_goal = min(dt, t_end - t)
        j = None
        if h_goal == dt:
            # a full step is a function of its start label alone, so a
            # label seen before bit for bit repeats that step's successor
            raw = f.tobytes()
            slot = hash(raw) & mask
            while (j := int(starts[slot])) >= 0 and labels[j].tobytes() != raw:
                slot = (slot + 1) & mask
            if j < 0:
                starts[slot], j = i, None
        if j is not None:
            f, k, r = labels[j + 1], None, residuals[j + 1]
        else:
            if k is None:
                k = field_at(f)
            remaining = h_goal
            step_halvings = 0
            h = h_goal
            while remaining > 1e-16 * t_end:
                try:
                    f, k = rk4(f, k, min(h, remaining))
                except _StageError:
                    step_halvings += 1
                    if step_halvings > MAX_HALVINGS:
                        raise SolverError(
                            f"step collapse at t={t + h_goal - remaining!r}: "
                            f"flow left the admissible set"
                        ) from None
                    h /= 2.0
                    continue
                remaining -= min(h, remaining)
            integrated += 1
            halvings += step_halvings
            r = float(np.maximum.reduce(np.abs(k)))
        t += h_goal
        times[i + 1], labels[i + 1], residuals[i + 1] = t, f, r
    return FlowResult(times, labels, residuals, integrated, halvings)


class _StageError(Exception):
    pass


def flow_steps(n: int, t_end: float, dt: float) -> int:
    """The grid steps of a flow of n-entry labels from 0 to t_end by dt.

    t_end and dt must be positive and finite, t_end / dt finite and the
    (steps + 1) x n recorded floats at most MAX_FLOW_FLOATS (ValueError
    otherwise).
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not np.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt must be finite, got {t_end!r} / {dt!r}")
    n_steps = max(int(np.ceil(t_end / dt - 1e-12)), 1)
    if (n_steps + 1) * n > MAX_FLOW_FLOATS:
        raise ValueError(f"{n_steps:.6g} steps of {n} entries record more than MAX_FLOW_FLOATS = {MAX_FLOW_FLOATS:.6g} floats")
    return n_steps


def gauge_normalize(aug: AugmentedDisk, f):
    """Shift the label so the apex entry is zero.

    Curvature is invariant under uniform shifts, so this fixes the
    scale gauge without changing the geometry up to similarity.  The
    label comes back as an array in vertex order, for a mapping too.
    """
    arr = aug.label_array(f)
    return arr - arr[-1]
