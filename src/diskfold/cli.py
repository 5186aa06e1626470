"""Command line front end.

Exit codes: 0 on success, 1 for input errors (files, schema, topology),
2 for numerical failures (no convergence, inadmissible labels, layout
of a non-flat label).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import presets, problem_io
from .complexes import DiskTopologyError
from .conformal import InadmissibleLabelError, StructureError
from .layout import FLAT_TOL, LayoutError, layout_augmented, normalize_to_unit_disk
from .minkowski import InfinitesimalMobius
from .rigidity import (
    N_SMALLEST,
    constraint_matrix,
    mobius_orbit_check,
    numerical_rank,
    row_rank_certificate,
)
from .solver import SolverError, curvature_flow, default_start, flow_steps, newton_flat
from .svg import render_svg

INPUT_ERROR = 1
NUMERICAL_ERROR = 2

_INPUT_EXCEPTIONS = (
    argparse.ArgumentError,  # flags that parse one by one but do not go together
    problem_io.ProblemFormatError,
    DiskTopologyError,
    StructureError,
    OSError,
)
_NUMERICAL_EXCEPTIONS = (SolverError, LayoutError, InadmissibleLabelError, ValueError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 for numerical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(INPUT_ERROR)


def _checked(convert, ok, what: str):
    """An argparse type: convert the text, then require ok(value)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_float = _checked(float, lambda x: math.isfinite(x) and x > 0, "positive and finite")
# rank draws uniform(-x, x), whose range 2x must be finite as well
_perturbation = _checked(float, lambda x: x >= 0 and math.isfinite(2 * x), "non-negative and finite")
_cutoff = _checked(float, lambda x: math.isfinite(x) and 0 <= x < 1, "finite and in [0, 1)")
_positive_int = _checked(int, lambda n: n > 0, "positive")
_nonnegative_int = _checked(int, lambda n: n >= 0, "non-negative")


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load(path: str) -> problem_io.Problem:
    with open(path) as fh:
        return problem_io.parse_problem(fh)


def _newton(prob, args):
    """newton_flat from f_init (or the default start) with the Newton flags."""
    return newton_flat(prob.cs, prob.f_init, tol=args.tol, max_iter=args.max_iter, svd_cutoff=args.svd_cutoff)


def _solved_label(prob, args):
    """f_init when it is already flat (FLAT_TOL), otherwise a fresh Newton solve."""
    if prob.f_init is not None:
        if float(np.max(np.abs(prob.cs.system.curvature(prob.f_init)))) <= FLAT_TOL:
            return prob.f_init
    res = _newton(prob, args)
    if not res.converged:
        raise SolverError(f"newton did not converge: {res.status}, residual {res.residual!r}")
    return res.f


def _cmd_validate(args) -> int:
    prob = _load(args.problem)
    disk = prob.aug.disk
    info = {
        "vertices": len(disk.vertices),
        "edges": len(disk.compiled.E),
        "faces": len(disk.compiled.F),
        "boundary_vertices": len(disk.boundary_cycle),
        "interior_vertices": len(disk.vertices) - len(disk.boundary_cycle),
        "apex": prob.aug.apex,
    }
    _write(json.dumps(info, indent=2), args.out)
    return 0


def _cmd_preset(args) -> int:
    data = presets.preset(args.name, n_rings=args.rings, scenario=args.scenario)
    _write(problem_io.canonical_json(data), args.out)
    return 0


def _cmd_curvature(args) -> int:
    prob = _load(args.problem)
    f = prob.f_init if prob.f_init is not None else default_start(prob.cs)
    K = prob.cs.system.curvature(f)
    out = {
        "curvature": problem_io.label_to_json(prob.aug, K),
        "max_abs": float(np.max(np.abs(K))),
        "sum": float(np.sum(K)),
    }
    _write(problem_io.canonical_json(out), args.out)
    return 0


def _cmd_solve(args) -> int:
    prob = _load(args.problem)
    if args.method == "newton":
        res = _newton(prob, args)
        out = {
            "method": "newton",
            "converged": res.converged,
            "status": res.status,
            "iterations": res.iterations,
            "residual": res.residual,
        }
    else:
        try:
            flow_steps(len(prob.aug.vertices), args.time, args.dt)
        except ValueError as exc:
            raise argparse.ArgumentError(None, f"--time and --dt: {exc}") from None
        f0 = prob.f_init if prob.f_init is not None else default_start(prob.cs)
        res = curvature_flow(prob.cs, f0, args.time, args.dt)
        out = {
            "method": "flow",
            "time": float(res.times[-1]),
            "dt": args.dt,
            "initial_residual": float(res.residuals[0]),
            "final_residual": res.final_residual,
        }
    out["f"] = problem_io.label_to_json(prob.aug, res.f)
    _write(problem_io.canonical_json(out), args.out)
    return NUMERICAL_ERROR if args.method == "newton" and not res.converged else 0


def _developed(prob, args):
    """The layout of the solved label, normalized with --normalize."""
    lay = layout_augmented(prob.cs, _solved_label(prob, args), traversal=args.traversal)
    return normalize_to_unit_disk(lay) if args.normalize else lay


def _cmd_layout(args) -> int:
    prob = _load(args.problem)
    lay = _developed(prob, args)
    out = {
        "positions": problem_io.IdRows(prob.aug, lay.positions),
        "mpoints": problem_io.IdRows(prob.aug, lay.mpoints),
        "f": problem_io.label_to_json(prob.aug, lay.label),
        "consistency_residual": lay.consistency_residual,
        "traversal": lay.traversal,
    }
    _write(problem_io.canonical_json(out), args.out)
    return 0


def _cmd_render(args) -> int:
    prob = _load(args.problem)
    _write(render_svg(_developed(prob, args), size=args.size), args.out)
    return 0


def _unit_disk_layout(prob, args):
    """The solved label's layout with the apex circle as the unit circle:
    the orbit bounds are absolute there, and rank --spectrum reads M there."""
    return normalize_to_unit_disk(layout_augmented(prob.cs, _solved_label(prob, args)))


def _cmd_rank(args) -> int:
    if not args.jacobian and (args.perturb is not None or args.seed is not None):
        raise argparse.ArgumentError(None, "--perturb and --seed move the label of --jacobian, and need it")
    if args.seed is not None and not args.perturb:
        raise argparse.ArgumentError(None, "--seed draws the --perturb move, and needs it")
    prob = _load(args.problem)
    if args.jacobian:
        f = _solved_label(prob, args)
        if args.perturb:
            rng = np.random.default_rng(args.seed or 0)
            for _ in range(100):
                cand = f + rng.uniform(-args.perturb, args.perturb, len(f))
                if prob.cs.system.admissible(cand):
                    f = cand
                    break
            else:
                raise SolverError("could not find an admissible perturbed label")
        kind, name, shape = "curvature_jacobian", "J", [len(f), len(f)]
    else:
        lay, n = _unit_disk_layout(prob, args), len(prob.aug.vertices)  # M: a row per vertex and edge
        kind, name, shape = "constraint_matrix", "M", [n + len(prob.aug.compiled.E), 4 * n]
    if args.jacobian or args.spectrum:
        try:
            m = prob.cs.system.jacobian(f) if args.jacobian else constraint_matrix(lay)
            rank, spectrum = numerical_rank(m, cutoff=args.svd_cutoff)
        except MemoryError:
            print(f"diskfold: numerical failure: --{'jacobian' if args.jacobian else 'spectrum'} needs {name} "
                  f"({shape[0]} x {shape[1]}) dense, which does not fit in memory", file=sys.stderr)
            return NUMERICAL_ERROR
        s_max, smallest, how = spectrum[0], spectrum[::-1][:N_SMALLEST], "svd"
    else:
        cert = row_rank_certificate(lay, args.svd_cutoff)  # from J: M is never formed
        if cert is None:
            print(f"diskfold: numerical failure: full row rank of M ({shape[0]} x {shape[1]}) was not certified; "
                  "rank --spectrum gives its dense SVD", file=sys.stderr)
            return NUMERICAL_ERROR
        (rank, s_max, smallest), how = cert, "jacobian_kernel"
    out = {"matrix": kind, "shape": shape, "cutoff": args.svd_cutoff, "rank": rank}
    if args.spectrum:
        out["singular_values"] = [float(s) for s in spectrum]
    else:
        out.update(s_max=float(s_max), smallest_singular_values=[float(s) for s in smallest], certificate=how)
    _write(problem_io.canonical_json(out), args.out)
    return 0


def _cmd_mobius_check(args) -> int:
    prob = _load(args.problem)
    lay = _unit_disk_layout(prob, args)
    names = ("a", "b", "c", "d", "t", "r")
    reports = []
    for name in names:
        gen = InfinitesimalMobius(**{name: 1.0})
        for eps in args.eps:
            rep = mobius_orbit_check(lay, gen, eps)
            curvature_bound, variation_bound = 100.0 * eps * eps, 10.0 * eps
            reports.append(
                {
                    "generator": name,
                    "eps": eps,
                    "max_abs_curvature": rep.max_abs_curvature,
                    "curvature_bound": curvature_bound,
                    "max_variation_dev": rep.max_variation_dev,
                    "variation_bound": variation_bound,
                    "ok": rep.max_abs_curvature <= curvature_bound and rep.max_variation_dev <= variation_bound,
                }
            )
    _write(problem_io.canonical_json({"checks": reports}), args.out)
    return 0 if all(r["ok"] for r in reports) else NUMERICAL_ERROR


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace on every call."""
    p = _Parser(prog="diskfold", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # the Newton flags of every command that may solve for a flat label
    newton = argparse.ArgumentParser(add_help=False)
    newton.add_argument("--tol", type=_positive_float, default=1e-10, help="target max |K|")
    newton.add_argument("--max-iter", type=_nonnegative_int, default=100)
    newton.add_argument("--svd-cutoff", type=_cutoff, default=1e-10, help="relative numerical-kernel cutoff")

    def add(name, fn, **kw):
        q = sub.add_parser(name, **kw)
        q.set_defaults(fn=fn)
        return q

    q = add("validate", _cmd_validate, help="check a problem file")
    q.add_argument("problem")
    q.add_argument("--out")

    q = add("preset", _cmd_preset, help="emit a built-in problem")
    q.add_argument("name", choices=presets.PRESET_NAMES)
    q.add_argument("--rings", type=_positive_int, default=2, help="rings for ring_lattice")
    q.add_argument("--scenario", choices=presets.SCENARIOS, default="tangent")
    q.add_argument("--out")

    q = add("curvature", _cmd_curvature, help="curvature of f_init (or the default start)")
    q.add_argument("problem")
    q.add_argument("--out")

    q = add("solve", _cmd_solve, parents=[newton], help="find a flat label")
    q.add_argument("problem")
    q.add_argument("--method", choices=("newton", "flow"), default="newton")
    q.add_argument("--time", type=_positive_float, default=50.0, help="flow horizon")
    q.add_argument("--dt", type=_positive_float, default=0.01, help="flow step")
    q.add_argument("--out")

    for name, fn, hlp in (
        ("layout", _cmd_layout, "develop a flat label into the plane"),
        ("render", _cmd_render, "draw the layout as SVG"),
    ):
        q = add(name, fn, parents=[newton], help=hlp)
        q.add_argument("problem")
        q.add_argument("--traversal", choices=("bfs", "dfs"), default="bfs")
        q.add_argument("--normalize", action="store_true", help="apex to the unit circle")
        if name == "render":
            q.add_argument("--size", type=_positive_int, default=640)
        q.add_argument("--out")

    q = add("rank", _cmd_rank, parents=[newton], help="rank experiment at a solved label")
    q.add_argument("problem")
    q.add_argument("--jacobian", action="store_true", help="curvature Jacobian instead")
    q.add_argument("--perturb", type=_perturbation, help="move off the flat label")
    q.add_argument("--seed", type=_nonnegative_int)
    q.add_argument("--spectrum", action="store_true", help="every singular value, by dense SVD")
    q.add_argument("--out")

    q = add("mobius-check", _cmd_mobius_check, parents=[newton], help="orbit check for the six generators")
    q.add_argument("problem")
    q.add_argument("--eps", type=_positive_float, nargs="+", default=[1e-3, 1e-4])
    q.add_argument("--out")

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _INPUT_EXCEPTIONS as exc:
        print(f"diskfold: input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except _NUMERICAL_EXCEPTIONS as exc:
        print(f"diskfold: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
