"""Spans around calls into diskfold's layers, recorded from outside.

The benchmark wraps public functions and methods of the package's
modules at run time; nothing in the package itself is instrumented.
A span holds a name, start and end (perf_counter nanoseconds), the
index of the enclosing span (-1 at top level) and the id of the
benchmark operation it ran in.  Spans stay in memory until the run
writes them out.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter_ns

from diskfold import cli, complexes, conformal, layout, problem_io, rigidity, solver, svg


class Recorder:
    """Append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self.notes: dict = {}
        self._stack: list = []
        self.op_id = -1

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": list(zip(self.names, self.start, self.end, self.parent, self.op)),
                    "notes": {str(k): v for k, v in self.notes.items()},
                },
                fh,
            )


def _newton_note(args, kwargs, res):
    return {"status": res.status, "iterations": int(res.iterations)}


def _jacobian_note(args, kwargs, J):
    return {"bytes": int(J.nbytes)}


def _matrix_note(args, kwargs, m):
    return {"bytes": int(m.nbytes)}


def _svg_note(args, kwargs, text):
    return {"bytes": len(text.encode())}


# (owner, attribute, span name, note taken from the call's arguments and result)
TARGETS = (
    (cli, "main", "cli.main", None),
    (problem_io, "parse_problem", "problem_io.parse_problem", None),
    (problem_io, "canonical_json", "problem_io.canonical_json", None),
    (problem_io, "label_to_json", "problem_io.label_to_json", None),
    (complexes, "validate_disk", "complexes.validate_disk", None),
    (complexes, "augment", "complexes.augment", None),
    (conformal.AngleSystem, "__init__", "conformal.compile", None),
    (conformal.AngleSystem, "curvature", "conformal.curvature", None),
    (conformal.AngleSystem, "admissible", "conformal.admissible", None),
    (conformal.AngleSystem, "jacobian", "conformal.jacobian", _jacobian_note),
    (solver, "newton_flat", "solver.newton_flat", _newton_note),
    (solver, "curvature_flow", "solver.curvature_flow", None),
    (layout, "layout_augmented", "layout.layout_augmented", None),
    (layout, "realize_mpoints", "layout.realize_mpoints", None),
    (layout, "normalize_to_unit_disk", "layout.normalize_to_unit_disk", None),
    (layout, "verify_boundary_condition", "layout.verify_boundary_condition", None),
    (rigidity, "constraint_matrix", "rigidity.constraint_matrix", _matrix_note),
    (rigidity, "numerical_rank", "rigidity.numerical_rank", None),
    (rigidity, "mobius_orbit_check", "rigidity.mobius_orbit_check", None),
    (svg, "render_svg", "svg.render_svg", _svg_note),
)


def _wrap(rec: Recorder, name: str, fn, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if note is not None:
            rec.notes[i] = note(args, kwargs, out)
        return out

    return wrapper


def install(rec: Recorder):
    """Wrap every target wherever the package binds it; return an undo function."""
    modules = [m for n, m in list(sys.modules.items()) if n == "diskfold" or n.startswith("diskfold.")]
    undo = []
    for owner, attr, name, note in TARGETS:
        orig = owner.__dict__[attr]
        wrapped = _wrap(rec, name, orig, note)
        holders = [owner] if isinstance(owner, type) else [m for m in modules if m.__dict__.get(attr) is orig]
        for holder in holders:
            setattr(holder, attr, wrapped)
            undo.append((holder, attr, orig))

    def restore():
        for holder, attr, orig in reversed(undo):
            setattr(holder, attr, orig)

    return restore


#: Per-layer metrics as (name, unit); every traced run reports all of them.
LAYER_METRICS = (
    ("conformal.curvature_us", "us"),
    ("conformal.curvature_calls", "count"),
    ("conformal.admissible_s", "s"),
    ("conformal.admissible_calls", "count"),
    ("conformal.jacobian_s", "s"),
    ("conformal.jacobian_calls", "count"),
    ("conformal.jacobian_mb", "MB"),
    ("conformal.compile_s", "s"),
    ("conformal.compile_calls", "count"),
    ("solver.flow_self_s", "s"),
    ("solver.newton_linsolve_s", "s"),
    ("solver.newton_iters", "count"),
    ("solver.line_search_s", "s"),
    ("solver.step_trials", "count"),
    ("solver.step_accept_ratio", "ratio"),
    ("solver.fail_stalled", "count"),
    ("solver.fail_breakdown", "count"),
    ("solver.fail_max_iter", "count"),
    ("rigidity.rank_svd_s", "s"),
    ("rigidity.constraint_matrix_s", "s"),
    ("rigidity.matrix_mb", "MB"),
    ("rigidity.orbit_s", "s"),
    ("rigidity.orbit_develops", "count"),
    ("layout.develop_s", "s"),
    ("layout.realize_s", "s"),
    ("layout.normalize_s", "s"),
    ("layout.verify_s", "s"),
    ("problem_io.parse_self_s", "s"),
    ("problem_io.serialize_s", "s"),
    ("complexes.validate_s", "s"),
    ("complexes.augment_s", "s"),
    ("svg.render_s", "s"),
    ("svg.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("cmd.solve_s", "s"),
    ("cmd.layout_s", "s"),
    ("cmd.render_s", "s"),
    ("cmd.rank_s", "s"),
    ("cmd.mobius_s", "s"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)

_FAIL_STATUS = {
    "line search stalled": "solver.fail_stalled",
    "jacobian breakdown": "solver.fail_breakdown",
    "max iterations reached": "solver.fail_max_iter",
}


def layer_metrics(rec: Recorder, ops: set, op_kinds: dict, op_seconds: dict) -> dict:
    """Per-layer figures for the spans of the given operation ids.

    ``op_kinds`` maps an op id to its command; ``op_seconds`` to the wall
    time the runner measured around that op's call of cli.main.
    """
    idx = [i for i, o in enumerate(rec.op) if o in ops]
    dur = {i: (rec.end[i] - rec.start[i]) * 1e-9 for i in idx}
    child = {i: 0.0 for i in idx}
    kids: dict = {}
    by_name: dict = {}
    for i in idx:
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
            kids.setdefault(p, []).append(i)
        by_name.setdefault(rec.names[i], []).append(i)
    name = rec.names

    def spans(n):
        return by_name.get(n, [])

    def incl(n):
        return sum(dur[i] for i in spans(n))

    def self_(n):
        return sum(dur[i] - child[i] for i in spans(n))

    def count(n):
        return len(spans(n))

    def note_sum(n, key):
        return sum(rec.notes[i][key] for i in spans(n) if i in rec.notes)

    m = {k: 0.0 for k, _ in LAYER_METRICS}
    n_curv = count("conformal.curvature")
    m["conformal.curvature_us"] = incl("conformal.curvature") / n_curv * 1e6 if n_curv else 0.0
    m["conformal.curvature_calls"] = n_curv
    m["conformal.admissible_s"] = incl("conformal.admissible")
    m["conformal.admissible_calls"] = count("conformal.admissible")
    m["conformal.jacobian_s"] = incl("conformal.jacobian")
    m["conformal.jacobian_calls"] = count("conformal.jacobian")
    m["conformal.jacobian_mb"] = note_sum("conformal.jacobian", "bytes") / 1e6
    m["conformal.compile_s"] = incl("conformal.compile")
    m["conformal.compile_calls"] = count("conformal.compile")
    m["solver.flow_self_s"] = self_("solver.curvature_flow")

    newton = spans("solver.newton_flat")
    m["solver.newton_linsolve_s"] = self_("solver.newton_flat")
    line_search = 0.0
    trials = 0
    for i in newton:
        first_curvature = True
        for k in kids.get(i, []):
            if name[k] == "conformal.curvature" and first_curvature:
                first_curvature = False  # the residual at the start label
            elif name[k] in ("conformal.admissible", "conformal.curvature"):
                line_search += dur[k]
                trials += name[k] == "conformal.admissible"
        note = rec.notes.get(i)
        if note is not None:
            m["solver.newton_iters"] += note["iterations"]
            key = _FAIL_STATUS.get(note["status"])
            if key is not None:
                m[key] += 1
    m["solver.line_search_s"] = line_search
    m["solver.step_trials"] = trials
    m["solver.step_accept_ratio"] = m["solver.newton_iters"] / trials if trials else 0.0

    m["rigidity.rank_svd_s"] = self_("rigidity.numerical_rank")
    m["rigidity.constraint_matrix_s"] = self_("rigidity.constraint_matrix")
    m["rigidity.matrix_mb"] = note_sum("rigidity.constraint_matrix", "bytes") / 1e6
    m["rigidity.orbit_s"] = incl("rigidity.mobius_orbit_check")
    m["rigidity.orbit_develops"] = sum(
        1
        for i in spans("layout.layout_augmented")
        if rec.parent[i] >= 0 and name[rec.parent[i]] == "rigidity.mobius_orbit_check"
    )
    m["layout.develop_s"] = self_("layout.layout_augmented")
    m["layout.realize_s"] = self_("layout.realize_mpoints")
    m["layout.normalize_s"] = self_("layout.normalize_to_unit_disk")
    m["layout.verify_s"] = incl("layout.verify_boundary_condition")
    m["problem_io.parse_self_s"] = self_("problem_io.parse_problem")
    m["problem_io.serialize_s"] = self_("problem_io.canonical_json") + self_("problem_io.label_to_json")
    m["complexes.validate_s"] = self_("complexes.validate_disk")
    m["complexes.augment_s"] = self_("complexes.augment")
    m["svg.render_s"] = self_("svg.render_svg")
    m["svg.bytes"] = note_sum("svg.render_svg", "bytes")
    m["cli.self_s"] = self_("cli.main")

    by_kind: dict = {}
    for i in spans("cli.main"):
        by_kind.setdefault(op_kinds[rec.op[i]], []).append(dur[i])
    for kind, values in by_kind.items():
        m[f"cmd.{kind}_s"] = statistics.median(values)
    m["trace.spans"] = len(idx)
    top = sum(dur[i] for i in spans("cli.main"))
    m["trace.coverage"] = top / sum(op_seconds[o] for o in ops)
    return m


def check_nesting(rec: Recorder) -> bool:
    """Every span closed, inside its parent and in its parent's op."""
    for i, p in enumerate(rec.parent):
        if rec.end[i] < rec.start[i]:
            return False
        if p >= 0 and not (
            rec.start[p] <= rec.start[i] and rec.end[i] <= rec.end[p] and rec.op[p] == rec.op[i]
        ):
            return False
    return True

