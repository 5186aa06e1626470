"""diskfold benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload newton --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 45

Run from the root of a source tree; the package is imported from its
``src/``.  BLAS is pinned to one thread before numpy loads.  Every op is
one in-process call of ``diskfold.cli.main`` on problem files that the
seed generates in a scratch directory under ``.perfbench_out/``, so
interpreter start-up and imports count in ``setup_s``, not in the ops.
Outputs are checked outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it records the environment, the per-command medians, every
op's outcome and a digest of all outputs.  See NOTES.md.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_DIR = ROOT / "tests" / "golden"

WORKLOADS = ("newton", "flow_realize")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
MIN_PASSES = 2


def _median(values):
    return statistics.median(values) if values else 0.0


class OpRecord:
    __slots__ = ("op_id", "kind", "seconds", "rc", "verdict", "digest", "status", "iterations")

    def __init__(self, op_id, kind, seconds, rc, verdict, text):
        self.op_id = op_id
        self.kind = kind
        self.seconds = seconds
        self.rc = rc
        self.verdict = verdict
        self.digest = hashlib.sha256((text or "").encode()).hexdigest()
        self.status = self.iterations = None
        if kind == "solve" and text and text.startswith("{"):
            out = json.loads(text)
            self.status, self.iterations = out.get("status"), out.get("iterations")

    @property
    def wrong(self) -> bool:
        return self.verdict not in ("ok", "classified")

    def signature(self):
        return (self.kind, self.rc, self.verdict, self.digest)


class Runner:
    """Runs the ops of a workload pass by pass and checks every output."""

    def __init__(self, cli, ops, tmp):
        self.cli = cli
        self.ops = ops
        self.out = os.path.join(tmp, "out")
        self.passes = []
        self.next_id = 0
        self.rec = None

    def run_pass(self):
        records = []
        for op in self.ops:
            if os.path.exists(self.out):
                os.remove(self.out)
            if self.rec is not None:
                self.rec.op_id = self.next_id
            with contextlib.redirect_stderr(io.StringIO()) as err:
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main([*op.argv, "--out", self.out])
                except Exception as exc:  # a crash is a wrong result, not the end of the run
                    rc = f"raised {type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
            text = None
            if os.path.exists(self.out):
                with open(self.out) as fh:
                    text = fh.read()
            verdict = rc
            if isinstance(rc, int):
                try:
                    verdict = op.check(rc, text)
                except Exception as exc:  # malformed output is a wrong result
                    verdict = f"check raised {type(exc).__name__}: {exc}"
            if verdict not in ("ok", "classified") and err.getvalue():
                verdict += f" ({err.getvalue().strip()})"
            records.append(OpRecord(self.next_id, op.kind, seconds, rc, verdict, text))
            self.next_id += 1
        if self.passes:
            # same inputs, same outputs: anything else is a wrong result
            for r, first in zip(records, self.passes[0]):
                if r.signature() != first.signature() and not r.wrong:
                    r.verdict = f"differs from pass 1: {r.signature()} vs {first.signature()}"
        self.passes.append(records)
        return records

    def run_until(self, deadline, min_passes):
        """At least ``min_passes``, then more while half of one still fits before ``deadline``."""
        done = []
        while True:
            t = time.perf_counter()
            done.append(self.run_pass())
            last = time.perf_counter() - t
            if len(done) >= min_passes and time.perf_counter() + last / 2 > deadline:
                return done


def _blas_threads():
    """Thread count reported by every OpenBLAS loaded into this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the source tree; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python_threads": threading.active_count(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _inputs_digest(tmp):
    h = hashlib.sha256()
    for name in sorted(os.listdir(tmp)):
        if name.endswith(".json") and name != "out":
            h.update(name.encode())
            with open(os.path.join(tmp, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _summary(passes):
    records = [r for p in passes for r in p]
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    outcomes = {}
    for r in records:
        key = f"{r.kind} exit {r.rc}: {'wrong' if r.wrong else r.verdict}"
        outcomes[key] = outcomes.get(key, 0) + 1
    first = passes[0]
    return {
        "passes": len(passes),
        "pass_s": [sum(r.seconds for r in p) for p in passes],
        "per_command": {k: {"n": len(v), "median_s": _median(v)} for k, v in by_kind.items()},
        "outcomes": outcomes,
        "newton": [[r.status, r.iterations] for r in first if r.status is not None],
        "outputs_sha256": hashlib.sha256("".join(r.digest for r in first).encode()).hexdigest(),
        "wrong": sorted({r.verdict for r in records if r.wrong})[:10],
    }


def _startup_times():
    """Wall times of fresh interpreters that import the package, as a user's process would."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import diskfold.cli"], env=env, check=True)
        times.append(time.perf_counter() - t)
    return times


def run_workload(name, seed, seconds, trace):
    t_import = time.perf_counter()
    import numpy  # noqa: F401  (loads BLAS after the pin above)

    from diskfold import cli

    import spans
    import workloads

    import_s = time.perf_counter() - t_import
    startup_times = [] if trace else _startup_times()

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        setup_times, digests = [], set()
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops = workloads.prepare(name, seed, tmp, str(GOLDEN_DIR))
            for argv in workloads.warmup_ops(tmp):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main([*argv, "--out", os.path.join(tmp, "out")])
            setup_times.append(time.perf_counter() - t)
            digests.add(_inputs_digest(tmp))
        if len(digests) != 1:
            raise RuntimeError("set-up wrote different inputs for the same seed")

        runner = Runner(cli, ops, tmp)
        t_start = time.perf_counter()
        if not trace:
            passes = runner.run_until(t_start + seconds, MIN_PASSES)
            records = [r for p in passes for r in p]
            ok = sum(r.verdict == "ok" for r in records)
            metrics = {
                "setup_s": statistics.median(startup_times) + statistics.median(setup_times),
                "wall_s": _median([sum(r.seconds for r in p) for p in passes]),
                "op_p50_s": _median([r.seconds for r in records]),
                "ok_share": ok / len(records),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        else:
            rec = spans.Recorder()
            untraced, traced = [], []
            while not traced or time.perf_counter() + last < t_start + seconds:
                t = time.perf_counter()
                untraced.append(runner.run_pass())
                runner.rec = rec
                restore = spans.install(rec)
                try:
                    traced.append(runner.run_pass())
                finally:
                    restore()
                    runner.rec = None
                last = (time.perf_counter() - t) / 2
            if not spans.check_nesting(rec):
                raise RuntimeError("spans are not properly nested")
            kinds = {r.op_id: r.kind for p in traced for r in p}
            op_seconds = {r.op_id: r.seconds for p in traced for r in p}
            per_pass = [spans.layer_metrics(rec, {r.op_id for r in p}, kinds, op_seconds) for p in traced]
            metrics = {k: _median([m[k] for m in per_pass]) for k, _ in spans.LAYER_METRICS}
            metrics["trace.overhead_s"] = _median([sum(r.seconds for r in p) for p in traced]) - _median(
                [sum(r.seconds for r in p) for p in untraced]
            )
            rec.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")
            passes = untraced + traced
            records = [r for p in passes for r in p]
            units = dict(spans.LAYER_METRICS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": environment(seed),
        "setup": {"import_s": import_s, "startup_s": startup_times, "inputs_s": setup_times},
        **_summary(passes),
    }
    failed = sum(r.wrong for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    rows = []
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        rows.append((name, "attempted", res["attempted"], "ops"))
        rows.append((name, "failed", res["failed"], "ops"))
        for metric, m in res["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:<20} {metric:<28} {value:>14.6g} {unit}")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    if not (ROOT / "src" / "diskfold" / "__init__.py").is_file():
        print(f"run.py: no diskfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
