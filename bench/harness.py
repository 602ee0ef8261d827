"""Workloads, spans, correctness checks and metrics of the fetps benchmark.

The benchmark times calls into the public functions of `fetps.mesh`,
`fetps.assembly`, `fetps.system` and `fetps.smoother` from outside the
package. The load is a closed loop: one caller issues one operation at a
time, in one process, with BLAS capped at one thread. An operation of a fit
workload is a fit followed by save -> load -> query of its model, repeated
`read_reps` times; an operation of `query2d` is save -> load -> query of a
model fitted during set-up. Every top-level timed call starts right after
a full garbage collection, made outside the timing.

Why each workload exists:

- fit2d: 2D simplex 128^2, 25k Franke points, alpha=1e-3. Block assembly is
  the largest stage, so a change to assembly shows here.
- fit3d: 3D hex 16^3, 6k sin-product points, alpha=1e-3. Condensation is the
  largest stage (nnz(S) is about 10x nnz(K)) and CG is small, so a change to
  the solver should not move it.
- fit2d-stiff: 2D simplex 64^2, 5k Franke points, alpha=1. Jacobi-PCG takes
  about 1900 iterations and dominates; assembly is small, so a change to
  assembly should not move it.
- query2d: the fit2d model, saved, loaded and queried at 50k uniform points
  plus a raster at every second mesh vertex. Raster points lie on element
  faces and take the slow point-location path. Nothing is assembled or
  solved per operation: this is the read path only.

The sizes keep one operation within about two seconds, so that a run holds
enough operations for steady figures on a small shared host; the stage shares
match those of the about 4x larger problems (256^2 with 100k points, 24^3 with
20k, 128^2 with 20k at alpha=1).

`fetps.study` (a loop of `fit` plus quadrature) and `fetps.cli` (CSV I/O
around the same calls) get no workload of their own.

With tracing off, only stopwatch spans around the public calls are taken.
With tracing on, a fit is rebuilt from the public steps `fit` itself calls,
with a span around each; its u must equal that of `fit` on the same inputs.
A timing metric is the median of such spans over the run.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from fetps import (
    Domain,
    FitConfig,
    ScatteredData,
    Smoother,
    SolverConfig,
    SystemBlocks,
    assemble_data_term,
    assemble_grad_coupling,
    assemble_gram_diagonal,
    assemble_mass,
    assemble_stiffness,
    build_structured_mesh,
    condense,
    evaluation_matrix,
    fit,
    get_field,
    locate_points,
    recover_auxiliary,
    solve_reduced,
)

OUT_DIR = Path(__file__).resolve().parent / "out"

NOISE = 0.01
# truth_rmse is measured on one fixed point set, whatever the workload seed.
HOLDOUT_SEED = 9053203
HOLDOUT_POINTS = 20000
RTOL = SolverConfig().rtol
# locate_points sends a point to its slow path when one of its fractional
# grid coordinates is this close to an integer.
NEAR_FACE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    cells: tuple
    kind: str
    field: str
    n_data: int
    alpha: float
    n_query: int
    rmse_band: tuple          # accepted truth_rmse range
    raster: bool = False      # add every second mesh vertex to the query batch
    fit_in_setup: bool = False
    rounds: int = 5
    read_reps: int = 1        # save -> load -> query passes per operation


def _workloads(*specs):
    return {w.name: w for w in specs}


SIZES = {
    "full": _workloads(
        Workload("fit2d", 2, (128, 128), "simplex", "franke", 25_000, 1e-3,
                 50_000, (0.9e-3, 1.6e-3), read_reps=2),
        Workload("fit3d", 3, (16, 16, 16), "parallelotope", "sin-product",
                 6_000, 1e-3, 50_000, (4.5e-3, 7.5e-3), read_reps=2),
        Workload("fit2d-stiff", 2, (64, 64), "simplex", "franke", 5_000, 1.0,
                 50_000, (5.5e-2, 1.0e-1), read_reps=2),
        Workload("query2d", 2, (128, 128), "simplex", "franke", 25_000, 1e-3,
                 50_000, (0.9e-3, 1.6e-3), raster=True, fit_in_setup=True,
                 rounds=8),
    ),
    "smoke": _workloads(
        Workload("fit2d", 2, (32, 32), "simplex", "franke", 3000, 1e-3, 2000,
                 (0.0, 0.05), read_reps=2),
        Workload("fit3d", 3, (6, 6, 6), "parallelotope", "sin-product", 2000,
                 1e-3, 2000, (0.0, 0.1)),
        Workload("fit2d-stiff", 2, (16, 16), "simplex", "franke", 2000, 1.0,
                 2000, (0.0, 0.2)),
        Workload("query2d", 2, (32, 32), "simplex", "franke", 3000, 1e-3, 5000,
                 (0.0, 0.05), raster=True, fit_in_setup=True, rounds=2),
    ),
}

END_TO_END = {
    "fit_s": "s", "save_s": "s", "load_s": "s", "query_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "truth_rmse": "value",
}

PER_LAYER = {
    "mesh.build_s": "s", "mesh.n_vertices": "count", "mesh.n_elements": "count",
    "mesh.locate_data_s": "s", "mesh.locate_query_s": "s",
    "mesh.near_face_share_data": "ratio", "mesh.near_face_share_query": "ratio",
    "assembly.stiffness_s": "s", "assembly.mass_s": "s", "assembly.gram_s": "s",
    "assembly.coupling_dual_s": "s", "assembly.coupling_primal_s": "s",
    "assembly.evaluation_s": "s", "assembly.data_term_s": "s",
    "assembly.nnz_K": "count", "assembly.nnz_P": "count", "assembly.nnz_R": "count",
    "system.condense_s": "s", "system.nnz_S": "count", "system.fill_ratio": "ratio",
    "system.solve_s": "s", "system.cg_iters": "count", "system.cg_s_per_iter": "s",
    "system.recover_s": "s", "system.rel_residual": "ratio",
    "smoother.model_bytes": "B", "smoother.save_s": "s", "smoother.load_s": "s",
    "smoother.evaluate_s": "s", "smoother.evaluate_gradient_s": "s",
    "trace.fit_s": "s", "trace.fit_untraced_s": "s", "trace.overhead_s": "s",
    "trace.fit_self_s": "s",
    "trace.share_assembly": "ratio", "trace.share_condense": "ratio",
    "trace.share_solve": "ratio", "trace.share_recover": "ratio",
    "trace.read_share_save": "ratio", "trace.read_share_load": "ratio",
    "trace.read_share_query": "ratio",
}

# Spans whose median duration is a per-layer metric, by metric name.
SPAN_METRICS = {
    "mesh.build_s": "mesh.build",
    "mesh.locate_data_s": "mesh.locate_data",
    "mesh.locate_query_s": "mesh.locate_query",
    "assembly.stiffness_s": "assembly.stiffness",
    "assembly.mass_s": "assembly.mass",
    "assembly.gram_s": "assembly.gram",
    "assembly.coupling_dual_s": "assembly.coupling_dual",
    "assembly.coupling_primal_s": "assembly.coupling_primal",
    "assembly.evaluation_s": "assembly.evaluation",
    "assembly.data_term_s": "assembly.data_term",
    "system.condense_s": "system.condense",
    "system.solve_s": "system.solve",
    "system.recover_s": "system.recover",
    "smoother.save_s": "save",
    "smoother.load_s": "load",
    "smoother.evaluate_s": "evaluate",
    "smoother.evaluate_gradient_s": "evaluate_gradient",
    "trace.fit_s": "fit",
    "trace.fit_untraced_s": "fit.untraced",
}


# -- spans ---------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent, and operation id.

    Every span of one operation carries the same `op`; spans of operations
    that failed are left out of the metrics.
    """

    def __init__(self):
        self.spans = []
        self.failed_ops = set()
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"op": self.op, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _ok(self):
        return [s for s in self.spans if s["op"] not in self.failed_ops]

    def last_duration(self, name):
        return next(s["end"] - s["start"] for s in reversed(self.spans) if s["name"] == name)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self._ok() if s["name"] == name]

    def self_times(self, name):
        """Duration of each span `name` minus the time its children cover."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        return [s["end"] - s["start"] - child_time.get(i, 0.0)
                for i, s in enumerate(self.spans)
                if s["name"] == name and s["op"] not in self.failed_ops]


# -- inputs --------------------------------------------------------------

@dataclass
class Context:
    wl: Workload
    mesh: object
    data: ScatteredData
    query: np.ndarray
    holdout: np.ndarray
    truth: np.ndarray
    model_path: Path
    model: Smoother = None
    untraced_u: np.ndarray = None  # u of `fit` itself, when tracing
    reference: tuple = None   # in-memory (values, gradients) of `model` at `query`
    counts: dict = field(default_factory=dict)


def unit_domain(dim):
    return Domain(np.zeros(dim), np.ones(dim))


def make_inputs(wl, seed):
    """Data, query batch and held-out truth set; the same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    target = get_field(wl.field, wl.dim)
    pts = rng.uniform(0.0, 1.0, (wl.n_data, wl.dim))
    data = ScatteredData(pts, target.value(pts) + NOISE * rng.standard_normal(wl.n_data))
    query = rng.uniform(0.0, 1.0, (wl.n_query, wl.dim))
    if wl.raster:
        axes = [np.linspace(0.0, 1.0, c + 1)[::2] for c in wl.cells]
        grid = np.meshgrid(*axes, indexing="ij")
        query = np.vstack([query, np.stack([g.ravel() for g in grid], axis=1)])
    holdout = np.random.default_rng(HOLDOUT_SEED).uniform(
        0.0, 1.0, (HOLDOUT_POINTS, wl.dim))
    return data, query, holdout, target.value(holdout)


def near_face_share(points, cells):
    frac = points * np.asarray(cells)  # unit domain
    return float(np.mean(np.abs(frac - np.rint(frac)).min(axis=1) < NEAR_FACE_TOL))


# -- fitting -------------------------------------------------------------

def traced_fit(ctx, tracer):
    """`fit` rebuilt step by step from the public calls it makes, one span each.

    Its u must equal `ctx.untraced_u`, the u of `fit` itself on the same
    inputs.
    """
    mesh, data, alpha = ctx.mesh, ctx.data, ctx.wl.alpha
    with tracer.span("fit"):
        with tracer.span("data.admissible"):
            if not data.admissible():
                raise ValueError("scattered data is not admissible")
        with tracer.span("assembly"):
            with tracer.span("assembly.stiffness"):
                K = assemble_stiffness(mesh)
            with tracer.span("assembly.mass"):
                mass = assemble_mass(mesh)
            with tracer.span("assembly.gram"):
                c = assemble_gram_diagonal(mesh)
            with tracer.span("assembly.coupling_dual"):
                B = assemble_grad_coupling(mesh, test="dual")
            with tracer.span("assembly.coupling_primal"):
                W = assemble_grad_coupling(mesh, test="primal")
            with tracer.span("assembly.evaluation"):
                P = evaluation_matrix(mesh, data.points)
            with tracer.span("assembly.data_term"):
                R, f = assemble_data_term(P, data.values)
            blocks = SystemBlocks(mesh=mesh, K=K, mass=mass, gram_diag=c,
                                  B=B, W=W, P=P, R=R, f=f)
        with tracer.span("system.condense"):
            op = condense(blocks, alpha)
        with tracer.span("system.solve"):
            u, stats = solve_reduced(op, f, None, return_stats=True)
        with tracer.span("system.recover"):
            triple = recover_auxiliary(blocks, u, alpha)
        s = Smoother(mesh=mesh, u=triple.u, sigma=triple.sigma, phi=triple.phi,
                     alpha=alpha, iterations=stats["iterations"],
                     residual=stats["residual"], blocks=blocks, reduced=op)
    ctx.counts.update({
        "assembly.nnz_K": K.nnz, "assembly.nnz_P": P.nnz, "assembly.nnz_R": R.nnz,
        "system.nnz_S": op.matrix.nnz, "system.cg_iters": stats["iterations"],
    })
    problems = [] if np.array_equal(s.u, ctx.untraced_u) else [
        "traced build's u differs from fit's u"]
    return s, problems


def fit_problems(s):
    """Recomputed relative residual of the reduced system, and what is wrong."""
    f = s.blocks.f
    rel = float(np.linalg.norm(f - s.reduced.apply(s.u)) / np.linalg.norm(f))
    problems = []
    if not rel <= RTOL:
        problems.append(f"relative residual {rel:.3e} above rtol {RTOL:g}")
    if not all(np.isfinite(a).all() for a in (s.u, s.sigma, s.phi)):
        problems.append("non-finite coefficients")
    return rel, problems


def fit_model(ctx, tracer, traced):
    if traced:
        gc.collect()
        s, problems = traced_fit(ctx, tracer)
    else:
        with timed(tracer, "fit"):
            s = fit(ctx.data, ctx.mesh, FitConfig(ctx.wl.alpha))
        problems = []
    rel, more = fit_problems(s)
    ctx.counts["system.rel_residual"] = max(rel, ctx.counts.get("system.rel_residual", 0.0))
    return s, problems + more


# -- one operation -------------------------------------------------------

@contextmanager
def timed(tracer, name):
    """A top-level span, entered right after a full garbage collection.

    The collection runs outside the span, so that every timed call starts
    from the same collector state instead of paying, now and then, for
    garbage left by the calls before it.
    """
    gc.collect()
    with tracer.span(name):
        yield


def run_operation(ctx, tracer, traced):
    """One closed-loop operation; returns (truth_rmse, problems).

    The read path (save -> load -> query) runs `read_reps` times on the
    operation's model: its calls are short next to a fit, and more samples
    of them per run keep their median steady.
    """
    problems = []
    if ctx.wl.fit_in_setup:
        s = ctx.model
    else:
        s, problems = fit_model(ctx, tracer, traced)
    ref_values, ref_grads = ctx.reference or (s.evaluate(ctx.query),
                                              s.evaluate_gradient(ctx.query))
    for _ in range(ctx.wl.read_reps):
        with timed(tracer, "save"):
            s.save(ctx.model_path)
        with timed(tracer, "load"):
            loaded = Smoother.load(ctx.model_path)
        with timed(tracer, "query"):
            with tracer.span("evaluate"):
                values = loaded.evaluate(ctx.query)
            with tracer.span("evaluate_gradient"):
                grads = loaded.evaluate_gradient(ctx.query)
        if not (np.isfinite(values).all() and np.isfinite(grads).all()):
            problems.append("non-finite query output")
        if not (np.array_equal(values, ref_values) and np.array_equal(grads, ref_grads)):
            problems.append("loaded model disagrees with the in-memory smoother")
    if traced:
        with timed(tracer, "mesh.locate_data"):
            locate_points(ctx.mesh, ctx.data.points)
        with timed(tracer, "mesh.locate_query"):
            locate_points(ctx.mesh, ctx.query)
    ctx.counts["smoother.model_bytes"] = ctx.model_path.stat().st_size

    rmse = float(np.sqrt(np.mean((loaded.evaluate(ctx.holdout) - ctx.truth) ** 2)))
    lo, hi = ctx.wl.rmse_band
    if not lo <= rmse <= hi:
        problems.append(f"truth_rmse {rmse:.4e} outside band [{lo:g}, {hi:g}]")
    return rmse, problems


# -- set-up and the run --------------------------------------------------

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fetps; "
                "print(time.perf_counter() - t)")


def time_import(src_dir):
    """Seconds to import fetps in a fresh interpreter with the same thread caps."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src_dir)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0

    def record(self, tracer, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            tracer.failed_ops.add(tracer.op)
            print(f"bench: operation {tracer.op} failed: {'; '.join(problems)}",
                  file=sys.stderr)


def run_workload(wl, seed, seconds, traced, src_dir, out_dir=OUT_DIR):
    """Run `wl.rounds` rounds of one set-up followed by operations.

    Set-ups and operations together take `seconds`, split evenly over the
    rounds: a round starts no operation that its last one says would end
    past the round's share, but runs at least one. Spreading set-ups and
    operations over the whole run lets each statistic sample all of it,
    which keeps it steady on a host whose speed drifts. Returns
    (tracer, ctx, outcome, extra).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    data, query, holdout, truth = make_inputs(wl, seed)
    tracer = Tracer()
    outcome = Outcome()
    ctx = Context(wl, None, data, query, holdout, truth,
                  out_dir / f"model-{wl.name}-{os.getpid()}.json")
    setup_totals, rmses = [], []
    op = 0
    start = time.perf_counter()
    try:
        for rnd in range(wl.rounds):
            round_end = start + seconds * (rnd + 1) / wl.rounds
            tracer.op = f"setup-{rnd}"
            total = time_import(src_dir)
            with timed(tracer, "mesh.build"):
                ctx.mesh = build_structured_mesh(unit_domain(wl.dim), wl.cells, wl.kind)
            total += tracer.last_duration("mesh.build")
            if traced:
                with timed(tracer, "fit.untraced"):
                    ctx.untraced_u = fit(data, ctx.mesh, FitConfig(wl.alpha)).u
            if wl.fit_in_setup:
                ctx.model, problems = fit_model(ctx, tracer, traced)
                total += tracer.last_duration("fit")
                outcome.record(tracer, problems)
                ctx.reference = (ctx.model.evaluate(query),
                                 ctx.model.evaluate_gradient(query))
            setup_totals.append(total)

            while True:
                tracer.op = op
                op_start = time.perf_counter()
                try:
                    rmse, problems = run_operation(ctx, tracer, traced)
                    rmses.append(rmse)
                except Exception as exc:  # a failed operation is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    problems = [f"{type(exc).__name__}: {exc}"]
                outcome.record(tracer, problems)
                op += 1
                now = time.perf_counter()
                if 2 * now - op_start >= round_end:
                    break
    finally:
        ctx.model_path.unlink(missing_ok=True)
    return tracer, ctx, outcome, {"setup_s": setup_totals, "truth_rmse": rmses}


def _median(values):
    return statistics.median(values) if values else None


def _ratio(a, b):
    return a / b if a is not None and b else None


def end_to_end_metrics(tracer, extra):
    return {
        "fit_s": _median(tracer.durations("fit")),
        "save_s": _median(tracer.durations("save")),
        "load_s": _median(tracer.durations("load")),
        "query_s": _median(tracer.durations("query")),
        "setup_s": _median(extra["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "truth_rmse": _median(extra["truth_rmse"]),
    }


def per_layer_metrics(tracer, ctx):
    m = {name: _median(tracer.durations(span)) for name, span in SPAN_METRICS.items()}
    m.update(ctx.counts)
    m["mesh.n_vertices"] = ctx.mesh.n_vertices
    m["mesh.n_elements"] = ctx.mesh.n_elements
    m["mesh.near_face_share_data"] = near_face_share(ctx.data.points, ctx.wl.cells)
    m["mesh.near_face_share_query"] = near_face_share(ctx.query, ctx.wl.cells)
    m["system.fill_ratio"] = _ratio(m.get("system.nnz_S"), m.get("assembly.nnz_K"))
    m["system.cg_s_per_iter"] = _ratio(m["system.solve_s"], m.get("system.cg_iters"))
    fit_s, untraced = m["trace.fit_s"], m["trace.fit_untraced_s"]
    m["trace.overhead_s"] = fit_s - untraced if fit_s is not None and untraced else None
    m["trace.fit_self_s"] = _median(tracer.self_times("fit"))
    m["trace.share_assembly"] = _ratio(_median(tracer.durations("assembly")), fit_s)
    for stage in ("condense", "solve", "recover"):
        m[f"trace.share_{stage}"] = _ratio(m[f"system.{stage}_s"], fit_s)
    read = [m["smoother.save_s"], m["smoother.load_s"], _median(tracer.durations("query"))]
    read_total = sum(read) if None not in read else None
    for part, value in zip(("save", "load", "query"), read):
        m[f"trace.read_share_{part}"] = _ratio(value, read_total)
    return m


def environment(wl, seed, size, traced):
    return {
        "workload": wl.name, "size": size, "seed": seed, "trace": int(traced),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "load": "closed loop, 1 caller",
    }


def report_lines(tracer, extra, metrics, units):
    """Human-readable table: value, unit, and the samples behind each value."""
    spans = {"fit_s": "fit", "save_s": "save", "load_s": "load", "query_s": "query",
             **SPAN_METRICS}
    lines = []
    for name, unit in units.items():
        value = metrics.get(name)
        if name in spans:
            samples = tracer.durations(spans[name])
        else:
            samples = extra.get(name, [])
        spread = (f"  n={len(samples)} min={min(samples):.6g} "
                  f"median={statistics.median(samples):.6g} max={max(samples):.6g}"
                  if samples else "")
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:32s} {shown:>14s} {unit}{spread}")
    return lines


def main(argv, src_dir):
    parser = argparse.ArgumentParser(description="Run one fetps benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    wl = SIZES[args.size][args.workload]
    traced = bool(args.trace)
    tracer, ctx, outcome, extra = run_workload(wl, args.seed, args.seconds, traced, src_dir)

    units = PER_LAYER if traced else END_TO_END
    computed = per_layer_metrics(tracer, ctx) if traced else end_to_end_metrics(tracer, extra)
    metrics = {name: computed.get(name) for name in units}
    env = environment(wl, args.seed, args.size, traced)
    if traced:
        spans_path = OUT_DIR / f"spans-{wl.name}-{args.size}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"environment": env, "spans": tracer.spans}))
    for line in report_lines(tracer, extra, metrics, units):
        print(line)
    print("environment " + json.dumps(env))
    result = {
        "correct": outcome.failed == 0 and all(
            v is not None and math.isfinite(v) for v in metrics.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
