"""Command-line front end: fit, eval, study, synth.

All commands print one machine-readable JSON object to stdout (usage
errors too; only --help prints none) and human readable progress/tables
to stderr. Exit codes: 0 ok, 2 input error, 3 domain error, 4 solver
failure. To cap the worker threads of the numerical backend, set
OMP_NUM_THREADS / OPENBLAS_NUM_THREADS before launching; numpy reads
them once, when it is first imported.

`eval` needs numpy only. The fitting modules, and with them scipy, are
imported inside `fit`, `study` and `synth`, so an `eval` does not pay for
them.
"""

import argparse
import csv
import json
import re
import sys
import warnings

import numpy as np

from .errors import (
    DataFormatError,
    NoConvergenceError,
    OutOfDomainError,
    SingularSystemError,
)
from .fields import get_field
from .mesh import Domain, build_structured_mesh
from .model import FitConfig, Smoother

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_SOLVER = 4


def _fmt(x):
    return f"{x:.17g}"


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _fail(code, kind, message, **extra):
    err = {"error": {"type": kind, "message": message, **extra}}
    _emit(err)
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_domain(text):
    vals = [float(v) for v in text.split(",")]
    if len(vals) == 4:
        lo, hi = vals[:2], vals[2:]
    elif len(vals) == 6:
        lo, hi = vals[:3], vals[3:]
    else:
        raise DataFormatError(
            "domain must be 'x0,y0,x1,y1' (2D) or 'x0,y0,z0,x1,y1,z1' (3D)"
        )
    return Domain(np.asarray(lo), np.asarray(hi))


def _parse_cells(text, dim):
    cells = [int(v) for v in text.split(",")]
    if len(cells) == 1:
        cells = cells * dim
    if len(cells) != dim:
        raise DataFormatError(f"cells must give {dim} counts, got {text!r}")
    return tuple(cells)


def _read_points_csv(path, need_value):
    """Read x,y[,z][,value] rows; returns (points, values-or-None, dim)."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return np.zeros((0, 2)), (np.zeros(0) if need_value else None), 2
        cols = [c.strip().lower() for c in header]
        if cols[:2] != ["x", "y"]:
            raise DataFormatError(
                f"CSV header must start with x,y (got {header!r})", line=1
            )
        dim = 3 if (len(cols) > 2 and cols[2] == "z") else 2
        vcol = None
        if need_value:
            if "value" not in cols:
                raise DataFormatError("CSV header lacks a 'value' column", line=1)
            vcol = cols.index("value")
        pts, vals = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                pts.append([float(row[k]) for k in range(dim)])
                if need_value:
                    vals.append(float(row[vcol]))
            except (ValueError, IndexError) as exc:
                raise DataFormatError(
                    f"bad CSV row at line {lineno}: {exc}", line=lineno
                ) from exc
    points = np.asarray(pts, dtype=float).reshape(-1, dim)
    values = np.asarray(vals, dtype=float) if need_value else None
    return points, values, dim


def cmd_fit(args):
    from .assembly import ScatteredData
    from .smoother import fit, functional_value
    from .system import SolverConfig

    points, values, dim = _read_points_csv(args.input, need_value=True)
    domain = _parse_domain(args.domain)
    if domain.dim != dim:
        raise DataFormatError(
            f"domain is {domain.dim}D but CSV has {dim}D points"
        )
    cells = _parse_cells(args.cells, dim)
    mesh = build_structured_mesh(domain, cells, args.kind)
    data = ScatteredData(points, values)
    solver = SolverConfig(rtol=args.rtol)
    # fit warns when it returns above rtol; print that as one stderr line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        s = fit(data, mesh, FitConfig(alpha=args.alpha), solver=solver)
    s.save(args.out)
    misfit = np.abs(s.blocks.P @ s.u - data.values)
    constant = float(values[0]) if np.ptp(values) == 0.0 and len(values) else None
    converged = bool(s.residual <= args.rtol)
    summary = {
        "status": "ok",
        "model": args.out,
        "n_vertices": mesh.n_vertices,
        "n_elements": mesh.n_elements,
        "n_data": data.n,
        "alpha": args.alpha,
        "iterations": s.iterations,
        "residual": s.residual,
        "converged": converged,
        "preconditioner": s.reduced.preconditioner,
        "functional_value": functional_value(s, data),
        "max_data_misfit": float(misfit.max()) if data.n else 0.0,
        "self_check_constant_deviation": (
            float(np.abs(s.u - constant).max()) if constant is not None else None
        ),
    }
    _emit(summary)
    print(
        f"fit ok: {data.n} points on {mesh.n_elements} elements, "
        f"{s.iterations} iterations, residual {s.residual:.2e}",
        file=sys.stderr,
    )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args):
    s = Smoother.load(args.model)
    points, _, dim = _read_points_csv(args.query, need_value=False)
    if points.shape[0] and dim != s.mesh.dim:
        raise DataFormatError(f"model is {s.mesh.dim}D but query has {dim}D points")
    if points.shape[0]:
        values, grads = s.evaluate_with_gradient(points)
    else:
        values = np.zeros(0)
        grads = np.zeros((0, s.mesh.dim))
    axes = ["x", "y", "z"][: s.mesh.dim]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(axes + ["value"] + [f"grad_{a}" for a in axes])
        for p, v, g in zip(points, values, grads):
            writer.writerow([_fmt(c) for c in p] + [_fmt(v)] + [_fmt(c) for c in g])
    _emit({"status": "ok", "n_points": int(points.shape[0]), "output": args.out})
    print(f"evaluated {points.shape[0]} points -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _human_table(rows, columns, out):
    cols = [c for c in columns if any(c in r.errors for r in rows)]
    head = "level    h        " + "  ".join(f"{c:>18} {'order':>6}" for c in cols)
    print(head, file=out)
    for r in rows:
        cells = [f"{r.level:5d} {r.h:8.5f}"]
        for c in cols:
            e = r.errors.get(c)
            o = r.orders.get(c)
            cells.append(
                f"{e:18.6e} {o:6.2f}" if e is not None and o is not None
                else (f"{e:18.6e} {'-':>6}" if e is not None else f"{'-':>18} {'-':>6}")
            )
        print("  ".join(cells), file=out)


def cmd_study(args):
    from .study import ALL_COLUMNS, StudyConfig, run_study

    domain = _parse_domain(args.domain)
    columns = tuple(c.strip() for c in args.columns.split(",")) if args.columns else ALL_COLUMNS
    cfg = StudyConfig(
        field=args.field,
        domain=domain,
        levels=args.levels,
        base_cells=args.base_cells,
        kind=args.kind,
        alpha=args.alpha,
        n_data=args.n_data,
        seed=args.seed,
        columns=columns,
    )
    rows = []
    failure = None
    try:
        run_study(cfg, on_row=rows.append)
    except (NoConvergenceError, SingularSystemError, OutOfDomainError) as exc:
        failure = exc
    payload = {
        "status": "ok" if failure is None else "partial",
        "field": cfg.field,
        "kind": cfg.kind,
        "alpha": cfg.alpha,
        "columns": list(cfg.columns),
        "note": (
            "fit_energy compares consecutive levels (self-referential "
            "Richardson orders); the exact minimizer has no closed form"
        ),
        "rows": [
            {"level": r.level, "h": r.h, "errors": r.errors, "orders": r.orders}
            for r in rows
        ],
    }
    if failure is not None:
        payload["error"] = {"type": "solver", "message": str(failure)}
    _emit(payload)
    _human_table(rows, cfg.columns, sys.stderr)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            header = ["level", "h"]
            for c in cfg.columns:
                header += [c, f"{c}_order"]
            writer.writerow(header)
            for r in rows:
                row = [r.level, _fmt(r.h)]
                for c in cfg.columns:
                    e, o = r.errors.get(c), r.orders.get(c)
                    row += ["" if e is None else _fmt(e), "" if o is None else _fmt(o)]
                writer.writerow(row)
    if failure is not None:
        print(f"study aborted: {failure}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_synth(args):
    from .study import sample_scattered

    domain = _parse_domain(args.domain)
    fld = get_field(args.field, domain.dim)
    if args.n < 1:
        raise DataFormatError("need n >= 1 points")
    data = sample_scattered(fld, domain, args.n, args.seed, noise=args.noise)
    warning = None
    if not data.admissible():
        warning = (
            f"only {args.n} points with affine rank {data.affine_rank()}: "
            f"fitting needs at least {domain.dim + 1} affinely independent points"
        )
    axes = ["x", "y", "z"][: domain.dim]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(axes + ["value"])
        for p, v in zip(data.points, data.values):
            writer.writerow([_fmt(c) for c in p] + [_fmt(v)])
    payload = {
        "status": "ok",
        "field": args.field,
        "n": args.n,
        "seed": args.seed,
        "noise": args.noise,
        "output": args.out,
    }
    if warning:
        payload["warning"] = warning
        print(f"warning: {warning}", file=sys.stderr)
    _emit(payload)
    print(f"wrote {args.n} samples of '{args.field}' -> {args.out}", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so `main` reports them as input errors in JSON."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DataFormatError(f"{self.prog}: {message}")


def _attach_dash_values(argv):
    """`--opt -1,2` as `--opt=-1,2`: argparse takes a token that starts with
    a minus for an option unless it is a plain negative number."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_parser():
    parser = _Parser(
        prog="fetps",
        description="Thin plate spline smoothing of scattered data on finite element meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a smoother to scattered data from CSV")
    p.add_argument("--input", required=True, help="CSV with x,y[,z],value columns")
    p.add_argument("--domain", required=True, help="x0,y0,x1,y1 or x0,y0,z0,x1,y1,z1")
    p.add_argument("--cells", required=True, help="cells per axis, e.g. 32,32")
    p.add_argument("--kind", default="simplex", choices=["simplex", "parallelotope"])
    p.add_argument("--alpha", type=float, required=True, help="smoothing parameter")
    p.add_argument("--rtol", type=float, default=1e-10, help="CG relative tolerance")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate a fitted model at query points")
    p.add_argument("--model", required=True, help="model JSON from 'fit'")
    p.add_argument("--query", required=True, help="CSV with x,y[,z] columns")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("study", help="refinement study of errors and orders")
    p.add_argument("--field", required=True, help="catalog field name")
    p.add_argument("--domain", required=True)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--base-cells", type=int, default=8, dest="base_cells")
    p.add_argument("--kind", default="simplex", choices=["simplex", "parallelotope"])
    p.add_argument("--alpha", type=float, default=1e-3)
    p.add_argument("--n-data", type=int, default=2000, dest="n_data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--columns", default="",
                   help="subset of superconvergence,qh_l2,qh_h1,fit_energy (default: all)")
    p.add_argument("--out-csv", default="", dest="out_csv", help="also write rows as CSV")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("synth", help="sample a catalog field at random points")
    p.add_argument("--field", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian noise sigma")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OutOfDomainError as exc:
        return _fail(
            EXIT_DOMAIN, "domain", str(exc),
            indices=[int(i) for i in (exc.indices or [])],
        )
    except (NoConvergenceError, SingularSystemError) as exc:
        return _fail(EXIT_SOLVER, "solver", str(exc))
    except DataFormatError as exc:
        extra = {"line": exc.line} if exc.line is not None else {}
        return _fail(EXIT_INPUT, "input", str(exc), **extra)
    except (ValueError, OSError, KeyError) as exc:
        return _fail(EXIT_INPUT, "input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
