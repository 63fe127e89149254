"""Command-line sweep driver emitting deterministic CSV.

Subcommands: point, sweep, sweep2d, compare, optimum, convergence.  All
floats are printed in scientific notation with 9 significant digits and rows
follow the grid order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .analytic import failure_error, ucpb_roots, weak_drive_grid
from .errors import BlockadeError, CutoffConvergenceError, UndefinedCorrelationError
from .model import ModelParams
from .steady_state import MAX_CUTOFF, SteadyStateResult, converged_solve, steady_state_grid

__all__ = ["main"]

AXIS_FIELDS = ("delta", "delta_a", "g", "E", "U")
_NONNEG_FIELDS = ("g", "E", "U")
# engine -> what it runs, in column order
_ENGINES = {"numeric": "steady-state solve", "analytic": "weak-drive evaluation"}
# points in one grid, and optimum's axis steps: an analytic 1001x1001 sweep2d
# peaks at ~620 MiB, while the paper's largest map, 241x241, has 58,081 points
MAX_GRID_POINTS = 10**6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError(f"bad axis spec {text!r}: expected name:start:stop:steps")
    name = parts[0]
    if name not in AXIS_FIELDS:
        raise _UsageError(f"unknown axis {name!r}: choose from {', '.join(AXIS_FIELDS)}")
    try:
        start, stop = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError:
        raise _UsageError(f"bad axis spec {text!r}: start/stop must be numbers, steps an int")
    if steps < 2:
        raise _UsageError(f"axis {name!r} needs at least 2 steps, got {steps}")
    # finite only when both ends are, and their distance fits in float64
    if not math.isfinite(stop - start):
        raise _UsageError(f"axis {name!r} needs finite start and stop a finite distance "
                          f"apart, got {start} .. {stop}")
    if not start < stop:
        raise _UsageError(f"axis {name!r} needs start < stop, got {start} .. {stop}")
    if name in _NONNEG_FIELDS and start < 0:
        raise _UsageError(f"axis over {name!r} must stay nonnegative")
    return name, start, stop, steps


def _grid_size(axes) -> int:
    n = math.prod(steps for *_, steps in axes)
    if n > MAX_GRID_POINTS:
        raise _UsageError(f"grid of {n} points exceeds the limit of {MAX_GRID_POINTS}; "
                          "split it into runs over smaller ranges")
    return n


def _parse_engines(text: str) -> tuple[str, ...]:
    wanted = [tok.strip() for tok in text.split(",") if tok.strip()]
    for tok in wanted:
        if tok not in _ENGINES:
            raise _UsageError(f"unknown engine {tok!r}: choose from numeric, analytic")
    if not wanted:
        raise _UsageError("at least one engine is required")
    return tuple(e for e in _ENGINES if e in wanted)


def _load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](value.strip())
            except ValueError:
                raise _UsageError(f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}")
    return out


def _emit(lines: list[str], out_path: str | None) -> int:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_gnuplot(args, header: list[str], two_d: bool) -> int:
    if args.gnuplot is None:
        return 0
    if args.out is None:
        raise _UsageError("--gnuplot requires --out so the script has data to point at")
    lines = [f"# gnuplot stub for {args.out}", "set datafile separator ','",
             "set key autotitle columnhead"]
    if two_d:
        lines += ["set view map", f"splot '{args.out}' using 1:2:3 with points palette"]
    else:
        lines += ["set logscale y", f"plot '{args.out}' using 1:2 with lines"]
    lines.append(f"# columns: {','.join(header)} ({len(header)} total)")
    return _emit(lines, args.gnuplot)


def _params_from_args(args) -> ModelParams:
    try:
        return ModelParams(delta=args.delta, delta_a=args.delta_a, g=args.g,
                           E=args.E, U=args.U, kappa=args.kappa, gamma=args.gamma)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _numeric(args, fields: dict) -> tuple:
    """Numeric engine: one solve per point at --cutoff, or the rising-cutoff ladder."""
    return steady_state_grid(args.cutoff, args.converge_tol, **fields)


def _analytic(args, fields: dict) -> tuple:
    """Weak-drive engine, one array evaluation for the whole grid; it has no
    cutoff or residual of its own."""
    grid = weak_drive_grid(**fields)
    n_a = grid.n_a
    failure = [None] * n_a.size
    for i in np.flatnonzero(grid.n_a_failure | grid.g2_failure).tolist():
        exc = failure_error(int(grid.n_a_failure[i] or grid.g2_failure[i]))
        if not isinstance(exc, UndefinedCorrelationError):  # that leaves only g2 nan
            failure[i], n_a[i] = exc, math.nan
    return grid.g2, n_a, np.full(n_a.size, args.cutoff), np.full(n_a.size, math.nan), failure


def cmd_grid(args) -> int:
    """point, sweep, sweep2d, compare: one CSV row per grid point.

    Every column evaluates the whole grid to arrays (g2, n_a, cutoff_used,
    residual) and a sequence of per-point failures (None or the BlockadeError).
    A failing point holds nan cells, and the first failing column in output
    order sets its status; ``point`` (no axes) exits 3 on it instead.
    """
    base = _params_from_args(args)
    if args.command == "compare":
        # the U = 0 (J-C) and g = 0 (bimode) limits override one field each
        columns = [("composite", _numeric, {}), ("jc", _numeric, {"U": 0.0}),
                   ("bimode", _numeric, {"g": 0.0})]
        info = []
    else:
        engines = {"numeric": _numeric, "analytic": _analytic}
        columns = [(e, engines[e], {}) for e in _parse_engines(args.engines)]
        info = ["cutoff_used", "residual"]
    axes = [_parse_axis(getattr(args, flag))
            for flag in _SUBCOMMANDS[args.command][2] if flag.startswith("axis")]
    names = [axis[0] for axis in axes]
    if len(set(names)) < len(names):
        raise _UsageError(f"axis and axis2 must differ, both are {names[0]!r}")
    n = _grid_size(axes)
    labels = [label for label, *_ in columns]
    header = (names + [f"g2_{x}" for x in labels] + [f"n_a_{x}" for x in labels]
              + info + ["status"])
    code = _write_gnuplot(args, header, two_d=len(axes) == 2) if axes else 0
    if code:
        return code
    # the last axis is the slow (outer) index
    coords = [m.ravel(order="F") for m in np.meshgrid(
        *(np.linspace(start, stop, steps) for _, start, stop, steps in axes), indexing="ij")]
    fields = {k: np.full(n, v) for k, v in vars(base).items()}
    fields.update(zip(names, coords))
    outs = [evaluate(args, {**fields, **override}) for _, evaluate, override in columns]
    if not axes:
        for label, (*_, failure) in zip(labels, outs):
            if failure[0] is not None:
                print(f"error: {_ENGINES[label]} failed: {failure[0]}", file=sys.stderr)
                return 3
    first = [None] * n
    for *_, failure in reversed(outs):
        first = [f if f is not None else later for f, later in zip(failure, first)]
    status = ["ok" if f is None else "no_converge" if isinstance(f, CutoffConvergenceError)
              else "singular" for f in first]
    cells = coords + [o[0] for o in outs] + [o[1] for o in outs]
    formats = ["%.8e"] * len(cells)
    if info:
        cells += outs[0][2:4]  # from the first engine
        formats += ["%d", "%.8e"]
    template = ",".join(formats + ["%s"])
    rows = zip(*(c.tolist() for c in cells), status)
    return _emit([",".join(header)] + [template % row for row in rows], args.out)


def cmd_optimum(args) -> int:
    params = _params_from_args(args)
    name, start, stop, _ = axis = _parse_axis(args.axis)
    if name not in ("delta", "delta_a"):
        raise _UsageError("optimum searches a detuning: axis must be delta or delta_a")
    _grid_size([axis])
    try:
        roots = ucpb_roots(params, name, (start, stop))
    except BlockadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    lines = ["kind,variable,value,c2g_residual,g2_weak_drive"]
    if not roots:
        lines.append("# no blockade roots found in [%.8e, %.8e]" % (start, stop))
    for root in roots:
        lines.append("%s,%s,%.8e,%.8e,%.8e" % (root.kind, root.variable, root.value,
                                              root.residual, root.g2))
    return _emit(lines, args.out)


def cmd_convergence(args) -> int:
    params = _params_from_args(args)
    tol = 1e-6 if args.converge_tol is None else args.converge_tol
    history: list[SteadyStateResult] = []
    failed = None
    try:
        converged_solve(params, initial_cutoff=args.cutoff, rel_tol=tol,
                        history=history)
    except BlockadeError as exc:
        failed = exc
    lines = ["cutoff,g2_numeric,n_a_numeric,residual"]
    for res in history:
        lines.append("%d,%.8e,%.8e,%.8e" % (res.cutoff_used, res.g2_zero, res.n_a,
                                            res.residual))
    code = _emit(lines, args.out)
    if code or failed is None:
        return code
    print(f"error: {failed}", file=sys.stderr)
    return 3


# subcommand -> (help, handler, its own flags); the axis flags give a grid's axes
_SUBCOMMANDS = {
    "point": ("evaluate one parameter point", cmd_grid, ("engines",)),
    "sweep": ("1-D parameter sweep to CSV", cmd_grid, ("axis", "engines", "gnuplot")),
    "sweep2d": ("2-D parameter sweep to CSV", cmd_grid, ("axis", "axis2", "engines", "gnuplot")),
    "compare": ("composite model beside its U=0 and g=0 limits", cmd_grid, ("axis", "gnuplot")),
    "optimum": ("locate CPB/UCPB roots along a detuning axis", cmd_optimum, ("axis",)),
    "convergence": ("report observables while raising the Fock cutoff", cmd_convergence, ()),
}
_SHARED = ("delta", "delta-a", "g", "E", "U", "kappa", "gamma", "cutoff", "converge-tol",
           "config", "out")
_FLAGS = {
    "delta": dict(type=float, default=0.0, help="dot-drive detuning (units of gamma)"),
    "delta-a": dict(type=float, default=0.0, help="cavity-drive detuning"),
    "g": dict(type=float, default=0.0, help="dot-cavity coupling"),
    "E": dict(type=float, default=0.0, help="one-photon drive amplitude"),
    "U": dict(type=float, default=0.0, help="two-photon drive amplitude"),
    "kappa": dict(type=float, default=1.0, help="cavity decay rate"),
    "gamma": dict(type=float, default=1.0, help="dot decay rate (the unit of every rate)"),
    "cutoff": dict(type=int, default=10, help="Fock cutoff (the first one with --converge-tol)"),
    "converge-tol": dict(type=float, help="raise the cutoff until g2, n_a settle to this"),
    "config": dict(default=None, help="key=value file supplying flag defaults"),
    "out": dict(default=None, help="output path (default: stdout)"),
    "axis": dict(required=True, help="name:start:stop:steps (sweep2d: the fast axis; "
                                     "optimum: a detuning; steps is checked, sets nothing)"),
    "axis2": dict(required=True, help="slow axis, name:start:stop:steps"),
    "engines": dict(default="numeric,analytic", help="result columns: numeric, analytic"),
    "gnuplot": dict(default=None, help="also write a gnuplot stub here"),
}
# a config file may set every flag but these, with '-' written as '_'
_CONFIG_KEYS = {flag.replace("-", "_"): spec.get("type", str)
                for flag, spec in _FLAGS.items() if flag not in ("config", "gnuplot")}


def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="qdblockade",
                     description="Photon-blockade steady-state sweeps and blockade conditions")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, (help_text, func, flags) in _SUBCOMMANDS.items():
        subs[name] = sub.add_parser(name, help=help_text)
        for flag in _SHARED + flags:
            subs[name].add_argument(f"--{flag}", **_FLAGS[flag])
        subs[name].set_defaults(func=func)
    return parser, subs


def main(argv: list[str] | None = None) -> int:
    # SciPy's BLAS, which SuperLU calls, loads after this (importing the package
    # loads no SciPy).  steady_state_grid runs a factorization per CPU, and BLAS
    # threads on top of those slow it below one CPU's pace; a set value still wins
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = _build_parser()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", default=None)
        known, _ = pre.parse_known_args(argv)
        if known.config is not None:
            try:
                defaults = _load_config(known.config)
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: cannot read config {known.config!r}: {exc}", file=sys.stderr)
                return 2
            for p in subs.values():
                p.set_defaults(**defaults)
        args = parser.parse_args(argv)
        if not 2 <= args.cutoff <= MAX_CUTOFF:
            raise _UsageError(f"cutoff must be in [2, {MAX_CUTOFF}], got {args.cutoff}")
        if args.converge_tol is not None and not 0 < args.converge_tol < math.inf:
            raise _UsageError("converge tolerance must be positive and finite")
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
