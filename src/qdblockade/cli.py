"""Command-line sweep driver emitting deterministic CSV.

Subcommands: point, sweep, sweep2d, compare, optimum, convergence.  All
floats are printed in scientific notation with 9 significant digits and rows
follow the grid order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np

from .analytic import g2_weak_drive, mean_photon_weak_drive, ucpb_roots
from .errors import BlockadeError, CutoffConvergenceError, UndefinedCorrelationError
from .fock_algebra import HilbertSpace
from .model import ModelParams, bimode_limit, jc_limit
from .steady_state import SteadyStateResult, converged_solve, solve_steady_state

__all__ = ["main"]

AXIS_FIELDS = ("delta", "delta_a", "g", "E", "U")
_NONNEG_FIELDS = ("g", "E", "U")
# engine -> what it runs, in column order
_ENGINES = {"numeric": "steady-state solve", "analytic": "weak-drive evaluation"}
_MAX_CUTOFF = 40

_CONFIG_KEYS: dict[str, type] = {
    "delta": float, "delta_a": float, "g": float, "E": float, "U": float,
    "kappa": float, "gamma": float, "cutoff": int, "converge_tol": float,
    "axis": str, "axis2": str, "engines": str, "out": str,
}


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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError(f"axis {name!r} needs finite start and stop, got {start} .. {stop}")
    if not start < stop:
        raise _UsageError(f"axis {name!r} needs start < stop, got {start} .. {stop}")
    if name in _NONNEG_FIELDS and start < 0:
        raise _UsageError(f"axis over {name!r} must stay nonnegative")
    return name, start, stop, steps


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


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    return f"{xf:.8e}"


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


def _numeric(args):
    """Numeric engine: one solve at --cutoff, or the rising-cutoff ladder."""
    def evaluate(params: ModelParams) -> tuple:
        if args.converge_tol is None:
            res = solve_steady_state(params, HilbertSpace(args.cutoff))
        else:
            res = converged_solve(params, initial_cutoff=args.cutoff,
                                  rel_tol=args.converge_tol)
        return res.g2_zero, res.n_a, res.cutoff_used, res.residual
    return evaluate


def _analytic(args):
    """Weak-drive engine; it has no cutoff or residual of its own."""
    def evaluate(params: ModelParams) -> tuple:
        # a full-axis sweep crosses the expansion's breakdown region on
        # purpose; the per-point hierarchy warning is only noise here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            n_a = mean_photon_weak_drive(params)
            try:
                g2 = g2_weak_drive(params)
            except UndefinedCorrelationError:
                g2 = math.nan
        return g2, n_a, args.cutoff, math.nan
    return evaluate


def cmd_grid(args) -> int:
    """point, sweep, sweep2d, compare: one record per grid point, one CSV row each.

    Every column evaluates to (g2, n_a, cutoff_used, residual).  A failing
    column leaves nan cells, and the first failing column in output order
    sets the status; ``point`` (no axes) exits 3 on it instead.
    """
    base = _params_from_args(args)
    numeric = _numeric(args)
    if args.command == "compare":
        columns = [("composite", numeric),
                   ("jc", lambda p: numeric(jc_limit(p))),
                   ("bimode", lambda p: numeric(bimode_limit(p)))]
        info = []
    else:
        engines = {"numeric": numeric, "analytic": _analytic(args)}
        columns = [(e, engines[e]) for e in _parse_engines(args.engines)]
        info = ["cutoff_used", "residual"]
    axes = [_parse_axis(getattr(args, flag))
            for flag in _SUBCOMMANDS[args.command][2] if flag.startswith("axis")]
    names = [axis[0] for axis in axes]
    if len(set(names)) < len(names):
        raise _UsageError(f"axis and axis2 must differ, both are {names[0]!r}")
    labels = [label for label, _ in columns]
    header = (names + [f"g2_{x}" for x in labels] + [f"n_a_{x}" for x in labels]
              + info + ["status"])
    code = _write_gnuplot(args, header, two_d=len(axes) == 2) if axes else 0
    if code:
        return code
    lines = [",".join(header)]
    grids = [np.linspace(start, stop, steps).tolist() for _, start, stop, steps in axes]
    fixed = {k: v for k, v in vars(base).items() if k not in names}
    # the last axis is the slow (outer) index
    for point in itertools.product(*reversed(grids)):
        coords = list(reversed(point))
        params = ModelParams(**fixed, **dict(zip(names, coords)))
        outs, failed = [], []
        for label, evaluate in columns:
            try:
                outs.append(evaluate(params))
            except BlockadeError as exc:
                outs.append((math.nan, math.nan, args.cutoff, math.nan))
                failed.append((label, exc))
        if failed and not axes:
            print(f"error: {_ENGINES[failed[0][0]]} failed: {failed[0][1]}", file=sys.stderr)
            return 3
        status = ("ok" if not failed else "no_converge"
                  if isinstance(failed[0][1], CutoffConvergenceError) else "singular")
        cells = coords + [o[0] for o in outs] + [o[1] for o in outs]
        if info:
            cells += outs[0][2:]  # from the first engine
        lines.append(",".join(_fmt(c) for c in cells + [status]))
    return _emit(lines, args.out)


def cmd_optimum(args) -> int:
    params = _params_from_args(args)
    name, start, stop, steps = _parse_axis(args.axis)
    if name not in ("delta", "delta_a"):
        raise _UsageError("optimum searches a detuning: axis must be delta or delta_a")
    roots = ucpb_roots(params, name, (start, stop), grid_step=(stop - start) / (steps - 1))
    lines = ["kind,variable,value,c2g_residual,g2_weak_drive"]
    if not roots:
        lines.append(f"# no blockade roots found in [{_fmt(start)}, {_fmt(stop)}]")
    for root in roots:
        at_root = dataclasses.replace(params, **{root.variable: root.value})
        try:
            g2 = g2_weak_drive(at_root)
        except BlockadeError:
            g2 = math.nan
        lines.append(",".join([root.kind, root.variable, _fmt(root.value),
                               _fmt(root.residual), _fmt(g2)]))
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
        lines.append(",".join(_fmt(c) for c in
                              [res.cutoff_used, res.g2_zero, res.n_a, res.residual]))
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
                                     "optimum: a detuning, steps sets the scan grid)"),
    "axis2": dict(required=True, help="slow axis, name:start:stop:steps"),
    "engines": dict(default="numeric,analytic", help="result columns: numeric, analytic"),
    "gnuplot": dict(default=None, help="also write a gnuplot stub here"),
}


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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = _build_parser()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", default=None)
        known, _ = pre.parse_known_args(argv)
        if known.config is not None:
            try:
                defaults = _load_config(known.config)
            except OSError as exc:
                print(f"error: cannot read config {known.config!r}: {exc}", file=sys.stderr)
                return 2
            for p in subs.values():
                p.set_defaults(**defaults)
        args = parser.parse_args(argv)
        if not 2 <= args.cutoff <= _MAX_CUTOFF:
            raise _UsageError(f"cutoff must be in [2, {_MAX_CUTOFF}], got {args.cutoff}")
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
