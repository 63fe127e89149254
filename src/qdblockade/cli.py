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
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import NoReturn

import numpy as np

from .errors import BlockadeError, CutoffConvergenceError
from .model import MAX_CUTOFF, ModelParams

__all__ = ["main", "run"]

AXIS_FIELDS = ("delta", "delta_a", "g", "E", "U")
_NONNEG_FIELDS = ("g", "E", "U")
# engine -> what it runs, in column order
_ENGINES = {"numeric": "steady-state solve", "analytic": "weak-drive evaluation"}
# points in one grid, and optimum's axis steps: an analytic 1000x1000 sweep2d
# peaks at ~316 MiB (323,456-324,568 kB VmHWM), while the paper's largest map,
# 241x241, has 58,081 points
MAX_GRID_POINTS = 10**6
# a grid row's status, by the class of its first failing column's error
_STATUS = ("ok", "no_converge", "singular")
_STATUS_TEXTS = np.array(_STATUS, dtype="S")
# rows formatted at a time, which bounds the CSV's per-cell temporaries
_BLOCK_ROWS = 1 << 16
# 10 ** (8 - e) for a decimal exponent |e| < 100 at index 99 - e, each correctly rounded
_POW10 = np.array([float(f"1e{k}") for k in range(-91, 108)])
# texts of two bytes: "00" to "99", "0." to "9.", and an exponent's "e+" and "e-"
_PAIRS = np.array([b"%02d" % i for i in range(100)], dtype="S2")
_LEADS = np.array([b"%d." % i for i in range(10)], dtype="S2")
_EXP_SIGNS = np.array([b"e+", b"e-"], dtype="S2")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # --help's text is the run's stdout (argparse passes no file): one that cannot
    # be written exits 2, as a CSV does, where argparse would drop the error or
    # leave it to fail at exit
    def print_help(self, file=None):
        if _emit([self.format_help().removesuffix("\n")], None):
            self.exit(2)


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


def _check_grid_size(axes) -> None:
    n = math.prod(steps for *_, steps in axes)
    if n > MAX_GRID_POINTS:
        raise _UsageError(f"grid of {n} points exceeds the limit of {MAX_GRID_POINTS}; "
                          "split it into runs over smaller ranges")


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


def _emit(lines: Iterable[str], out_path: str | None) -> int:
    """Write each of ``lines`` and a newline to ``out_path``, or to stdout; 2 if the
    file or stdout cannot be written.  An item may hold several lines joined by
    newlines."""
    def write(fh) -> None:
        for line in lines:
            fh.write(line)
            fh.write("\n")

    try:
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        elif sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError("stdout is closed")
        else:
            write(sys.stdout)
            sys.stdout.flush()  # fail here, not when the interpreter exits
    except OSError as exc:
        if out_path is None and sys.stdout is not None:
            # a later flush (run's, or the interpreter's at exit) would fail again
            # on the unwritten rest: send that to the null device instead
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        target = "stdout" if out_path is None else repr(out_path)
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 2
    return 0


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _e8(x: np.ndarray) -> np.ndarray:
    """``("%.8e" % v).encode()`` for each v of the flat float64 array ``x``, as an
    S16 array (an S array pads a shorter text with NULs).

    With e = floor(log10|v|) the nine digits are rint(q), q = |v| * 10 ** (8 - e),
    and the power is correctly rounded: q is then within ~1.7e-7 of the exact
    scaled value, so rint(q) gives Python's correctly rounded digits wherever q is
    more than 1e-6 from a rounding tie.  Python formats, once per bit pattern, the
    cells near a tie, those whose digits fall outside [1e8, 1e9) (log10 one off, or
    a carry to 10), those with |e| >= 100, zeros and non-finite values.
    """
    a = np.abs(x)
    e = np.floor(np.log10(a))
    usable = np.abs(e) < 100  # false for 0, inf and nan
    e = np.where(usable, e, 0).astype(np.intp)
    q = a * _POW10[99 - e]
    digits = np.rint(q)
    exact = usable & (digits >= 1e8) & (digits < 1e9) & (np.abs(q - np.floor(q) - 0.5) > 1e-6)
    digits = np.where(exact, digits, 1e8).astype(np.int64)
    low = digits % 100_000_000
    out = np.empty((x.size, 8), dtype="S2")  # d. dd dd dd dd e± XX, then padding
    out[:, 0] = _LEADS[digits // 100_000_000]
    out[:, 1] = _PAIRS[low // 1_000_000]
    out[:, 2] = _PAIRS[low // 10_000 % 100]
    out[:, 3] = _PAIRS[low // 100 % 100]
    out[:, 4] = _PAIRS[low % 100]
    out[:, 5] = _EXP_SIGNS[(e < 0).view(np.int8)]
    out[:, 6] = _PAIRS[np.abs(e)]
    out[:, 7] = b""
    negative = np.flatnonzero(exact & np.signbit(x))
    if negative.size:  # a sign ahead of the text
        chars = out.view(np.uint8)
        chars[negative, 1:15] = chars[negative, 0:14]
        chars[negative, 0] = ord("-")
    texts = out.view("S16").reshape(-1)
    odd = np.flatnonzero(~exact)
    if odd.size:
        bits, index = np.unique(x[odd].view(np.uint64), return_inverse=True)
        texts[odd] = np.array([b"%.8e" % v for v in bits.view(float).tolist()],
                              dtype="S16")[index]
    return texts


def _texts(values: np.ndarray, fmt: str) -> np.ndarray:
    """Each cell's text as a flat S array: ``fmt % v`` for "%.8e" and "%d" (integer
    values), and a status code's ``_STATUS`` word for "status"."""
    values = values.reshape(-1)
    if fmt == "%.8e":
        return _e8(values.astype(float, copy=False))
    if fmt == "%d":
        return values.astype("S")
    return _STATUS_TEXTS[values]


def _tight(texts: np.ndarray) -> np.ndarray:
    """The flat S array ``texts`` at the width of its longest text."""
    chars, width = texts[:, None].view(np.uint8), texts.dtype.itemsize
    while width > 1 and not chars[:, width - 1].any():  # texts start at byte 0
        width -= 1
    return texts.astype(f"S{width}")


def _csv_rows(columns: list[tuple[np.ndarray, str]], status: np.ndarray) -> Iterator[str]:
    """The CSV rows ``fmt % cell`` for each ``(values, fmt)`` column, ``fmt`` "%.8e"
    or "%d", then the ``_STATUS[status]`` words, as blocks of rows joined by newlines.

    The rows run over ``status`` in C order, each ``values`` broadcast to its shape.
    A block of ``_BLOCK_ROWS`` rows is built as bytes: each column's texts, at the
    width of the longest, fill their slots of one byte matrix between the commas and
    the newlines, and the NULs that pad the shorter texts are dropped.  Floats are
    formatted by :func:`_e8`.  A column smaller than the grid (an axis, a number) is
    formatted at its own size and broadcast, and so is a full-size column whose
    cells share one bit pattern (one comparison with its first cell); keying on
    bits, not float equality, keeps -0.0 apart from 0.0.
    """
    shape, n = status.shape, status.size
    cells = []  # (flat full-size texts, None), or (flat values, fmt) to format by block
    for values, fmt in [*columns, (status, "status")]:
        values = np.asarray(values)
        if values.size == n:
            bits = values.reshape(-1).view(f"u{values.itemsize}")
            if (bits == bits[0]).all():
                values = values.reshape(-1)[:1]
        if values.size == n:
            cells.append((values.reshape(-1), fmt))
        else:
            texts = _tight(_texts(values, fmt)).reshape(values.shape)
            cells.append((np.broadcast_to(texts, shape).reshape(-1), None))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        parts = [v[start:stop] if fmt is None else _tight(_texts(v[start:stop], fmt))
                 for v, fmt in cells]
        widths = [p.dtype.itemsize for p in parts]
        buf = np.full((stop - start, sum(widths) + len(parts)), ord(","), dtype=np.uint8)
        buf[:, -1] = ord("\n")
        buf[-1, -1] = 0  # the block's last row ends without one
        end = 0
        for part, width in zip(parts, widths):
            buf[:, end:end + width].view(f"V{width}")[:, 0] = part.view(f"V{width}")
            end += width + 1
        yield buf.tobytes().translate(None, b"\0").decode("ascii")


def _write_gnuplot(path: str, csv_path: str, header: list[str], two_d: bool) -> int:
    lines = [f"# gnuplot stub for {csv_path}", "set datafile separator ','",
             "set key autotitle columnhead"]
    if two_d:
        lines += ["set view map", f"splot '{csv_path}' using 1:2:3 with points palette"]
    else:
        lines += ["set logscale y", f"plot '{csv_path}' using 1:2 with lines"]
    lines.append(f"# columns: {','.join(header)} ({len(header)} total)")
    return _emit(lines, path)


def _params_from_args(args) -> ModelParams:
    try:
        return ModelParams(delta=args.delta, delta_a=args.delta_a, g=args.g,
                           E=args.E, U=args.U, kappa=args.kappa, gamma=args.gamma)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _status(exc: BlockadeError) -> int:
    """A failed cell's index into _STATUS, by the class of its error."""
    return 1 if isinstance(exc, CutoffConvergenceError) else 2


def _numeric(args, fields: dict) -> tuple:
    """Steady-state engine: the grid of ``steady_state_grid`` and its status."""
    from .steady_state import steady_state_grid

    grid = steady_state_grid(args.cutoff, args.converge_tol, **fields)
    status = np.zeros(grid.failure.shape, dtype=np.intp)
    failed = grid.failure != None  # noqa: E711 (elementwise)
    # one class test per failed cell: most cost a solve, far more than the test,
    # but degenerate and overflowing cells are refused before any solve
    status[failed] = [_status(exc) for exc in grid.failure[failed].tolist()]
    return (*grid, status)


def _analytic(args, fields: dict) -> tuple:
    """Weak-drive engine, one array evaluation for the whole grid; it has no
    cutoff or residual of its own, so every cell reads ``--cutoff`` and nan."""
    from .analytic import failure_error, weak_drive_grid

    grid = weak_drive_grid(**fields)
    n_a = grid.n_a
    code = np.where(grid.n_a_failure != 0, grid.n_a_failure, grid.g2_failure)
    failure = np.full(code.shape, None, dtype=object)
    status = np.zeros(code.shape, dtype=np.intp)
    # one exception per failing code; np.unique without return_inverse would import
    # numpy.ma (~30 ms) in NumPy 2
    for c in range(1, int(code.max()) + 1):
        cells = code == c
        if cells.any():
            exc = failure_error(c)
            failure[cells], n_a[cells], status[cells] = exc, math.nan, _status(exc)
    return grid.g2, n_a, args.cutoff, math.nan, failure, status


def cmd_grid(args) -> int:
    """point, sweep, sweep2d, compare: one CSV row per grid point.

    Every column gets the fixed fields as numbers and the axes as broadcast
    dimensions, ``--axis`` (n1,) and the slow ``--axis2`` (n2, 1).  It returns
    arrays in the grid's shape (g2, n_a, cutoff_used, residual), an object
    array of per-point failures (None or the BlockadeError) and each point's
    index into _STATUS.  A failing point holds nan cells, and the first failing
    column in output order sets its status; ``point`` (shape ()) exits 3 on it
    instead.  ``_csv_rows`` formats the rows column by column, in C order.
    """
    base = _params_from_args(args)
    if args.command == "compare":
        # the U = 0 (J-C) and g = 0 (bimode) limits override one field each
        columns = [("composite", "numeric", {}), ("jc", "numeric", {"U": 0.0}),
                   ("bimode", "numeric", {"g": 0.0})]
        info = []
    else:
        columns = [(e, e, {}) for e in _parse_engines(args.engines)]
        info = ["cutoff_used", "residual"]
    axes = [_parse_axis(getattr(args, flag))
            for flag in _SUBCOMMANDS[args.command][2] if flag.startswith("axis")]
    names = [axis[0] for axis in axes]
    if len(set(names)) < len(names):
        raise _UsageError(f"axis and axis2 must differ, both are {names[0]!r}")
    _check_grid_size(axes)
    labels = [label for label, *_ in columns]
    header = (names + [f"g2_{x}" for x in labels] + [f"n_a_{x}" for x in labels]
              + info + ["status"])
    gnuplot = getattr(args, "gnuplot", None)  # point has no --gnuplot
    if gnuplot is not None and args.out is None:
        raise _UsageError("--gnuplot requires --out so the script has data to point at")
    if gnuplot is not None and os.path.realpath(gnuplot) == os.path.realpath(args.out):
        raise _UsageError("--gnuplot and --out name the same file")
    # axis k varies along dimension -1 - k: the last axis is the slow (outer) index
    coords = [np.linspace(start, stop, steps).reshape((steps,) + (1,) * k)
              for k, (_, start, stop, steps) in enumerate(axes)]
    fields = {**vars(base), **dict(zip(names, coords))}
    outs = [(_numeric if engine == "numeric" else _analytic)(args, {**fields, **override})
            for _, engine, override in columns]
    if not axes:
        for label, (*_, failure, _) in zip(labels, outs):
            if failure.item() is not None:
                print(f"error: {_ENGINES[label]} failed: {failure.item()}", file=sys.stderr)
                return 3
    status = np.zeros(outs[0][-1].shape, dtype=np.intp)  # the first failure wins
    for *_, column_status in reversed(outs):
        np.copyto(status, column_status, where=column_status != 0)
    columns = [(c, "%.8e") for c in coords + [o[0] for o in outs] + [o[1] for o in outs]]
    if info:
        columns += [(outs[0][2], "%d"), (outs[0][3], "%.8e")]  # from the first engine
    code = _emit(chain([",".join(header)], _csv_rows(columns, status)), args.out)
    if code or gnuplot is None:
        return code
    return _write_gnuplot(gnuplot, args.out, header, two_d=len(axes) == 2)


def cmd_optimum(args) -> int:
    from .analytic import ucpb_roots

    params = _params_from_args(args)
    name, start, stop, _ = axis = _parse_axis(args.axis)
    if name not in ("delta", "delta_a"):
        raise _UsageError("optimum searches a detuning: axis must be delta or delta_a")
    _check_grid_size([axis])
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
    """The rungs a one-cell ladder solved, up to the one it settled on."""
    from .steady_state import steady_state_grid

    history = []
    tol = 1e-6 if args.converge_tol is None else args.converge_tol
    failed = steady_state_grid(args.cutoff, tol, history,
                               **vars(_params_from_args(args))).failure.item()
    lines = ["cutoff,g2_numeric,n_a_numeric,residual"]
    for rung in history:
        if rung.failure[0] is None:
            lines.append("%d,%.8e,%.8e,%.8e" % (rung.cutoff_used[0], rung.g2[0], rung.n_a[0],
                                                rung.residual[0]))
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
# a config file may set every flag but these, with '-' written as '_'; argparse
# ignores a default for a required flag such as --axis
_CONFIG_KEYS = {flag.replace("-", "_"): spec.get("type", str) for flag, spec in _FLAGS.items()
                if flag not in ("config", "gnuplot", "axis", "axis2")}


def _build_parser(argv: list[str]) -> tuple[_Parser, dict]:
    """The parser, and each subcommand's, with flags only on the subcommand ``argv``
    runs: the first item naming one, since the top level takes no option but -h."""
    command = next((arg for arg in argv if arg in _SUBCOMMANDS), None)
    parser = _Parser(prog="qdblockade",
                     description="Photon-blockade steady-state sweeps and blockade conditions")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, (help_text, func, flags) in _SUBCOMMANDS.items():
        subs[name] = sub.add_parser(name, help=help_text)
        if name == command:
            for flag in _SHARED + flags:
                subs[name].add_argument(f"--{flag}", **_FLAGS[flag])
        subs[name].set_defaults(func=func)
    return parser, subs


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = _build_parser(argv)
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


def run() -> NoReturn:
    """What ``python -m qdblockade`` and the ``qdblockade`` script run, after
    ``qdblockade.__main__.run`` has set BLAS's thread count.

    It runs :func:`main`, flushes stdout and stderr, and ends the process with
    main's code through ``os._exit``.  That skips the interpreter's
    finalization, module teardown and its last garbage collections, which took
    ~30 ms of a ~190 ms numeric ``point`` on a 2-CPU x86_64 machine.  By then
    main has joined its worker threads and closed its files, so no other work
    is skipped.  Stdout that cannot be flushed exits 2 with one line, as a
    failed CSV write does.
    """
    code = main()
    # flush what main left buffered; stdout is None when descriptor 1 was closed
    if sys.stdout is not None and _emit((), None):
        code = 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # no stream is left to report it on
    os._exit(code)


if __name__ == "__main__":
    run()
