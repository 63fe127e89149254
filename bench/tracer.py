"""Run one CLI invocation in this interpreter, optionally traced, and summarise it.

    python3 bench/tracer.py TRACE SUMMARY_JSON -- CLI_ARGV...

With TRACE=1 the public functions each module calls across a layer boundary
are wrapped at the name their caller binds them to, and every call records a
span (name, start, end, parent).  With TRACE=0 nothing is wrapped and only the
import and wall times are taken, which gives the tracing overhead.  The
summary (per-span-name counts, total and self times, solve attributes, and
the spans themselves) is written as JSON when the invocation ends; the exit
code is the CLI's, and an uncaught exception prints its traceback and exits 1
exactly like ``python -m qdblockade``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback

_T0 = time.perf_counter()
import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import qdblockade  # noqa: E402
import qdblockade.cli  # noqa: E402
import qdblockade.steady_state  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

# (module, attribute, span name); a binding the program no longer has is skipped
WRAPPED = [
    (qdblockade.cli, "solve_steady_state", "cli.solve_steady_state"),
    (qdblockade.cli, "converged_solve", "cli.converged_solve"),
    (qdblockade.cli, "g2_weak_drive", "cli.g2_weak_drive"),
    (qdblockade.cli, "mean_photon_weak_drive", "cli.mean_photon_weak_drive"),
    (qdblockade.cli, "ucpb_roots", "cli.ucpb_roots"),
    # the binding converged_solve calls for each rung of its ladder
    (qdblockade.steady_state, "solve_steady_state", "steady_state.solve_steady_state"),
    (qdblockade.steady_state, "build_liouvillian", "steady_state.build_liouvillian"),
    (qdblockade.steady_state, "annihilation_op", "steady_state.annihilation_op"),
    (qdblockade.steady_state, "expectation", "steady_state.expectation"),
    (scipy.linalg, "lu_factor", "scipy.linalg.lu_factor"),
    (scipy.linalg, "lu_solve", "scipy.linalg.lu_solve"),
    (np.linalg, "svd", "numpy.linalg.svd"),
]
# called ~10^5 times per map: counted by caller instead of spanned
COUNTED = [(qdblockade.analytic, "amplitudes_closed_form", "analytic.amplitudes_closed_form")]
SOLVES = ("cli.solve_steady_state", "steady_state.solve_steady_state")
# calls whose result the CLI prints: a single solve, or the settled rung of a
# cutoff ladder (the rungs below it are steady_state.solve_steady_state spans)
DELIVERED = ("cli.solve_steady_state", "cli.converged_solve")


def _space_cutoff(args):
    space = args[1] if len(args) > 1 else None
    return getattr(space, "photon_cutoff", None)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        # one [name_id, start, end, parent, cutoff, residual] per call; the
        # cutoff is that of the space built (build_liouvillian) or of the
        # result delivered (DELIVERED)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.generator_bytes = 0

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name, fn):
        nid = self._id(name)
        spans, stack, now = self.spans, self.stack, time.perf_counter
        is_solve = name in SOLVES
        is_build = name == "steady_state.build_liouvillian"
        is_delivered = name in DELIVERED

        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1,
                   _space_cutoff(args) if is_build else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if is_solve:
                rec[5] = float(getattr(out, "residual", float("nan")))
            if is_delivered:
                rec[4] = getattr(out, "cutoff_used", None)
            if is_build:
                self.generator_bytes = max(self.generator_bytes, _nbytes(out))
            return out
        return wrapper

    def counter(self, name, fn):
        spans, stack, counts, names = self.spans, self.stack, self.counts, self.names

        def wrapper(*args, **kwargs):
            caller = names[spans[stack[-1]][0]] if stack else "-"
            key = f"{name}<{caller}"
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for module, attr, name in WRAPPED:
            if hasattr(module, attr):
                setattr(module, attr, self.span(name, getattr(module, attr)))
        for module, attr, name in COUNTED:
            if hasattr(module, attr):
                setattr(module, attr, self.counter(name, getattr(module, attr)))

    def summary(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        by_name: dict[str, dict] = {}
        first_build: dict[int, float] = {}
        delivered_cutoffs, residuals = [], []
        svd_in_solve = 0
        for i, (nid, t0, t1, parent, cutoff, residual) in enumerate(spans):
            name = self.names[nid]
            agg = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            if name in DELIVERED and cutoff is not None:
                delivered_cutoffs.append(cutoff)
            if name in SOLVES:
                residuals.append(residual)
            elif name == "steady_state.build_liouvillian" and cutoff not in first_build:
                first_build[cutoff] = t1 - t0
            elif name == "numpy.linalg.svd" and parent >= 0 \
                    and self.names[spans[parent][0]] in SOLVES:
                svd_in_solve += 1
        return {
            "spans_by_name": by_name,
            "counts": self.counts,
            "delivered_cutoffs": delivered_cutoffs,
            "solve_residuals": residuals,
            "first_build_s": sum(first_build.values()),
            "svd_in_solve": svd_in_solve,
            "generator_bytes": self.generator_bytes,
            "cached_operator_bytes": _cached_operator_bytes(),
            "spans": {"names": self.names,
                      "records": [[r[0], round(r[1] - _T0, 7), round(r[2] - _T0, 7), r[3]]
                                  for r in spans]},
        }


def _nbytes(obj) -> int:
    return sum(a.nbytes for a in _arrays(obj, {}, set()).values())


def _arrays(obj, found: dict, seen: set) -> dict:
    """Every ndarray reachable from obj through tuples, lists, dict values and
    sparse matrices, keyed by id so that each is counted once."""
    if isinstance(obj, np.ndarray):
        found[id(obj)] = obj
    elif isinstance(obj, (tuple, list, dict)) and id(obj) not in seen:
        seen.add(id(obj))
        for o in (obj.values() if isinstance(obj, dict) else obj):
            _arrays(o, found, seen)
    else:
        for k in ("data", "indices", "indptr"):
            part = getattr(obj, k, None)
            if isinstance(part, np.ndarray):
                found[id(part)] = part
    return found


def _cached_operator_bytes() -> int:
    """Bytes of the arrays held by the package's functools caches.

    CPython's unbounded ``lru_cache`` keeps each result as a value of its
    cache dict; a bounded one keeps results in link objects, and reports them
    among the cache wrapper's own gc referents.  Walking the wrapper's
    referents and the links in its dict reaches the results either way, so
    the figure does not depend on whether or how tightly a cache is bounded.
    """
    caches = {id(obj): obj for name, module in list(sys.modules.items())
              if name.startswith("qdblockade")
              for obj in vars(module).values() if hasattr(obj, "cache_info")}
    found: dict = {}
    seen: set = set()
    for cache in caches.values():
        for ref in gc.get_referents(cache):
            _arrays(ref, found, seen)
            if isinstance(ref, dict):
                for link in ref.values():
                    for r in gc.get_referents(link):
                        _arrays(r, found, seen)
    return sum(a.nbytes for a in found.values())


def main() -> int:
    trace, summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: tracer.py TRACE SUMMARY_JSON -- CLI_ARGV...", file=sys.stderr)
        return 2
    tracer = Tracer()
    if trace == "1":
        tracer.install()
        run = tracer.span("cli.main", qdblockade.cli.main)
    else:
        run = qdblockade.cli.main
    t0 = time.perf_counter()
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t0
    out = {"import_s": IMPORT_S, "wall_s": wall, "exit": code}
    if trace == "1":
        out.update(tracer.summary())
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
