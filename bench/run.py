"""qdblockade benchmark: real CLI invocations, checked, with a traced per-layer run.

    python3 bench/run.py --workload numeric_map --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` every operation is a fresh
``python -m qdblockade`` process and the end-to-end metrics are printed.
With ``--trace 1`` the same invocations run inside ``bench/tracer.py``, once
traced and once untraced, and the per-layer metrics are printed; the spans,
the metrics and the tracing overhead go to
``.bench_run/trace-WORKLOAD-seedN.json``.  The last line of standard output
is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# One BLAS thread per process.  With the OpenBLAS default of one thread per
# CPU a cutoff-10 map runs ~1.6x slower on a 2-CPU box and its run-to-run
# spread is wider; see README.md.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
MIN_ROUNDS = 2  # two rounds give the byte-for-byte determinism check
SETUP_CODE = (
    "import sys\n"
    "from qdblockade import HilbertSpace, ModelParams, build_liouvillian\n"
    "p = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.1, U=0.0005)\n"
    "for c in sys.argv[1:]:\n"
    "    build_liouvillian(p, HilbertSpace(int(c)))\n"
)
MIB = 1024.0 * 1024.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(BLAS_THREADS)
    return env


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; return (wall_s, exit_code, ru_maxrss in MiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def judge(op: workloads.Op, code: int, stderr: str, csv_path: Path) -> tuple[str | None, list[str]]:
    """(CSV text or None, problems) for one finished invocation."""
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("printed a Python traceback: " + stderr.strip().splitlines()[-1])
    if code != op.expect_exit:
        problems.append(f"exit code {code}, expected {op.expect_exit}")
    if op.expect_exit != 0 and len(stderr.strip().splitlines()) != 1:
        problems.append("error was not reported as one line on stderr")
    text = None
    if op.writes_csv:
        if csv_path.exists():
            text = csv_path.read_text(encoding="utf-8")
        else:
            problems.append("no CSV written")
    return text, problems


class Outcome:
    """Counts and check results for every invocation of one run."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.first_text: dict[int, str | None] = {}
        self.errors: list[str] = []
        self.attempted = self.failed = 0

    def record(self, i: int, op: workloads.Op, text: str | None, problems: list[str]) -> int:
        """Count the operation; check the first output of each op, compare later ones."""
        self.attempted += 1
        if i not in self.first_text:
            self.first_text[i] = text
            if text is not None and not problems:
                try:
                    problems = problems + op.check(text)
                except (ValueError, IndexError, KeyError) as exc:
                    problems = problems + [f"unreadable output: {exc!r}"]
        elif text != self.first_text[i]:
            problems = problems + ["output differs from the identical earlier invocation"]
        if problems:
            self.failed += 1
            # the declared fault (an op expected to end in a usage error) is
            # counted as failed; any other failure means the program is wrong
            if op.expect_exit == 0:
                self.errors += [f"{op.label}: {p}" for p in problems]
        return workloads.data_rows(text) if text is not None and not problems else 0


def time_setup(argv: list[str], env: dict, work: Path) -> float:
    wall, code, _ = spawn(argv, env, work / "setup.out", work / "setup.err")
    if code != 0:
        raise RuntimeError("set-up interpreter failed: "
                           + (work / "setup.err").read_text(encoding="utf-8")[-400:])
    return wall


def run_plain(root: Path, wl: workloads.Workload, seconds: float, work: Path) -> dict:
    env = child_env(root)
    setup_argv = [sys.executable, "-c", SETUP_CODE] + [str(c) for c in wl.cutoffs]
    # the first interpreter also writes bytecode caches; it is not timed
    spawn([sys.executable, "-c", "import qdblockade"], env, work / "setup.out", work / "setup.err")
    setup_times: list[float] = []
    outcome = Outcome(wl)
    rows = rounds = 0
    busy = peak = 0.0
    start = time.perf_counter()
    # a total over the whole run, not a median of rounds: this box alternates
    # between fast and slow phases lasting seconds, and the total averages them.
    # For the same reason set-up is timed at even intervals through the run,
    # not all at its start; its time does not count toward --seconds.
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for i, op in enumerate(wl.ops):
            if (len(setup_times) < SETUP_REPEATS and time.perf_counter() - start
                    >= len(setup_times) * seconds / SETUP_REPEATS):
                t0 = time.perf_counter()
                setup_times.append(time_setup(setup_argv, env, work))
                start += time.perf_counter() - t0
            csv_path = work / f"op{i}.csv"
            csv_path.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "qdblockade"] + op.argv
            if op.writes_csv:
                argv += ["--out", str(csv_path)]
            wall, code, rss = spawn(argv, env, work / "stdout", work / "stderr")
            busy += wall
            peak = max(peak, rss)
            text, problems = judge(op, code, (work / "stderr").read_text(encoding="utf-8",
                                                                          errors="replace"),
                                   csv_path)
            rows += outcome.record(i, op, text, problems)
        rounds += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_setup(setup_argv, env, work))
    setup_s = statistics.median(setup_times)
    return {
        "outcome": outcome, "rounds": rounds,
        "metrics": {
            "rows_per_s": (rows / busy, "rows/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak, "MB"),
        },
    }


def _layer_metrics(wl: workloads.Workload, traced: list[dict], rows: list[int],
                   bytes_out: int) -> dict:
    """Per-layer figures for one traced round (one summary per operation)."""
    def total(names, key="total_s"):
        return sum(s["spans_by_name"].get(n, {}).get(key, 0.0) for s in traced for n in names)

    def calls(names):
        return sum(s["spans_by_name"].get(n, {}).get("calls", 0) for s in traced for n in names)

    solves = ("cli.solve_steady_state", "steady_state.solve_steady_state")
    closed = sum(s["counts"].get(f"analytic.amplitudes_closed_form<{c}", 0) for s in traced
                 for c in ("cli.g2_weak_drive", "cli.mean_photon_weak_drive"))
    analytic_rows = sum(op.analytic_rows(r) for op, r in zip(wl.ops, rows))
    numeric_rows = sum(op.numeric_rows(r) for op, r in zip(wl.ops, rows))
    cutoffs = [c for s in traced for c in s["delivered_cutoffs"]]
    residuals = [r for s in traced for r in s["solve_residuals"] if r is not None]
    n_solves = calls(solves)
    return {
        "cli.self_s": (total(["cli.main"], "self_s"), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "analytic.eval_s": (total(["cli.g2_weak_drive", "cli.mean_photon_weak_drive"]), "s"),
        "analytic.closed_form_per_row": (closed / analytic_rows if analytic_rows else 0.0,
                                         "count/row"),
        "analytic.ucpb_roots_s": (total(["cli.ucpb_roots"]), "s"),
        "model.build_liouvillian.calls": (calls(["steady_state.build_liouvillian"]), "count"),
        "model.build_liouvillian_s": (total(["steady_state.build_liouvillian"]), "s"),
        "model.first_build_s": (sum(s["first_build_s"] for s in traced), "s"),
        "model.generator_mb_computed": (max(
            ((s["generator_bytes"] + s["cached_operator_bytes"]) / MIB for s in traced),
            default=0.0), "MB"),
        "steady_state.solve.calls": (n_solves, "count"),
        "steady_state.solve_self_s": (total(solves, "self_s"), "s"),
        "steady_state.dense_factor.calls": (calls(["scipy.linalg.lu_factor"]), "count"),
        "steady_state.dense_factor_s": (total(["scipy.linalg.lu_factor"]), "s"),
        "steady_state.dense_solve_s": (total(["scipy.linalg.lu_solve"]), "s"),
        "steady_state.solves_per_row": (n_solves / numeric_rows if numeric_rows else 0.0,
                                        "solves/row"),
        "steady_state.cutoff_used_mean": (statistics.fmean(cutoffs) if cutoffs else 0.0,
                                          "cutoff"),
        "steady_state.svd_fallback.calls": (sum(s["svd_in_solve"] for s in traced), "count"),
        "steady_state.residual_max": (max(residuals) if residuals else 0.0, "1"),
        "fock_algebra.observables_s": (total(["steady_state.annihilation_op",
                                              "steady_state.expectation"]), "s"),
        "setup.import_s": (statistics.median(s["import_s"] for s in traced) if traced
                           else 0.0, "s"),
    }


def run_traced(root: Path, wl: workloads.Workload, seconds: float, work: Path,
               trace_out: Path, env_info: dict) -> dict:
    env = child_env(root)
    tracer = str(BENCH_DIR / "tracer.py")
    spawn([sys.executable, "-c", "import qdblockade"], env, work / "setup.out", work / "setup.err")
    outcome = Outcome(wl)
    per_round: list[dict] = []
    overheads, traced_walls, plain_walls = [], [], []
    first_spans = []
    start = time.perf_counter()
    while not per_round or time.perf_counter() - start < seconds:
        traced, rows = [], []
        bytes_out = 0
        walls = {"1": 0.0, "0": 0.0}
        for i, op in enumerate(wl.ops):
            for mode in ("1", "0"):
                csv_path = work / f"op{i}.csv"
                csv_path.unlink(missing_ok=True)
                summary_path = work / "summary.json"
                summary_path.unlink(missing_ok=True)
                argv = [sys.executable, tracer, mode, str(summary_path), "--"] + op.argv
                if op.writes_csv:
                    argv += ["--out", str(csv_path)]
                _, code, _ = spawn(argv, env, work / "stdout", work / "stderr")
                text, problems = judge(op, code, (work / "stderr").read_text(
                    encoding="utf-8", errors="replace"), csv_path)
                summary = None
                if summary_path.exists():
                    with open(summary_path, encoding="utf-8") as fh:
                        summary = json.load(fh)
                    walls[mode] += summary["wall_s"]
                else:
                    problems.append("the tracer wrote no summary")
                n = outcome.record(i, op, text, problems)
                if mode == "1":
                    rows.append(n)
                    bytes_out += csv_path.stat().st_size if csv_path.exists() else 0
                if mode == "1" and summary is not None:
                    spans = summary.pop("spans")
                    if not per_round:
                        first_spans.append({"op": op.label, "argv": op.argv, **spans})
                    traced.append(summary)
        per_round.append(_layer_metrics(wl, traced, rows, bytes_out))
        traced_walls.append(walls["1"])
        plain_walls.append(walls["0"])
        overheads.append(walls["1"] - walls["0"])
    metrics = {k: (statistics.median(r[k][0] for r in per_round), unit)
               for k, (_, unit) in per_round[0].items()}
    overhead = {
        "traced_wall_s": statistics.median(traced_walls),
        "untraced_wall_s": statistics.median(plain_walls),
        "overhead_s": statistics.median(overheads),
        "rounds": len(per_round),
    }
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "environment": env_info, "tracing_overhead": overhead,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "per_round": [{k: v for k, (v, _) in r.items()} for r in per_round],
                   "spans_first_round": first_spans}, fh)
    return {"outcome": outcome, "rounds": len(per_round), "metrics": metrics,
            "overhead": overhead}


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: v for k, v in child_env(root).items() if k in BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }


def run_one(root: Path, name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            env_info: dict) -> dict:
    wl = workloads.build(name, seed, smoke)
    work = root / ".bench_run" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            out = root / ".bench_run" / f"trace-{name}-seed{seed}.json"
            res = run_traced(root, wl, seconds, work, out, env_info)
            res["trace_file"] = str(out.relative_to(root))
        else:
            res = run_plain(root, wl, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return res


def report(name: str, res: dict) -> None:
    o = res["outcome"]
    print(f"workload {name}: {res['rounds']} rounds of {len(o.wl.ops)} operations")
    for op in o.wl.ops:
        print(f"  op {op.label}: qdblockade {' '.join(op.argv)}")
    for k, (v, unit) in res["metrics"].items():
        print(f"  {k:34s} {v:14.6g} {unit}")
    print(f"  {'ops_attempted':34s} {o.attempted:14d}")
    print(f"  {'ops_failed':34s} {o.failed:14d}")
    if "overhead" in res:
        ov = res["overhead"]
        print(f"  tracing overhead: {ov['overhead_s']:.3f} s per round "
              f"({ov['traced_wall_s']:.3f} s traced vs {ov['untraced_wall_s']:.3f} s untraced, "
              f"median of {ov['rounds']}); spans in {res['trace_file']}")
    for err in o.errors:
        print(f"  CHECK FAILED {err}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, for testing the benchmark")
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "qdblockade" / "__init__.py").is_file():
        print(f"error: {root} is not a qdblockade source checkout (no src/qdblockade)",
              file=sys.stderr)
        return 2
    env_info = environment(root)
    print("environment: " + json.dumps(env_info, sort_keys=True))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(root, name, args.seed, args.seconds, bool(args.trace), args.smoke,
                                env_info)
        report(name, results[name])

    def key(name, metric):
        return metric if len(names) == 1 else f"{name}.{metric}"

    line = {
        "correct": all(not r["outcome"].errors for r in results.values()),
        "attempted": sum(r["outcome"].attempted for r in results.values()),
        "failed": sum(r["outcome"].failed for r in results.values()),
        "metrics": {key(n, k): {"value": v, "unit": u}
                    for n, r in results.items() for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
