"""Smoke test of the benchmark itself: every workload, check and trace path on tiny grids.

    python3 bench/smoke.py        # from the root of the checkout; ~1.5 min

Exits 0 when every run prints a well-formed, correct result, the traced runs
write their span files, and the benchmark refuses to run without the source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"


def run(args: list[str], cwd: Path, bench_dir: Path = BENCH_DIR) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(bench_dir / "run.py")] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    root = Path.cwd().resolve()
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    problems = []
    for name in workloads.NAMES:
        declared_failures = sum(op.expect_exit != 0 for op in workloads.build(name, 7, True).ops)
        for trace in (0, 1):
            proc = run(["--workload", name, "--seed", "7", "--seconds", "1", "--trace",
                        str(trace), "--smoke"], root)
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            rounds = result["attempted"] // len(workloads.build(name, 7, True).ops)
            if not result["correct"]:
                problems.append(f"{tag}: checks failed:\n{proc.stdout}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{tag}: metrics {sorted(result['metrics'])}")
            if result["failed"] != declared_failures * rounds:
                problems.append(f"{tag}: {result['failed']} failed, expected "
                                f"{declared_failures} per round")
            if trace:
                out = root / ".bench_run" / f"trace-{name}-seed7.json"
                spans = json.loads(out.read_text(encoding="utf-8"))["spans_first_round"]
                if not any(s["records"] for s in spans):
                    problems.append(f"{tag}: no spans in {out}")
                out.unlink()
                if name == "strong_ladder" and not \
                        result["metrics"]["model.generator_mb_computed"]["value"] > 0:
                    problems.append(f"{tag}: model.generator_mb_computed is not above 0")
            print(f"ok  {tag}: {result['attempted']} ops, {result['failed']} failed")

    # without the program's source the benchmark must refuse, printing no result
    bare = root / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
    proc = run(["--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1"], bare,
               bare / BENCH_DIR.name)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok  bare directory refused with exit {proc.returncode}")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
