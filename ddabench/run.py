#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 ddabench/run.py --workload slope_gpu --seed 7 --seconds 24 --trace 0

Run from the repository root. ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` repeats the run's episodes
with spans around the program's public functions and prints every
per-layer metric, writing a Perfetto-loadable trace under
``ddabench/out/``. Every run checks the outputs. The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted``/``failed`` count time steps (``failed_step_frac`` is
their ratio). The run exits non-zero without that line when the program
sources are missing. ``--write-reference`` records the default-seed
final vertices the output check compares against.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP threads, pinned before numpy loads (<= nproc on 2 cores).
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "ddabench" / "out"
REQUIRED = (ROOT / "src" / "repro" / "__init__.py",
            ROOT / "benchmarks" / "common.py")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long variant for the tests")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's final vertices as the reference "
                        "(default seed, full size)")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` (no subprocess), or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"ddabench: program sources missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from benchmarks.common import write_bench_json
    from ddabench.measure import measure, measure_traced, run_episode, set_up
    from ddabench.workloads import DEFAULT_SEED, WORKLOADS, write_reference

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"ddabench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_reference:
        if args.seed != DEFAULT_SEED or args.size != "full":
            print("ddabench: references are for the default seed at full "
                  "size", file=sys.stderr)
            return 2
        episodes = [
            run_episode(set_up(workload, args.seed, i, args.size).engine,
                        workload.steps[args.size])
            for i in range(workload.episodes)
        ]
        problems = [p for ep in episodes for p in ep.problems]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print(write_reference(workload.name,
                              [ep.vertices for ep in episodes]))
        return 0

    stem = f"{workload.name}-seed{args.seed}-{args.size}"
    if args.trace:
        run = measure_traced(workload, args.seed, args.seconds, args.size,
                             trace_path=OUT_DIR / f"{stem}.trace.json")
    else:
        run = measure(workload, args.seed, args.seconds, args.size)
    problems = [p for ep in run.episodes for p in ep.problems] + run.problems
    correct = not problems
    env = environment()

    print(f"# {workload.name} seed={args.seed} size={args.size} "
          f"trace={args.trace} episodes={len(run.episodes)} "
          f"steps/episode={workload.steps[args.size]}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in run.metrics.items():
        note = run.notes.get(name, "")
        print(f"{name:<44} {value:>14.6g} {unit:<16} {note}")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"# failed_step_frac {frac:.6g} ({run.failed}/{run.attempted} "
          "steps; the attempted/failed fields below)")
    for problem in problems:
        print(f"# FAILED: {problem}")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }
    write_bench_json(
        f"ddabench_{workload.name}",
        {**result, "env": env, "seed": args.seed, "size": args.size,
         "trace": args.trace, "notes": run.notes,
         "failed_step_frac": frac, "problems": problems},
        path=OUT_DIR / f"{stem}-trace{args.trace}.json",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
