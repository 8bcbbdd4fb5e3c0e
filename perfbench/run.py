"""Benchmark `phasebath run` end to end (--trace 0) or layer by layer (--trace 1).

Run from the root of a phasebath source checkout:

    python3 perfbench/run.py --workload phase-space --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of `phasebath run` invocations generated from
the seed (see workloads.py).  The benchmark calls `phasebath.cli.main(argv)`
in this process, with BLAS/OpenMP threads fixed at 1, and executes whole
passes over the list until --seconds of wall time have gone by.  Each run's
files are checked, untimed, against references computed in checks.py.  A run
fails on a nonzero exit, an exception or a failed check.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported anywhere in this process or its children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracing import Tracer

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5

def import_cli():
    """Import phasebath from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "phasebath" / "__init__.py").is_file():
        raise SystemExit(f"error: no phasebath sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import phasebath.cli

    if Path(phasebath.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: imported phasebath from {phasebath.cli.__file__}, not from {src}")
    return phasebath.cli


def execute(cli, case, tracer=None):
    """One CLI run: returns (seconds, faults).  Clearing and checking are untimed."""
    shutil.rmtree(OUT, ignore_errors=True)
    argv = case.argv(str(OUT))
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception:
        elapsed = time.perf_counter() - start
        return elapsed, [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    elapsed = time.perf_counter() - start
    if tracer is not None and OUT.is_dir():
        written = [p for p in OUT.iterdir() if p.is_file()]
        tracer.counts["cli.files_written"] += len(written)
        # manifest.json carries a wall time whose digits vary; count data bytes only
        tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in written if p.name != "manifest.json")
    try:
        return elapsed, checks.check_run(case, OUT, code)
    except (OSError, ValueError, KeyError) as exc:
        return elapsed, [f"unreadable output: {exc!r}"]


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import, generate inputs, finish the first run cold, report the clock."""
    cli = import_cli()
    cases = workloads.WORKLOADS[workload](seed)
    cli.main(cases[0].argv(str(OUT)))
    ready = time.monotonic()
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"ready {ready!r}")


def measure_setup(workload: str, seed: int) -> float:
    """Median, over several fresh processes, of process start to the end of the first cold run."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("ready "):
            raise SystemExit(f"error: set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        samples.append(float(lines[-1].split()[1]) - started)
    return statistics.median(samples)


def timed_passes(cli, cases, seconds: float, tracer=None):
    """Whole passes over `cases` until `seconds` of wall time have gone by."""
    durations, faults = [], {}
    begin = time.perf_counter()
    while not durations or time.perf_counter() - begin < seconds:
        for pos, case in enumerate(cases):
            elapsed, errors = execute(cli, case, tracer)
            durations.append(elapsed)
            if errors:
                faults.setdefault(pos, []).append(errors)
    return durations, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli = import_cli()
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    cases = workloads.WORKLOADS[args.workload](args.seed)
    execute(cli, cases[0])  # warm-up: lazy imports and first-call costs stay out of the timings

    tracer = None
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            durations, faults = timed_passes(cli, cases, args.seconds, tracer)
    else:
        durations, faults = timed_passes(cli, cases, args.seconds)
    shutil.rmtree(OUT, ignore_errors=True)

    known = {pos for pos, case in enumerate(cases) if case == workloads.KNOWN_FAULTY}
    for pos, errors in sorted(faults.items()):
        tag = "known fault" if pos in known else "FAILED"
        print(f"{tag}: run {pos} ({len(errors)}x): {cases[pos].argv('OUT')}: {errors[0][:3]}", file=sys.stderr)
    attempted = len(durations)
    failed = sum(len(v) for v in faults.values())
    run_ms_p50 = statistics.median(durations) * 1e3

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "runs_per_s": {"value": attempted / sum(durations), "unit": "1/s"},
            "run_ms.p50": {"value": run_ms_p50, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        print(f"traced run_ms.p50 {run_ms_p50!r} over {attempted} runs", file=sys.stderr)
        metrics = {}
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            name = metric["name"]
            if name.endswith(".calls"):
                total = tracer.calls[name.removesuffix(".calls")]
            elif name.endswith(".self_ms"):
                total = tracer.self_seconds[name.removesuffix(".self_ms")] * 1e3
            else:
                total = tracer.counts[name]
            metrics[name] = {"value": total / attempted, "unit": metric["unit"]}

    print(
        json.dumps(
            {
                "correct": set(faults) <= known,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
