"""Steadiness study: run the benchmark once per seed and summarise each metric.

    python3 perfbench/study.py --workloads phase-space,squeezed,oracle --seeds 1-10

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, which is
(q3 - q1) / median, next to the bound in BENCHMARK.json, and the share of
failed runs.  With --trace it instead runs the traced benchmark twice on
the first seed and reports any per-layer count that differs between them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".nodes", "files_written", "bytes_written")


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for workload in args.workloads.split(","):
        if args.trace:
            seed = seed_list(args.seeds)[0]
            first, second = (bench(workload, seed, 1)["metrics"] for _ in range(2))
            diff = [k for k in first if k.endswith(COUNT_SUFFIXES) and first[k] != second[k]]
            print(f"{workload}: traced counts {'differ: ' + ', '.join(diff) if diff else 'identical'}")
            continue
        results = [bench(workload, seed, 0) for seed in seed_list(args.seeds)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
