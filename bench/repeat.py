"""Repeat one workload over several seeds and summarise each metric.

    python3 bench/repeat.py --workload soup-window --seeds 1-10 [--trace 1]

Runs bench/run.py once per seed, one after another, with the run length
from BENCHMARK.json, and prints each metric's median, first and third
quartiles and the spread (Q3 - Q1) / median, plus the share of failed
operations.  With --trace 1 it also says whether each count repeated
exactly.  The result lines are appended to bench/results/repeat.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(config["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        line["seed"], line["workload"] = seed, args.workload
        runs.append(line)
        with open(BENCH / "results" / "repeat.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", flush=True)

    shares = {(r["failed"], r["attempted"]) for r in runs}
    print(f"failed/attempted pairs: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        exact = " exact" if len(set(vals)) == 1 else ""
        print(f"{name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.3f}{exact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
