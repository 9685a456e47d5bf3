"""Fixed-seed benchmark of loopsoup: one workload, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in a fresh single-threaded process (BLAS and
OpenMP pinned to one thread).  With ``--trace 0`` the last stdout line holds
the end-to-end metrics: ``setup_s`` is the median over five fresh processes
(two that only set up before the timed one and two after it, plus the timed
one); ``items_per_s`` and ``peak_rss_mb`` come from the timed process.
With ``--trace 1`` it holds the per-layer metrics of a run in which every
operation runs once untraced and once traced, and the tracing overhead
between the two.  Full details go to ``bench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cover-massive", "cover-dense", "soup-window", "greens-laws")
SETUP_ONLY_RUNS = 2    # fresh set-up-only processes before and again after the timed one
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child(args, extra, env, deadline) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next process")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "loopsoup" / "__init__.py").is_file():
        print(f"error: no loopsoup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(PINNED, "1"))
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def setup_only():
        if args.trace:
            return []
        return [_child(args, ["--setup-only"], env, deadline)["setup_s"]
                for _ in range(SETUP_ONLY_RUNS)]

    try:
        setups = setup_only()
        run = _child(args, ["--trace-out", str(results / f"{tag}.spans.jsonl.gz")]
                     if args.trace else [], env, deadline)
        setups += setup_only()
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not Path(run["loopsoup"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: loopsoup imported from {run['loopsoup']}", file=sys.stderr)
        return 1

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = run["layers"]
        declared = config["per_layer"]
    else:
        setups.append(run["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": (sum(r["items"] for r in run["rounds"])
                            / sum(r["seconds"] for r in run["rounds"])),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        declared = config["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    (results / f"{tag}.json").write_text(json.dumps(
        {"args": vars(args), "setup_samples_s": setups, "metrics": metrics, **run},
        indent=1) + "\n")
    for name, ok, detail in run["checks"]:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
