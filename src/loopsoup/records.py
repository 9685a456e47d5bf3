"""Verdict records and deterministic CSV/JSON emission.

Every numeric check in the verification suite produces one Verdict row.
Rows never carry wall-clock data so artifacts are byte-identical across
runs and worker counts; timing goes to the console only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_NOT_MET = "hypothesis-not-met"
VERDICT_REPORTED = "reported"

#: anchor value for checks that exercise artifact plumbing, not a formula
PLUMBING = "plumbing"


@dataclass
class Verdict:
    check: str      # stable check identifier
    anchor: str     # inequality/identity label, or "plumbing"
    params: str     # evaluation point, e.g. "kappa=0.1,x=(1,0)"
    lhs: float
    rhs: float
    verdict: str
    margin: float   # |rhs-lhs| signed by pass(+)/violation(-)


def verdict(check: str, anchor: str, params: str, lhs: float, rhs: float, ok,
            hypotheses_met: bool = True, report_only: bool = False) -> Verdict:
    """One row under the three-state rule.

    A check whose hypotheses are not met is never asserted; a report-only
    check is recorded as reported; otherwise ok decides holds or fails.  The
    margin is |rhs - lhs| (inf when a side is not finite), signed + when ok.
    """
    if not hypotheses_met:
        state = VERDICT_NOT_MET
    elif report_only:
        state = VERDICT_REPORTED
    else:
        state = VERDICT_HOLDS if ok else VERDICT_FAILS
    gap = abs(rhs - lhs) if math.isfinite(rhs) and math.isfinite(lhs) else math.inf
    return Verdict(check=check, anchor=anchor, params=params, lhs=lhs, rhs=rhs,
                   verdict=state, margin=gap if ok else -gap)


VERDICT_COLUMNS = ["check", "anchor", "params", "lhs", "rhs", "verdict", "margin"]


def fmt(x) -> str:
    """Shortest round-trip decimal form; stable across runs."""
    if hasattr(x, "item"):  # numpy scalar
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_verdicts_csv(path: str | Path, verdicts: Iterable[Verdict]) -> None:
    write_rows_csv(path, VERDICT_COLUMNS,
                   ([getattr(v, c) for c in VERDICT_COLUMNS] for v in verdicts))


def write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rows_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(c) for c in row])


def failed(verdicts: Iterable[Verdict]) -> list[Verdict]:
    return [v for v in verdicts if v.verdict == VERDICT_FAILS]
