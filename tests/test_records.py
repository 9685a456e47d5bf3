import math

from loopsoup.records import (VERDICT_FAILS, VERDICT_HOLDS, VERDICT_NOT_MET,
                              VERDICT_REPORTED, verdict)


def test_verdict_states_and_margin_sign():
    holds = verdict("c", "a", "p", 1.0, 1.5, True)
    assert (holds.verdict, holds.margin) == (VERDICT_HOLDS, 0.5)
    fails = verdict("c", "a", "p", 2.0, 1.5, False)
    assert (fails.verdict, fails.margin) == (VERDICT_FAILS, -0.5)
    # unmet hypotheses are never asserted, whatever ok says
    not_met = verdict("c", "a", "p", 2.0, 1.5, False, hypotheses_met=False)
    assert (not_met.verdict, not_met.margin) == (VERDICT_NOT_MET, -0.5)
    reported = verdict("c", "a", "p", 3.0, math.inf, True, report_only=True)
    assert (reported.verdict, reported.margin) == (VERDICT_REPORTED, math.inf)
