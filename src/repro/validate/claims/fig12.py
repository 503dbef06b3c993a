"""E8 — Figure 12: in-place vs out-of-place (redo) FAST&FAIR inserts.

Paper claims (S4.2): on G1, out-of-place (redo-log) inserts convert
scattered small persists into sequential full-line writes the write
buffer coalesces — ~37% lower latency and ~1.6x throughput at every
thread count.  On G2, whose buffering absorbs the small persists
anyway, redo's extra writes make it a slight net loss (~12% slower).
"""

from __future__ import annotations

from repro.validate.predicates import PredicateResult, ordering, ratio_approx
from repro.validate.spec import Claim, ReportSet, on_pair, on_reports

_CITE = "Fig. 12, S4.2"


def _benefit_not_growing(reports: ReportSet) -> PredicateResult:
    """in-place/redo latency at the most threads stays within +0.05 of 1 thread."""
    inplace = reports.curve("latency in-place").y
    redo = reports.curve("latency out-of-place").y
    first, last = inplace[0] / redo[0], inplace[-1] / redo[-1]
    return PredicateResult(
        last < first + 0.05,
        f"in-place/redo {first:.3f} at 1 thread, {last:.3f} at the most threads",
        "in-place/redo latency ratio does not grow by 0.05 or more with threads",
    )


CLAIMS = (
    Claim(
        id="E8/redo-wins-g1",
        experiment="fig12", generation=1,
        claim="redo beats in-place by >=30% latency at every thread count on G1",
        citation=_CITE,
        check=on_pair(
            "latency out-of-place", "latency in-place", ordering(margin=0.3)
        ),
    ),
    Claim(
        id="E8/redo-latency-factor",
        experiment="fig12", generation=1,
        claim="single-thread redo latency is ~62% of in-place (37.6% lower)",
        citation=_CITE,
        check=on_pair(
            "latency out-of-place", "latency in-place",
            ratio_approx(0.62, 0.08, at_x=1),
        ),
    ),
    Claim(
        id="E8/redo-tput-factor",
        experiment="fig12", generation=1,
        claim="single-thread redo throughput is ~1.6x in-place",
        citation=_CITE,
        check=on_pair(
            "tput out-of-place", "tput in-place", ratio_approx(1.6, 0.1, at_x=1)
        ),
    ),
    Claim(
        id="E8/benefit-not-growing",
        experiment="fig12", generation=1,
        claim="redo's relative benefit does not grow as threads contend for bandwidth",
        citation=_CITE,
        allowance="the ratio stays flat (~1.60 -> ~1.61) where the paper shows "
                  "it shrinking",
        check=on_reports(_benefit_not_growing),
    ),
    Claim(
        id="E8/redo-no-win-g2",
        experiment="fig12", generation=2,
        claim="on G2 redo never wins: latency higher at every thread count",
        citation=_CITE,
        check=on_pair(
            "latency out-of-place", "latency in-place",
            ordering(margin=0.0, higher_is_better=True),
        ),
    ),
    Claim(
        id="E8/redo-penalty-g2",
        experiment="fig12", generation=2,
        claim="G2 redo costs ~12% extra latency single-threaded",
        citation=_CITE,
        check=on_pair(
            "latency out-of-place", "latency in-place",
            ratio_approx(1.12, 0.08, at_x=1),
        ),
    ),
    Claim(
        id="E8/redo-tput-no-win-g2",
        experiment="fig12", generation=2,
        claim="on G2 redo throughput trails in-place by >=5% at every thread count",
        citation=_CITE,
        check=on_pair("tput out-of-place", "tput in-place", ordering(margin=0.05)),
    ),
)
