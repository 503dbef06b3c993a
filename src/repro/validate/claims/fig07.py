"""E5 — Figure 7: the read-after-persist (RAP) penalty.

Paper claims (S3.5): reading a cacheline right after persisting it
costs ~2500 cycles on G1 PM under clwb+mfence, decaying by halves with
reuse distance toward the ~350-cycle baseline (~7-10x peak/floor).
sfence defers the cost for a ~2-flush window; nt-stores behave like
clwb+mfence; the remote-socket peak is ~1.5x higher; DRAM shows the
same shape at only ~2x.  On G2 (eADR) the clwb RAP penalty is gone —
flat latency at every distance — while nt-stores still pay it.
"""

from __future__ import annotations

from repro.validate.predicates import (
    PredicateResult,
    all_of,
    flat_wrt_wss,
    peak_over_floor,
    ratio_approx,
    span_ratio,
    within,
)
from repro.validate.spec import Claim, ReportSet, on_pair, on_reports, on_series

_CITE = "Fig. 7, S3.5"

#: A reuse distance long past the penalty's decay.
_FAR = 32


def _near_far(reports: ReportSet, series: str, report: str) -> float:
    """Distance-0 latency over the settled latency at distance 32."""
    curve = reports.curve(series, report)
    return curve.y_at(0) / curve.y_at(_FAR)


def _near_far_gaps(reports: ReportSet) -> PredicateResult:
    """PM pays >4.5x at distance 0 over 32; DRAM's gap stays far smaller."""
    clwb = _near_far(reports, "clwb+mfence", "-pm")
    nt = _near_far(reports, "nt-store+mfence", "-pm")
    dram = _near_far(reports, "clwb+mfence", "-dram")
    return PredicateResult(
        4.5 <= clwb <= 12 and 4.5 <= nt <= 12 and dram <= 3.2 and dram < clwb,
        f"y(0)/y(32): clwb {clwb:.2f}, nt-store {nt:.2f}, DRAM {dram:.2f}",
        "PM clwb and nt-store y(0)/y(32) in [4.5, 12]; DRAM <= 3.2 and below PM",
    )


CLAIMS = (
    Claim(
        id="E5/mfence-peak",
        experiment="fig7", generation=1,
        claim="clwb+mfence distance-0 RAP costs ~2500 cycles on PM",
        citation=_CITE,
        check=on_series("clwb+mfence", within(2200, 2750, at_x=0), report="-pm"),
    ),
    Claim(
        id="E5/rap-decay",
        experiment="fig7", generation=1,
        claim="the RAP peak sits ~7-10x above the settled latency",
        citation=_CITE,
        check=on_series("clwb+mfence", peak_over_floor(5, 12), report="-pm"),
    ),
    Claim(
        id="E5/amortizes-by-halves",
        experiment="fig7", generation=1,
        claim="doubling reuse distance halves the per-iteration penalty",
        citation=_CITE,
        check=on_series("clwb+mfence", span_ratio(0, 1, 0.45, 0.55), report="-pm"),
    ),
    Claim(
        id="E5/sfence-window",
        experiment="fig7", generation=1,
        claim="sfence hides the penalty for a ~2-flush window, then pays it",
        citation=_CITE,
        check=on_series(
            "clwb+sfence",
            all_of(
                within(0, 300, at_x=0),
                within(0, 300, at_x=1),
                within(650, 900, at_x=2),
            ),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/sfence-converges",
        experiment="fig7", generation=1,
        claim="by distance ~4-8 sfence and mfence costs converge",
        citation=_CITE,
        check=on_pair(
            "clwb+sfence", "clwb+mfence", ratio_approx(1.0, 0.01, at_x=8),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/nt-matches-clwb",
        experiment="fig7", generation=1,
        claim="nt-store+mfence pays the same RAP peak as clwb+mfence",
        citation=_CITE,
        check=on_pair(
            "nt-store+mfence", "clwb+mfence", ratio_approx(1.0, 0.02, at_x=0),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/remote-elevated",
        experiment="fig7", generation=1,
        claim="the remote-socket RAP peak is ~1.5x the local one",
        citation=_CITE,
        check=on_pair(
            "clwb+mfence", "clwb+mfence", ratio_approx(1.49, 0.1, at_x=0),
            report="-pm_remote", reference_report="-pm",
        ),
    ),
    Claim(
        id="E5/near-far-gaps",
        experiment="fig7", generation=1,
        claim="by reuse distance 32 the PM penalty has settled >4.5x below its "
              "peak for clwb and nt-stores alike, a gap DRAM never shows",
        citation=_CITE,
        check=on_reports(_near_far_gaps),
    ),
    Claim(
        id="E5/dram-decay-shallower",
        experiment="fig7", generation=1,
        claim="DRAM shows the same RAP shape at only ~2-3x peak/floor",
        citation=_CITE,
        check=on_series("clwb+mfence", peak_over_floor(2.0, 3.2), report="-dram"),
    ),
    Claim(
        id="E5/g2-clwb-flat",
        experiment="fig7", generation=2,
        claim="eADR removes the clwb RAP penalty on G2: latency is flat at "
              "the ~210-cycle floor",
        citation=_CITE,
        check=on_series(
            "clwb+mfence",
            all_of(flat_wrt_wss(0.05), within(180, 260, at_x=0)),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/g2-nt-still-pays",
        experiment="fig7", generation=2,
        claim="G2 nt-stores still pay a ~2300-cycle RAP peak, ~6x the floor",
        citation=_CITE,
        check=on_series(
            "nt-store+mfence",
            all_of(
                within(2100, 2550, at_x=0),
                peak_over_floor(5, 7),
                span_ratio(_FAR, 0, 5, 7),
            ),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/g2-dram-flat",
        experiment="fig7", generation=2,
        claim="with eADR DRAM shows no read-after-persist penalty either",
        citation=_CITE,
        check=on_series("clwb+mfence", flat_wrt_wss(0.05), report="-dram"),
    ),
    Claim(
        id="E5/g2-sfence-equals-mfence",
        experiment="fig7", generation=2,
        claim="with eADR the fence choice stops mattering for clwb",
        citation=_CITE,
        check=on_pair(
            "clwb+sfence", "clwb+mfence", ratio_approx(1.0, 0.001, at_x=0),
            report="-pm",
        ),
    ),
)
