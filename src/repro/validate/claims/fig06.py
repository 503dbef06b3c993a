"""E2 — Figure 6: prefetcher-induced read overfetch.

Paper claims (S4.1): with prefetching off, PM and iMC read ratios both
stay at 1.0.  Adjacent-line and DCU-streamer prefetching inflate PM
traffic toward ~2x once the working set exceeds the caches; the DCU
streamer discards its prefetches before the iMC, so iMC traffic stays
near 1 while PM traffic doubles.  The L2 hardware streamer inflates PM
and iMC together.
"""

from __future__ import annotations

from repro.common.units import kib, mib
from repro.validate.predicates import (
    PredicateResult,
    all_of,
    monotone_rise,
    ordering,
    plateau,
    ratio_approx,
    within,
)
from repro.validate.spec import Claim, ReportSet, on_pair, on_series

_CITE = "Fig. 6, S4.1"

_BIG = mib(64)


def _no_prefetch_flat(gen: int):
    """Both ratios pinned at 1.0 with prefetching off."""

    def check(reports: ReportSet) -> PredicateResult:
        flat = plateau(1.0, 0.01)
        for name in (f"PM (G{gen})", f"iMC (G{gen})"):
            result = flat(reports.curve(name, report="-no"))
            if not result.passed:
                return PredicateResult(False, f"{name}: {result.measured}", result.expected)
        return PredicateResult(True, "PM and iMC ratios both 1.0 everywhere",
                               "ratio 1.0 at every WSS with prefetching off")

    return check


def _dcu_overfetch(gen: int):
    """DCU streamer: ~2x PM reads past the caches, none while in-buffer."""

    def check(reports: ReportSet) -> PredicateResult:
        pm = reports.curve(f"PM (G{gen})", report="-DCU")
        big, small = pm.y_at(_BIG), pm.y_at(kib(4))
        gap = big - reports.curve(f"iMC (G{gen})", report="-DCU").y_at(_BIG)
        return PredicateResult(
            1.75 <= big <= 2.05 and gap >= 0.5 and small <= 1.05,
            f"PM {big:.3f} at 64 MB ({gap:+.3f} over iMC), {small:.3f} at 4 KB",
            "PM in [1.75, 2.05] and >= iMC + 0.5 at 64 MB; PM <= 1.05 at 4 KB",
        )

    return check


def _hardware_mildest(gen: int):
    """The L2 streamer overfetches less than the DCU streamer past 1 MB."""
    return on_pair(
        f"PM (G{gen})", f"PM (G{gen})",
        ordering(margin=0.1, x_min=mib(1)),
        report="-hardware", reference_report="-DCU",
    )


CLAIMS = (
    Claim(
        id="E2/no-prefetch-flat",
        experiment="fig6", generation=1,
        claim="with prefetching off, PM and iMC read ratios stay at 1.0",
        citation=_CITE,
        check=_no_prefetch_flat(1),
    ),
    Claim(
        id="E2/adjacent-pm-overfetch",
        experiment="fig6", generation=1,
        claim="adjacent-line prefetch inflates PM reads toward ~2x beyond the caches",
        citation=_CITE,
        check=on_series(
            "PM (G1)",
            all_of(
                within(1.75, 2.05, at_x=_BIG),
                monotone_rise(tol=0.01, min_gain=0.7),
            ),
            report="-adjacent",
        ),
    ),
    Claim(
        id="E2/adjacent-imc-below-pm",
        experiment="fig6", generation=1,
        claim="some adjacent-line prefetches die in-cache: iMC ratio trails PM",
        citation=_CITE,
        check=on_pair(
            "PM (G1)", "iMC (G1)",
            ordering(margin=0.1, higher_is_better=True, x_min=mib(1)),
            report="-adjacent",
        ),
    ),
    Claim(
        id="E2/dcu-discards-before-imc",
        experiment="fig6", generation=1,
        claim="DCU streamer: PM ratio ~2x while iMC stays near 1 "
              "(prefetches discarded before the iMC)",
        citation=_CITE,
        allowance="iMC drifts to ~1.23, a touch above the paper's ~1.1",
        check=on_pair(
            "PM (G1)", "iMC (G1)",
            ordering(margin=0.3, higher_is_better=True, x_min=mib(1)),
            report="-DCU",
        ),
    ),
    Claim(
        id="E2/dcu-imc-near-one",
        experiment="fig6", generation=1,
        claim="DCU streamer keeps the iMC read ratio below ~1.35",
        citation=_CITE,
        check=on_series("iMC (G1)", within(0.95, 1.35), report="-DCU"),
    ),
    Claim(
        id="E2/dcu-pm-overfetch",
        experiment="fig6", generation=1,
        claim="DCU streamer: PM reads ~2x past the caches, ~1x while the "
              "working set fits the read buffer",
        citation=_CITE,
        check=_dcu_overfetch(1),
    ),
    Claim(
        id="E2/hardware-mildest",
        experiment="fig6", generation=1,
        claim="the L2 hardware streamer wastes less PM bandwidth than the DCU streamer",
        citation=_CITE,
        check=_hardware_mildest(1),
    ),
    Claim(
        id="E2/hardware-tracks-imc",
        experiment="fig6", generation=1,
        claim="the L2 streamer inflates PM and iMC together (ratio 1:1)",
        citation=_CITE,
        allowance="level climbs to ~1.48 at 64 MB vs the paper's flatter ~1.25",
        check=on_pair(
            "PM (G1)", "iMC (G1)", ratio_approx(1.0, 0.02, at_x=_BIG),
            report="-hardware",
        ),
    ),
    Claim(
        id="E2/no-prefetch-flat-g2",
        experiment="fig6", generation=2,
        claim="prefetch-off ratios stay at 1.0 on G2 too",
        citation=_CITE,
        check=_no_prefetch_flat(2),
    ),
    Claim(
        id="E2/adjacent-pm-overfetch-g2",
        experiment="fig6", generation=2,
        claim="adjacent-line prefetch approaches 2x PM overfetch on G2",
        citation=_CITE,
        check=on_series(
            "PM (G2)", within(1.75, 2.05, at_x=_BIG), report="-adjacent"
        ),
    ),
    Claim(
        id="E2/dcu-pm-overfetch-g2",
        experiment="fig6", generation=2,
        claim="the DCU streamer's ~2x PM overfetch carries over to G2",
        citation=_CITE,
        check=_dcu_overfetch(2),
    ),
    Claim(
        id="E2/hardware-mildest-g2",
        experiment="fig6", generation=2,
        claim="on G2 too the L2 streamer wastes less than the DCU streamer",
        citation=_CITE,
        check=_hardware_mildest(2),
    ),
)
