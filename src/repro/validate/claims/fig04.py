"""E4 — Figure 4: write-buffer hit ratio under random partial writes.

Paper claims (S3.2): the hit ratio is 1.0 while the working set fits
the write buffer (12 KB on G1, 16 KB on G2), then decays *gracefully*
— random eviction spreads the misses, unlike a FIFO cliff — and G2's
larger buffer keeps it higher at every working-set size.

The fig4 experiment sweeps both generations into one report ("G1
Optane" / "G2 Optane" series), so every claim here registers under
generation 1; the G2-flavoured claims simply select the G2 series.
"""

from __future__ import annotations

from repro.common.units import kib
from repro.validate.predicates import (
    PredicateResult,
    all_of,
    knee_between,
    monotone_decay,
    ordering,
    plateau,
    within,
)
from repro.validate.spec import Claim, ReportSet, on_pair, on_reports, on_series

_CITE = "Fig. 4, S3.2"


def _no_cliff(reports: ReportSet) -> PredicateResult:
    """Both curves non-increasing (within 0.05) with no step below -0.5."""
    decay = monotone_decay(tol=0.05)
    worst = 0.0
    for name in ("G1 Optane", "G2 Optane"):
        curve = reports.curve(name)
        result = decay(curve)
        if not result.passed:
            return PredicateResult(False, f"{name}: {result.measured}", result.expected)
        worst = max(worst, max(a - b for a, b in zip(curve.y, curve.y[1:])))
    return PredicateResult(
        worst < 0.5,
        f"largest drop between adjacent points {worst:.3f}",
        "non-increasing (tol 0.05) and every adjacent drop < 0.5 on G1 and G2",
    )


CLAIMS = (
    Claim(
        id="E4/full-hit-below-capacity",
        experiment="fig4", generation=1,
        claim="G1 hit ratio is 1.0 while WSS fits the 12 KB write buffer",
        citation=_CITE,
        check=on_series("G1 Optane", plateau(1.0, 0.005, x_max=kib(12))),
    ),
    Claim(
        id="E4/full-hit-g2",
        experiment="fig4", generation=1,
        claim="G2 hit ratio is 1.0 while WSS fits its 16 KB write buffer",
        citation=_CITE,
        check=on_series("G2 Optane", plateau(1.0, 0.005, x_max=kib(16))),
    ),
    Claim(
        id="E4/knee-g1",
        experiment="fig4", generation=1,
        claim="G1 hit ratio departs from 1.0 just past 12 KB",
        citation=_CITE,
        allowance="knee at ~14 KB on the fast grid (in-flight-line headroom)",
        check=on_series("G1 Optane", knee_between(kib(13), kib(14), baseline=1.0)),
    ),
    Claim(
        id="E4/knee-g2",
        experiment="fig4", generation=1,
        claim="G2 hit ratio departs from 1.0 just past 16 KB",
        citation=_CITE,
        allowance="knee at ~18 KB on the fast grid (in-flight-line headroom)",
        check=on_series("G2 Optane", knee_between(kib(17), kib(18), baseline=1.0)),
    ),
    Claim(
        id="E4/graceful-decay",
        experiment="fig4", generation=1,
        claim="past capacity G1 decays gracefully (random eviction), no cliff",
        citation=_CITE,
        check=on_series(
            "G1 Optane",
            all_of(
                monotone_decay(x_min=kib(12), tol=0.02, min_drop=0.25),
                within(0.25, 0.75, at_x=kib(32)),
            ),
        ),
    ),
    Claim(
        id="E4/graceful-decay-g2",
        experiment="fig4", generation=1,
        claim="past capacity G2 decays gracefully as well",
        citation=_CITE,
        check=on_series(
            "G2 Optane",
            all_of(
                monotone_decay(x_min=kib(16), tol=0.02, min_drop=0.25),
                within(0.35, 0.8, at_x=kib(32)),
            ),
        ),
    ),
    Claim(
        id="E4/no-cliff",
        experiment="fig4", generation=1,
        claim="neither generation's hit ratio ever drops by a cliff or recovers",
        citation=_CITE,
        check=on_reports(_no_cliff),
    ),
    Claim(
        id="E4/g2-holds-past-g1-knee",
        experiment="fig4", generation=1,
        claim="at 16 KB G2 still absorbs every write while G1 already misses",
        citation=_CITE,
        check=on_pair(
            "G2 Optane", "G1 Optane",
            ordering(margin=0.1, higher_is_better=True, x_min=kib(16), x_max=kib(16)),
        ),
    ),
    Claim(
        id="E4/g2-capacity-larger",
        experiment="fig4", generation=1,
        claim="G2's larger buffer keeps its hit ratio >= G1's at every WSS",
        citation=_CITE,
        check=on_pair(
            "G2 Optane", "G1 Optane", ordering(margin=0.0, higher_is_better=True)
        ),
    ),
)
