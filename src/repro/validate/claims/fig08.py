"""E6 — Figure 8: persistency-mode write costs across working sets.

Paper claims (S4.2): under strict persistency every store pays the
full persist path (~220 cycles/element on G1) regardless of WSS, then
climbs several-fold once the working set spills the on-DIMM buffers.
Relaxed persistency is markedly cheaper while data fits the CPU
caches and converges toward the strict cost beyond them.  Pure
(non-persistent) random writes stay flat — the write buffer absorbs
them — while reads dominate the cost beyond the caches.
"""

from __future__ import annotations

from repro.common.units import kib, mib
from repro.validate.predicates import (
    PredicateResult,
    all_of,
    flat_wrt_wss,
    ordering,
    ratio_approx,
    span_ratio,
    within,
)
from repro.validate.spec import Claim, ReportSet, on_pair, on_series, on_reports

_CITE = "Fig. 8, S4.2"

_BIG = mib(64)


def _cross_report_ratio(series: str, subject_report: str, reference_report: str,
                        at_x, lo: float, hi: float):
    """Ratio of the same series across two reports, bounded to [lo, hi]."""

    def check(reports: ReportSet) -> PredicateResult:
        a = reports.curve(series, subject_report).y_at(at_x)
        b = reports.curve(series, reference_report).y_at(at_x)
        ratio = a / b if b else float("inf")
        return PredicateResult(
            lo <= ratio <= hi,
            f"{a:.4g}/{b:.4g} = {ratio:.3f} at x={at_x}",
            f"{subject_report}/{reference_report} ratio in [{lo}, {hi}]",
        )

    return check


CLAIMS = (
    Claim(
        id="E6/strict-floor",
        experiment="fig8", generation=1,
        claim="strict persistency costs ~220 cycles/element even in-cache",
        citation=_CITE,
        check=on_series("rand_clwb", within(200, 260, at_x=kib(4)), report="fig8a"),
    ),
    Claim(
        id="E6/strict-climb",
        experiment="fig8", generation=1,
        claim="random strict writes climb several-fold once WSS spills the buffers",
        citation=_CITE,
        allowance="~4.6x climb vs the paper's ~10x: the port model saturates lower",
        check=on_series("rand_clwb", span_ratio(kib(4), _BIG, 3.5, 6.0), report="fig8a"),
    ),
    Claim(
        id="E6/three-levels",
        experiment="fig8", generation=1,
        claim="random strict writes show three levels: in-cache, on-DIMM "
              "buffer plateau (256 KB), media (64 MB)",
        citation=_CITE,
        check=on_series(
            "rand_clwb",
            all_of(
                span_ratio(kib(4), kib(256), 1.02, 1.5),
                span_ratio(kib(256), _BIG, 3.0, 6.0),
            ),
            report="fig8a",
        ),
    ),
    Claim(
        id="E6/relaxed-helps-small",
        experiment="fig8", generation=1,
        claim="relaxed persistency is >3x cheaper while data fits the caches",
        citation=_CITE,
        check=on_reports(
            _cross_report_ratio("seq_clwb", "fig8b", "fig8a", kib(4), 0.1, 0.35)
        ),
    ),
    Claim(
        id="E6/relaxed-helps-small-rand",
        experiment="fig8", generation=1,
        claim="relaxed persistency is >3x cheaper for random chains in-cache too",
        citation=_CITE,
        check=on_reports(
            _cross_report_ratio("rand_clwb", "fig8b", "fig8a", kib(4), 0.1, 0.35)
        ),
    ),
    Claim(
        id="E6/relaxed-converges-plateau",
        experiment="fig8", generation=1,
        claim="at the 256 KB plateau relaxed random chains cost within 30% of strict",
        citation=_CITE,
        check=on_reports(
            _cross_report_ratio("rand_clwb", "fig8b", "fig8a", kib(256), 0.7, 1.0)
        ),
    ),
    Claim(
        id="E6/relaxed-fades-large",
        experiment="fig8", generation=1,
        claim="the relaxed advantage fades beyond the caches",
        citation=_CITE,
        check=on_reports(
            _cross_report_ratio("rand_clwb", "fig8b", "fig8a", mib(16), 0.6, 0.9)
        ),
    ),
    Claim(
        id="E6/pure-writes-flat",
        experiment="fig8", generation=1,
        claim="pure random writes cost the same at every WSS (buffer absorbs them)",
        citation=_CITE,
        check=on_series("rand_wr", flat_wrt_wss(0.05), report="fig8c"),
    ),
    Claim(
        id="E6/seq-writes-flat",
        experiment="fig8", generation=1,
        claim="pure sequential writes stay flat across WSS as well",
        citation=_CITE,
        check=on_series("seq_wr", flat_wrt_wss(0.1), report="fig8c"),
    ),
    Claim(
        id="E6/reads-outweigh-writes",
        experiment="fig8", generation=1,
        claim="beyond the caches a random read costs >2x a random write",
        citation=_CITE,
        check=on_pair(
            "rand_rd", "rand_wr",
            ordering(margin=1.0, higher_is_better=True, x_min=_BIG),
            report="fig8c",
        ),
    ),
    Claim(
        id="E6/reads-dominate-beyond-caches",
        experiment="fig8", generation=1,
        claim="beyond the caches random reads cost ~1.9x sequential reads",
        citation=_CITE,
        check=on_pair(
            "rand_rd", "seq_rd",
            ratio_approx(1.86, 0.15, at_x=_BIG),
            report="fig8c",
        ),
    ),
    Claim(
        id="E6/reads-cheap-in-cache",
        experiment="fig8", generation=1,
        claim="reads are nearly free while the working set fits the caches",
        citation=_CITE,
        check=on_series("rand_rd", within(0, 50, x_max=mib(4)), report="fig8c"),
        allowance="checked through 4 MB; beyond that reads hit the media",
    ),
    Claim(
        id="E6/g2-nt-relaxed-fast",
        experiment="fig8", generation=2,
        claim="G2 relaxed nt-stores are ~5x cheaper than strict in-cache",
        citation=_CITE,
        check=on_reports(
            _cross_report_ratio("seq_nt-store", "fig8b", "fig8a", kib(4), 0.1, 0.25)
        ),
    ),
    Claim(
        id="E6/g2-clwb-relaxed-no-gain",
        experiment="fig8", generation=2,
        claim="with eADR, relaxed clwb matches strict clwb beyond the caches",
        citation=_CITE,
        check=on_reports(
            _cross_report_ratio("seq_clwb", "fig8b", "fig8a", mib(1), 0.98, 1.02)
        ),
    ),
)
