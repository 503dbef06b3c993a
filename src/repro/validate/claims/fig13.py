"""E9a — Figure 13: eliminating misprefetched PM reads.

Paper claims (S4.3): with hardware prefetching on, the PM read ratio
inflates toward ~1.9x beyond the caches (iMC trailing at ~1.7x); the
software-prefetch rewrite that avoids misprefetching holds the PM
ratio at exactly 1.0 across the whole sweep.
"""

from __future__ import annotations

from repro.common.units import kib, mib
from repro.validate.predicates import (
    all_of,
    monotone_rise,
    ordering,
    plateau,
    within,
)
from repro.validate.spec import Claim, on_pair, on_series

_CITE = "Fig. 13, S4.3"

_OVERFETCH = on_series(
    "PM with prefetching",
    all_of(
        within(1.8, 2.05, at_x=mib(64)),
        monotone_rise(tol=0.005, min_gain=0.8),
    ),
)

_SMALL_WSS_HARMLESS = on_series("PM with prefetching", within(0.95, 1.05, at_x=kib(4)))

CLAIMS = (
    Claim(
        id="E9A/baseline-overfetch",
        experiment="fig13", generation=1,
        claim="prefetching inflates PM reads to ~1.9x beyond the caches",
        citation=_CITE,
        check=_OVERFETCH,
    ),
    Claim(
        id="E9A/small-wss-harmless",
        experiment="fig13", generation=1,
        claim="at a 4 KB working set prefetching costs no extra PM reads",
        citation=_CITE,
        check=_SMALL_WSS_HARMLESS,
    ),
    Claim(
        id="E9A/optimized-flat-one",
        experiment="fig13", generation=1,
        claim="the misprefetch-free rewrite pins the PM read ratio at 1.0",
        citation=_CITE,
        check=on_series("Optimized PM", plateau(1.0, 0.005)),
    ),
    Claim(
        id="E9A/imc-below-pm",
        experiment="fig13", generation=1,
        claim="iMC inflation trails PM inflation (some prefetches die in-cache)",
        citation=_CITE,
        check=on_pair(
            "iMC with prefetching", "PM with prefetching", ordering(margin=-0.005)
        ),
    ),
    Claim(
        id="E9A/optimized-flat-one-g2",
        experiment="fig13", generation=2,
        claim="the rewrite holds the ratio at 1.0 on G2 too",
        citation=_CITE,
        check=on_series("Optimized PM", plateau(1.0, 0.005)),
    ),
    Claim(
        id="E9A/baseline-overfetch-g2",
        experiment="fig13", generation=2,
        claim="G2 prefetching inflates PM reads to ~1.9x beyond the caches too",
        citation=_CITE,
        check=_OVERFETCH,
    ),
    Claim(
        id="E9A/small-wss-harmless-g2",
        experiment="fig13", generation=2,
        claim="at a 4 KB working set G2 prefetching costs no extra PM reads",
        citation=_CITE,
        check=_SMALL_WSS_HARMLESS,
    ),
)
