"""SUP/ABL — supplemental sweeps: bandwidth, interleaving, locks, ablations.

These cover the paper's framing results (single-DIMM bandwidth
asymmetry, interleaving behaviour, the persistent-lock RAP case study)
and the simulator's own ablation studies — each ablation claim pins
the *discrimination* between the inferred design choice and its
alternative, which is exactly what the mutation-smoke mode flips.
"""

from __future__ import annotations

from repro.common.units import kib
from repro.validate.predicates import (
    PredicateResult,
    all_of,
    flat_wrt_wss,
    monotone_rise,
    span_ratio,
    within,
)
from repro.validate.spec import Claim, ReportSet, on_reports, on_series

_CITE_BW = "Fig. 1, S2"
_CITE_LOCK = "S3.5 case study"
_CITE_ABL = "simulator ablations (EXPERIMENTS.md supplemental)"


def _lock_rap_g1(reports: ReportSet) -> PredicateResult:
    """G1 lock handover pays the RAP: pm >> dram, remote higher still."""
    pm = reports.value("G1", "pm")
    remote = reports.value("G1", "pm_remote")
    dram = reports.value("G1", "dram")
    ok = 2200 <= pm <= 2700 and remote > pm * 1.3 and dram < pm * 0.5
    return PredicateResult(
        ok,
        f"pm {pm:.0f}, remote {remote:.0f}, dram {dram:.0f}",
        "pm in [2200, 2700], remote > 1.3x pm, dram < 0.5x pm",
    )


def _lock_g2_fixes(reports: ReportSet) -> PredicateResult:
    """G2's eADR removes the handover penalty (>5x cheaper than G1)."""
    g1 = reports.value("G1", "pm")
    g2 = reports.value("G2", "pm")
    ok = 300 <= g2 <= 500 and g1 / g2 >= 5
    return PredicateResult(
        ok,
        f"G1 {g1:.0f} vs G2 {g2:.0f} ({g1 / g2:.1f}x)",
        "G2 pm in [300, 500] and G1/G2 >= 5x",
    )


def _wbuf_eviction(reports: ReportSet) -> PredicateResult:
    """Random eviction decays gracefully where FIFO collapses to 0."""
    random_curve = reports.curve("random eviction", "wbuf-eviction").clip(x_min=kib(14))
    fifo_curve = reports.curve("fifo eviction", "wbuf-eviction").clip(x_min=kib(14))
    gap = random_curve.y[0] - fifo_curve.y[0]
    ok = (all(y == 0 for y in fifo_curve.y) and all(y >= 0.15 for y in random_curve.y)
          and gap > 0.3)
    return PredicateResult(
        ok,
        f"past 14 KB fifo max {max(fifo_curve.y):.3f}, random min {min(random_curve.y):.3f}, "
        f"gap {gap:.3f} at 14 KB",
        "fifo hit ratio == 0 past capacity while random stays >= 0.15 "
        "and leads by > 0.3 at 14 KB",
    )


def _periodic_writeback(reports: ReportSet) -> PredicateResult:
    """Periodic write-back keeps full-line WA ~1 at small WSS; off -> 0."""
    on = reports.curve("periodic write-back", "periodic-writeback").y_at(kib(4))
    off = reports.curve("no write-back", "periodic-writeback").y_at(kib(4))
    ok = on > 0.8 and off < 0.05
    return PredicateResult(
        ok,
        f"WA at 4 KB: {on:.3f} with write-back, {off:.3f} without",
        "WA > 0.8 with periodic write-back, < 0.05 without (at 4 KB)",
    )


def _transition(reports: ReportSet) -> PredicateResult:
    """The transition halves media traffic and avoids RMWs; off does not."""
    with_rmw = reports.value("with transition", "rmw_avoided", "transition")
    with_ratio = reports.value("with transition", "media/iMC traffic", "transition")
    wo_rmw = reports.value("without transition", "rmw_avoided", "transition")
    wo_ratio = reports.value("without transition", "media/iMC traffic", "transition")
    ok = with_rmw >= 1 and with_ratio <= 0.35 and wo_rmw == 0 and wo_ratio >= 0.45
    return PredicateResult(
        ok,
        f"with: {with_rmw:.0f} avoided, media/iMC {with_ratio:.2f}; "
        f"without: {wo_rmw:.0f}, {wo_ratio:.2f}",
        "transition avoids RMWs (media/iMC <= 0.35); disabling it restores them",
    )


def _sfence_window(reports: ReportSet) -> PredicateResult:
    """The 2-flush sfence window hides the distance-0 RAP peak."""
    windowed = reports.curve("window=2", "sfence-window").y_at(0)
    unwindowed = reports.curve("no window (mfence-like)", "sfence-window").y_at(0)
    ok = windowed <= 300 and unwindowed >= 2000
    return PredicateResult(
        ok,
        f"distance 0: {windowed:.0f} windowed vs {unwindowed:.0f} mfence-like",
        "windowed distance-0 cost <= 300 cycles, mfence-like >= 2000",
    )



def _read_asymmetry(reports: ReportSet) -> PredicateResult:
    """Sequential reads scale with threads; random reads stay far below."""
    seq = reports.curve("seq-read")
    rand = reports.curve("rand-read")
    scaling = seq.y_at(8) / seq.y_at(1)
    ok = scaling >= 4 and rand.y_at(8) <= 0.3 * seq.y_at(8) and seq.y_at(8) > 10 * rand.y_at(1)
    return PredicateResult(
        ok,
        f"seq-read {seq.y_at(1):.2f} -> {seq.y_at(8):.2f} GB/s ({scaling:.1f}x), "
        f"rand-read {rand.y_at(1):.2f} -> {rand.y_at(8):.2f} GB/s",
        "seq-read(8)/seq-read(1) >= 4, rand-read(8) <= 0.3x seq-read(8), "
        "seq-read(8) > 10x rand-read(1)",
    )


def _g2_bandwidth(reports: ReportSet) -> PredicateResult:
    """G2's published specs: faster reads and ~1.5x nt-write bandwidth."""
    nt = reports.curve("nt-write").y_at(1)
    seq = reports.curve("seq-read").y_at(8)
    ok = 3.3 <= nt <= 4.6 and 4.5 <= seq <= 5.5
    return PredicateResult(
        ok,
        f"nt-write {nt:.2f} GB/s at 1 thread, seq-read {seq:.2f} GB/s at 8",
        "nt-write in [3.3, 4.6] and seq-read(8) in [4.5, 5.5]",
    )


CLAIMS = (
    Claim(
        id="SUP/bw-seq-read-scales",
        experiment="bandwidth", generation=1,
        claim="sequential read bandwidth scales with threads to ~3.5 GB/s",
        citation=_CITE_BW,
        check=on_series(
            "seq-read",
            all_of(monotone_rise(tol=0.0, min_gain=2.5), within(3.0, 4.0, at_x=8)),
        ),
    ),
    Claim(
        id="SUP/bw-rand-read-caps",
        experiment="bandwidth", generation=1,
        claim="random read bandwidth caps far below sequential (~0.7 GB/s)",
        citation=_CITE_BW,
        check=on_series("rand-read", within(0.55, 0.9, at_x=8)),
    ),
    Claim(
        id="SUP/bw-nt-write-flat",
        experiment="bandwidth", generation=1,
        claim="nt-write bandwidth is thread-insensitive at ~2.8 GB/s",
        citation=_CITE_BW,
        check=on_series(
            "nt-write", all_of(flat_wrt_wss(0.05), within(2.5, 3.0, at_x=1))
        ),
    ),
    Claim(
        id="SUP/bw-read-asymmetry",
        experiment="bandwidth", generation=1,
        claim="random 64 B reads waste most of the read bandwidth: whole XPLines "
              "per cacheline keep them far below sequential reads",
        citation=_CITE_BW,
        check=on_reports(_read_asymmetry),
    ),
    Claim(
        id="SUP/bw-g2-higher",
        experiment="bandwidth", generation=2,
        claim="G2 outpaces G1 on every bandwidth axis",
        citation=_CITE_BW,
        check=on_reports(_g2_bandwidth),
    ),
    Claim(
        id="SUP/interleave-read-latency-flat",
        experiment="interleave", generation=1,
        claim="interleaving does not change single-read latency",
        citation="S2, Fig. 1",
        check=on_series("random read latency (cycles)", flat_wrt_wss(0.01)),
    ),
    Claim(
        id="SUP/interleave-write-scales",
        experiment="interleave", generation=1,
        claim="6-DIMM interleaving multiplies nt-store bandwidth ~4-5.5x",
        citation="S2, Fig. 1",
        check=on_series(
            "nt-store bandwidth (GB/s, 8 threads)", span_ratio(1, 6, 4.0, 5.6)
        ),
    ),
    Claim(
        id="SUP/lock-rap-penalty-g1",
        experiment="lock", generation=1,
        claim="G1 persistent-lock handover pays the full RAP penalty",
        citation=_CITE_LOCK,
        check=on_reports(_lock_rap_g1),
    ),
    Claim(
        id="SUP/lock-g2-fixes-rap",
        experiment="lock", generation=1,
        claim="G2's eADR makes the handover >5x cheaper",
        citation=_CITE_LOCK,
        check=on_reports(_lock_g2_fixes),
    ),
    Claim(
        id="ABL/wbuf-eviction-discriminates",
        experiment="ablations", generation=1,
        claim="random vs FIFO write-buffer eviction is observable: FIFO cliffs",
        citation=_CITE_ABL,
        check=on_reports(_wbuf_eviction),
    ),
    Claim(
        id="ABL/periodic-writeback-discriminates",
        experiment="ablations", generation=1,
        claim="G1's periodic write-back is observable in full-line WA",
        citation=_CITE_ABL,
        check=on_reports(_periodic_writeback),
    ),
    Claim(
        id="ABL/transition-discriminates",
        experiment="ablations", generation=1,
        claim="the read-to-write transition is observable in media traffic",
        citation=_CITE_ABL,
        check=on_reports(_transition),
    ),
    Claim(
        id="ABL/sfence-window-discriminates",
        experiment="ablations", generation=1,
        claim="the 2-flush sfence window is observable at reuse distance 0",
        citation=_CITE_ABL,
        check=on_reports(_sfence_window),
    ),
)

