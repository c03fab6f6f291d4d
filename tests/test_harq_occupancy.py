"""The HARQ-occupancy oracle against a brute-force count, and the HARQ
sizing relation against the oracle over the benchmark's sweep grid."""
from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ntn_harq import scenario
from ntn_harq.errors import ConfigError, InfeasibleLinkError, MinDelayViolationError
from ntn_harq.harq import SF_MS, Activity, CycleParams, Direction, GrantMode, harq_for_tbphc, harq_processes
from ntn_harq.metrics import SchedulingMode, suf_closed_form
from ntn_harq.scheduler import SubframeTimeline, build_proposed_cycle

from harq_occupancy import harq_peak, hold_spans
from timeline_uses import uses

README = Path(__file__).resolve().parent.parent / "README.md"


def brute_force_peak(timeline: SubframeTimeline, params: CycleParams, direction: Direction, rtt_ms: float,
                     n_a2g: int) -> int:
    """Lay ``timeline`` out ``K`` times back to back, read every TB's hold
    off the subframes of its own cycle, and count the holds over each
    subframe of the last cycle, by then as deep as any later one."""
    period, wait = len(timeline), rtt_ms / SF_MS + n_a2g
    k_cycles = 2 + math.ceil(wait / period)  # a hold ends within a period and the wait of its cycle's start
    n_blocks = len(timeline.blocks)
    laid = SubframeTimeline(tuple((start + k * period, width, use, rank + k * n_blocks)
                                  for k in range(k_cycles) for start, width, use, rank in timeline.blocks),
                            k_cycles * period)
    last = Activity.TX_PUCCH if direction is Direction.DL else Activity.TX_PUSCH
    grants: dict[tuple[int, int | None], list[int]] = {}
    ends: dict[tuple[int, int | None], list[int]] = {}
    for sf, (activity, tb) in uses(laid):
        if activity is Activity.RX_PDCCH:
            grants.setdefault((sf // period, tb), []).append(sf)
        elif activity is last:
            ends.setdefault((sf // period, tb), []).append(sf)
    n_bundle = params.n_bundle if params.ack_bundling else 1
    holds = []
    for k, j in itertools.product(range(k_cycles), range(1, params.n_tbphc + 1)):
        first = min(grants.get((k, j)) or grants[(k, None)])
        if (k, j) in ends:
            stop = max(ends[(k, j)]) + 1
        else:  # the last SF of the group's block among the untagged feedback SFs
            stop = ends[(k, None)][((j - 1) // n_bundle + 1) * params.rep_pucch - 1] + 1
        holds.append((first, stop + wait))
    return max(sum(first <= t < end for first, end in holds) for t in range((k_cycles - 1) * period, len(laid)))


@settings(max_examples=400, deadline=None)
@given(
    direction=st.sampled_from(Direction),
    grant_mode=st.sampled_from(GrantMode),
    n=st.integers(1, 12),
    rep_pdcch=st.integers(1, 4),
    rep_data=st.integers(1, 8),
    rep_pucch=st.integers(1, 4),
    n_dg2d=st.integers(0, 3),
    n_switch=st.integers(0, 2),
    extra_min=st.integers(0, 12),
    n_bundle=st.integers(0, 4),  # 0: no bundling; bundling is drawn for DL cycles only
    rtt_ms=st.floats(0, 80) | st.integers(0, 80).map(float),  # whole milliseconds too: releases meet grants
    n_a2g=st.integers(0, 4),
)
# bundled DL feedback, two groups of three, and holds longer than the cycle
@example(direction=Direction.DL, grant_mode=GrantMode.MTBG, n=6, rep_pdcch=1, rep_data=2, rep_pucch=2, n_dg2d=1,
         n_switch=1, extra_min=2, n_bundle=3, rtt_ms=40.5, n_a2g=2)
def test_harq_peak_matches_a_brute_force_count_over_laid_out_cycles(direction, grant_mode, n, rep_pdcch, rep_data,
                                                                     rep_pucch, n_dg2d, n_switch, extra_min,
                                                                     n_bundle, rtt_ms, n_a2g):
    bundled = direction is Direction.DL and n_bundle > 0
    params = CycleParams(n_tbphc=n, rep_pdcch=rep_pdcch, rep_pdsch=rep_data, rep_pusch=rep_data, rep_pucch=rep_pucch,
                         n_switch=n_switch, n_dg2d=n_dg2d, dd2a_min=n_switch + extra_min,
                         ug2d_min=n_switch + extra_min, n_bundle=max(1, n_bundle), grant_mode=grant_mode,
                         ack_bundling=bundled)
    try:
        timeline = build_proposed_cycle(params, direction)
    except MinDelayViolationError:
        assume(False)
    assert harq_peak(timeline, params, direction, rtt_ms, n_a2g) == brute_force_peak(timeline, params, direction,
                                                                                     rtt_ms, n_a2g)


def test_harq_peak_of_a_worked_uplink_cycle():
    # 10 SFs: grants at SF 0 and 1, TB 1's data at SF 5-6 and TB 2's at 7-8,
    # so TB 1 holds SF 0-6 and TB 2 SF 1-8, both in flight over SF 1-6
    params = CycleParams(n_tbphc=2, rep_pdcch=1, rep_pusch=2, ug2d_min=3, n_switch=1)
    timeline = build_proposed_cycle(params, Direction.UL)
    assert (len(timeline), hold_spans(timeline, params, Direction.UL)) == (10, [(0, 7), (1, 9)])
    assert harq_peak(timeline, params, Direction.UL, 0.0, 0) == 2
    # a 2.5 ms round trip holds TB 2 to SF 11.5, past both grants of the next cycle
    assert harq_peak(timeline, params, Direction.UL, 2.5, 0) == 3
    # a wait of one whole period adds one process per TB
    assert harq_peak(timeline, params, Direction.UL, 0.0, 10) == 4


def _sizing_counts(table, bench_workloads) -> Counter:
    """Over the proposed points of the benchmark's sweep grid that resolve:
    where ``harq_processes`` equals the oracle's peak, is below it or above
    it, per direction, and where the peak exceeds the HARQ budget."""
    root, workloads = bench_workloads
    base = workloads.profile_raw(root, workloads.SWEEP_BASE)
    counts: Counter = Counter()
    for combo in itertools.product(*workloads.SWEEP_AXES):
        config = scenario.config_from_mapping({**base, **{k: v for update in combo for k, v in update.items()}})
        if config.mode is not SchedulingMode.PROPOSED_VARIABLE:
            continue
        try:
            rtt_ms, _, _, params = scenario.resolve(config, table)
            timeline = build_proposed_cycle(params, config.direction)
        except (ConfigError, InfeasibleLinkError):
            continue
        except MinDelayViolationError:
            counts["unbuilt"] += 1
            continue
        peak = harq_peak(timeline, params, config.direction, rtt_ms, config.n_a2g)
        relation = harq_for_tbphc(params, rtt_ms, config.n_a2g)
        side = "equal" if relation == peak else "below" if relation < peak else "above"
        counts[side, config.direction.value] += 1
        counts["over budget"] += peak > config.max_harq
    return counts


def test_harq_sizing_against_the_oracle_over_the_benchmark_sweep(table, bench_workloads):
    counts = _sizing_counts(table, bench_workloads)
    equal, below, above = (counts[side, "dl"] + counts[side, "ul"] for side in ("equal", "below", "above"))
    assert (equal, below, above, counts["over budget"], counts["unbuilt"]) == (1535, 700, 613, 644, 24)
    sentence = (
        f"Over the {equal + below + above} proposed points of the benchmark's sweep grid that resolve and lay "
        f"out, the relation equals the oracle's peak at {equal} points, is below it at {below} "
        f"({counts['below', 'dl']} DL, {counts['below', 'ul']} UL) and above it at {above}; at "
        f"{counts['over budget']} points the peak exceeds the HARQ budget."
    )
    assert sentence in " ".join(README.read_text().split())


def test_harq_sizing_against_the_oracle_on_the_shipped_profiles(table):
    rows = []
    for path in sorted((README.parent / "profiles").glob("*.cfg")):
        config = scenario.load_config(path)
        rtt_ms, _, _, params = scenario.resolve(config, table)
        timeline = build_proposed_cycle(params, config.direction)
        peak = harq_peak(timeline, params, config.direction, rtt_ms, config.n_a2g)
        rows.append(f"| `{path.stem}` | {params.n_tbphc} | {harq_for_tbphc(params, rtt_ms, config.n_a2g)} | {peak} "
                    f"| {config.max_harq} |")
    table_rows = [line for line in README.read_text().splitlines() if re.match(r"\| `leo\d+_", line)]
    assert table_rows == rows


def test_the_nbiot_fit_holds_only_under_the_relation(table):
    config = scenario.load_config(README.parent / "profiles" / "leo600_nbiot_ul.cfg")
    fit = scenario.calibrate(config, table)
    config = config._replace(cycle=config.cycle._replace(rep_pdcch=fit.rep_pdcch), n_a2g=fit.n_a2g)
    rtt_ms, _, n_rep, params = scenario.resolve(config, table)
    n = params.n_tbphc + 1  # the first count the relation refuses
    params = params._replace(n_tbphc=n)
    relation = harq_processes(config.cycle, n, n_rep, rtt_ms, config.n_a2g)
    peak = harq_peak(build_proposed_cycle(params, config.direction), params, config.direction, rtt_ms, config.n_a2g)
    assert relation > config.max_harq >= peak
    suf = suf_closed_form(params, config.direction, SchedulingMode.PROPOSED_VARIABLE)
    gain = scenario._gain_pct(config, n_rep, suf)
    protocol = config.protocol
    assert abs(gain - protocol.target_gain_pct) > protocol.gain_tolerance_pct
    sentence = (
        f"At the fitted `rep_pdcch = {fit.rep_pdcch}` on `leo600_nbiot_ul`, {n} TBs per cycle need {relation} "
        f"processes by the relation but {peak} by the oracle's peak, within the budget of {config.max_harq}; there "
        f"the gain would be {gain:.2f} %, outside {protocol.target_gain_pct:g} ± {protocol.gain_tolerance_pct:g}."
    )
    assert sentence in " ".join(README.read_text().split())
