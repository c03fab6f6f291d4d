"""Generated-input checks of the timeline builders, ``validate``,
``bs_view``, the block sweep and the export.

``reference_validate`` is the slot-by-slot form of ``validate``: every
list it builds is a scan over per-subframe slots.  The block sweep must
report exactly its findings.  ``reference_segments``,
``reference_export``, ``reference_text`` and ``reference_svg`` expand
blocks subframe by subframe the same way.
"""
from __future__ import annotations

import re
from collections import Counter
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ntn_harq.errors import InvalidInputError, MinDelayViolationError
from ntn_harq.harq import CycleParams, Direction, GrantMode, delay_guard, delay_plan, feedback_group, fixed_positions
from ntn_harq.metrics import SchedulingMode, cycle_length_closed_form, suf_closed_form
from ntn_harq.cli import render_timeline_svg, render_timeline_text
from ntn_harq.scheduler import (
    RX_ACTIVITIES,
    Activity,
    Block,
    Conflict,
    ConflictReport,
    Perspective,
    SlotUse,
    SubframeTimeline,
    bs_view,
    build_legacy_cycle,
    build_proposed_cycle,
    export_timeline,
    index_run,
    monte_carlo_goodput,
    validate,
)

from timeline_uses import uses


def reference_validate(slots: list[tuple[SlotUse, ...]], params: CycleParams) -> list[Conflict]:
    findings = [
        Conflict(sf, tuple(activity.value for activity, _ in uses), tuple(tb for _, tb in uses))
        for sf, uses in enumerate(slots)
        if len(uses) >= 2
    ]
    single = [(sf, uses[0]) for sf, uses in enumerate(slots) if len(uses) == 1]
    occupied = [(sf, u) for sf, u in single if u[0] not in (Activity.IDLE, Activity.SWITCH)]
    for (sf_a, (a, tb_a)), (sf_b, (b, tb_b)) in zip(occupied, occupied[1:]):
        if (a in RX_ACTIVITIES) == (b in RX_ACTIVITIES):
            continue
        n_sw = sum(activity is Activity.SWITCH for sf in range(sf_a + 1, sf_b) for activity, _ in slots[sf])
        if n_sw < params.n_switch:
            findings.append(Conflict(sf_b, (a.value, b.value), (tb_a, tb_b), "missing-switch"))

    def of(activity):
        """(sf, tb_index) of each singly-used slot of ``activity``."""
        return [(sf, tb) for sf, (use_activity, tb) in single if use_activity is activity]

    pdsch, pucch, pusch, grants = (of(a) for a in (Activity.RX_PDSCH, Activity.TX_PUCCH, Activity.TX_PUSCH,
                                                    Activity.RX_PDCCH))
    blocks = [sf for i, (sf, _) in enumerate(pucch) if i % params.rep_pucch == 0]  # first slot of each feedback block
    for j in sorted({tb for _, tb in pdsch if tb is not None}):
        data_end = max(sf for sf, tb in pdsch if tb == j)
        tagged = [sf for sf, tb in pucch if tb == j]
        if tagged:
            ack = min(tagged)
        elif (j - 1) // params.n_bundle < len(blocks):
            ack = blocks[(j - 1) // params.n_bundle]
        else:
            continue
        if ack - data_end - 1 < params.dd2a_min:
            findings.append(Conflict(ack, ("RxPDSCH", "TxPUCCH"), (j, j), "min-delay"))
    for j in sorted({tb for _, tb in pusch if tb is not None}):
        data_start = min(sf for sf, tb in pusch if tb == j)
        tagged = [sf for sf, tb in grants if tb == j]
        grant_end = max(tagged) if tagged else max((sf for sf, _ in grants), default=None)
        if grant_end is not None and data_start - grant_end - 1 < params.ug2d_min:
            findings.append(Conflict(data_start, ("RxPDCCH", "TxPUSCH"), (j, j), "min-delay"))
    findings.sort(key=lambda c: (c.sf_index, c.kind))
    return findings


@st.composite
def cycles(draw):
    direction = draw(st.sampled_from(Direction))
    n = draw(st.integers(1, 12))
    reps = st.integers(1, 24)
    params = CycleParams(
        n_tbphc=n,
        rep_pdcch=draw(st.integers(1, 4)),
        rep_pdsch=draw(st.one_of(st.integers(1, 3), reps)),  # often narrower than the feedback
        rep_pusch=draw(reps),
        rep_pucch=draw(st.integers(1, 6)),
        n_switch=draw(st.integers(0, 3)),
        n_dg2d=draw(st.integers(0, 3)),
        dd2a_min=draw(st.integers(0, 20)),
        ug2d_min=draw(st.integers(0, 10)),
        n_bundle=draw(st.integers(1, 4)),
        grant_mode=draw(st.sampled_from(GrantMode)),
        ack_bundling=direction is Direction.DL and draw(st.booleans()),
    )
    return params, direction


def reference_short_delay(params: CycleParams, direction: Direction) -> str | None:
    """The builder's per-TB check, written out: the message for the first
    TB whose padded delay misses the minimum, or None.  The pad is read
    off the plan (the tightest DL delay, TB 1's UL delay), not from
    ``delay_guard``, the code it checks."""
    minimum = params.dd2a_min if direction is Direction.DL else params.ug2d_min
    plan = delay_plan(params, direction)
    pad = max(0, minimum + params.n_switch - (min(plan) if direction is Direction.DL else plan[0]))
    for j, delay in enumerate(plan, 1):
        if delay + pad < minimum:
            return f"TB {j} grant-to-data delay {delay + pad} < minimum {minimum}"
    return None


@settings(max_examples=300, deadline=None)
@given(cycles(), st.sampled_from([0, 1, 7.5, 20, 41]))
def test_proposed_cycle_matches_closed_form_and_validates(cycle, rtt_ms):
    params, direction = cycle
    try:
        timeline = build_proposed_cycle(params, direction)
    except MinDelayViolationError as exc:
        assert direction is Direction.UL  # padded DL delays always meet the minimum
        assert str(exc) == reference_short_delay(params, direction)
        return
    assert reference_short_delay(params, direction) is None
    assert len(timeline) == cycle_length_closed_form(params, direction, SchedulingMode.PROPOSED_VARIABLE)
    assert validate(timeline, params).conflicts == ()
    view = bs_view(timeline, rtt_ms)
    assert Counter(u for _, u in uses(view)) == Counter(u for _, u in uses(timeline))


# grant blocks 8 SFs wide against 1-SF data: the UL delays fall 42, 35, 28, so TB 3 is the first short one
TB3_SHORT_UL = (CycleParams(n_tbphc=6, rep_pdcch=8, rep_pdsch=1, rep_pusch=1, n_switch=2, ug2d_min=35),
                       Direction.UL)


def _refusal(lay_out, params: CycleParams, direction: Direction) -> str | None:
    try:
        lay_out(params, direction)
    except MinDelayViolationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(cycles())
@example(TB3_SHORT_UL)
def test_closed_form_refuses_exactly_the_cycles_the_builder_refuses(cycle):
    params, direction = cycle
    closed_form = _refusal(lambda p, d: cycle_length_closed_form(p, d, SchedulingMode.PROPOSED_VARIABLE),
                           params, direction)
    assert closed_form == _refusal(build_proposed_cycle, params, direction)


def _one_tb(cycle: tuple[CycleParams, Direction]) -> tuple[CycleParams, Direction]:
    params, direction = cycle
    return params._replace(n_tbphc=1), direction


@settings(max_examples=300, deadline=None)
@given(cycles().map(_one_tb))
def test_legacy_closed_form_matches_the_legacy_builder(cycle):
    # the builder places the fixed delay block by block, apart from the closed form
    params, direction = cycle
    built = build_legacy_cycle(params, direction)
    assert isinstance(built, SubframeTimeline)  # one TB never double-books a subframe
    assert len(built) == cycle_length_closed_form(params, direction, SchedulingMode.LEGACY_FIXED)


def reference_legacy_claims(params: CycleParams, direction: Direction) -> list[tuple[int, int, SlotUse]]:
    """The legacy policy written out, in claim order: DL one untagged grant
    at 0, data back to back after it and each TB's feedback at the fixed
    delay from its last data SF; UL grant j at ``(j-1)*rep_pusch`` (paced
    at the data period), then its data at the fixed delay from the grant's
    last SF."""
    p, tbs = params.rep_pdcch, range(1, params.n_tbphc + 1)
    if direction is Direction.DL:
        r, data = params.rep_pdsch, params.rep_pdcch + params.n_dg2d
        return ([(0, p, (Activity.RX_PDCCH, None))]
                + [(data + (j - 1) * r, r, (Activity.RX_PDSCH, j)) for j in tbs]
                + [(fixed_positions(data + j * r - 1, params.dd2a_min), params.rep_pucch,
                    (Activity.TX_PUCCH, j)) for j in tbs])
    r = params.rep_pusch
    return [claim for j in tbs for claim in (
        ((j - 1) * r, p, (Activity.RX_PDCCH, j)),
        (fixed_positions((j - 1) * r + p - 1, params.ug2d_min), r, (Activity.TX_PUSCH, j)),
    )]


@settings(max_examples=300, deadline=None)
@given(cycles())
def test_legacy_cycle_lays_out_the_fixed_delay_policy_in_claim_order(cycle):
    params, direction = cycle
    expected = reference_legacy_claims(params, direction)
    for grant_mode in GrantMode:  # the legacy policy reads neither field, bar refusing uplink bundling
        for ack_bundling in (False, True):
            varied = params._replace(grant_mode=grant_mode, ack_bundling=ack_bundling)
            if ack_bundling and direction is Direction.UL:
                with pytest.raises(InvalidInputError, match="^feedback bundling applies to downlink cycles only$"):
                    build_legacy_cycle(varied, direction)
                continue
            built = build_legacy_cycle(varied, direction)
            attempt = built.attempt if isinstance(built, ConflictReport) else built
            # switch blocks rank after every claim, so rank order is claim order
            claims = sorted((b for b in attempt.blocks if b[2][0] is not Activity.SWITCH), key=lambda b: b[3])
            assert [(start, width, use) for start, width, use, _ in claims] == expected


@settings(max_examples=200, deadline=None)
@given(cycles(), st.sampled_from([0, 7.5, 41]), st.data())
def test_ranks_do_not_change_the_output_of_a_conflict_free_cycle(cycle, rtt_ms, data):
    # no two blocks of a built proposed cycle share a subframe, so the claim
    # order that ranks record never decides what a subframe shows
    params, direction = cycle
    assume(reference_short_delay(params, direction) is None)
    timeline = build_proposed_cycle(params, direction)
    ranks = data.draw(st.permutations(range(len(timeline.blocks))))
    reranked = SubframeTimeline(
        tuple(sorted(((start, width, use, rank) for (start, width, use, _), rank in zip(timeline.blocks, ranks)),
                     key=lambda b: (b[0], b[3]))),
        timeline.length,
    )
    for ours, theirs in ((timeline, reranked), (bs_view(timeline, rtt_ms), bs_view(reranked, rtt_ms))):
        for write in (export_timeline, render_timeline_text, render_timeline_svg):
            assert write(theirs) == write(ours)


# every library function other than the builders (below) that takes a
# cycle and its direction, each with a cycle it would otherwise accept:
# the fixed-delay forms need one TB
_CYCLE_ENTRY_POINTS = [
    pytest.param(1, feedback_group, id="feedback_group"),
    pytest.param(2, delay_plan, id="delay_plan"),
    pytest.param(2, delay_guard, id="delay_guard"),
    *(pytest.param(n, partial(form, mode=mode), id=f"{form.__name__}-{mode.value}")
      for form in (cycle_length_closed_form, suf_closed_form)
      for n, mode in ((1, SchedulingMode.LEGACY_FIXED), (2, SchedulingMode.PROPOSED_VARIABLE))),
    pytest.param(2, partial(monte_carlo_goodput, bler_per_attempt=[0.1], n_cycles=1, seed=0, tbs_bits=504),
                 id="monte_carlo_goodput"),
]


def _refuses_ul_bundling(n_tbphc, entry_point):
    params = CycleParams(n_tbphc=n_tbphc, ack_bundling=True, n_bundle=2)
    entry_point(params._replace(ack_bundling=False), Direction.UL)  # accepted without the flag
    with pytest.raises(InvalidInputError, match="^feedback bundling applies to downlink cycles only$"):
        entry_point(params, Direction.UL)


@pytest.mark.parametrize("n_tbphc, entry_point", _CYCLE_ENTRY_POINTS)
def test_each_entry_point_refuses_ul_bundling(n_tbphc, entry_point):
    _refuses_ul_bundling(n_tbphc, entry_point)


@pytest.mark.parametrize("n_tbphc, build", [(1, build_legacy_cycle), (2, build_proposed_cycle)],
                         ids=["build_legacy_cycle", "build_proposed_cycle"])
def test_both_builders_refuse_an_uplink_cycle_that_bundles_feedback(n_tbphc, build):
    # through harq.feedback_group, as the closed forms do, so no builder lays
    # out a cycle whose length the closed form refuses
    _refuses_ul_bundling(n_tbphc, build)


def _padded_delays(timeline: SubframeTimeline, params: CycleParams, direction: Direction) -> list[int]:
    """Each TB's delay as laid out: DL from its last data SF to the first SF
    of its feedback (of its group's feedback block when bundled), UL from
    the end of the j-th grant's slot ``j*p - 1`` to its first data SF."""
    listed = uses(timeline)
    if direction is Direction.UL:
        starts = {}
        for sf, (activity, tb) in listed:
            if activity is Activity.TX_PUSCH:
                starts.setdefault(tb, sf)
        return [starts[j] - (j * params.rep_pdcch - 1) - 1 for j in range(1, params.n_tbphc + 1)]
    data_end = {tb: sf for sf, (activity, tb) in listed if activity is Activity.RX_PDSCH}
    feedback = [(sf, tb) for sf, (activity, tb) in listed if activity is Activity.TX_PUCCH]
    if params.ack_bundling:  # the k-th block of rep_pucch feedback SFs answers the k-th group
        blocks = [sf for i, (sf, _) in enumerate(feedback) if i % params.rep_pucch == 0]
        ack = {j: blocks[(j - 1) // params.n_bundle] for j in data_end}
    else:
        ack = {}
        for sf, j in feedback:
            ack.setdefault(j, sf)
    return [ack[j] - data_end[j] - 1 for j in range(1, params.n_tbphc + 1)]


@settings(max_examples=300, deadline=None)
@given(cycles())
def test_every_tb_sits_its_planned_delay_plus_the_guard_from_its_anchor(cycle):
    params, direction = cycle
    assume(reference_short_delay(params, direction) is None)  # refusals: the test above
    timeline = build_proposed_cycle(params, direction)
    pad = delay_guard(params, direction)
    assert _padded_delays(timeline, params, direction) == [d + pad for d in delay_plan(params, direction)]


@settings(max_examples=500, deadline=None)
@given(
    n=st.integers(1, 24),
    rep_pdsch=st.integers(1, 8),
    extra_pucch=st.one_of(st.integers(-7, 0), st.integers(1, 8)),  # wider feedback than data half the time
    n_bundle=st.integers(1, 4),
    ack_bundling=st.booleans(),
    n_switch=st.integers(0, 3),
    dd2a_min=st.integers(0, 400),  # up to past the longest wait drawn, so the guard is mostly positive
)
# the last TB of the last whole bundle group is the tightest: waits 3, vs 4 (last TB) and 5 (first group)
@example(n=9, rep_pdsch=1, extra_pucch=1, n_bundle=4, ack_bundling=True, n_switch=1, dd2a_min=10)
def test_dl_delay_guard_pads_from_the_tightest_delay(n, rep_pdsch, extra_pucch, n_bundle, ack_bundling, n_switch,
                                                    dd2a_min):
    params = CycleParams(n_tbphc=n, rep_pdsch=rep_pdsch, rep_pucch=max(1, rep_pdsch + extra_pucch),
                         n_bundle=n_bundle, ack_bundling=ack_bundling, n_switch=n_switch, dd2a_min=dd2a_min)
    tightest = min(delay_plan(params, Direction.DL)) - n_switch
    assert delay_guard(params, Direction.DL) == max(0, dd2a_min - tightest)


@settings(max_examples=500, deadline=None)
@given(
    direction=st.sampled_from(Direction),
    n=st.integers(1, 40),
    rep_pdcch=st.integers(1, 24),
    rep_data=st.integers(1, 24),
    n_switch=st.integers(0, 4),
    min_delay=st.integers(0, 200),
)
# grant blocks 8 SFs wide against 1-SF data: the delays fall 42, 35, 28, so TB 3 is the first short one
@example(direction=Direction.UL, n=6, rep_pdcch=8, rep_data=1, n_switch=2, min_delay=35)
def test_min_delay_check_matches_the_per_tb_reference(direction, n, rep_pdcch, rep_data, n_switch, min_delay):
    params = CycleParams(n_tbphc=n, rep_pdcch=rep_pdcch, rep_pdsch=rep_data, rep_pusch=rep_data, n_switch=n_switch,
                         dd2a_min=min_delay, ug2d_min=min_delay)
    message = reference_short_delay(params, direction)
    if message is None:
        delay_guard(params, direction)
    else:
        with pytest.raises(MinDelayViolationError, match=f"^{re.escape(message)}$"):
            delay_guard(params, direction)


slot_uses = st.tuples(st.sampled_from(Activity), st.sampled_from([None, 1, 2, 3]))


def _covering(blocks: list[Block], length: int) -> list[list[Block]]:
    """The blocks covering each subframe, in rank order."""
    covering: list[list[Block]] = [[] for _ in range(length)]
    for block in sorted(blocks, key=lambda b: b[3]):
        start, width, _, _ = block
        for sf in range(start, start + width):
            covering[sf].append(block)
    return covering


def reference_segments(blocks: list[Block], length: int) -> list[tuple[int, int, tuple[SlotUse, ...]]]:
    """Maximal runs of subframes covered by the same blocks."""
    segments: list[tuple[int, int, tuple[SlotUse, ...]]] = []
    runs: list[list[Block]] = []
    for sf, covered in enumerate(_covering(blocks, length)):
        if segments and covered == runs[-1]:
            first, _, uses = segments[-1]
            segments[-1] = (first, sf + 1, uses)
        else:
            segments.append((sf, sf + 1, tuple(use for _, _, use, _ in covered)))
            runs.append(covered)
    return segments


def reference_export(blocks: list[Block], length: int, perspective: Perspective, origin: int) -> str:
    lines = []
    for sf, covered in enumerate(_covering(blocks, length)):
        for activity, tb in [use for _, _, use, _ in covered] or [(Activity.IDLE, None)]:
            tb = "" if tb is None else tb
            lines.append(f"{origin + sf},{perspective.value},{activity.value},{tb},{tb}\n")
    return "".join(lines) or "\n"


@st.composite
def block_layouts(draw):
    """Blocks of widths 1-6, each placed from the end of the one before:
    overlapping it, touching it or after a gap, in a random claim order."""
    placed = []
    end = 0
    for _ in range(draw(st.integers(0, 10))):
        start = max(0, end + draw(st.integers(-4, 3)))
        width = draw(st.integers(1, 6))
        placed.append((start, width, draw(slot_uses)))
        end = start + width
    ranks = draw(st.permutations(range(len(placed))))
    blocks = sorted(((start, width, use, rank) for (start, width, use), rank in zip(placed, ranks)),
                    key=lambda b: (b[0], b[3]))
    length = max((start + width for start, width, _, _ in blocks), default=0) + draw(st.integers(0, 3))
    return blocks, length


@settings(max_examples=500, deadline=None)
@given(
    block_layouts(),
    st.fixed_dictionaries({"n_switch": st.integers(0, 2), "dd2a_min": st.integers(0, 5), "ug2d_min": st.integers(0, 5),
                           "n_bundle": st.integers(1, 3),
                           "rep_pucch": st.integers(1, 3)}).map(lambda fields: CycleParams(**fields)),
)
# two touching untagged feedback blocks answer TB 1 and TB 2: one run of feedback would answer TB 1 only
@example(([(0, 1, (Activity.RX_PDSCH, 1), 0), (1, 1, (Activity.RX_PDSCH, 2), 1)]
          + [(sf, 1, (Activity.TX_PUCCH, None), sf) for sf in range(2, 6)], 6),
         CycleParams(rep_pucch=2, n_switch=0, dd2a_min=5))
def test_validate_matches_slot_reference(layout, params):
    blocks, length = layout
    slots = [tuple(use for _, _, use, _ in covered) for covered in _covering(blocks, length)]
    timeline = SubframeTimeline(tuple(blocks), length)
    assert list(validate(timeline, params).conflicts) == reference_validate(slots, params)


@settings(max_examples=400, deadline=None)
@given(block_layouts(), st.sampled_from(Perspective), st.integers(-1500, 2500).filter(bool))
# one PDSCH run crosses SF 1000, where the index gains a digit
@example(([(0, 30, (Activity.RX_PDSCH, 1), 0)], 40), Perspective.UE, 995)
# overlapping uses, then an idle run from SF -119 across -100 and 0
@example(([(0, 3, (Activity.TX_PUCCH, None), 1), (1, 5, (Activity.RX_PDSCH, 2), 0)], 150), Perspective.BS, -125)
def test_block_sweep_and_export_match_subframe_expansion(layout, perspective, origin):
    blocks, length = layout
    timeline = SubframeTimeline(tuple(blocks), length, perspective, origin)
    assert timeline.segments == reference_segments(blocks, length)
    assert export_timeline(timeline) == reference_export(blocks, length, perspective, origin)


csv_tails = st.builds(lambda view, activity, tb: f",{view},{activity},{tb},{tb}\n", st.sampled_from(["UE", "BS"]),
                      st.sampled_from([a.value for a in Activity]), st.sampled_from(["", "1", "512"]))
# starts just below an index where the run changes how it writes (-100
# for the text header, 0 for repr, each thousand for a new head)
near_a_boundary = st.builds(lambda boundary, offset: boundary + offset,
                            st.sampled_from([-2000, -1000, -100, 0, 1000, 2000, 10_000, 100_000, 199_000]),
                            st.integers(-40, 5))


@settings(max_examples=400, deadline=None)
@given(st.integers(-3000, 200_000) | near_a_boundary,
       st.integers(0, 2500) | st.integers(0, 50),  # short runs, most of an export's, as often as long ones
       st.just("") | csv_tails)
@example(-125, 2500, "")  # across -100, 0, 1000 and 2000
@example(-3000, 2500, ",BS,Idle,,\n")  # negative indices only
@example(995, 10, ",UE,RxPDSCH,1,1\n")
@example(200_000, 0, "")  # an empty run
@example(999, 1, "")  # stops where the thousands start
def test_index_run_matches_one_format_per_index(first, length, tail):
    assert index_run(first, first + length, tail) == "".join(f"{i}{tail}" for i in range(first, first + length))


@pytest.mark.parametrize("direction", Direction)
def test_largest_benchmark_cycles_export_and_head_their_text_grid_per_subframe(direction):
    """The benchmark's largest cycles, n512 at 24 repetitions, and their BS
    views at 20 ms, whose origin is negative: the export equals the per-SF
    reference, and the text grid's header is ``"%3d"`` of every index,
    4-digit columns included."""
    ue = build_proposed_cycle(CycleParams(n_tbphc=512, rep_pdsch=24, rep_pusch=24), direction)
    bs = bs_view(ue, 20.0)
    assert bs.origin < 0 and len(ue) > 1000
    for timeline in (ue, bs):
        n, origin = len(timeline), timeline.origin
        assert export_timeline(timeline) == reference_export(list(timeline.blocks), n, timeline.perspective, origin)
        header = render_timeline_text(timeline).split("\n", 1)[0]
        assert header == "sf      " + ("%3d" * n) % tuple(range(origin, origin + n))


# (label, activity) of each row of the text grid, top to bottom
TEXT_ROWS = (("PDCCH", Activity.RX_PDCCH), ("PDSCH", Activity.RX_PDSCH), ("PUCCH", Activity.TX_PUCCH),
             ("PUSCH", Activity.TX_PUSCH), ("switch", Activity.SWITCH))


def conflict_clock(perspective: Perspective) -> str:
    """The clock of a conflict line: conflicts are found on the UE's, so a
    BS view names it."""
    return "SF" if perspective is Perspective.UE else "UE SF"


def reference_text(blocks: list[Block], length: int, origin: int, report: ConflictReport | None,
                   perspective: Perspective) -> str:
    """The text grid written cell by cell: a row's cell shows the last use
    of its channel among the uses covering that subframe, in rank order."""
    covering = _covering(blocks, length)
    lines = ["sf      " + "".join(f"{origin + sf:>3}" for sf in range(length))]
    for label, activity in TEXT_ROWS:
        row = label.ljust(8)
        for covered in covering:
            marks = ["#" if tb is None else str(tb)
                     for _, _, (use_activity, tb), _ in covered if use_activity is activity]
            row += f"{marks[-1] if marks else '':>3}"
        lines.append(row)
    for c in report.conflicts if report is not None else ():
        tbs = ",".join("-" if t is None else str(t) for t in c.tb_indices)
        lines.append(f"! {c.kind} at {conflict_clock(perspective)} {c.sf_index}: {' / '.join(c.activities)} (tb {tbs})")
    return "\n".join(lines) + "\n"


conflict_reports = st.none() | st.lists(st.builds(
    Conflict,
    st.integers(-200, 1200),
    st.lists(st.sampled_from([a.value for a in Activity]), min_size=1, max_size=3).map(tuple),
    st.lists(st.sampled_from([None, 1, 2, 3]), min_size=1, max_size=3).map(tuple),
    st.sampled_from(["double-booking", "missing-switch", "min-delay"]),
), max_size=3).map(lambda conflicts: ConflictReport(tuple(conflicts)))


@settings(max_examples=400, deadline=None)
@given(block_layouts(), st.integers(-1200, 1200), conflict_reports, st.sampled_from(Perspective))
# two PDSCH uses share SFs 1-2: the later-ranked TB 1 shows there, and the grid pads out to SF 4
@example(([(0, 3, (Activity.RX_PDSCH, 1), 1), (1, 3, (Activity.RX_PDSCH, 2), 0)], 6), 0, None, Perspective.UE)
# an untagged feedback block between idle subframes, with a conflict line on the UE clock of a BS view
@example(([(2, 2, (Activity.TX_PUCCH, None), 0)], 7), -3,
         ConflictReport((Conflict(2, ("TxPUCCH", "RxPDSCH"), (None, 1)),)), Perspective.BS)
def test_text_grid_matches_the_per_subframe_reference(layout, origin, report, perspective):
    blocks, length = layout
    timeline = SubframeTimeline(tuple(blocks), length, perspective, origin)
    assert render_timeline_text(timeline, report) == reference_text(blocks, length, origin, report, perspective)


# (label, activity, fill) of each row of the SVG grid, top to bottom
SVG_ROWS = tuple((label, activity, fill) for (label, activity), fill
                 in zip(TEXT_ROWS, ("#4c78a8", "#72b7b2", "#f58518", "#e45756", "#b0b0b0")))


def reference_svg(blocks: list[Block], length: int, origin: int, report: ConflictReport | None,
                  perspective: Perspective) -> str:
    """The SVG grid written cell by cell: each subframe's index label, then
    per row, top to bottom, a rect (and a TB label when tagged) for every
    use of that row's channel covering the subframe, in rank order."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{70 + 18 * length + 10}" height="{24 + 22 * 5 + 40}" '
             'font-family="monospace" font-size="10">']
    parts += [f'<text x="4" y="{24 + 22 * row + 14}">{label}</text>' for row, (label, _, _) in enumerate(SVG_ROWS)]
    for sf, covered in enumerate(_covering(blocks, length)):
        x = 70 + 18 * sf
        parts.append(f'<text x="{x + 3}" y="16">{origin + sf}</text>')
        for row, (_, activity, fill) in enumerate(SVG_ROWS):
            y = 24 + 22 * row
            for _, _, (use_activity, tb), _ in covered:
                if use_activity is activity:
                    parts.append(f'<rect x="{x}" y="{y}" width="17" height="21" fill="{fill}"/>')
                    if tb is not None:
                        parts.append(f'<text x="{x + 5}" y="{y + 14}" fill="white">{tb}</text>')
    y = 24 + 22 * 5 + 16
    for c in report.conflicts if report is not None else ():
        parts.append(f'<text x="4" y="{y}" fill="#c00">{c.kind} at {conflict_clock(perspective)} {c.sf_index}: '
                     f'{" / ".join(c.activities)}</text>')
        y += 14
    return "".join(parts) + "</svg>\n"


@settings(max_examples=300, deadline=None)
@given(block_layouts(), st.integers(-1200, 1200), conflict_reports, st.sampled_from(Perspective))
# two PDSCH uses share SFs 1-2, both drawn there in rank order, between idle subframes
@example(([(0, 3, (Activity.RX_PDSCH, 1), 1), (1, 3, (Activity.RX_PDSCH, 2), 0)], 6), 0, None, Perspective.UE)
# an untagged feedback block draws rects without TB labels, with a conflict line on the UE clock of a BS view
@example(([(2, 2, (Activity.TX_PUCCH, None), 0)], 7), -3,
         ConflictReport((Conflict(2, ("TxPUCCH", "RxPDSCH"), (None, 1)),)), Perspective.BS)
def test_svg_grid_matches_the_per_subframe_reference(layout, origin, report, perspective):
    blocks, length = layout
    timeline = SubframeTimeline(tuple(blocks), length, perspective, origin)
    assert render_timeline_svg(timeline, report) == reference_svg(blocks, length, origin, report, perspective)


@settings(max_examples=100, deadline=None)
@given(cycles(), st.sampled_from([0, 7.5, 41]))
def test_built_cycles_hold_plain_tuple_blocks(cycle, rtt_ms):
    params, direction = cycle
    legacy = build_legacy_cycle(params, direction)
    built = [legacy.attempt if isinstance(legacy, ConflictReport) else legacy]
    if reference_short_delay(params, direction) is None:
        built.append(build_proposed_cycle(params, direction))
    built += [bs_view(timeline, rtt_ms) for timeline in built]
    for timeline in built:
        assert all(type(block) is tuple for block in timeline.blocks)
        # every use is a plain (activity, tb_index) pair
        for _, _, use, _ in timeline.blocks:
            assert type(use) is tuple and len(use) == 2
            assert type(use[0]) is Activity and (use[1] is None or type(use[1]) is int)
