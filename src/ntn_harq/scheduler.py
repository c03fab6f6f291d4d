"""Subframe timeline construction and checking for HARQ cycles.

Timelines are UE-perspective by default: each 1 ms slot holds at most one
activity on a half-duplex UE, and that single-occupancy rule is exactly
what conflict detection checks.  The legacy builder lays transport blocks
out contiguously with the fixed delays and reports any slot claimed twice;
the proposed builder uses the per-TB variable delays and is conflict-free
by construction.

A timeline is stored as blocks, one per repeated transmission: a use that
claims ``width`` consecutive subframes from ``start``, kept sorted by
start.  Consumers sweep the block endpoints once
(``SubframeTimeline.segments``), so laying out, validating and shifting a
cycle cost O(n log n) in its number of blocks whatever the repetition
counts, and the exports do per-subframe work only for the text they
write.  ``SubframeTimeline.slots`` expands the per-subframe view on demand.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush
from operator import attrgetter
from typing import NamedTuple, Sequence

from .errors import InvalidInputError, MinDelayViolationError
from .harq import SF_MS, SF_SECONDS, CycleParams, Direction, GrantMode, delay_plan, fixed_positions


class Activity(Enum):
    RX_PDCCH = "RxPDCCH"
    RX_PDSCH = "RxPDSCH"
    TX_PUCCH = "TxPUCCH"
    TX_PUSCH = "TxPUSCH"
    SWITCH = "Switch"
    IDLE = "Idle"

    # members are singletons, so identity hashing is consistent with
    # equality and skips Enum's Python-level __hash__ in the sweeps
    __hash__ = object.__hash__


RX_ACTIVITIES = frozenset({Activity.RX_PDCCH, Activity.RX_PDSCH})
TX_ACTIVITIES = frozenset({Activity.TX_PUCCH, Activity.TX_PUSCH})


class Perspective(Enum):
    UE = "UE"
    BS = "BS"


class SlotUse(NamedTuple):
    """One activity claiming one subframe."""

    activity: Activity
    tb_index: int | None = None
    harq_id: int | None = None


_SWITCH = SlotUse(Activity.SWITCH)

Segment = tuple[int, int, tuple[SlotUse, ...]]


class Block(NamedTuple):
    """``use`` claiming ``width`` subframes from position ``start``.  Uses
    that share a subframe are listed in ascending ``rank``, the order in
    which they were claimed."""

    start: int
    width: int
    use: SlotUse
    rank: int


_by_position = attrgetter("start", "rank")


@dataclass(frozen=True)
class SubframeTimeline:
    """``length`` subframes holding ``blocks`` sorted by position; a
    subframe no block covers is idle, one covered twice or more is the
    half-duplex conflict.  ``origin`` offsets positions to time indices
    (BS views can start before the UE's SF 0)."""

    blocks: tuple[Block, ...]
    length: int
    perspective: Perspective = Perspective.UE
    origin: int = 0

    @classmethod
    def from_slots(
        cls,
        slots: Sequence[Sequence[SlotUse]],
        perspective: Perspective = Perspective.UE,
        origin: int = 0,
    ) -> SubframeTimeline:
        """A timeline from per-subframe uses, one block per use."""
        claims = [(sf, use) for sf, uses in enumerate(slots) for use in uses]
        blocks = tuple(Block(sf, 1, use, rank) for rank, (sf, use) in enumerate(claims))
        return cls(blocks, len(slots), perspective, origin)

    def __len__(self) -> int:
        return self.length

    @cached_property
    def segments(self) -> list[Segment]:
        """``(first, stop, uses)`` for each run of positions covered by the
        same blocks, in order from 0 to ``length``; idle runs have no uses.
        One sweep over the block endpoints, made on first use."""
        out: list[Segment] = []
        active: dict[int, SlotUse] = {}  # rank -> use, for the blocks covering pos
        ends: list[tuple[int, int]] = []  # heap of (stop, rank) over the same blocks
        pos = 0
        for start, width, use, rank in [*self.blocks, (self.length, 0, None, -1)]:
            while pos < start:
                stop = ends[0][0] if ends and ends[0][0] < start else start
                if len(active) > 1:
                    out.append((pos, stop, tuple(active[r] for r in sorted(active))))
                else:
                    out.append((pos, stop, tuple(active.values())))
                pos = stop
                while ends and ends[0][0] == pos:
                    del active[heappop(ends)[1]]
            active[rank] = use
            heappush(ends, (start + width, rank))
        return out

    @property
    def slots(self) -> list[tuple[SlotUse, ...]]:
        """The uses of every position, expanded from the blocks."""
        out: list[tuple[SlotUse, ...]] = []
        for first, stop, uses in self.segments:
            out.extend([uses] * (stop - first))
        return out

    def uses(self) -> list[tuple[int, SlotUse]]:
        """All (time_index, use) pairs in slot order."""
        return [
            (self.origin + sf, use)
            for first, stop, uses in self.segments
            for sf in range(first, stop)
            for use in uses
        ]


@dataclass(frozen=True)
class Conflict:
    sf_index: int
    activities: tuple[str, ...]
    tb_indices: tuple[int | None, ...]
    kind: str = "double-booking"


@dataclass(frozen=True)
class ConflictReport:
    """Empty ``conflicts`` means the schedule is feasible for an HD-FDD UE.

    ``attempt`` carries the laid-out (possibly double-booked) timeline so
    callers can render what was tried.
    """

    conflicts: tuple[Conflict, ...]
    attempt: SubframeTimeline | None = None

    def __bool__(self) -> bool:
        return bool(self.conflicts)


# ---------------------------------------------------------------------------
# layout assembly


def _double_bookings(first: int, stop: int, uses: tuple[SlotUse, ...]) -> list[Conflict]:
    activities = tuple(u.activity.value for u in uses)
    tb_indices = tuple(u.tb_index for u in uses)
    return [Conflict(sf, activities, tb_indices) for sf in range(first, stop)]


def _lay_out(claims: list[tuple[int, int, SlotUse]], n_switch: int) -> tuple[SubframeTimeline, list[Conflict]]:
    """The timeline of ``(start, width, use)`` claims, ranked in list order,
    and every subframe claimed twice or more.

    A conflict-free layout gets a switch block at the end of every gap
    between an Rx and a Tx block, as wide as ``n_switch`` or the gap, plus
    a trailing block of ``n_switch`` subframes; a conflicting one is
    returned as attempted.
    """
    blocks = sorted((Block(*claim, rank) for rank, claim in enumerate(claims)), key=_by_position)
    length = max(b.start + b.width for b in blocks)
    switches = []
    for a, b in zip(blocks, blocks[1:]):
        gap = b.start - a.start - a.width
        if gap < 0:  # sorted by start, any overlap shows up between neighbours
            attempt = SubframeTimeline(tuple(blocks), length)
            return attempt, [c for seg in attempt.segments if len(seg[2]) >= 2 for c in _double_bookings(*seg)]
        if gap and n_switch and (a.use.activity in RX_ACTIVITIES) != (b.use.activity in RX_ACTIVITIES):
            width = min(n_switch, gap)
            switches.append(Block(b.start - width, width, _SWITCH, len(blocks) + len(switches)))
    if n_switch:
        switches.append(Block(length, n_switch, _SWITCH, len(blocks) + len(switches)))
    return SubframeTimeline(tuple(sorted(blocks + switches, key=_by_position)), length + n_switch), []


# ---------------------------------------------------------------------------
# legacy fixed-delay cycles


def _legacy_claims(params: CycleParams, direction: Direction) -> list[tuple[int, int, SlotUse]]:
    p = params.rep_pdcch
    claims = []
    if direction is Direction.DL:
        reps = params.pdsch_reps
        claims.append((0, p, SlotUse(Activity.RX_PDCCH)))
        start = p + params.n_dg2d
        ends = []
        for j, r in enumerate(reps, 1):
            claims.append((start, r, SlotUse(Activity.RX_PDSCH, j, j)))
            ends.append(start + r - 1)
            start += r
        for j, data_end in enumerate(ends, 1):
            ack = fixed_positions(data_end, params.dd2a_min)
            claims.append((ack, params.rep_pucch, SlotUse(Activity.TX_PUCCH, j, j)))
    else:
        reps = params.pusch_reps
        grant_start = 0
        for j, r in enumerate(reps, 1):
            claims.append((grant_start, p, SlotUse(Activity.RX_PDCCH, j, j)))
            data = fixed_positions(grant_start + p - 1, params.ug2d_min)
            claims.append((data, r, SlotUse(Activity.TX_PUSCH, j, j)))
            # grants are paced at the data period so the granted blocks
            # land back to back
            grant_start += r
    return claims


def build_legacy_cycle(
    params: CycleParams, direction: Direction
) -> SubframeTimeline | ConflictReport:
    """Lay out one fixed-delay cycle.

    Transport blocks are scheduled contiguously and their feedback (DL) or
    granted data (UL) sits at the fixed delay.  If any two activities claim
    the same slot the attempt is returned as a ConflictReport instead of a
    timeline; with a single TB the cycle always succeeds.
    """
    timeline, conflicts = _lay_out(_legacy_claims(params, direction), params.n_switch)
    if conflicts:
        return ConflictReport(conflicts=tuple(conflicts), attempt=timeline)
    return timeline


# ---------------------------------------------------------------------------
# proposed variable-delay cycles


def build_proposed_cycle(params: CycleParams, direction: Direction) -> SubframeTimeline:
    """Lay out one variable-delay cycle.

    Grant blocks come first (one per TB under STBG, one per cycle under
    MTBG), data blocks sit back to back, and every feedback (DL) or data
    (UL) position is its anchor plus the per-TB variable delay.  When the
    packed delay of the tightest TB falls under the mandatory minimum, all
    delays are padded by the shortfall, which is exactly the guard term of
    the closed-form cycle length.

    Raises MinDelayViolationError when some TB's realized delay stays
    below the minimum even after that padding.
    """
    n = params.n_tbphc
    p = params.rep_pdcch
    n_grants = 1 if params.grant_mode is GrantMode.MTBG else n
    plan = delay_plan(params, direction)
    claims = []
    for g in range(n_grants):
        tb = None if params.grant_mode is GrantMode.MTBG else g + 1
        claims.append((g * p, p, SlotUse(Activity.RX_PDCCH, tb, tb)))

    if direction is Direction.DL:
        # the last TB's delay is the switch gap plus its wait for the
        # feedback of every earlier TB (or bundle group)
        pad = max(0, params.dd2a_min - (plan[-1] - params.n_switch))
        start = n_grants * p + params.n_dg2d
        placed_acks = set()
        for j, r in enumerate(params.pdsch_reps, 1):
            claims.append((start, r, SlotUse(Activity.RX_PDSCH, j, j)))
            data_end = start + r - 1
            realized = plan[j - 1] + pad
            if realized < params.dd2a_min:
                raise MinDelayViolationError(
                    f"TB {j} data-to-feedback delay {realized} < minimum {params.dd2a_min}"
                )
            ack = fixed_positions(data_end, realized)
            if params.ack_bundling:
                if ack not in placed_acks:  # one block acknowledges the bundle
                    claims.append((ack, params.rep_pucch, SlotUse(Activity.TX_PUCCH)))
                    placed_acks.add(ack)
            else:
                claims.append((ack, params.rep_pucch, SlotUse(Activity.TX_PUCCH, j, j)))
            start += r
    else:
        pad = max(0, params.ug2d_min - (n - 1) * p)
        for j, r in enumerate(params.pusch_reps, 1):
            # delays are defined against the j-th grant's end; an MTBG
            # cycle keeps the same clock, idling where those grants would
            # sit, so the anchor is the same in both modes
            anchor = j * p - 1
            realized = plan[j - 1] + pad
            if realized < params.ug2d_min:
                raise MinDelayViolationError(
                    f"TB {j} grant-to-data delay {realized} < minimum {params.ug2d_min}"
                )
            claims.append((fixed_positions(anchor, realized), r, SlotUse(Activity.TX_PUSCH, j, j)))

    timeline, conflicts = _lay_out(claims, params.n_switch)
    if conflicts:  # construction guarantees this never happens
        raise AssertionError(f"variable-delay layout double-booked: {conflicts[0]}")
    return timeline


# ---------------------------------------------------------------------------
# checking


def validate(timeline: SubframeTimeline, params: CycleParams) -> ConflictReport:
    """Report every feasibility defect in a UE-perspective timeline:
    double-booked slots, data/feedback or grant/data separations below the
    mandatory minimums, and Rx<->Tx transitions short of switch slots.

    Transitions and separations are read off the singly-claimed slots:
    per TB its last data and first feedback slot (DL), or its last grant
    and first data slot (UL).  Untagged feedback and grants stand for
    every TB: the k-th run of feedback slots answers the k-th bundle
    group, and the last grant slot grants every TB without its own.
    """
    if timeline.perspective is not Perspective.UE:
        raise InvalidInputError("validate() checks UE-perspective timelines")
    findings: list[Conflict] = []
    switches = 0  # switch uses on the positions swept so far
    last_use, switches_at_last = None, 0  # the last occupied single use
    data_end: dict[int, int] = {}
    ack_start: dict[int, int] = {}
    ack_runs: list[list[int]] = []  # [first, stop] of each run of feedback slots
    data_start: dict[int, int] = {}
    grant_end: dict[int, int] = {}
    shared_grant_end = None
    for first, stop, uses in timeline.segments:
        if len(uses) >= 2:
            findings.extend(_double_bookings(first, stop, uses))
            switches += (stop - first) * sum(u.activity is Activity.SWITCH for u in uses)
            continue
        if not uses or uses[0].activity is Activity.IDLE:
            continue
        use = uses[0]
        activity, tb = use.activity, use.tb_index
        if activity is Activity.SWITCH:
            switches += stop - first
            continue
        if last_use is not None and (
            (last_use.activity in RX_ACTIVITIES) != (activity in RX_ACTIVITIES)
            and switches - switches_at_last < params.n_switch
        ):
            pair = (last_use.activity.value, activity.value)
            findings.append(Conflict(first, pair, (last_use.tb_index, tb), "missing-switch"))
        last_use, switches_at_last = use, switches
        if activity is Activity.RX_PDSCH:
            if tb is not None:
                data_end[tb] = stop - 1
        elif activity is Activity.TX_PUCCH:
            if ack_runs and ack_runs[-1][1] == first:
                ack_runs[-1][1] = stop
            else:
                ack_runs.append([first, stop])
            if tb is not None:
                ack_start.setdefault(tb, first)
        elif activity is Activity.TX_PUSCH:
            if tb is not None:
                data_start.setdefault(tb, first)
        elif activity is Activity.RX_PDCCH:
            shared_grant_end = stop - 1
            if tb is not None:
                grant_end[tb] = stop - 1

    for j in sorted(data_end):
        group = (j - 1) // params.n_bundle
        if j in ack_start:
            ack = ack_start[j]
        elif group < len(ack_runs):
            ack = ack_runs[group][0]
        else:
            continue
        if ack - data_end[j] - 1 < params.dd2a_min:
            findings.append(Conflict(ack, (Activity.RX_PDSCH.value, Activity.TX_PUCCH.value), (j, j), "min-delay"))
    for j in sorted(data_start):
        end = grant_end.get(j, shared_grant_end)
        if end is not None and data_start[j] - end - 1 < params.ug2d_min:
            pair = (Activity.RX_PDCCH.value, Activity.TX_PUSCH.value)
            findings.append(Conflict(data_start[j], pair, (j, j), "min-delay"))
    findings.sort(key=lambda c: (c.sf_index, c.kind))
    return ConflictReport(conflicts=tuple(findings))


# ---------------------------------------------------------------------------
# BS-side view


def bs_view(timeline: SubframeTimeline, rtt_ms: float) -> SubframeTimeline:
    """Shift a UE timeline to the BS clock: downlink activities happen
    half the round trip earlier at the BS, uplink arrivals half later.
    Switch and idle slots stay on the shared wall clock.  Uses that land
    on one BS subframe keep the order of their UE subframes."""
    if timeline.perspective is not Perspective.UE:
        raise InvalidInputError("bs_view() expects a UE-perspective timeline")
    if rtt_ms < 0:
        raise InvalidInputError("rtt must be >= 0")
    shift = math.ceil(rtt_ms / 2.0 / SF_MS)
    # positions count from the new origin, half a round trip earlier; a
    # block moved further came from an earlier UE subframe, so it ranks
    # ahead of every block moved less
    ranks = 1 + max((b.rank for b in timeline.blocks), default=0)
    blocks = []
    for start, width, use, rank in timeline.blocks:
        offset = 0 if use.activity in RX_ACTIVITIES else 2 * shift if use.activity in TX_ACTIVITIES else shift
        blocks.append(Block(start + offset, width, use, rank - offset * ranks))
    blocks.sort(key=_by_position)
    return SubframeTimeline(tuple(blocks), timeline.length + 2 * shift, Perspective.BS, timeline.origin - shift)


# ---------------------------------------------------------------------------
# plain-text export


def export_timeline(timeline: SubframeTimeline) -> str:
    """One ``index,perspective,activity,tb_index,harq_id`` line per SF
    (idle slots export as Idle; double-booked slots export one line per
    claiming activity)."""
    view = timeline.perspective.value
    origin = timeline.origin
    parts = []
    for first, stop, uses in timeline.segments:
        # each line of the run minus its leading SF index
        lines = [
            f",{view},{u.activity.value},{'' if u.tb_index is None else u.tb_index},"
            f"{'' if u.harq_id is None else u.harq_id}\n"
            for u in uses
        ] or [f",{view},Idle,,\n"]
        if len(lines) > 1:
            parts.extend(f"{origin + sf}{line}" for sf in range(first, stop) for line in lines)
        else:
            parts.append(lines[0].join(map(str, range(origin + first, origin + stop))) + lines[0])
    return "".join(parts) or "\n"


# ---------------------------------------------------------------------------
# Monte Carlo goodput


@dataclass(frozen=True)
class GoodputResult:
    goodput_bps: float
    retransmission_rate: float


def monte_carlo_goodput(
    params: CycleParams,
    direction: Direction,
    bler_per_attempt: list[float],
    n_cycles: int,
    seed: int,
    tbs_bits: int,
    t_tb_s: float = SF_SECONDS,
) -> GoodputResult:
    """Run ``n_cycles`` of the variable-delay schedule with per-attempt
    error probabilities.

    Attempt k of a TB fails with probability ``bler_per_attempt[k]`` (the
    last entry repeats for later attempts).  Failed TBs are rescheduled
    into fresh TB slots of subsequent cycles ahead of new traffic, so the
    cycle geometry stays identical to the analytical model.
    """
    if not bler_per_attempt:
        raise InvalidInputError("bler_per_attempt must not be empty")
    if any(not 0.0 <= p <= 1.0 for p in bler_per_attempt):
        raise InvalidInputError("attempt error probabilities must lie in [0, 1]")
    if n_cycles < 1:
        raise InvalidInputError("n_cycles must be >= 1")
    cycle = build_proposed_cycle(params, direction)
    cycle_len = len(cycle)
    n_slots = params.n_tbphc
    rng = random.Random(seed)
    pending: list[int] = []  # attempt indices of TBs awaiting retransmission
    successes = 0
    attempts = 0
    retransmissions = 0
    for _ in range(n_cycles):
        failed: list[int] = []
        for _ in range(n_slots):
            if pending:
                attempt = pending.pop(0)
                retransmissions += 1
            else:
                attempt = 0
            attempts += 1
            p_fail = bler_per_attempt[min(attempt, len(bler_per_attempt) - 1)]
            if rng.random() < p_fail:
                failed.append(attempt + 1)
            else:
                successes += 1
        pending.extend(failed)
    success_per_slot = successes / (n_cycles * cycle_len)
    goodput = success_per_slot * (tbs_bits / t_tb_s)
    rate = retransmissions / attempts if attempts else 0.0
    return GoodputResult(goodput_bps=goodput, retransmission_rate=rate)
