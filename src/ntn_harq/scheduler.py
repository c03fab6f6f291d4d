"""Subframe timeline construction and checking for HARQ cycles.

Timelines are UE-perspective by default: each 1 ms slot holds at most one
activity on a half-duplex UE, and that single-occupancy rule is exactly
what conflict detection checks.  One layout, two delay policies: both
builders place grant, data and feedback blocks the same way.  The legacy
builder waits the fixed minimum delays and reports any slot claimed twice;
the proposed builder waits the per-TB variable delays and is conflict-free
by construction.

A timeline is stored as blocks kept sorted by start.  A block, like a
segment, is a plain ``(start, width, use, rank)`` tuple, and a use a
plain ``(activity, tb_index)`` tuple, since a NamedTuple call costs
several times a tuple literal (a two-field use 320 ns against 36 ns):
``use`` claims ``width`` subframes from ``start``, and uses that share a
subframe are listed in ascending ``rank``, their claim order.  The
builders and ``bs_view`` make one block per claim and sort once, so they
cost O(n log n) in blocks whatever the repetitions.  Consumers sweep the
block endpoints once (``SubframeTimeline.segments``): a block alone over
its whole span is a segment of its own, and only overlapping blocks
(legacy attempts, BS views) pass through a heap.  The exports do
per-subframe work only for the text they write: the text grid is one
pass over the segments, and the SVG grid one string per subframe where
uses do not overlap.  A run of consecutive SF indices, each followed by the
same text (a CSV line of the export, nothing in the text grid's header),
is written by ``index_run`` from digit tables, one join per thousand
indices, not one ``repr`` or ``"%3d"`` per index.
"""
from __future__ import annotations

import math
import random
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple, Sequence

from .bler import _BLER_PER_ATTEMPT, _TBS_BITS
from .errors import InvalidInputError
from .harq import (SF_MS, Activity, CycleParams, Direction, GrantMode, delay_guard, delay_plan, feedback_group,
                   fixed_positions)
from .metrics import SchedulingMode, cycle_length_closed_form, throughput
from .records import _AT_LEAST_1, Frozen, IdentityEnum, require

RX_ACTIVITIES = frozenset({Activity.RX_PDCCH, Activity.RX_PDSCH})
TX_ACTIVITIES = frozenset({Activity.TX_PUCCH, Activity.TX_PUSCH})
# before Python 3.12 a member read off its class goes through
# EnumType.__getattr__, ten times slower than a global, so loops read these
_RX_PDCCH, _RX_PDSCH, _TX_PUCCH, _TX_PUSCH, _SWITCH, _IDLE = Activity
_DL, _UL, _MTBG, _PROPOSED = Direction.DL, Direction.UL, GrantMode.MTBG, SchedulingMode.PROPOSED_VARIABLE
_LABELS = {activity: activity.value for activity in Activity}  # a dict read costs about half a .value read
_DATA_TO_FEEDBACK, _GRANT_TO_DATA = (_RX_PDSCH.value, _TX_PUCCH.value), (_RX_PDCCH.value, _TX_PUSCH.value)


class Perspective(IdentityEnum):
    UE = "UE"
    BS = "BS"


_UE, _BS = Perspective

SlotUse = tuple[Activity, int | None]  # (activity, tb_index); TB j uses HARQ process j
Segment = tuple[int, int, tuple[SlotUse, ...]]
Block = tuple[int, int, SlotUse, int]  # (start, width, use, rank)

_SWITCH_USE: SlotUse = (_SWITCH, None)
_by_position = itemgetter(0, 3)  # (start, rank)


class SubframeTimeline(Frozen):
    """``length`` subframes holding ``blocks`` sorted by position; a
    subframe no block covers is idle, one covered twice or more is the
    half-duplex conflict.  ``origin`` offsets positions to time indices
    (BS views can start before the UE's SF 0)."""

    __slots__ = ("blocks", "length", "perspective", "origin", "_segments")
    _fields = ("blocks", "length", "perspective", "origin")

    def __init__(
        self,
        blocks: tuple[Block, ...],
        length: int,
        perspective: Perspective = Perspective.UE,
        origin: int = 0,
    ) -> None:
        set_slot = object.__setattr__
        set_slot(self, "blocks", blocks)
        set_slot(self, "length", length)
        set_slot(self, "perspective", perspective)
        set_slot(self, "origin", origin)
        set_slot(self, "_segments", None)  # swept on first use

    def __len__(self) -> int:
        return self.length

    @property
    def segments(self) -> list[Segment]:
        """``(first, stop, uses)`` for each run of positions covered by the
        same blocks, in order from 0 to ``length``; idle runs have no uses.
        One sweep over the block endpoints, made on first use."""
        if self._segments is not None:
            return self._segments
        out: list[Segment] = []
        active: dict[int, SlotUse] = {}  # rank -> use, for the blocks covering pos
        ends: list[tuple[int, int]] = []  # heap of (stop, rank) over the same blocks
        pos = 0
        sweep = [*self.blocks, (self.length, 0, None, -1)]
        # each block with the next one's start; the sentinel closing the sweep is never alone
        for (start, width, use, rank), next_start in zip(sweep, [*(b[0] for b in sweep[1:]), -1]):
            while pos < start:
                stop = ends[0][0] if ends and ends[0][0] < start else start
                if len(active) > 1:
                    out.append((pos, stop, tuple(active[r] for r in sorted(active))))
                else:
                    out.append((pos, stop, tuple(active.values())))
                pos = stop
                while ends and ends[0][0] == pos:
                    del active[heappop(ends)[1]]
            stop = start + width
            if not ends and stop <= next_start:  # alone over its whole span
                out.append((start, stop, (use,)))
                pos = stop
            else:
                active[rank] = use
                heappush(ends, (stop, rank))
        object.__setattr__(self, "_segments", out)
        return out


class Conflict(NamedTuple):
    sf_index: int
    activities: tuple[str, ...]
    tb_indices: tuple[int | None, ...]
    kind: str = "double-booking"


class ConflictReport(NamedTuple):
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
    activities = tuple(_LABELS[activity] for activity, _ in uses)
    tb_indices = tuple(tb for _, tb in uses)
    return [Conflict(sf, activities, tb_indices) for sf in range(first, stop)]


def _lay_out(blocks: list[Block], n_switch: int) -> tuple[SubframeTimeline, list[Conflict]]:
    """The timeline of ``blocks`` (sorted in place), ranked in claim
    order, and every subframe claimed twice or more.

    A conflict-free layout gets a switch block at the end of every gap
    between an Rx and a Tx block, as wide as ``n_switch`` or the gap, plus
    a trailing block of ``n_switch`` subframes; a conflicting one is
    returned as attempted.
    """
    blocks.sort(key=_by_position)
    rank = len(blocks)  # switches rank after every claim
    laid_out = blocks[:1]
    for (a_start, a_width, a_use, _), b in zip(blocks, blocks[1:]):
        b_start, _, b_use, _ = b
        gap = b_start - a_start - a_width
        if gap < 0:  # sorted by start, any overlap shows up between neighbours
            attempt = SubframeTimeline(tuple(blocks), max(start + width for start, width, _, _ in blocks))
            return attempt, [c for seg in attempt.segments if len(seg[2]) >= 2 for c in _double_bookings(*seg)]
        if gap and n_switch and (a_use[0] in RX_ACTIVITIES) != (b_use[0] in RX_ACTIVITIES):
            width = min(n_switch, gap)
            laid_out.append((b_start - width, width, _SWITCH_USE, rank))
            rank += 1
        laid_out.append(b)
    length = blocks[-1][0] + blocks[-1][1]  # without overlaps the block that starts last ends last
    if n_switch:
        laid_out.append((length, n_switch, _SWITCH_USE, rank))
    return SubframeTimeline(tuple(laid_out), length + n_switch), []


# ---------------------------------------------------------------------------
# cycle layout: one layout, two delay policies


def _cycle_claims(params: CycleParams, direction: Direction, delays: Sequence[int], pad: int, pitch: int,
                  shared_grant: bool, bundled: bool) -> list[Block]:
    """Every grant, data and feedback block of a cycle, ranked in claim order.
    TB j's grant starts at ``(j-1)*pitch``, or one untagged grant at 0
    serves every TB (``shared_grant``).  DL: data back to back after the
    last grant, then the feedback, one untagged block per position when
    ``bundled``.  UL: grant j, then data j.  Each delayed block lands at
    ``fixed_positions(anchor, delay + pad)``."""
    p, tbs = params.rep_pdcch, range(1, len(delays) + 1)
    claims = [(0, p, (_RX_PDCCH, None), 0)] if shared_grant else []
    if direction is _UL:
        # listed by position, grants first, but ranked as claimed: TB j's
        # own grant, then its data, anchored on its grant slot even when a
        # shared grant leaves that slot idle
        r, step = params.rep_pusch, 1 if shared_grant else 2
        if not shared_grant:
            claims = [((j - 1) * pitch, p, (_RX_PDCCH, j), step * (j - 1)) for j in tbs]
        return claims + [(fixed_positions((j - 1) * pitch + p - 1, delay + pad), r, (_TX_PUSCH, j),
                          1 + step * (j - 1)) for j, delay in zip(tbs, delays)]
    if not shared_grant:
        claims = [((j - 1) * pitch, p, (_RX_PDCCH, j), j - 1) for j in tbs]
    r, q = params.rep_pdsch, params.rep_pucch
    data = claims[-1][0] + p + params.n_dg2d
    claims += [(data + (j - 1) * r, r, (_RX_PDSCH, j), len(claims) + j - 1) for j in tbs]
    acks = [fixed_positions(data + j * r - 1, delay + pad) for j, delay in zip(tbs, delays)]
    if bundled:  # one block acknowledges the bundle
        claims += [(ack, q, (_TX_PUCCH, None), len(claims) + k) for k, ack in enumerate(dict.fromkeys(acks))]
    else:
        claims += [(ack, q, (_TX_PUCCH, j), len(claims) + j - 1) for j, ack in zip(tbs, acks)]
    return claims


def build_legacy_cycle(
    params: CycleParams, direction: Direction
) -> SubframeTimeline | ConflictReport:
    """Lay out one fixed-delay cycle: every TB waits the minimum delay.

    Downlink has one grant for the cycle, and uplink grants are paced at
    the data period so the granted data blocks land back to back;
    ``grant_mode`` is not read, and ``ack_bundling`` only to refuse an
    uplink cycle, as the closed form does.  If any two activities claim
    the same slot the attempt is returned as a ConflictReport instead of a
    timeline; one TB always succeeds.
    """
    dl = direction is _DL
    feedback_group(params, direction)  # refuses an uplink cycle that bundles
    delays = [params.dd2a_min if dl else params.ug2d_min] * params.n_tbphc
    claims = _cycle_claims(params, direction, delays, 0, params.rep_pusch, dl, False)
    timeline, conflicts = _lay_out(claims, params.n_switch)
    if conflicts:
        return ConflictReport(conflicts=tuple(conflicts), attempt=timeline)
    return timeline


def build_proposed_cycle(params: CycleParams, direction: Direction) -> SubframeTimeline:
    """Lay out one variable-delay cycle.

    Grant blocks come first (one per TB under STBG, one per cycle under
    MTBG), data blocks sit back to back, and every feedback (DL) or data
    (UL) position is its anchor plus the per-TB variable delay.  Every
    delay is padded by ``delay_guard``, the shortfall of the tightest DL
    TB (of TB 1 in UL) against the mandatory minimum, which is also the
    guard term of the closed-form cycle length.

    Raises MinDelayViolationError through ``delay_guard`` when a UL TB's
    padded delay misses the minimum; every padded DL delay meets it.
    """
    claims = _cycle_claims(params, direction, delay_plan(params, direction), delay_guard(params, direction),
                           params.rep_pdcch, params.grant_mode is _MTBG, params.ack_bundling)
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
    every TB: the k-th block of ``rep_pucch`` feedback slots, tagged or
    not, answers the k-th group of ``n_bundle`` TBs, read as given: in a
    hand-built timeline untagged feedback is bundled whatever the flags
    say.  The last grant slot grants every TB without its own.
    """
    if timeline.perspective is not _UE:
        raise InvalidInputError("validate() checks UE-perspective timelines")
    findings: list[Conflict] = []
    switches = 0  # switch uses on the positions swept so far
    last_activity, last_tb, last_rx, switches_at_last = None, None, False, 0  # the last occupied single use
    data_end: dict[int, int] = {}
    ack_start: dict[int, int] = {}
    ack_blocks: list[int] = []  # first slot of each block of rep_pucch feedback slots
    ack_slots = 0  # feedback slots swept so far
    data_start: dict[int, int] = {}
    grant_end: dict[int, int] = {}
    shared_grant_end = None
    for first, stop, uses in timeline.segments:
        if len(uses) != 1:
            if uses:
                findings.extend(_double_bookings(first, stop, uses))
                switches += (stop - first) * sum(activity is _SWITCH for activity, _ in uses)
            continue
        activity, tb = uses[0]
        if activity is _SWITCH:
            switches += stop - first
            continue
        if activity is _IDLE:
            continue
        rx = activity in RX_ACTIVITIES
        if last_activity is not None and rx != last_rx and switches - switches_at_last < params.n_switch:
            pair = (_LABELS[last_activity], _LABELS[activity])
            findings.append(Conflict(first, pair, (last_tb, tb), "missing-switch"))
        last_activity, last_tb, last_rx, switches_at_last = activity, tb, rx, switches
        if activity is _RX_PDSCH:
            if tb is not None:
                data_end[tb] = stop - 1
        elif activity is _TX_PUCCH:
            ack_blocks.extend(range(first + (-ack_slots) % params.rep_pucch, stop, params.rep_pucch))
            ack_slots += stop - first
            if tb is not None:
                ack_start.setdefault(tb, first)
        elif activity is _TX_PUSCH:
            if tb is not None:
                data_start.setdefault(tb, first)
        else:  # a grant
            shared_grant_end = stop - 1
            if tb is not None:
                grant_end[tb] = stop - 1

    for j in sorted(data_end):
        group = (j - 1) // params.n_bundle
        if j in ack_start:
            ack = ack_start[j]
        elif group < len(ack_blocks):
            ack = ack_blocks[group]
        else:
            continue
        if ack - data_end[j] - 1 < params.dd2a_min:
            findings.append(Conflict(ack, _DATA_TO_FEEDBACK, (j, j), "min-delay"))
    for j in sorted(data_start):
        end = grant_end.get(j, shared_grant_end)
        if end is not None and data_start[j] - end - 1 < params.ug2d_min:
            findings.append(Conflict(data_start[j], _GRANT_TO_DATA, (j, j), "min-delay"))
    findings.sort(key=lambda c: (c.sf_index, c.kind))
    return ConflictReport(conflicts=tuple(findings))


# ---------------------------------------------------------------------------
# BS-side view


def bs_view(timeline: SubframeTimeline, rtt_ms: float) -> SubframeTimeline:
    """Shift a UE timeline to the BS clock: downlink activities happen
    half the round trip earlier at the BS, uplink arrivals half later.
    Switch and idle slots stay on the shared wall clock.  Uses that land
    on one BS subframe keep the order of their UE subframes."""
    if timeline.perspective is not _UE:
        raise InvalidInputError("bs_view() expects a UE-perspective timeline")
    if not 0 <= rtt_ms < math.inf:
        raise InvalidInputError("rtt must be finite and >= 0")
    shift = math.ceil(rtt_ms / 2.0 / SF_MS)
    # positions count from the new origin, half a round trip earlier; a
    # block moved further came from an earlier UE subframe, so it ranks
    # ahead of every block moved less
    ranks = 1 + max((rank for _, _, _, rank in timeline.blocks), default=0)
    blocks = []
    for start, width, use, rank in timeline.blocks:
        offset = 0 if use[0] in RX_ACTIVITIES else 2 * shift if use[0] in TX_ACTIVITIES else shift
        blocks.append((start + offset, width, use, rank - offset * ranks))
    blocks.sort(key=_by_position)
    return SubframeTimeline(tuple(blocks), timeline.length + 2 * shift, _BS, timeline.origin - shift)


# ---------------------------------------------------------------------------
# plain-text export


_SMALL = [str(i) for i in range(1000)]
_TRIPLES = [f"{i:03d}" for i in range(1000)]  # the last three digits of an index from 1000 up


def index_run(first: int, stop: int, tail: str) -> str:
    """``"".join(f"{i}{tail}" for i in range(first, stop))``, written from
    digit tables: indices below 1000 are looked up, and each thousand above
    is one join of its three-digit endings behind a shared head, so no
    index is formatted on its own.  Negative indices (BS views only) go
    through ``repr``."""
    if stop - first == 1:  # most runs of an export are one SF wide
        return f"{first}{tail}"
    out = ""
    if first < 1000 and first < stop:
        if first < 0:
            end = min(stop, 0)
            out = tail.join(map(repr, range(first, end))) + tail
            first = end
        if first < stop:
            out += tail.join(_SMALL[first:stop]) + tail
            first = 1000
    while first < stop:
        head, low = divmod(first, 1000)
        head, endings = str(head), _TRIPLES[low:low + stop - first]
        out += head + (tail + head).join(endings) + tail
        first += len(endings)
    return out


def export_timeline(timeline: SubframeTimeline) -> str:
    """One ``index,perspective,activity,tb_index,harq_id`` line per SF
    (idle slots export as Idle; double-booked slots export one line per
    claiming activity).  TB j uses HARQ process j, so both last columns
    hold the TB index."""
    view = timeline.perspective.value
    origin = timeline.origin
    parts = []
    for first, stop, uses in timeline.segments:
        if len(uses) > 1:
            lines = [f",{view},{_LABELS[a]},{'' if tb is None else tb},{'' if tb is None else tb}\n" for a, tb in uses]
            parts.extend(f"{origin + sf}{line}" for sf in range(first, stop) for line in lines)
            continue
        # the run's one line minus its leading SF index
        activity, tb = uses[0] if uses else (_IDLE, None)
        tb = "" if tb is None else tb
        parts.append(index_run(origin + first, origin + stop, f",{view},{_LABELS[activity]},{tb},{tb}\n"))
    return "".join(parts) or "\n"


# ---------------------------------------------------------------------------
# Monte Carlo goodput


class GoodputResult(NamedTuple):
    goodput_bps: float
    retransmission_rate: float


def monte_carlo_goodput(
    params: CycleParams,
    direction: Direction,
    bler_per_attempt: list[float],
    n_cycles: int,
    seed: int,
    tbs_bits: int,
) -> GoodputResult:
    """Run ``n_cycles`` of the variable-delay schedule with per-attempt
    error probabilities.

    Attempt k of a TB fails with probability ``bler_per_attempt[k]`` (the
    last entry repeats for later attempts).  Failed TBs are rescheduled
    into fresh TB slots of subsequent cycles ahead of new traffic, so the
    cycle geometry stays identical to the analytical model.

    Draw order: one ``random()`` from ``random.Random(seed)`` per TB slot.
    A cycle first retries every TB that failed in the cycle before, in the
    order they failed, then fills its remaining slots with fresh TBs.  A
    cycle fails at most ``n_tbphc`` TBs, so the retry queue never holds
    more than ``n_tbphc`` entries and memory stays O(``n_tbphc``) for any
    ``n_cycles``.  The same arguments give the same result.  The cycle
    length is the closed form's, so an uplink cycle that the builder
    refuses raises the same MinDelayViolationError, from ``delay_guard``.
    """
    if not bler_per_attempt:
        raise InvalidInputError("bler_per_attempt must not be empty")
    require("bler_per_attempt", bler_per_attempt, _BLER_PER_ATTEMPT)
    require("n_cycles", n_cycles, _AT_LEAST_1)  # a config's n_cycles = 0 turns Monte Carlo off instead
    require("tbs_bits", tbs_bits, _TBS_BITS)
    cycle_len = cycle_length_closed_form(params, direction, _PROPOSED)
    n_slots = params.n_tbphc
    last = len(bler_per_attempt) - 1
    # attempt index -> index of the next attempt; indices stop at the last
    # entry, whose probability every later attempt shares
    next_attempt = [min(k + 1, last) for k in range(last + 1)]
    p_fresh, fresh_retry = bler_per_attempt[0], next_attempt[0]
    draw = random.Random(seed).random
    failed: list[int] = []  # attempt indices of the TBs the last cycle failed
    retransmissions = 0
    for _ in range(n_cycles):
        retries, failed = failed, []
        retransmissions += len(retries)
        for attempt in retries:
            if draw() < bler_per_attempt[attempt]:
                failed.append(next_attempt[attempt])
        for _ in range(n_slots - len(retries)):
            if draw() < p_fresh:
                failed.append(fresh_retry)
    attempts = n_cycles * n_slots
    # every failure is retried once or still queued at the end
    successes = attempts - retransmissions - len(failed)
    success_per_slot = successes / (n_cycles * cycle_len)
    rate = retransmissions / attempts
    return GoodputResult(goodput_bps=throughput(success_per_slot, tbs_bits), retransmission_rate=rate)
