"""A HARQ-occupancy oracle: the peak number of HARQ processes in flight
when a built variable-delay cycle repeats back to back.

It rests on three assumptions:

- TB j's process is held from the first subframe of its grant (the shared
  grant under MTBG) to the last subframe of its feedback (DL) or of its
  data (UL), plus ``rtt_ms``, plus ``n_a2g`` subframes.  Bundled DL
  feedback is untagged: the k-th block of ``rep_pucch`` feedback
  subframes answers the k-th group of ``n_bundle`` TBs.
- Cycles repeat back to back at the built length.
- The need is the peak, over one period, of the processes in flight.

``harq_peak`` works from the block positions, with per-TB work and one
sort of at most 4n arc endpoints, never a walk over subframes.
"""
from __future__ import annotations

from ntn_harq.harq import SF_MS, Activity, CycleParams, Direction
from ntn_harq.scheduler import SubframeTimeline


def hold_spans(timeline: SubframeTimeline, params: CycleParams, direction: Direction) -> list[tuple[int, int]]:
    """``(first, stop)`` of each TB, in TB order: the first subframe of its
    grant, and one past the last subframe of its feedback (DL) or data (UL)."""
    grant_start: dict[int | None, int] = {}
    done: dict[int, int] = {}
    bundle_stops: list[int] = []  # one past each block of rep_pucch untagged feedback SFs, in order
    last = Activity.TX_PUCCH if direction is Direction.DL else Activity.TX_PUSCH
    for start, width, (activity, tb), _ in timeline.blocks:
        if activity is Activity.RX_PDCCH:
            grant_start.setdefault(tb, start)
        elif activity is last and tb is None:
            bundle_stops.extend(range(start + params.rep_pucch, start + width + 1, params.rep_pucch))
        elif activity is last:
            done[tb] = start + width
    n_bundle = params.n_bundle if params.ack_bundling else 1
    spans = []
    for j in range(1, params.n_tbphc + 1):
        first = grant_start[j] if j in grant_start else grant_start[None]
        spans.append((first, done[j] if j in done else bundle_stops[(j - 1) // n_bundle]))
    return spans


def harq_peak(timeline: SubframeTimeline, params: CycleParams, direction: Direction, rtt_ms: float,
              n_a2g: int) -> int:
    """The peak number of processes in flight over one period.

    A hold of ``h`` subframes that repeats every ``L`` covers each instant
    ``h // L`` times, plus once more on an arc of ``h % L`` from its start;
    the peak is the sum of the whole turns plus the deepest overlap of the
    arcs on the circle of length ``L``.  A hold is half open: a process
    released at an instant can be granted again at that instant.
    """
    period = len(timeline)
    wait = rtt_ms / SF_MS + n_a2g
    turns, events = 0, []
    for first, stop in hold_spans(timeline, params, direction):
        whole, arc = divmod(stop - first + wait, period)
        turns += int(whole)
        if not arc:
            continue
        end = first % period + arc
        events += [(first % period, 1), (min(end, period), -1)]
        if end > period:  # the arc wraps past the period's end
            events += [(0, 1), (end - period, -1)]
    depth = peak = 0
    for _, step in sorted(events):  # at one instant, releases (-1) sort ahead of grants (+1)
        depth += step
        peak = max(peak, depth)
    return turns + peak
