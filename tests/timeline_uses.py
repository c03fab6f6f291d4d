"""The per-subframe listing of a timeline that the scheduler tests read."""
from __future__ import annotations

from ntn_harq.scheduler import SlotUse, SubframeTimeline


def uses(timeline: SubframeTimeline) -> list[tuple[int, SlotUse]]:
    """All (time_index, (activity, tb_index)) pairs of ``timeline`` in slot order."""
    return [
        (timeline.origin + sf, use)
        for first, stop, slot_uses in timeline.segments
        for sf in range(first, stop)
        for use in slot_uses
    ]
