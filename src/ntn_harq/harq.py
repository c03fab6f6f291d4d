"""Delay calculus for HARQ cycles.

Positions and delays are integer subframes.  Fixed-delay positioning puts
the feedback (or the granted data) a constant number of subframes after
its anchor; the variable-delay formulas spread one cycle's transport
blocks so that data blocks and their feedback never collide on a
half-duplex UE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import InvalidInputError

SF_MS = 1.0  # one subframe lasts one millisecond
SF_SECONDS = SF_MS / 1000.0
MAX_SUBFRAMES = 100_000  # bound on a configured or tabulated subframe count, far from int-to-float overflow


class Direction(Enum):
    DL = "dl"
    UL = "ul"


class GrantMode(Enum):
    STBG = "stbg"  # one control grant per transport block
    MTBG = "mtbg"  # one control grant schedules the whole cycle


def _as_rep_tuple(value: int | Sequence[int], n_tbphc: int, name: str) -> tuple[int, ...]:
    if isinstance(value, int):
        reps, valid = (value,) * n_tbphc, value >= 1  # one check, not n
    else:
        reps = tuple(int(v) for v in value)
        if len(reps) != n_tbphc:
            raise InvalidInputError(
                f"{name} list must have one entry per TB ({n_tbphc}), got {len(reps)}"
            )
        valid = all(r >= 1 for r in reps)
    if not valid:
        raise InvalidInputError(f"{name} repetitions must be >= 1, got {reps}")
    return reps


@dataclass(frozen=True)
class CycleParams:
    """Everything needed to lay out one HARQ cycle.

    Data-channel repetitions may be a single count (uniform across the
    cycle's TBs) or a per-TB sequence of length ``n_tbphc``.
    """

    n_tbphc: int = 1
    rep_pdcch: int = 1
    rep_pdsch: int | tuple[int, ...] = 1
    rep_pusch: int | tuple[int, ...] = 1
    rep_pucch: int = 1
    n_switch: int = 1
    n_dg2d: int = 1
    dd2a_min: int = 3
    ug2d_min: int = 3
    n_bundle: int = 1
    grant_mode: GrantMode = GrantMode.STBG
    ack_bundling: bool = False

    def __post_init__(self) -> None:
        if self.n_tbphc < 1:
            raise InvalidInputError(f"n_tbphc must be >= 1, got {self.n_tbphc}")
        if self.n_bundle < 1:
            raise InvalidInputError(f"n_bundle must be >= 1, got {self.n_bundle}")
        for name in ("rep_pdcch", "rep_pucch"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        for name in ("n_switch", "n_dg2d", "dd2a_min", "ug2d_min"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be >= 0")
        object.__setattr__(
            self, "rep_pdsch", _as_rep_tuple(self.rep_pdsch, self.n_tbphc, "rep_pdsch")
        )
        object.__setattr__(
            self, "rep_pusch", _as_rep_tuple(self.rep_pusch, self.n_tbphc, "rep_pusch")
        )

    @property
    def pdsch_reps(self) -> tuple[int, ...]:
        return self.rep_pdsch  # type: ignore[return-value]

    @property
    def pusch_reps(self) -> tuple[int, ...]:
        return self.rep_pusch  # type: ignore[return-value]


def fixed_positions(anchor_sf: int, fixed_delay: int) -> int:
    """Position scheduled a fixed delay after its anchor subframe.

    DL: feedback position from the last data subframe.  UL: first data
    subframe from the last grant subframe.
    """
    return anchor_sf + fixed_delay + 1


def required_harq_count(rtt_ms: float, t_tb_ms: float, rep_data: int) -> int:
    """Minimum number of HARQ processes that keeps a half-duplex sender
    busy across the whole round trip, given each TB occupies
    ``rep_data`` subframes of ``t_tb_ms`` each."""
    if rtt_ms <= 0 or t_tb_ms <= 0 or rep_data < 1:
        raise InvalidInputError("rtt, TB duration and repetitions must be positive")
    return math.ceil(rtt_ms / (rep_data * t_tb_ms))


def feedback_wait(n_before: int, n_bundle: int, rep_pucch: int) -> int:
    """Feedback subframes sent ahead of a DL TB's own: one block for each
    of the ``n_before`` earlier TBs, or for each earlier group of
    ``n_bundle`` TBs when feedback is bundled."""
    return n_before // n_bundle * rep_pucch


def delay_plan(params: CycleParams, direction: Direction) -> tuple[int, ...]:
    """Every TB's variable delay in one cycle, in transmission order.

    DL data-to-feedback (DD2A) of TB j: the data blocks of the later TBs,
    plus the feedback of the earlier TBs, plus the switching gap.  Bundled
    DD2A (``ack_bundling``) counts one feedback block per earlier group of
    ``n_bundle`` TBs.  UL grant-to-data (UG2D) of TB j: the grant blocks
    of the later TBs, plus the data of the earlier TBs, plus the switching
    gap.
    """
    delays = []
    if direction is Direction.DL:
        n_bundle = params.n_bundle if params.ack_bundling else 1
        remaining = sum(params.pdsch_reps)
        for before, r in enumerate(params.pdsch_reps):
            remaining -= r
            delays.append(remaining + feedback_wait(before, n_bundle, params.rep_pucch) + params.n_switch)
        return tuple(delays)
    if params.ack_bundling:
        raise InvalidInputError("feedback bundling applies to downlink cycles only")
    earlier = 0
    for j, r in enumerate(params.pusch_reps, 1):
        delays.append((params.n_tbphc - j) * params.rep_pdcch + earlier + params.n_switch)
        earlier += r
    return tuple(delays)


def harq_for_tbphc(params: CycleParams, rtt_ms: float, t_tb_ms: float, ack_proc_sf: int) -> int:
    """HARQ processes needed to sustain the cycle ``params`` lays out."""
    return harq_processes(params, params.n_tbphc, sum(params.pdsch_reps), rtt_ms, t_tb_ms, ack_proc_sf)


def harq_processes(
    params: CycleParams, n_tbphc: int, data_sf: int, rtt_ms: float, t_tb_ms: float, ack_proc_sf: int
) -> int:
    """HARQ processes needed to sustain ``n_tbphc`` TBs per cycle, whose data
    blocks fill ``data_sf`` subframes, across the round trip plus the
    scheduler's feedback-processing time (``ack_proc_sf`` subframes) before
    a process can be re-granted.  Only the grant, feedback and switch terms
    are read from ``params``, so a one-TB template sizes any TB count."""
    if rtt_ms < 0 or t_tb_ms <= 0 or ack_proc_sf < 0:
        raise InvalidInputError("rtt and ack processing must be >= 0, TB duration positive")
    cycle_sf = params.rep_pdcch + params.n_dg2d + data_sf + n_tbphc * params.rep_pucch
    cycle_ms = t_tb_ms * cycle_sf + 2.0 * params.n_switch * t_tb_ms
    wait_ms = rtt_ms + ack_proc_sf * t_tb_ms
    return math.ceil(n_tbphc * (1.0 + wait_ms / cycle_ms))
