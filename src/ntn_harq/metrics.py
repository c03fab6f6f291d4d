"""Closed-form utilization, throughput, gain and delay-computation power.

The subframe utilization factor (SUF) is the fraction of a HARQ cycle
spent on unique payload; throughput is SUF scaled by the TB size over the
subframe duration.  Cycle lengths are computed as exact integer subframe counts
so they can be compared slot-for-slot against built timelines.
"""
from __future__ import annotations

from .bler import _TBS_BITS
from .errors import InvalidInputError
from .harq import SF_SECONDS, CycleParams, Direction, GrantMode, delay_guard, feedback_wait
from .records import _AT_LEAST_0, _POSITIVE, IdentityEnum, require


class SchedulingMode(IdentityEnum):
    LEGACY_FIXED = "legacy"
    PROPOSED_VARIABLE = "proposed"


_DL, _MTBG, _LEGACY = Direction.DL, GrantMode.MTBG, SchedulingMode.LEGACY_FIXED  # globals: see harq._DL

# Operations per delay evaluation, counted off the three delay formulas as
# written: two subtractions, two multiplications and two additions for the
# plain DL and UL forms; the bundled form adds a division and a floor.
DELAY_OP_COUNTS = {
    "dd2a": 6,
    "ug2d": 6,
    "dd2a_bundled": 8,
}

# Worst case: delays recomputed every subframe.
DEFAULT_OP_RATE_PER_S = 1000.0


def cycle_length_closed_form(
    params: CycleParams, direction: Direction, mode: SchedulingMode
) -> int:
    """Exact HARQ-cycle length in subframes for the given scheduling mode.

    Variable-delay cycles account for every grant block (one per TB under
    STBG), the packed data region, the feedback chain and the
    mandatory-minimum guard, plus the two switch gaps.  A fixed-delay
    cycle carries a single TB and is that one-TB variable-delay cycle less
    one switch gap: its delay sits at the minimum itself, while
    ``delay_guard`` pads a variable delay to the minimum plus the gap.
    """
    n = params.n_tbphc
    if mode is _LEGACY and n != 1:
        raise InvalidInputError("fixed-delay cycles schedule exactly one TB")
    p = params.rep_pdcch
    sw = params.n_switch
    if direction is _DL:
        grants = p if params.grant_mode is _MTBG else n * p
        n_bundle = params.n_bundle if params.ack_bundling else 1
        wait = feedback_wait(n - 1, n_bundle, params.rep_pucch)
        length = (
            grants
            + params.n_dg2d
            + n * params.rep_pdsch
            + params.rep_pucch
            + wait
            + delay_guard(params, direction)
            + 2 * sw
        )
    elif params.ack_bundling:
        raise InvalidInputError("feedback bundling applies to downlink cycles only")
    else:
        length = n * p + delay_guard(params, direction) + n * params.rep_pusch + 2 * sw
    return length - sw if mode is _LEGACY else length


def suf_closed_form(params: CycleParams, direction: Direction, mode: SchedulingMode) -> float:
    """SUF of one cycle: TBs per cycle over the cycle length."""
    return params.n_tbphc / cycle_length_closed_form(params, direction, mode)


def throughput(suf: float, tbs_bits: int) -> float:
    """Useful data rate in bits/s for a utilization factor and TB size,
    one TB per subframe at full utilization."""
    require("tbs_bits", tbs_bits, _TBS_BITS)
    return suf * (tbs_bits / SF_SECONDS)


def delay_power(efficiency_mops_per_mw: float, op_rate_per_s: float, op_count: float) -> float:
    """Extra power in watts spent recomputing scheduling delays.

    efficiency_mops_per_mw: millions of operations per second per mW.
    op_rate_per_s: how often a delay value is recomputed (worst case once
        per subframe, 1000/s).
    op_count: arithmetic operations per delay evaluation.

    op_rate * op_count divided by the processor efficiency; MOPS/mW
    reconciles to 1e9 ops-per-second per watt.
    """
    require("efficiency_mops_per_mw", efficiency_mops_per_mw, _POSITIVE)
    require("op_rate_per_s", op_rate_per_s, _POSITIVE)
    require("op_count", op_count, _AT_LEAST_0)
    return op_rate_per_s * op_count / (efficiency_mops_per_mw * 1e9)
