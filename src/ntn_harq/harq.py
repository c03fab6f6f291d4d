"""Delay calculus for HARQ cycles.

Positions and delays are integer subframes.  Fixed-delay positioning puts
the feedback (or the granted data) a constant number of subframes after
its anchor; the variable-delay formulas spread one cycle's transport
blocks so that data blocks and their feedback never collide on a
half-duplex UE.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInputError, MinDelayViolationError
from .records import IdentityEnum, Validated, _count

SF_MS = 1.0  # one subframe lasts one millisecond
SF_SECONDS = SF_MS / 1000.0
MAX_SUBFRAMES = 100_000  # bound on a configured or tabulated subframe count, far from int-to-float overflow


class Direction(IdentityEnum):
    DL = "dl"
    UL = "ul"


class GrantMode(IdentityEnum):
    STBG = "stbg"  # one control grant per transport block
    MTBG = "mtbg"  # one control grant schedules the whole cycle


# the hot paths read members as globals: a read off the enum class costs
# about ten times as much on Python 3.11
_DL = Direction.DL


class Activity(IdentityEnum):
    RX_PDCCH = "RxPDCCH"
    RX_PDSCH = "RxPDSCH"
    TX_PUCCH = "TxPUCCH"
    TX_PUSCH = "TxPUSCH"
    SWITCH = "Switch"
    IDLE = "Idle"


class _CycleFields(NamedTuple):
    n_tbphc: int = 1
    rep_pdcch: int = 1
    rep_pdsch: int = 1
    rep_pusch: int = 1
    rep_pucch: int = 1
    n_switch: int = 1
    n_dg2d: int = 1
    dd2a_min: int = 3
    ug2d_min: int = 3
    n_bundle: int = 1
    grant_mode: GrantMode = GrantMode.STBG
    ack_bundling: bool = False


class CycleParams(Validated, _CycleFields):
    """Everything needed to lay out one HARQ cycle.

    Each data channel has one repetition count, shared by every TB of the
    cycle.
    """

    __slots__ = ()
    RULES = {
        **dict.fromkeys(("n_tbphc", "rep_pdcch", "rep_pdsch", "rep_pusch", "rep_pucch"), _count(1, MAX_SUBFRAMES)),
        **dict.fromkeys(("n_switch", "n_dg2d", "dd2a_min", "ug2d_min"), _count(0, MAX_SUBFRAMES)),
        "n_bundle": _count(1),
    }


def fixed_positions(anchor_sf: int, fixed_delay: int) -> int:
    """Position scheduled a fixed delay after its anchor subframe.

    DL: feedback position from the last data subframe.  UL: first data
    subframe from the last grant subframe.  Every delayed block of both
    builders lands here: legacy at the minimum delay, proposed at its
    variable delay plus the guard pad.
    """
    return anchor_sf + fixed_delay + 1


def required_harq_count(rtt_ms: float, rep_data: int) -> int:
    """Minimum number of HARQ processes that keeps a half-duplex sender
    busy across the whole round trip, given each TB occupies
    ``rep_data`` subframes."""
    if not (0 < rtt_ms < math.inf and 1 <= rep_data < math.inf):
        raise InvalidInputError("rtt and repetitions must be positive and finite")
    return math.ceil(rtt_ms / (rep_data * SF_MS))


def feedback_wait(n_before: int, n_bundle: int, rep_pucch: int) -> int:
    """Feedback subframes sent ahead of a DL TB's own: one block for each
    of the ``n_before`` earlier TBs, or for each earlier group of
    ``n_bundle`` TBs when feedback is bundled."""
    return n_before // n_bundle * rep_pucch


def feedback_group(params: CycleParams, direction: Direction) -> int:
    """TBs answered by one feedback block: ``n_bundle`` when a downlink
    cycle bundles its feedback, else 1.  The one owner of the rule that
    bundling is downlink-only: an uplink cycle that bundles raises."""
    if params.ack_bundling and direction is not _DL:
        raise InvalidInputError("feedback bundling applies to downlink cycles only")
    return params.n_bundle if params.ack_bundling else 1


def delay_plan(params: CycleParams, direction: Direction) -> tuple[int, ...]:
    """Every TB's variable delay in one cycle, in transmission order.

    DL data-to-feedback (DD2A) of TB j: the data blocks of the later TBs,
    plus the feedback of the earlier TBs, plus the switching gap.  Bundled
    DD2A (``ack_bundling``) counts one feedback block per earlier group of
    ``n_bundle`` TBs.  UL grant-to-data (UG2D) of TB j: the grant blocks
    of the later TBs, plus the data of the earlier TBs, plus the switching
    gap.
    """
    n, sw, g = params.n_tbphc, params.n_switch, feedback_group(params, direction)
    if direction is _DL:
        r = params.rep_pdsch
        return tuple((n - 1 - b) * r + feedback_wait(b, g, params.rep_pucch) + sw for b in range(n))
    p, r = params.rep_pdcch, params.rep_pusch
    return tuple((n - j) * p + (j - 1) * r + sw for j in range(1, n + 1))


def delay_guard(params: CycleParams, direction: Direction) -> int:
    """Subframes added to every TB's variable delay so that the tightest
    one meets the mandatory minimum, in O(1) without the plan.  The
    builder and the closed form both read it, so it alone decides whether
    a proposed cycle can be laid out; ``feedback_group`` refuses an uplink
    cycle that bundles.

    DL: TB b+1 waits ``(n-1-b)*r + (b//g)*q`` beyond the switch gap, which
    falls within each group of ``g`` TBs and is linear across whole
    groups, so the least wait is the last TB's or that of the last TB of
    the first or of the last whole group; every padded DL delay meets the
    minimum.  UL: TB 1's wait, so TB 1's padded delay ``d1`` meets it, but
    TB j's is ``d1 - (j-1)*(p-r)``: when grant blocks are wider than data
    blocks (``p > r``) a later TB can fall short, first at
    ``j = (d1 - m) // (p - r) + 2``, and MinDelayViolationError names it.
    """
    n, g = params.n_tbphc, feedback_group(params, direction)
    if direction is _DL:
        r, q = params.rep_pdsch, params.rep_pucch
        k = (n - 1) // g  # the last TB's group
        tightest = min(k * q, (n - g) * r, (n - k * g) * r + (k - 1) * q) if k else 0
        return max(0, params.dd2a_min - tightest)
    p, r, m = params.rep_pdcch, params.rep_pusch, params.ug2d_min
    pad = max(0, m - (n - 1) * p)
    d1 = (n - 1) * p + params.n_switch + pad
    if p > r and d1 - (n - 1) * (p - r) < m:
        j = (d1 - m) // (p - r) + 2
        raise MinDelayViolationError(f"TB {j} grant-to-data delay {d1 - (j - 1) * (p - r)} < minimum {m}")
    return pad


def harq_for_tbphc(params: CycleParams, rtt_ms: float, ack_proc_sf: int) -> int:
    """HARQ processes needed to sustain the cycle ``params`` lays out."""
    return harq_processes(params, params.n_tbphc, params.rep_pdsch, rtt_ms, ack_proc_sf)


def harq_processes(params: CycleParams, n_tbphc: int, n_rep: int, rtt_ms: float, ack_proc_sf: int) -> int:
    """HARQ processes needed to sustain ``n_tbphc`` TBs per cycle, each of
    ``n_rep`` data subframes, across the round trip plus the scheduler's
    feedback-processing time (``ack_proc_sf`` subframes) before a process
    can be re-granted.  Only the grant, feedback and switch terms are read
    from ``params``, so a one-TB template sizes any TB count."""
    if not (0 <= rtt_ms < math.inf and 0 <= ack_proc_sf < math.inf):
        raise InvalidInputError("rtt and ack processing must be finite and >= 0")
    cycle_sf = params.rep_pdcch + params.n_dg2d + n_tbphc * (n_rep + params.rep_pucch)
    cycle_ms = SF_MS * cycle_sf + 2.0 * params.n_switch * SF_MS
    wait_ms = rtt_ms + ack_proc_sf * SF_MS
    return math.ceil(n_tbphc * (1.0 + wait_ms / cycle_ms))
