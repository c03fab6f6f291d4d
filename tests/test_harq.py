import math

import pytest

from ntn_harq.errors import InvalidInputError
from ntn_harq.harq import (
    SF_MS,
    CycleParams,
    Direction,
    delay_plan,
    fixed_positions,
    harq_for_tbphc,
    harq_processes,
    required_harq_count,
)


# --- oracles: lay the packed cycle out by brute force and count gaps ----


def packed_dl_delays(reps, pucch, sw, n_bundle=None):
    """Place data blocks back to back, then the feedback blocks back to
    back after a switch gap; return each TB's end-to-feedback gap."""
    ends = []
    pos = 0
    for r in reps:
        pos += r
        ends.append(pos - 1)
    first_ack = pos + sw
    delays = []
    for j in range(1, len(reps) + 1):
        group = (j - 1) // n_bundle if n_bundle else (j - 1)
        ack = first_ack + group * pucch
        delays.append(ack - ends[j - 1] - 1)
    return delays


def packed_ul_delays(n, p, reps, sw):
    """Grants back to back, then data back to back after a switch gap;
    return each TB's grant-end-to-data gap."""
    data_start = n * p + sw
    delays = []
    pos = data_start
    for j, r in enumerate(reps, 1):
        grant_end = j * p - 1
        delays.append(pos - grant_end - 1)
        pos += r
    return delays


# --- fixed positions ----------------------------------------------------


@pytest.mark.parametrize(
    "anchor,delay,expected",
    [
        (10, 3, 14),
        (0, 0, 1),
        (7, 8, 16),
    ],
)
def test_fixed_positions(anchor, delay, expected):
    assert fixed_positions(anchor, delay) == expected


# --- HARQ counts --------------------------------------------------------


@pytest.mark.parametrize(
    "rtt,sf_ms,rep,expected",
    [(42, 1, 1, 42), (20, 1, 20, 1), (34, 1, 24, 2)],
)
def test_required_harq_count(rtt, sf_ms, rep, expected):
    assert SF_MS == sf_ms  # the subframe length the expected counts assume
    assert required_harq_count(rtt, rep) == expected


def test_required_harq_count_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        required_harq_count(0, 1)
    with pytest.raises(InvalidInputError):
        required_harq_count(20, 0)
    with pytest.raises(InvalidInputError):
        required_harq_count(math.nan, 1)
    with pytest.raises(InvalidInputError):
        required_harq_count(math.inf, 1)
    with pytest.raises(InvalidInputError):
        required_harq_count(20, math.inf)


def test_harq_sizing_rejects_a_bad_round_trip():
    params = CycleParams(n_tbphc=4, rep_pdsch=12)
    for rtt in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="^rtt and ack processing must be finite and >= 0$"):
            harq_processes(params, 4, 12, rtt, 0)
        with pytest.raises(InvalidInputError, match="^rtt and ack processing must be finite and >= 0$"):
            harq_for_tbphc(params, rtt, 0)
    for ack_proc_sf in (-1, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="^rtt and ack processing must be finite and >= 0$"):
            harq_for_tbphc(params, 20.0, ack_proc_sf)


def test_harq_for_tbphc_degenerate_rtt():
    params = CycleParams(n_tbphc=5, rep_pdsch=7, rep_pucch=2, n_switch=2)
    assert harq_for_tbphc(params, 0, 0) == 5


@pytest.mark.parametrize("rtt,expected", [(20, 8), (34, 10)])
def test_harq_for_tbphc_examples(rtt, expected):
    params = CycleParams(
        n_tbphc=4, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1, n_switch=1
    )
    assert harq_for_tbphc(params, rtt, 0) == expected


def test_harq_for_tbphc_monotone():
    base = dict(rep_pdcch=1, n_dg2d=1, rep_pdsch=12, rep_pucch=1, n_switch=1)
    values_rtt = [
        harq_for_tbphc(CycleParams(n_tbphc=4, **base), rtt, 0) for rtt in range(0, 60, 4)
    ]
    assert all(a <= b for a, b in zip(values_rtt, values_rtt[1:]))
    values_n = [
        harq_for_tbphc(CycleParams(n_tbphc=n, **base), 20, 0) for n in range(1, 9)
    ]
    assert all(a <= b for a, b in zip(values_n, values_n[1:]))


# --- variable delays ----------------------------------------------------


def test_dd2a_single_tb_leaves_only_switch():
    params = CycleParams(n_tbphc=1, rep_pdsch=9, rep_pucch=3, n_switch=1)
    assert delay_plan(params, Direction.DL) == (1,)


@pytest.mark.parametrize("j,expected", [(1, 13), (2, 10), (3, 7), (4, 4)])
def test_dd2a_uniform_example(j, expected):
    params = CycleParams(n_tbphc=4, rep_pdsch=4, rep_pucch=1, n_switch=1)
    assert delay_plan(params, Direction.DL)[j - 1] == expected


def test_dd2a_matches_packed_layout_oracle():
    for n in (1, 2, 4, 6):
        for r in (1, 2, 4, 12):
            for pucch in (1, 2):
                for sw in (1, 2):
                    params = CycleParams(
                        n_tbphc=n, rep_pdsch=r, rep_pucch=pucch, n_switch=sw
                    )
                    got = list(delay_plan(params, Direction.DL))
                    assert got == packed_dl_delays([r] * n, pucch, sw)


@pytest.mark.parametrize("j,expected", [(1, 5), (3, 27)])
def test_ug2d_uniform_example(j, expected):
    params = CycleParams(n_tbphc=5, rep_pdcch=1, rep_pusch=12, n_switch=1)
    assert delay_plan(params, Direction.UL)[j - 1] == expected


def test_ug2d_single_tb():
    params = CycleParams(n_tbphc=1, n_switch=1)
    assert delay_plan(params, Direction.UL) == (1,)


def test_ug2d_matches_packed_layout_oracle():
    for n in (1, 2, 5):
        for p in (1, 2):
            for r in (1, 4, 12):
                for sw in (1, 2):
                    params = CycleParams(
                        n_tbphc=n, rep_pdcch=p, rep_pusch=r, n_switch=sw
                    )
                    got = list(delay_plan(params, Direction.UL))
                    assert got == packed_ul_delays(n, p, [r] * n, sw)


def test_bundled_reduces_to_unbundled_at_bundle_one():
    params = CycleParams(n_tbphc=4, rep_pdsch=4, rep_pucch=1, n_switch=1, n_bundle=1)
    bundled = params._replace(ack_bundling=True)
    assert delay_plan(bundled, Direction.DL) == delay_plan(params, Direction.DL)


@pytest.mark.parametrize(
    "n_bundle,j,expected",
    [(2, 3, 6), (4, 4, 1)],
)
def test_bundled_examples(n_bundle, j, expected):
    params = CycleParams(
        n_tbphc=4, rep_pdsch=4, rep_pucch=1, n_switch=1, n_bundle=n_bundle,
        ack_bundling=True,
    )
    assert delay_plan(params, Direction.DL)[j - 1] == expected


def test_bundled_never_exceeds_unbundled():
    for n_bundle in (1, 2, 3, 4):
        params = CycleParams(
            n_tbphc=6, rep_pdsch=4, rep_pucch=2, n_switch=1, n_bundle=n_bundle
        )
        bundled = delay_plan(params._replace(ack_bundling=True), Direction.DL)
        for b, u in zip(bundled, delay_plan(params, Direction.DL)):
            assert b <= u


def test_bundled_matches_packed_layout_oracle():
    for n_bundle in (1, 2, 4):
        params = CycleParams(
            n_tbphc=5, rep_pdsch=3, rep_pucch=2, n_switch=2, n_bundle=n_bundle,
            ack_bundling=True,
        )
        got = list(delay_plan(params, Direction.DL))
        assert got == packed_dl_delays([3] * 5, 2, 2, n_bundle=n_bundle)


# --- structural identities ----------------------------------------------


def test_dl_feedback_positions_are_contiguous():
    # delay_j + j*r - (j-1)*pucch is constant: every TB's feedback lands
    # right after all data blocks and its predecessors' feedback
    for r, pucch in [(4, 1), (4, 2), (1, 3)]:
        params = CycleParams(n_tbphc=5, rep_pdsch=r, rep_pucch=pucch, n_switch=1)
        values = {
            d + j * r - (j - 1) * pucch
            for j, d in enumerate(delay_plan(params, Direction.DL), 1)
        }
        assert len(values) == 1
        assert values.pop() == 5 * r + 1


def test_ul_delay_increments():
    for p, r in [(1, 12), (2, 5), (3, 1)]:
        params = CycleParams(n_tbphc=6, rep_pdcch=p, rep_pusch=r, n_switch=1)
        plan = delay_plan(params, Direction.UL)
        deltas = {b - a for a, b in zip(plan, plan[1:])}
        assert deltas == {r - p}


def test_delay_plan_dispatch_and_floor():
    dl = delay_plan(CycleParams(n_tbphc=3, rep_pdsch=4, n_switch=2), Direction.DL)
    ul = delay_plan(CycleParams(n_tbphc=3, rep_pusch=4, n_switch=2), Direction.UL)
    bundled = delay_plan(
        CycleParams(n_tbphc=3, rep_pdsch=4, n_switch=2, n_bundle=3, ack_bundling=True),
        Direction.DL,
    )
    for plan in (dl, ul, bundled):
        assert len(plan) == 3
        assert all(d >= 2 for d in plan)  # every delay swallows the switch gap
    with pytest.raises(InvalidInputError):
        delay_plan(CycleParams(n_tbphc=2, ack_bundling=True), Direction.UL)


# --- parameter validation -----------------------------------------------


def test_cycle_params_validation():
    with pytest.raises(InvalidInputError):
        CycleParams(n_tbphc=0)
    with pytest.raises(InvalidInputError):
        CycleParams(rep_pdsch=0)
    with pytest.raises(InvalidInputError):  # one count per data channel, not one per TB
        CycleParams(n_tbphc=2, rep_pdsch=(4, 4))
    with pytest.raises(InvalidInputError):
        CycleParams(n_bundle=0)


@pytest.mark.parametrize("value", [math.inf, 2.5, 2.0])
@pytest.mark.parametrize("name", CycleParams._fields[:10])
def test_cycle_params_rejects_a_count_that_is_not_an_integer(name, value):
    # a count that passes its bound but is no integer would reach the closed
    # forms: an infinite or fractional repetition count gives such a length
    bound = r">= 1" if name == "n_bundle" else r"in \[[01], 100000\]"
    with pytest.raises(InvalidInputError, match=rf"^{name} must be an integer {bound}, got {value!r}$"):
        CycleParams(**{name: value})
