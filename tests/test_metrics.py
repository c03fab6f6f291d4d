import math
import re

import pytest

from ntn_harq.errors import InvalidInputError, MinDelayViolationError
from ntn_harq.harq import SF_SECONDS, CycleParams, Direction, GrantMode
from ntn_harq.metrics import (
    DELAY_OP_COUNTS,
    SchedulingMode,
    cycle_length_closed_form,
    delay_power,
    suf_closed_form,
    throughput,
)

LEGACY = SchedulingMode.LEGACY_FIXED
PROPOSED = SchedulingMode.PROPOSED_VARIABLE


# --- closed forms -----------------------------------------------------------


def test_legacy_ul_closed_form():
    params = CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    assert suf_closed_form(params, Direction.UL, LEGACY) == pytest.approx(1 / 17)


def test_legacy_dl_closed_form():
    params = CycleParams(
        n_tbphc=1, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1, dd2a_min=3, n_switch=1
    )
    assert suf_closed_form(params, Direction.DL, LEGACY) == pytest.approx(1 / 11)


def test_proposed_ul_closed_form():
    params = CycleParams(n_tbphc=5, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    assert suf_closed_form(params, Direction.UL, PROPOSED) == pytest.approx(5 / 67)


def test_proposed_dl_closed_form_example():
    params = CycleParams(
        n_tbphc=4, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1, dd2a_min=3,
        n_switch=1, grant_mode=GrantMode.MTBG,
    )
    assert cycle_length_closed_form(params, Direction.DL, PROPOSED) == 24


def test_single_tb_closed_form_consistent_with_generic():
    params = CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    length = cycle_length_closed_form(params, Direction.UL, LEGACY)
    assert suf_closed_form(params, Direction.UL, LEGACY) == 1 / length


def test_legacy_closed_form_requires_single_tb():
    params = CycleParams(n_tbphc=2, rep_pusch=12)
    with pytest.raises(InvalidInputError):
        suf_closed_form(params, Direction.UL, LEGACY)


def test_closed_form_rejects_ul_bundling():
    params = CycleParams(n_tbphc=2, ack_bundling=True, n_bundle=2)
    with pytest.raises(InvalidInputError):
        suf_closed_form(params, Direction.UL, PROPOSED)


def test_closed_form_refuses_an_uplink_cycle_that_cannot_be_laid_out():
    # grant blocks 8 SFs wide against 1-SF data: the padded UL delays fall
    # 42, 35, 28, so TB 3 misses the minimum and no 58-SF cycle exists
    params = CycleParams(n_tbphc=6, rep_pdcch=8, rep_pdsch=1, rep_pusch=1, n_switch=2, ug2d_min=35)
    message = "^TB 3 grant-to-data delay 28 < minimum 35$"
    with pytest.raises(MinDelayViolationError, match=message):
        cycle_length_closed_form(params, Direction.UL, PROPOSED)
    with pytest.raises(MinDelayViolationError, match=message):
        suf_closed_form(params, Direction.UL, PROPOSED)


def test_stbg_dl_counts_per_tb_grants():
    base = dict(n_tbphc=4, rep_pdcch=2, n_dg2d=1, rep_pdsch=4, rep_pucch=1,
                dd2a_min=3, n_switch=1)
    mtbg = CycleParams(grant_mode=GrantMode.MTBG, **base)
    stbg = CycleParams(grant_mode=GrantMode.STBG, **base)
    diff = cycle_length_closed_form(stbg, Direction.DL, PROPOSED) - cycle_length_closed_form(
        mtbg, Direction.DL, PROPOSED
    )
    assert diff == (4 - 1) * 2


def test_ul_closed_form_mode_independent():
    base = dict(n_tbphc=5, rep_pdcch=2, rep_pusch=12, ug2d_min=3, n_switch=1)
    mtbg = CycleParams(grant_mode=GrantMode.MTBG, **base)
    stbg = CycleParams(grant_mode=GrantMode.STBG, **base)
    assert cycle_length_closed_form(stbg, Direction.UL, PROPOSED) == cycle_length_closed_form(
        mtbg, Direction.UL, PROPOSED
    )


def test_bundling_shortens_dl_cycle():
    base = dict(n_tbphc=8, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=2,
                dd2a_min=3, n_switch=1, grant_mode=GrantMode.MTBG)
    plain = CycleParams(**base)
    bundled = CycleParams(ack_bundling=True, n_bundle=4, **base)
    assert cycle_length_closed_form(bundled, Direction.DL, PROPOSED) < cycle_length_closed_form(
        plain, Direction.DL, PROPOSED
    )
    # bundle of one changes nothing
    bundle_one = CycleParams(ack_bundling=True, n_bundle=1, **base)
    assert cycle_length_closed_form(bundle_one, Direction.DL, PROPOSED) == cycle_length_closed_form(
        plain, Direction.DL, PROPOSED
    )


# --- throughput --------------------------------------------------------------


@pytest.mark.parametrize(
    "suf,tbs,sf_s,expected",
    [
        (1.0, 504, 0.001, 504000.0),
        (5 / 67, 504, 0.001, 37611.9),
        (1 / 17, 504, 0.001, 29647.1),
    ],
)
def test_throughput(suf, tbs, sf_s, expected):
    assert SF_SECONDS == sf_s  # the subframe length the expected rates assume
    assert throughput(suf, tbs) == pytest.approx(expected, abs=0.1)


def test_throughput_validation():
    with pytest.raises(InvalidInputError):
        throughput(0.5, 0)
    with pytest.raises(InvalidInputError):
        throughput(0.5, -504)
    with pytest.raises(InvalidInputError):
        throughput(0.5, math.nan)


# --- monotonicity ------------------------------------------------------------


def test_proposed_suf_non_decreasing_in_tbphc():
    for rep in (4, 12, 24):
        sufs = [
            suf_closed_form(
                CycleParams(n_tbphc=n, rep_pdcch=1, rep_pusch=rep, ug2d_min=3, n_switch=1),
                Direction.UL,
                PROPOSED,
            )
            for n in range(1, 9)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(sufs, sufs[1:]))


def test_proposed_beats_legacy_when_reps_exceed_delay():
    for n in range(2, 9):
        for rep in (4, 12, 24):
            proposed = suf_closed_form(
                CycleParams(n_tbphc=n, rep_pdcch=1, rep_pusch=rep, ug2d_min=3, n_switch=1),
                Direction.UL,
                PROPOSED,
            )
            legacy = suf_closed_form(
                CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=rep, ug2d_min=3, n_switch=1),
                Direction.UL,
                LEGACY,
            )
            assert proposed > legacy


def test_gain_non_increasing_in_data_reps():
    def gain(rep, n=6):
        proposed = suf_closed_form(
            CycleParams(n_tbphc=n, rep_pdcch=1, rep_pusch=rep, ug2d_min=3, n_switch=1),
            Direction.UL,
            PROPOSED,
        )
        legacy = suf_closed_form(
            CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=rep, ug2d_min=3, n_switch=1),
            Direction.UL,
            LEGACY,
        )
        return proposed / legacy - 1.0

    gains = [gain(rep) for rep in (1, 2, 4, 8, 12, 16, 24, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(gains, gains[1:]))


# --- delay-computation power --------------------------------------------------


def test_delay_op_counts_documented():
    assert DELAY_OP_COUNTS == {"dd2a": 6, "ug2d": 6, "dd2a_bundled": 8}


@pytest.mark.parametrize(
    "ops,efficiency,expected_nw",
    [
        (6, 970.0, 6.19),
        (8, 144.0, 55.6),
    ],
)
def test_delay_power_values(ops, efficiency, expected_nw):
    assert delay_power(efficiency, 1000.0, ops) * 1e9 == pytest.approx(expected_nw, abs=0.05)


def test_delay_power_zero_ops():
    assert delay_power(144.0, 1000.0, 0) == 0.0


def test_processor_profile_validation():
    # the checks run before the product, so zero ops does not let a bad processor through
    with pytest.raises(InvalidInputError):
        delay_power(0.0, 1000.0, 0)
    with pytest.raises(InvalidInputError):
        delay_power(144.0, 0.0, 0)


# (efficiency, op rate, op count, message) for each check delay_power makes
DELAY_POWER_BAD_VALUES = {
    "efficiency": (0.0, 1000.0, 6, "efficiency_mops_per_mw must lie in (0, inf), got 0.0"),
    "op_rate": (144.0, -1.0, 6, "op_rate_per_s must lie in (0, inf), got -1.0"),
    "op_count": (144.0, 1000.0, -1, "op_count must lie in [0, inf), got -1"),
    "efficiency_nan": (math.nan, 1000.0, 6, "efficiency_mops_per_mw must lie in (0, inf), got nan"),
    "op_rate_nan": (144.0, math.nan, 6, "op_rate_per_s must lie in (0, inf), got nan"),
    "op_count_nan": (144.0, 1000.0, math.nan, "op_count must lie in [0, inf), got nan"),
}


@pytest.mark.parametrize("efficiency,op_rate,ops,message", DELAY_POWER_BAD_VALUES.values(),
                         ids=DELAY_POWER_BAD_VALUES.keys())
def test_delay_power_rejects_a_bad_value(efficiency, op_rate, ops, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        delay_power(efficiency, op_rate, ops)
