import itertools
import math
import re
from types import SimpleNamespace

import pytest

from ntn_harq import scenario, scheduler
from ntn_harq.errors import ConfigError, InfeasibleLinkError, InvalidInputError, MinDelayViolationError
from ntn_harq.harq import CycleParams, Direction, GrantMode, delay_guard, fixed_positions
from ntn_harq.metrics import SchedulingMode, cycle_length_closed_form
from ntn_harq.scheduler import (
    Activity,
    ConflictReport,
    Perspective,
    SubframeTimeline,
    bs_view,
    build_legacy_cycle,
    build_proposed_cycle,
    export_timeline,
    monte_carlo_goodput,
    validate,
)

from timeline_uses import uses

DATA_ACT = {Direction.DL: Activity.RX_PDSCH, Direction.UL: Activity.TX_PUSCH}


# --- legacy cycles --------------------------------------------------------


def test_legacy_dl_single_tb_length_matches_sum():
    for r in (1, 2, 4, 12):
        for sw in (1, 2):
            params = CycleParams(
                n_tbphc=1, rep_pdcch=1, n_dg2d=1, rep_pdsch=r, rep_pucch=1,
                n_switch=sw, dd2a_min=3,
            )
            timeline = build_legacy_cycle(params, Direction.DL)
            assert isinstance(timeline, SubframeTimeline)
            assert len(timeline) == 1 + 1 + r + 3 + 1 + sw


def test_legacy_ul_single_tb_example():
    params = CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    timeline = build_legacy_cycle(params, Direction.UL)
    assert isinstance(timeline, SubframeTimeline)
    assert len(timeline) == 17


def test_legacy_two_small_tbs_fit():
    params = CycleParams(
        n_tbphc=2, rep_pdcch=1, n_dg2d=1, rep_pdsch=1, rep_pucch=1, n_switch=1, dd2a_min=3
    )
    timeline = build_legacy_cycle(params, Direction.DL)
    assert isinstance(timeline, SubframeTimeline)


def test_legacy_overlap_instance():
    # two 4-repetition TBs with a 3-SF fixed delay: the first TB's
    # feedback lands exactly on the second TB's last data subframe
    params = CycleParams(
        n_tbphc=2, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1, n_switch=1, dd2a_min=3
    )
    report = build_legacy_cycle(params, Direction.DL)
    assert isinstance(report, ConflictReport)
    # independent position arithmetic: TB1 data ends after grant+gap+reps
    tb1_end = 1 + 1 + 4 - 1
    expected_sf = fixed_positions(tb1_end, 3)
    tb2_last = 1 + 1 + 2 * 4 - 1
    assert expected_sf == tb2_last == 9
    assert len(report.conflicts) == 1
    conflict = report.conflicts[0]
    assert conflict.sf_index == expected_sf
    assert set(conflict.activities) == {"RxPDSCH", "TxPUCCH"}
    assert set(conflict.tb_indices) == {1, 2}
    assert report.attempt is not None


@pytest.mark.parametrize("direction", [Direction.DL, Direction.UL])
def test_legacy_conflict_iff_reps_exceed_delay_two_tbs(direction):
    for rep in (1, 2, 3, 4, 5, 8, 12):
        for delay in (1, 2, 3, 4, 5, 8):
            for n in (1, 2):
                params = CycleParams(
                    n_tbphc=n,
                    rep_pdcch=1,
                    n_dg2d=1,
                    rep_pdsch=rep,
                    rep_pusch=rep,
                    rep_pucch=1,
                    n_switch=1,
                    dd2a_min=delay,
                    ug2d_min=delay,
                )
                result = build_legacy_cycle(params, direction)
                expect_conflict = rep > delay and n > 1
                assert isinstance(result, ConflictReport) == expect_conflict, (
                    direction, rep, delay, n,
                )


@pytest.mark.parametrize("direction", [Direction.DL, Direction.UL])
def test_legacy_conflict_when_reps_exceed_delay_many_tbs(direction):
    for n in (3, 5, 8):
        for rep, delay in [(4, 3), (12, 3), (12, 8), (24, 8)]:
            params = CycleParams(
                n_tbphc=n, rep_pdsch=rep, rep_pusch=rep, dd2a_min=delay, ug2d_min=delay
            )
            assert isinstance(build_legacy_cycle(params, direction), ConflictReport)


# --- proposed cycles ------------------------------------------------------


def test_proposed_dl_mtbg_example():
    params = CycleParams(
        n_tbphc=4, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1, n_switch=1,
        dd2a_min=3, grant_mode=GrantMode.MTBG,
    )
    timeline = build_proposed_cycle(params, Direction.DL)
    assert len(timeline) == 24


def test_proposed_ul_example():
    params = CycleParams(n_tbphc=5, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    timeline = build_proposed_cycle(params, Direction.UL)
    assert len(timeline) == 67


def test_proposed_matches_closed_form_on_grid():
    for direction in (Direction.DL, Direction.UL):
        for n in (1, 2, 3, 5, 8):
            for rep in (1, 4, 12):
                for mode in (GrantMode.STBG, GrantMode.MTBG):
                    params = CycleParams(
                        n_tbphc=n, rep_pdsch=rep, rep_pusch=rep,
                        grant_mode=mode, dd2a_min=3, ug2d_min=3,
                    )
                    timeline = build_proposed_cycle(params, direction)
                    expected = cycle_length_closed_form(
                        params, direction, SchedulingMode.PROPOSED_VARIABLE
                    )
                    assert len(timeline) == expected
                    assert not validate(timeline, params).conflicts


def test_proposed_single_tb_degenerates_to_legacy_plus_switch():
    # same non-idle activity sequence; only the final switch block grows
    dl = CycleParams(
        n_tbphc=1, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1, n_switch=1,
        dd2a_min=3, grant_mode=GrantMode.MTBG,
    )
    legacy = build_legacy_cycle(dl, Direction.DL)
    proposed = build_proposed_cycle(dl, Direction.DL)
    assert len(proposed) == len(legacy) + dl.n_switch

    def sequence(tl):
        return [
            activity
            for _, (activity, _) in uses(tl)
            if activity not in (Activity.IDLE, Activity.SWITCH)
        ]

    assert sequence(proposed) == sequence(legacy)

    ul = CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    legacy_ul = build_legacy_cycle(ul, Direction.UL)
    proposed_ul = build_proposed_cycle(ul, Direction.UL)
    assert len(proposed_ul) == len(legacy_ul) + ul.n_switch
    assert sequence(proposed_ul) == sequence(legacy_ul)


def test_proposed_ul_packs_without_idle_when_guard_saturated():
    # grants cover the minimum wait, so nothing idles inside the cycle
    params = CycleParams(n_tbphc=6, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    timeline = build_proposed_cycle(params, Direction.UL)
    occupied = sorted({i for i, _ in uses(timeline)})
    assert occupied == list(range(occupied[0], occupied[-1] + 1)), "idle SF inside the packed cycle"


def test_proposed_min_delay_violation():
    # feedback blocks wider than the data blocks leave TB 1 the tightest
    # DL delay (1 + switch against TB 2's 4 + switch), so the guard pads
    # from TB 1 and the cycle builds
    params = CycleParams(
        n_tbphc=2, rep_pdsch=1, rep_pucch=4, dd2a_min=8, n_switch=1,
        grant_mode=GrantMode.MTBG,
    )
    assert delay_guard(params, Direction.DL) == 7
    timeline = build_proposed_cycle(params, Direction.DL)
    assert len(timeline) == 21 == cycle_length_closed_form(params, Direction.DL, SchedulingMode.PROPOSED_VARIABLE)
    assert validate(timeline, params).conflicts == ()
    # uplink pads from TB 1 only: TB 2 stays short
    ul = CycleParams(n_tbphc=2, rep_pdcch=4, rep_pusch=1, ug2d_min=9, n_switch=1)
    with pytest.raises(MinDelayViolationError):
        build_proposed_cycle(ul, Direction.UL)


def test_proposed_rejects_ul_bundling():
    params = CycleParams(n_tbphc=2, ack_bundling=True, n_bundle=2)
    with pytest.raises(InvalidInputError, match="^feedback bundling applies to downlink cycles only$"):
        build_proposed_cycle(params, Direction.UL)


def test_proposed_realized_delays_meet_minimum():
    for n in (1, 2, 4, 8):
        params = CycleParams(
            n_tbphc=n, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1,
            n_switch=2, dd2a_min=8, grant_mode=GrantMode.MTBG,
        )
        timeline = build_proposed_cycle(params, Direction.DL)
        data_end = {}
        ack_start = {}
        for i, (activity, tb) in uses(timeline):
            if activity is Activity.RX_PDSCH:
                data_end[tb] = i
            if activity is Activity.TX_PUCCH and tb is not None:
                ack_start.setdefault(tb, i)
        for j in range(1, n + 1):
            assert ack_start[j] - data_end[j] - 1 >= params.dd2a_min


# --- validate -------------------------------------------------------------


def test_validate_flags_hand_built_overlap():
    blocks = (
        (0, 1, (Activity.RX_PDSCH, 1), 0),
        (1, 1, (Activity.RX_PDSCH, 2), 1),
        (1, 1, (Activity.TX_PUCCH, 1), 2),
    )
    timeline = SubframeTimeline(blocks, 2)
    report = validate(timeline, CycleParams(n_tbphc=2, dd2a_min=0, n_switch=0))
    kinds = {c.kind for c in report.conflicts}
    assert "double-booking" in kinds
    booked = [c for c in report.conflicts if c.kind == "double-booking"]
    assert booked[0].sf_index == 1


def test_validate_flags_short_feedback_delay():
    # feedback 2 SFs after the data with a 3-SF minimum
    blocks = (
        (0, 1, (Activity.RX_PDSCH, 1), 0),
        (2, 1, (Activity.SWITCH, None), 1),
        (3, 1, (Activity.TX_PUCCH, 1), 2),
    )
    timeline = SubframeTimeline(blocks, 4)
    report = validate(timeline, CycleParams(n_tbphc=1, dd2a_min=3, n_switch=1))
    assert any(c.kind == "min-delay" for c in report.conflicts)


def test_validate_checks_the_feedback_delay_of_every_bundle_group():
    # the two bundle groups' feedback blocks touch; each answers its own group
    params = CycleParams(n_tbphc=8, rep_pdsch=2, rep_pucch=1, n_switch=1, n_bundle=4, ack_bundling=True, dd2a_min=3)
    timeline = build_proposed_cycle(params, Direction.DL)
    assert validate(timeline, params).conflicts == ()
    report = validate(timeline, params._replace(dd2a_min=53))
    assert [(c.kind, c.tb_indices) for c in report.conflicts] == [("min-delay", (j, j)) for j in range(1, 9)]
    assert [c.sf_index for c in report.conflicts] == [28] * 4 + [29] * 4


def test_validate_flags_missing_switch():
    blocks = ((0, 1, (Activity.RX_PDSCH, 1), 0), (4, 1, (Activity.TX_PUCCH, 1), 1))
    timeline = SubframeTimeline(blocks, 5)
    report = validate(timeline, CycleParams(n_tbphc=1, dd2a_min=3, n_switch=1))
    assert any(c.kind == "missing-switch" for c in report.conflicts)


def test_validate_passes_builder_output():
    params = CycleParams(
        n_tbphc=4, rep_pdsch=4, rep_pucch=1, n_switch=1, dd2a_min=3,
        grant_mode=GrantMode.MTBG,
    )
    timeline = build_proposed_cycle(params, Direction.DL)
    assert validate(timeline, params).conflicts == ()


def test_validate_checks_ul_grant_separation():
    params = CycleParams(n_tbphc=3, rep_pdcch=1, rep_pusch=4, ug2d_min=3, n_switch=1)
    timeline = build_proposed_cycle(params, Direction.UL)
    assert validate(timeline, params).conflicts == ()
    tight = CycleParams(n_tbphc=3, rep_pdcch=1, rep_pusch=4, ug2d_min=30, n_switch=1)
    report = validate(timeline, tight)
    assert any(c.kind == "min-delay" for c in report.conflicts)


def test_validate_rejects_bs_perspective():
    timeline = SubframeTimeline((), 1, Perspective.BS)
    with pytest.raises(InvalidInputError):
        validate(timeline, CycleParams())


# --- BS view ---------------------------------------------------------------


def test_bs_view_zero_rtt_is_identity():
    params = CycleParams(n_tbphc=2, rep_pdsch=2, dd2a_min=3, grant_mode=GrantMode.MTBG)
    timeline = build_proposed_cycle(params, Direction.DL)
    view = bs_view(timeline, 0)
    assert view.segments == timeline.segments
    assert view.origin == timeline.origin
    assert view.perspective is Perspective.BS


def test_bs_view_shifts_ul_and_dl_oppositely():
    params = CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=2, ug2d_min=3, n_switch=1)
    timeline = build_proposed_cycle(params, Direction.UL)
    # one-way flight of 8 SFs
    view = bs_view(timeline, 16)
    ue_data = [i for i, (activity, _) in uses(timeline) if activity is Activity.TX_PUSCH]
    bs_data = [i for i, (activity, _) in uses(view) if activity is Activity.TX_PUSCH]
    assert bs_data == [i + 8 for i in ue_data]
    ue_grant = [i for i, (activity, _) in uses(timeline) if activity is Activity.RX_PDCCH]
    bs_grant = [i for i, (activity, _) in uses(view) if activity is Activity.RX_PDCCH]
    assert bs_grant == [i - 8 for i in ue_grant]
    # the grant->data turnaround widens by the full round trip at the BS
    assert (bs_data[0] - bs_grant[-1]) - (ue_data[0] - ue_grant[-1]) == 16


def test_bs_view_feedback_arrives_one_way_later():
    # DL cycle with an 8-SF one-way flight: the UE's feedback subframe t
    # shows up at the BS at t + 8
    params = CycleParams(n_tbphc=2, rep_pdsch=4, dd2a_min=3, grant_mode=GrantMode.MTBG)
    timeline = build_proposed_cycle(params, Direction.DL)
    view = bs_view(timeline, 16)
    ue_acks = [i for i, (activity, _) in uses(timeline) if activity is Activity.TX_PUCCH]
    bs_acks = [i for i, (activity, _) in uses(view) if activity is Activity.TX_PUCCH]
    assert bs_acks == [i + 8 for i in ue_acks]


def test_bs_view_grant_position_example():
    timeline = SubframeTimeline(((10, 1, (Activity.RX_PDCCH, None), 0),), 12)
    view = bs_view(timeline, 20)
    positions = [i for i, (activity, _) in uses(view) if activity is Activity.RX_PDCCH]
    assert positions == [0]


def test_bs_view_rejects_a_bs_perspective_timeline():
    view = bs_view(build_proposed_cycle(CycleParams(), Direction.UL), 16)
    with pytest.raises(InvalidInputError, match=r"^bs_view\(\) expects a UE-perspective timeline$"):
        bs_view(view, 16)


def test_bs_view_rejects_negative_rtt():
    for rtt in (-1, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="^rtt must be finite and >= 0$"):
            bs_view(SubframeTimeline((), 1), rtt)


# --- export ----------------------------------------------------------------


def test_export_format():
    blocks = ((0, 1, (Activity.RX_PDCCH, None), 0), (2, 1, (Activity.TX_PUSCH, 1), 1))
    timeline = SubframeTimeline(blocks, 3)
    assert export_timeline(timeline) == (
        "0,UE,RxPDCCH,,\n"
        "1,UE,Idle,,\n"
        "2,UE,TxPUSCH,1,1\n"
    )


def test_export_roundtrip_slot_count():
    params = CycleParams(n_tbphc=3, rep_pusch=4, ug2d_min=3)
    timeline = build_proposed_cycle(params, Direction.UL)
    lines = export_timeline(timeline).splitlines()
    assert len(lines) == len(timeline)


# --- Monte Carlo -----------------------------------------------------------


UL_PARAMS = CycleParams(n_tbphc=6, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)


def test_monte_carlo_zero_bler_equals_deterministic_rate():
    from ntn_harq.metrics import suf_closed_form, throughput

    result = monte_carlo_goodput(UL_PARAMS, Direction.UL, [0.0], 50, seed=7, tbs_bits=504)
    suf = suf_closed_form(UL_PARAMS, Direction.UL, SchedulingMode.PROPOSED_VARIABLE)
    assert result.goodput_bps == throughput(suf, 504)
    assert result.retransmission_rate == 0.0


def test_monte_carlo_always_failing_link():
    result = monte_carlo_goodput(UL_PARAMS, Direction.UL, [1.0, 1.0], 20, seed=3, tbs_bits=504)
    assert result.goodput_bps == 0.0


def test_monte_carlo_single_retry_ratio():
    from ntn_harq.metrics import suf_closed_form, throughput

    n_cycles = 10_000
    result = monte_carlo_goodput(
        UL_PARAMS, Direction.UL, [0.1, 0.0], n_cycles, seed=12345, tbs_bits=504
    )
    suf = suf_closed_form(UL_PARAMS, Direction.UL, SchedulingMode.PROPOSED_VARIABLE)
    ratio = result.goodput_bps / throughput(suf, 504)
    p = 1.0 / 1.1
    n = n_cycles * UL_PARAMS.n_tbphc
    half_width = 2.576 * math.sqrt(p * (1 - p) / n)
    assert abs(ratio - p) <= half_width


def test_monte_carlo_deterministic_given_seed():
    a = monte_carlo_goodput(UL_PARAMS, Direction.UL, [0.3, 0.1, 0.0], 500, seed=42, tbs_bits=504)
    b = monte_carlo_goodput(UL_PARAMS, Direction.UL, [0.3, 0.1, 0.0], 500, seed=42, tbs_bits=504)
    c = monte_carlo_goodput(UL_PARAMS, Direction.UL, [0.3, 0.1, 0.0], 500, seed=43, tbs_bits=504)
    assert a == b
    assert a != c


def test_monte_carlo_validates_probabilities():
    with pytest.raises(InvalidInputError):
        monte_carlo_goodput(UL_PARAMS, Direction.UL, [], 10, 1, 504)
    with pytest.raises(InvalidInputError):
        monte_carlo_goodput(UL_PARAMS, Direction.UL, [1.2], 10, 1, 504)
    with pytest.raises(InvalidInputError):
        monte_carlo_goodput(UL_PARAMS, Direction.UL, [0.1], 0, 1, 504)


def _no_draws(seed):
    def draw():
        raise AssertionError("drew a random number before checking every argument")

    return SimpleNamespace(random=draw)


@pytest.mark.parametrize("tbs_bits", [0, -504])
def test_monte_carlo_checks_the_tb_size_before_any_draw(monkeypatch, tbs_bits):
    monkeypatch.setattr(scheduler, "random", SimpleNamespace(Random=_no_draws))
    with pytest.raises(InvalidInputError, match=rf"^tbs_bits must lie in \[1, 100000\], got {tbs_bits}$"):
        monte_carlo_goodput(UL_PARAMS, Direction.UL, [0.5], 20_000, 1, tbs_bits)


def test_monte_carlo_rejects_an_uplink_cycle_that_misses_a_minimum_delay():
    params = CycleParams(n_tbphc=2, rep_pdcch=4, rep_pusch=1, ug2d_min=9, n_switch=1)
    with pytest.raises(MinDelayViolationError, match="^TB 2 grant-to-data delay 7 < minimum 9$"):
        monte_carlo_goodput(params, Direction.UL, [0.1], 10, 1, 504)


# --- the benchmark's sweep grid --------------------------------------------


def test_every_proposed_cycle_of_the_benchmark_sweep_lays_out_as_its_closed_form(table, bench_workloads):
    # run_scenario sizes cycles by the closed form alone, so the layouts
    # that it once checked at run time are checked here, once each
    root, workloads = bench_workloads
    base = workloads.profile_raw(root, workloads.SWEEP_BASE)
    cycles = set()
    for combo in itertools.product(*workloads.SWEEP_AXES):
        config = scenario.config_from_mapping({**base, **{k: v for update in combo for k, v in update.items()}})
        if config.mode is SchedulingMode.PROPOSED_VARIABLE:
            try:
                cycles.add((scenario.resolve(config, table).params, config.direction))
            except (ConfigError, InfeasibleLinkError):
                pass
    laid_out = 0
    for params, direction in cycles:
        try:
            timeline = build_proposed_cycle(params, direction)
        except MinDelayViolationError as exc:
            with pytest.raises(MinDelayViolationError, match=f"^{re.escape(str(exc))}$"):
                cycle_length_closed_form(params, direction, SchedulingMode.PROPOSED_VARIABLE)
            continue
        assert len(timeline) == cycle_length_closed_form(params, direction, SchedulingMode.PROPOSED_VARIABLE)
        assert validate(timeline, params).conflicts == ()
        delay_guard(params, direction)
        laid_out += 1
    assert (laid_out, len(cycles) - laid_out) == (354, 6)  # 6 NB-IoT uplink cycles with rep_pdcch = 8
