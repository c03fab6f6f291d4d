"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time
from pathlib import Path

from ntn_harq.bler import select_repetitions, spectral_efficiency
from ntn_harq.geometry import OrbitGeometry, Payload, round_trip_time, slant_range
from ntn_harq.harq import (
    CycleParams,
    Direction,
    GrantMode,
    fixed_positions,
    harq_for_tbphc,
    required_harq_count,
)
from ntn_harq.linkbudget import LinkBudgetParams, snr_db
from ntn_harq.metrics import (
    DELAY_OP_COUNTS,
    SchedulingMode,
    cycle_length_closed_form,
    delay_power,
    suf_closed_form,
    throughput,
)
from ntn_harq.scenario import calibrate, config_from_mapping, run_scenario
from ntn_harq.scheduler import (
    ConflictReport,
    SubframeTimeline,
    build_legacy_cycle,
    build_proposed_cycle,
    monte_carlo_goodput,
    validate,
)
from ntn_harq.cli import main as cli_main

PROFILE_DIR = Path(__file__).resolve().parent.parent / "profiles"


def _ok(criterion: str, detail: str) -> None:
    print(f"[acceptance] PASS {criterion}: {detail}")


# 1 ---------------------------------------------------------------------------


def test_criterion_1_rtt_table():
    endpoints = [
        (600, Payload.REGENERATIVE, 90, 4),
        (600, Payload.REGENERATIVE, 10, 13),
        (600, Payload.TRANSPARENT, 90, 8),
        (600, Payload.TRANSPARENT, 10, 26),
        (1200, Payload.REGENERATIVE, 90, 8),
        (1200, Payload.REGENERATIVE, 10, 21),
        (1200, Payload.TRANSPARENT, 90, 16),
        (1200, Payload.TRANSPARENT, 10, 42),
    ]
    start = time.perf_counter()
    for altitude, payload, elevation, expected in endpoints:
        rtt = round_trip_time(OrbitGeometry(altitude, payload, elevation, elevation))
        assert abs(rtt - expected) <= 0.5, (altitude, payload, elevation, rtt)
    for altitude, expected in [(600, 20), (1200, 34)]:
        rtt = round_trip_time(OrbitGeometry(altitude, Payload.TRANSPARENT, 30, 10))
        assert abs(rtt - expected) <= 0.5, (altitude, rtt)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _ok("1 RTT table", f"8 endpoints + 20/34 ms scenarios within 0.5 ms ({elapsed * 1e3:.1f} ms)")


# 2 ---------------------------------------------------------------------------


EVAL_LINK = LinkBudgetParams(
    eirp_dbm=23.0, g_over_t_db=-4.9, bandwidth_hz=180e3, carrier_ghz=2.0,
    loss_atm_db=0.07, loss_shadow_db=3.0, loss_scint_db=2.2, loss_polar_db=0.0,
)


def test_criterion_2_link_budget():
    start = time.perf_counter()
    values = {}
    for altitude, expected in [(600, -0.2), (1200, -5.6)]:
        distance_m = slant_range(altitude, 30) * 1000.0
        values[altitude] = snr_db(EVAL_LINK, distance_m)
        assert abs(values[altitude] - expected) <= 0.1, values
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _ok("2 link budget", f"snr600={values[600]:.2f} dB snr1200={values[1200]:.2f} dB")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_repetitions_and_efficiency(table):
    assert select_repetitions(table, 144, -5.6, 0.1) == 12
    assert select_repetitions(table, 504, -5.6, 0.1) == 24
    assert select_repetitions(table, 504, -0.2, 0.1) == 12
    assert spectral_efficiency(144, 12) == 12
    assert spectral_efficiency(504, 24) == 21
    _ok("3 repetition anchors", "12/24 at -5.6 dB, 12 at -0.2 dB; efficiency 12 and 21 bits/PRB")


# 4 ---------------------------------------------------------------------------


def test_criterion_4_timeline_formula_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for rep in (1, 2, 4, 12, 24):
            for sw, min_delay in ((1, 3), (1, 8), (2, 3), (2, 8)):
                for grant_mode in (GrantMode.STBG, GrantMode.MTBG):
                    for direction in (Direction.DL, Direction.UL):
                        bundles = (None, 1, 2, 4) if direction is Direction.DL else (None,)
                        for bundle in bundles:
                            params = CycleParams(
                                n_tbphc=n,
                                rep_pdcch=1,
                                rep_pdsch=rep,
                                rep_pusch=rep,
                                rep_pucch=1,
                                n_switch=sw,
                                n_dg2d=1,
                                dd2a_min=min_delay,
                                ug2d_min=min_delay,
                                grant_mode=grant_mode,
                                ack_bundling=bundle is not None,
                                n_bundle=bundle or 1,
                            )
                            timeline = build_proposed_cycle(params, direction)
                            expected = cycle_length_closed_form(
                                params, direction, SchedulingMode.PROPOSED_VARIABLE
                            )
                            assert len(timeline) == expected, (params, direction)
                            assert suf_closed_form(
                                params, direction, SchedulingMode.PROPOSED_VARIABLE
                            ) == n / len(timeline)
                            report = validate(timeline, params)
                            assert report.conflicts == (), (params, direction, report)
                            checked += 1
    for rep in (1, 2, 4, 12, 24):
        for sw, min_delay in ((1, 3), (1, 8), (2, 3), (2, 8)):
            for direction in (Direction.DL, Direction.UL):
                params = CycleParams(
                    n_tbphc=1, rep_pdcch=1, rep_pdsch=rep, rep_pusch=rep,
                    rep_pucch=1, n_switch=sw, n_dg2d=1,
                    dd2a_min=min_delay, ug2d_min=min_delay,
                )
                timeline = build_legacy_cycle(params, direction)
                assert isinstance(timeline, SubframeTimeline)
                expected = cycle_length_closed_form(
                    params, direction, SchedulingMode.LEGACY_FIXED
                )
                assert len(timeline) == expected, (params, direction)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok("4 timeline equivalence", f"{checked} grid points slot-exact, validators clean ({elapsed:.2f} s)")


# 5 ---------------------------------------------------------------------------


def test_criterion_5_conflict_oracle():
    checked = 0
    for direction in (Direction.DL, Direction.UL):
        for rep in (1, 2, 3, 4, 5, 8, 12, 24):
            for delay in (1, 2, 3, 4, 5, 8):
                for n in (1, 2):
                    params = CycleParams(
                        n_tbphc=n, rep_pdcch=1, n_dg2d=1, rep_pdsch=rep,
                        rep_pusch=rep, rep_pucch=1, n_switch=1,
                        dd2a_min=delay, ug2d_min=delay,
                    )
                    result = build_legacy_cycle(params, direction)
                    expected = rep > delay and n > 1
                    assert isinstance(result, ConflictReport) == expected, (
                        direction, rep, delay, n,
                    )
                    checked += 1
        # repetitions above the delay always conflict, at any TB count
        for n in (3, 4, 8):
            for rep, delay in ((4, 3), (12, 3), (24, 8)):
                params = CycleParams(
                    n_tbphc=n, rep_pdsch=rep, rep_pusch=rep,
                    dd2a_min=delay, ug2d_min=delay,
                )
                assert isinstance(build_legacy_cycle(params, direction), ConflictReport)
                checked += 1

    # the canonical instance: 4 repetitions vs a fixed delay of 3
    params = CycleParams(
        n_tbphc=2, rep_pdcch=1, n_dg2d=1, rep_pdsch=4, rep_pucch=1,
        n_switch=1, dd2a_min=3,
    )
    report = build_legacy_cycle(params, Direction.DL)
    assert isinstance(report, ConflictReport)
    tb1_end = 1 + 1 + 4 - 1
    expected_sf = fixed_positions(tb1_end, 3)
    assert report.conflicts[0].sf_index == expected_sf == 9
    assert set(report.conflicts[0].activities) == {"RxPDSCH", "TxPUCCH"}
    _ok("5 conflict oracle", f"{checked} legacy layouts match the overlap condition; canonical case at SF {expected_sf}")


# 6 ---------------------------------------------------------------------------


def test_criterion_6_throughput_gains(table):
    ltem = calibrate(config_from_mapping({}), table)
    assert not ltem.degraded, (
        f"LTE-M calibration degraded: closest gain {ltem.gain_pct:.2f}% "
        f"vs target {ltem.target_gain_pct}%"
    )
    assert abs(ltem.gain_pct - 28.0) <= 2.0

    nbiot_raw = {"protocol": "nb-iot", "protocol.extended_harq": "true"}
    nbiot = calibrate(config_from_mapping(nbiot_raw), table)
    assert not nbiot.degraded, (
        f"NB-IoT calibration degraded: closest gain {nbiot.gain_pct:.2f}% "
        f"vs target {nbiot.target_gain_pct}%"
    )
    assert abs(nbiot.gain_pct - 31.0) <= 3.0

    # altitude ordering with the calibrated pairs
    gains = {}
    for protocol, cal, extra in (
        ("lte-m", ltem, {}),
        ("nb-iot", nbiot, nbiot_raw),
    ):
        for altitude in (600, 1200):
            raw = {
                **extra,
                "geometry.altitude_km": str(altitude),
                "cycle.rep_pdcch": str(cal.rep_pdcch),
                "cycle.n_a2g": str(cal.n_a2g),
            }
            gains[(protocol, altitude)] = run_scenario(config_from_mapping(raw), table).gain_pct
    assert gains[("lte-m", 1200)] < gains[("lte-m", 600)]
    assert gains[("nb-iot", 1200)] < gains[("nb-iot", 600)]
    _ok(
        "6 throughput gains",
        f"LTE-M {ltem.gain_pct:.1f}% (target 28±2, pdcch={ltem.rep_pdcch}, a2g={ltem.n_a2g}); "
        f"NB-IoT {nbiot.gain_pct:.1f}% (target 31±3, pdcch={nbiot.rep_pdcch}, a2g={nbiot.n_a2g}); "
        f"LEO1200 gains {gains[('lte-m', 1200)]:.1f}%/{gains[('nb-iot', 1200)]:.1f}% strictly lower",
    )


# 7 ---------------------------------------------------------------------------


def test_criterion_7_power_cost():
    nw = {}
    for scheme, ops in DELAY_OP_COUNTS.items():
        for efficiency in (144.0, 970.0):
            nw[(scheme, efficiency)] = delay_power(efficiency, 1000.0, ops) * 1e9
    assert any(nw[(s, 144.0)] <= 60.0 for s in DELAY_OP_COUNTS)
    assert any(nw[(s, 970.0)] <= 7.0 for s in DELAY_OP_COUNTS)
    _ok(
        "7 power cost",
        "at 144 MOPS/mW: " + ", ".join(f"{s}={nw[(s, 144.0)]:.1f} nW" for s in DELAY_OP_COUNTS)
        + "; at 970 MOPS/mW: " + ", ".join(f"{s}={nw[(s, 970.0)]:.2f} nW" for s in DELAY_OP_COUNTS),
    )


# 8 ---------------------------------------------------------------------------


def test_criterion_8_harq_sizing():
    assert required_harq_count(42, 1) == 42
    for n in range(1, 9):
        for rep in (1, 2, 4, 12, 24):
            for sw in (1, 2):
                params = CycleParams(
                    n_tbphc=n, rep_pdsch=rep, rep_pusch=rep, n_switch=sw
                )
                assert harq_for_tbphc(params, 0, 0) == n
    _ok("8 HARQ sizing", "stop-and-wait bound 42 at 42 ms; zero-RTT sizing returns the TB count")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_monte_carlo(tmp_path):
    start = time.perf_counter()
    params = CycleParams(n_tbphc=6, rep_pdcch=1, rep_pusch=12, ug2d_min=3, n_switch=1)
    suf = suf_closed_form(params, Direction.UL, SchedulingMode.PROPOSED_VARIABLE)
    rate = throughput(suf, 504)

    clean = monte_carlo_goodput(params, Direction.UL, [0.0], 100, seed=1, tbs_bits=504)
    assert clean.goodput_bps == rate

    n_cycles = 10_000
    lossy = monte_carlo_goodput(
        params, Direction.UL, [0.1, 0.0], n_cycles, seed=2024, tbs_bits=504
    )
    ratio = lossy.goodput_bps / rate
    p = 1.0 / 1.1
    half_width = 2.576 * math.sqrt(p * (1.0 - p) / (n_cycles * params.n_tbphc))
    assert abs(ratio - p) <= half_width, (ratio, p, half_width)

    profile = PROFILE_DIR / "leo600_ltem_ul.cfg"
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(
        profile.read_text()
        + "monte_carlo.n_cycles = 500\nmonte_carlo.seed = 7\n"
        + "monte_carlo.bler_per_attempt = 0.1,0\n"
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", str(seeded), "--out", str(out_a)]) == 0
    assert cli_main(["run", str(seeded), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(
        "9 Monte Carlo",
        f"zero-BLER equals closed form exactly; retry ratio {ratio:.4f} within CI of {p:.4f}; "
        f"seeded CSV byte-identical ({elapsed:.2f} s)",
    )
