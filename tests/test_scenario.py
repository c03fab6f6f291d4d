import os

import pytest

from ntn_harq.errors import ConfigError, InfeasibleLinkError
from ntn_harq.metrics import SchedulingMode
from ntn_harq.scenario import (
    calibrate,
    config_from_mapping,
    load_config,
    parse_config_text,
    results_to_csv,
    run_scenario,
    sweep,
    update_config_file,
)

NBIOT_EXT = {"protocol": "nb-iot", "protocol.extended_harq": "true"}


def test_defaults_run_ltem_leo600(table):
    config = config_from_mapping({})
    result = run_scenario(config, table)
    assert result.n_rep == 12
    assert result.n_tbphc == 6
    assert result.n_harq_required <= 8
    assert result.rtt_ms == pytest.approx(20, abs=0.5)
    assert result.snr_db == pytest.approx(-0.2, abs=0.1)
    assert result.gain_pct == pytest.approx(27.5, abs=0.01)
    assert result.suf == pytest.approx(6 / 80)


def test_leo1200_uses_heavier_repetitions(table):
    config = config_from_mapping({"geometry.altitude_km": "1200"})
    result = run_scenario(config, table)
    assert result.n_rep == 24
    assert result.snr_db == pytest.approx(-5.6, abs=0.1)
    assert result.gain_pct < 27.5


def test_legacy_mode_single_tb_no_gain(table):
    config = config_from_mapping({"mode": "legacy"})
    result = run_scenario(config, table)
    assert result.n_tbphc == 1
    assert result.gain_pct == 0.0
    assert result.suf == pytest.approx(1 / 17)


def test_explicit_tbphc_validated_against_harq_budget(table):
    config = config_from_mapping({"cycle.n_tbphc": "8"})
    with pytest.raises(ConfigError, match="HARQ-process sizing"):
        run_scenario(config, table)


def test_raising_max_harq_unlocks_more_tbs(table):
    config = config_from_mapping({"cycle.n_tbphc": "8", "cycle.max_harq": "16"})
    result = run_scenario(config, table)
    assert result.n_tbphc == 8


def test_nbiot_without_extended_harq_cannot_pipeline(table):
    config = config_from_mapping({"protocol": "nb-iot"})
    with pytest.raises(ConfigError, match="HARQ"):
        run_scenario(config, table)


def test_nbiot_extended_runs(table):
    config = config_from_mapping(NBIOT_EXT)
    result = run_scenario(config, table)
    assert result.n_tbphc == 2
    assert result.n_harq_required <= 4


def test_infeasible_link_raises(table):
    config = config_from_mapping({"link.eirp_dbm": "-40"})
    with pytest.raises(InfeasibleLinkError):
        run_scenario(config, table)


def test_dl_scenario_runs(table):
    config = config_from_mapping({"direction": "dl", "cycle.grant_mode": "mtbg"})
    result = run_scenario(config, table)
    assert result.mode == "proposed"
    assert result.n_tbphc >= 2


def test_monte_carlo_attached_when_enabled(table):
    config = config_from_mapping(
        {"monte_carlo.n_cycles": "50", "monte_carlo.seed": "9",
         "monte_carlo.bler_per_attempt": "0.2,0"}
    )
    result = run_scenario(config, table)
    assert result.goodput is not None
    assert 0 < result.goodput.goodput_bps <= result.throughput_bps


# --- config parsing -------------------------------------------------------


def test_parse_config_text_roundtrip():
    raw = parse_config_text(
        "# comment\n"
        "geometry.altitude_km = 1200\n"
        "mode = legacy  # trailing comment\n"
    )
    assert raw == {"geometry.altitude_km": "1200", "mode": "legacy"}


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("geometry.altitude = 600\n")


def test_parse_rejects_bad_line():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")


def test_mapping_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_mapping({"tbs_bits": "many"})
    with pytest.raises(ConfigError):
        config_from_mapping({"direction": "sideways"})
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol": "lora"})
    with pytest.raises(ConfigError):
        config_from_mapping({"geometry.altitude_km": "-5"})
    # caught when parsed, by an error that names the key
    for key, value in [
        ("geometry.altitude_km", "nan"),
        ("geometry.service_elevation_deg", "NaN"),
        ("link.bandwidth_hz", "nan"),
        ("link.eirp_dbm", "inf"),
        ("link.loss_shadow_db", "-inf"),
        ("target_bler", "nan"),
        ("target_bler", "2"),
        ("target_bler", "0"),
        ("cycle.n_tbphc", "0"),
        ("cycle.n_bundle", "0"),
        ("monte_carlo.n_cycles", "-1"),
        ("monte_carlo.bler_per_attempt", "0.1,1.5"),
        ("monte_carlo.bler_per_attempt", "-0.1"),
        ("monte_carlo.bler_per_attempt", "0.1,nan"),
        ("cycle.grant_mode", "sometimes"),
        ("cycle.ack_bundling", "maybe"),
        ("cycle.rep_pdcch", "0"),
        ("cycle.rep_pucch", "0"),
        ("cycle.n_dg2d", "-1"),
        ("cycle.n_switch", "-1"),
        ("cycle.dd2a_min", "-1"),
        ("cycle.ug2d_min", "-1"),
        ("cycle.n_a2g", "-1"),
        ("power.efficiency_mops_per_mw", "0"),
        ("power.op_rate_per_s", "-1000"),
        ("geometry.altitude_km", "0"),
        ("geometry.altitude_km", "35787"),
        ("geometry.altitude_km", "1e300"),
        ("link.carrier_ghz", "0.09"),
        ("link.carrier_ghz", "101"),
        ("link.carrier_ghz", "1e300"),
        ("link.carrier_ghz", "1e-300"),
        ("geometry.service_elevation_deg", "5"),
        ("geometry.service_elevation_deg", "90.5"),
        ("geometry.feeder_elevation_deg", "9.9"),
        ("link.bandwidth_hz", "0"),
        ("link.bandwidth_hz", "-1"),
        ("link.loss_atm_db", "-1"),
        ("link.loss_shadow_db", "-0.1"),
        ("link.loss_scint_db", "-1"),
        ("link.loss_polar_db", "-1"),
        ("cycle.max_harq", "-3"),
        ("cycle.max_harq", "0"),
        ("cycle.n_tbphc", "513"),
        ("cycle.n_tbphc", "1000000"),
        ("cycle.rep_pdcch", "99999999999999999999"),
        ("cycle.rep_pucch", "100001"),
        ("cycle.n_a2g", "9" * 400),
        ("tbs_bits", "-5"),
        ("tbs_bits", "0"),
        ("tbs_bits", "100001"),
        ("tbs_bits", "9" * 400),
    ]:
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            config_from_mapping({key: value})


def test_mapping_accepts_range_edges():
    config = config_from_mapping({
        "geometry.altitude_km": "35786",
        "link.carrier_ghz": "100",
        "cycle.n_dg2d": "0",
        "cycle.n_a2g": "0",
        "cycle.n_switch": "protocol",
        "cycle.dd2a_min": "0",
        "cycle.ug2d_min": "protocol",
        "cycle.n_tbphc": "512",
        "cycle.rep_pdcch": "100000",
        "cycle.max_harq": "1",
        "geometry.service_elevation_deg": "90",
        "geometry.feeder_elevation_deg": "10",
        "link.loss_atm_db": "0",
    })
    assert (config.geometry.altitude_km, config.link.carrier_ghz) == (35786, 100)
    assert (config.cycle.n_dg2d, config.n_a2g, config.cycle.dd2a_min) == (0, 0, 0)
    assert (config.cycle.n_switch, config.cycle.ug2d_min) == (1, 3)  # the LTE-M values
    assert (config.n_tbphc, config.cycle.rep_pdcch, config.max_harq) == (512, 100000, 1)
    assert (config.geometry.service_elevation_deg, config.geometry.feeder_elevation_deg) == (90, 10)
    assert config.link.loss_atm_db == 0
    assert config_from_mapping({"cycle.max_harq": "protocol"}).max_harq == 8
    assert config_from_mapping({"link.carrier_ghz": "0.1"}).link.carrier_ghz == 0.1


def test_legacy_multi_tb_rejected_at_run(table):
    # multi-TB legacy configs parse (the timeline command renders the
    # conflicting attempt) but cannot be run for metrics
    config = config_from_mapping({"mode": "legacy", "cycle.n_tbphc": "3"})
    with pytest.raises(ConfigError, match="one TB per cycle"):
        run_scenario(config, table)


def test_protocol_defaults_applied():
    ltem = config_from_mapping({})
    assert (ltem.cycle.ug2d_min, ltem.cycle.n_switch, ltem.max_harq) == (3, 1, 8)
    nbiot = config_from_mapping({"protocol": "nb-iot"})
    assert (nbiot.cycle.ug2d_min, nbiot.cycle.n_switch, nbiot.max_harq) == (8, 2, 2)
    nbiot_ext = config_from_mapping(NBIOT_EXT)
    assert nbiot_ext.max_harq == 4
    override = config_from_mapping({"protocol": "nb-iot", "cycle.n_switch": "1"})
    assert override.cycle.n_switch == 1


def test_update_config_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("mode = proposed\ncycle.rep_pdcch = 1\n")
    update_config_file(path, {"cycle.rep_pdcch": "5", "cycle.n_a2g": "2"})
    config = load_config(path)
    assert config.cycle.rep_pdcch == 5
    assert config.n_a2g == 2
    # untouched keys survive
    assert config.mode is SchedulingMode.PROPOSED_VARIABLE


def test_update_config_file_failed_replace_keeps_profile(tmp_path, monkeypatch):
    path = tmp_path / "case.cfg"
    path.write_text("mode = proposed\ncycle.rep_pdcch = 1\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        update_config_file(path, {"cycle.rep_pdcch": "5"})
    assert path.read_text() == "mode = proposed\ncycle.rep_pdcch = 1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["case.cfg"]  # no temp file left


# --- sweep ------------------------------------------------------------------


def test_sweep_empty_axes_equals_run(table):
    rows, _ = sweep({}, [], table)
    single = run_scenario(config_from_mapping({}), table)
    assert len(rows) == 1
    assert rows[0] == single


def test_sweep_altitude_by_mode(table):
    rows, _ = sweep(
        {},
        [("geometry.altitude_km", ["600", "1200"]), ("mode", ["legacy", "proposed"])],
        table,
    )
    assert len(rows) == 4
    assert [(r.altitude_km, r.mode) for r in rows] == [
        (600.0, "legacy"),
        (600.0, "proposed"),
        (1200.0, "legacy"),
        (1200.0, "proposed"),
    ]
    # proposed beats legacy at both altitudes, more so at the lower one
    by_key = {(r.altitude_km, r.mode): r for r in rows}
    assert by_key[(600.0, "proposed")].throughput_bps > by_key[(600.0, "legacy")].throughput_bps
    assert by_key[(1200.0, "proposed")].throughput_bps > by_key[(1200.0, "legacy")].throughput_bps
    assert by_key[(600.0, "proposed")].gain_pct > by_key[(1200.0, "proposed")].gain_pct


def test_sweep_tbphc_throughput_monotone(table):
    rows, _ = sweep(
        {"cycle.max_harq": "32"},
        [("cycle.n_tbphc", [str(n) for n in range(1, 9)])],
        table,
    )
    rates = [r.throughput_bps for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_sweep_goes_on_past_infeasible_points(table):
    axes = [("geometry.altitude_km", ["3000", "600"]), ("mode", ["legacy", "proposed"])]
    rows, infeasible = sweep({}, axes, table)
    assert [(r.altitude_km, r.mode) for r in rows] == [(600.0, "legacy"), (600.0, "proposed")]
    assert [sid for sid, _ in infeasible] == [
        "leo3000-transparent-lte-m-ul-legacy-tbs504",
        "leo3000-transparent-lte-m-ul-proposed-tbs504",
    ]
    assert all(reason.startswith("no repetition count reaches BLER 0.1") for _, reason in infeasible)


def test_sweep_unknown_axis(table):
    with pytest.raises(ConfigError):
        sweep({}, [("cycle.bogus", ["1"])], table)


def test_csv_deterministic(table):
    rows, _ = sweep({}, [("geometry.altitude_km", ["600", "1200"])], table)
    again, _ = sweep({}, [("geometry.altitude_km", ["600", "1200"])], table)
    assert results_to_csv(rows) == results_to_csv(again)
    header = results_to_csv(rows).splitlines()[0]
    assert header == (
        "scenario_id,altitude_km,payload,elevation_deg,rtt_ms,snr_db,tbs_bits,"
        "n_rep,mode,n_tbphc,n_harq_required,suf,throughput_bps,gain_pct,power_nw"
    )


# --- calibration -------------------------------------------------------------


def test_calibrate_ltem(table):
    result = calibrate(config_from_mapping({}), table)
    assert result.rep_pdcch == 1
    assert result.n_a2g == 0
    assert abs(result.gain_pct - 28.0) <= 2.0
    assert result.within_tolerance
    assert not result.degraded


def test_calibrate_nbiot(table):
    result = calibrate(config_from_mapping(NBIOT_EXT), table)
    assert abs(result.gain_pct - 31.0) <= 3.0
    assert result.within_tolerance


def test_calibrate_reports_degraded_when_target_unreachable(table):
    # a very strict BLER target forces heavy repetitions, so the gain
    # saturates far below the reference and the search must say so
    config = config_from_mapping({"target_bler": "0.001"})
    result = calibrate(config, table)
    assert result.degraded
    assert result.gain_pct < 26.0
