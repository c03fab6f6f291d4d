import gzip
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ntn_harq import scenario, scheduler
from ntn_harq.bler import BlerTable
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
SRC = Path(__file__).resolve().parent.parent / "src"
PROFILES = SRC.parent / "profiles"
GOLDEN = Path(__file__).resolve().parent / "golden"
README = SRC.parent / "README.md"


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


def test_a_tb_size_without_a_curve_is_a_config_error_that_names_tbs_bits(table):
    config = config_from_mapping({"tbs_bits": "1000"})
    for call in (scenario.resolve, run_scenario):
        with pytest.raises(ConfigError, match="^bad value for tbs_bits: 1000 has no BLER curve in the table$"):
            call(config, table)


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


def test_uplink_bundling_is_refused_when_the_config_is_parsed():
    assert config_from_mapping({"cycle.ack_bundling": "true", "direction": "dl"}).cycle.ack_bundling
    for mode in ("proposed", "legacy"):
        with pytest.raises(ConfigError, match="^cycle.ack_bundling = true needs direction = dl: feedback bundling "
                                              "applies to downlink cycles only$"):
            config_from_mapping({"cycle.ack_bundling": "true", "mode": mode})
    # a config that breaks both cycle rules reports the minimum delay first
    with pytest.raises(ConfigError, match="^cycle.ug2d_min = 0 is shorter than cycle.n_switch = 1: "):
        config_from_mapping({"cycle.ack_bundling": "true", "cycle.ug2d_min": "0"})


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
        "cycle.n_switch": "0",  # a minimum delay may not be shorter than the switch gap
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
    assert (config.cycle.n_switch, config.cycle.ug2d_min) == (0, 3)  # ug2d_min is the LTE-M value
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


def test_update_config_file_keeps_utf8_bytes_under_an_ascii_locale(tmp_path):
    # with the locale's encoding (ASCII here) the comments below did not decode
    path = tmp_path / "case.cfg"
    before = "# Höhe über Grund, ½ Grad\nmode = proposed  # ✓\ncycle.rep_pdcch = 1\n"
    path.write_bytes(before.encode("utf-8"))
    code = (
        "import sys; from ntn_harq.scenario import update_config_file; "
        "update_config_file(sys.argv[1], {'cycle.rep_pdcch': '5'})"
    )
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-X", "utf8=0", "-c", code, str(path)], env=env, check=True)
    after = before.replace("cycle.rep_pdcch = 1", "cycle.rep_pdcch = 5")
    assert path.read_bytes() == after.encode("utf-8")


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
    assert [label for label, _ in infeasible] == [
        "leo3000-transparent-lte-m-ul-legacy-tbs504 geometry.altitude_km=3000 mode=legacy",
        "leo3000-transparent-lte-m-ul-proposed-tbs504 geometry.altitude_km=3000 mode=proposed",
    ]
    assert all(reason.startswith("no repetition count reaches BLER 0.1") for _, reason in infeasible)


def test_a_point_that_fails_to_parse_is_labelled_from_its_texts(monkeypatch, table):
    # a combined check of a section that fails at one point: the label must
    # not parse the point again, or the whole sweep aborts
    real_section = scenario._geometry_section

    def section(texts):
        if texts[0] == "1200":  # geometry.altitude_km
            raise ConfigError("the geometry fails at 1200 km")
        return real_section(texts)

    monkeypatch.setattr(scenario, "_geometry_section", section)
    base = {"protocol": "NB-IoT", "protocol.extended_harq": "true", "mode": "Legacy"}
    rows, infeasible = sweep(base, [("geometry.altitude_km", ["1200", "600"])], table)
    assert [(r.scenario_id, r.altitude_km) for r in rows] == [("leo600-transparent-nb-iot-ul-legacy-tbs504", 600.0)]
    assert infeasible == [
        ("leo1200-transparent-nb-iot-ul-legacy-tbs504 geometry.altitude_km=1200", "the geometry fails at 1200 km")
    ]


def test_sweep_unknown_axis(table):
    with pytest.raises(ConfigError):
        sweep({}, [("cycle.bogus", ["1"])], table)


def test_sweep_rejects_an_axis_with_no_values(table):
    axes = [("geometry.altitude_km", ["600"]), ("cycle.rep_pdcch", [])]
    with pytest.raises(ConfigError, match="sweep axis cycle.rep_pdcch lists no values"):
        sweep({}, axes, table)


def test_sweep_runs_no_monte_carlo(monkeypatch, table):
    axes = [("geometry.altitude_km", ["600", "3000"]), ("mode", ["legacy", "proposed"])]
    expected = sweep({}, axes, table)

    def refuse(*args, **kwargs):
        raise AssertionError("sweep ran a Monte Carlo simulation")

    monkeypatch.setattr(scheduler, "monte_carlo_goodput", refuse)
    rows, infeasible = sweep({"monte_carlo.n_cycles": "200", "monte_carlo.bler_per_attempt": "0.1,0"}, axes, table)
    assert [row.goodput for row in rows] == [None, None]
    assert (rows, infeasible) == expected


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
    assert not result.degraded


def test_calibrate_nbiot(table):
    result = calibrate(config_from_mapping(NBIOT_EXT), table)
    assert abs(result.gain_pct - 31.0) <= 3.0
    assert not result.degraded


def test_calibrate_breaks_a_tie_toward_the_smallest_pair(monkeypatch, table):
    # (5, 0) lands one point above the target and (2, 3) one below; every
    # other pair lands ten points off
    config = config_from_mapping({})
    target = config.protocol.target_gain_pct
    offsets = {(5, 0): 1.0, (2, 3): -1.0}

    def gain_pct(candidate, n_rep, suf):
        return target + offsets.get((candidate.cycle.rep_pdcch, candidate.n_a2g), 10.0)

    monkeypatch.setattr(scenario, "_gain_pct", gain_pct)
    result = calibrate(config, table)
    assert (result.rep_pdcch, result.n_a2g, result.gain_pct) == (2, 3, target - 1.0)


def test_calibrate_runs_no_monte_carlo(monkeypatch, table):
    raw = {"monte_carlo.n_cycles": "200", "monte_carlo.bler_per_attempt": "0.1,0"}
    expected = calibrate(config_from_mapping({}), table)

    def refuse(*args, **kwargs):
        raise AssertionError("calibrate ran a Monte Carlo simulation")

    monkeypatch.setattr(scheduler, "monte_carlo_goodput", refuse)
    assert calibrate(config_from_mapping(raw), table) == expected


@pytest.mark.parametrize("profile", sorted(p.stem for p in PROFILES.glob("*.cfg")))
def test_calibrate_scores_without_run_scenario_and_agrees_with_it(monkeypatch, table, profile):
    config = load_config(PROFILES / f"{profile}.cfg")

    def refuse(*args):
        raise AssertionError("calibrate ran run_scenario")

    with monkeypatch.context() as patched:
        patched.setattr(scenario, "run_scenario", refuse)
        result = calibrate(config, table)
    # the pair and gain the calibrate --dry-run golden pins
    printed = f"rep_pdcch={result.rep_pdcch} n_a2g={result.n_a2g}\ngain_pct={result.gain_pct:.6g} "
    assert gzip.decompress((GOLDEN / f"calibrate.{profile}.txt.gz").read_bytes()).decode().startswith(printed)
    # and run_scenario's gain at that pair, to the last bit
    chosen = config._replace(cycle=config.cycle._replace(rep_pdcch=result.rep_pdcch), n_a2g=result.n_a2g,
                             n_tbphc=None, mode=SchedulingMode.PROPOSED_VARIABLE,
                             monte_carlo=scenario.MonteCarloSettings())
    assert run_scenario(chosen, table).gain_pct == result.gain_pct


def test_calibrate_keeps_an_explicit_tb_count_and_reports_the_gain_run_gives(table):
    # with its TB count re-selected, each candidate scored 6 TBs and the
    # fit read 27.5 % at (1, 0), where run reports 13.3 % for 2 TBs
    raw = scenario.read_config(PROFILES / "leo600_ltem_ul.cfg")
    config = config_from_mapping({**raw, "cycle.n_tbphc": "2"})
    result = calibrate(config, table)
    assert (result.rep_pdcch, result.n_a2g, result.degraded, result.skipped) == (3, 0, True, ())
    assert result.gain_pct == pytest.approx(18.75)
    chosen = config._replace(cycle=config.cycle._replace(rep_pdcch=result.rep_pdcch), n_a2g=result.n_a2g)
    assert run_scenario(chosen, table).gain_pct == result.gain_pct
    # a count that no candidate's HARQ budget carries fails calibrate as it fails run
    too_many = config_from_mapping({**raw, "cycle.n_tbphc": "7"})
    message = r"^cycle.n_tbphc=7 needs 9 HARQ processes, more than the configured maximum of 8"
    for search in (calibrate, run_scenario):
        with pytest.raises(ConfigError, match=message):
            search(too_many, table)


def test_calibrate_with_a_table_that_lacks_the_tb_size_raises_its_config_error(table):
    without_504 = BlerTable({tbs: curves for tbs, curves in table.curves.items() if tbs != 504})
    with pytest.raises(ConfigError, match="^bad value for tbs_bits: 504 has no BLER curve in the table$"):
        calibrate(config_from_mapping({}), without_504)


def test_the_readme_calibration_table_comes_from_run_scenario(table):
    rows = []
    for path in sorted(PROFILES.glob("*.cfg")):
        config = load_config(path)
        protocol = config.protocol
        gains = {  # run_scenario's gain at each of calibrate's candidates
            (p, a): run_scenario(config._replace(cycle=config.cycle._replace(rep_pdcch=p), n_a2g=a, n_tbphc=None,
                                                 mode=SchedulingMode.PROPOSED_VARIABLE), table).gain_pct
            for p, a in itertools.product(range(1, 9), range(5))
        }
        distance, pair = min((abs(gain - protocol.target_gain_pct), pair) for pair, gain in gains.items())
        degraded = distance > protocol.gain_tolerance_pct
        result = calibrate(config, table)
        assert (result.rep_pdcch, result.n_a2g, result.degraded) == (*pair, degraded)
        moved = any(len({gains[p, a] for a in range(5)}) > 1 for p in range(1, 9))
        rows.append(
            f"| `profiles/{path.name}` | {run_scenario(config, table).gain_pct:.2f} % "
            f"| {min(gains.values()):.2f}–{max(gains.values()):.2f} % | {pair} | {gains[pair]:.2f} % "
            f"| {'yes' if moved else 'no'} | {protocol.target_gain_pct:g} ± {protocol.gain_tolerance_pct:g} % "
            f"| {'DEGRADED' if degraded else 'within tolerance'} |"
        )
    assert [line for line in README.read_text().splitlines() if line.startswith("| `profiles/")] == rows


def test_calibrate_reports_degraded_when_target_unreachable(table):
    # a very strict BLER target forces heavy repetitions, so the gain
    # saturates far below the reference and the search must say so
    config = config_from_mapping({"target_bler": "0.001"})
    result = calibrate(config, table)
    assert result.degraded
    assert result.gain_pct < 26.0


MIN_DELAY_ERROR = ("cycle.dd2a_min = 0 is shorter than cycle.n_switch = 1: "
                   "a minimum delay spans the switch between receiving and sending")
BUNDLING_ERROR = "cycle.ack_bundling = true needs direction = dl: feedback bundling applies to downlink cycles only"


@pytest.mark.parametrize("extra, error", [
    ({"cycle.dd2a_min": "0"}, MIN_DELAY_ERROR),
    ({"power.efficiency_mops_per_mw": "1e-300", "power.op_rate_per_s": "1e10"}, BUNDLING_ERROR),
], ids=["minimum-delay-before-bundling", "bundling-before-power"])
def test_uplink_bundling_is_reported_in_the_readme_order(table, extra, error):
    # the minimum-delay rule, then bundling, then the delay power
    raw = {"direction": "ul", **extra}
    with pytest.raises(ConfigError) as caught:
        config_from_mapping({**raw, "cycle.ack_bundling": "true"})
    assert str(caught.value) == error
    results, infeasible = sweep(raw, [("cycle.ack_bundling", ["true"])], table)
    assert results == []
    assert infeasible == [("leo600-transparent-lte-m-ul-proposed-tbs504 cycle.ack_bundling=true", error)]
