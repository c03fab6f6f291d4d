import shutil
from pathlib import Path

import pytest

from ntn_harq import scenario
from ntn_harq.cli import main

PROFILES = Path(__file__).resolve().parent.parent / "profiles"
LTEM = PROFILES / "leo600_ltem_ul.cfg"
PACKAGED_TABLE = Path(__file__).resolve().parent.parent / "src" / "ntn_harq" / "data" / "bler_pusch_ntn_tdla.csv"


@pytest.fixture
def ltem_copy(tmp_path):
    dest = tmp_path / "leo600_ltem_ul.cfg"
    shutil.copy(LTEM, dest)
    return dest


def run_cli(*args):
    return main([str(a) for a in args])


def test_run_emits_csv(tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert run_cli("run", LTEM, "--out", out) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("scenario_id,altitude_km")
    assert len(lines) == 2
    assert ",proposed," in lines[1]


def test_run_byte_identical_across_invocations(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("run", LTEM, "--out", a) == 0
    assert run_cli("run", LTEM, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_with_monte_carlo(tmp_path, ltem_copy):
    (ltem_copy).write_text(
        ltem_copy.read_text()
        + "monte_carlo.n_cycles = 200\nmonte_carlo.seed = 5\n"
        + "monte_carlo.bler_per_attempt = 0.1,0\n"
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("run", ltem_copy, "--out", out_a) == 0
    assert run_cli("run", ltem_copy, "--out", out_b) == 0
    assert "# monte_carlo goodput_bps=" in out_a.read_text()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_missing_file_is_config_error(tmp_path):
    assert run_cli("run", tmp_path / "nope.cfg") == 3


@pytest.mark.parametrize("key, value", [
    ("geometry.altitude_km", "1e300"),
    ("link.carrier_ghz", "1e300"),
    ("link.carrier_ghz", "1e-300"),
    ("cycle.n_a2g", "-1"),
    ("cycle.rep_pdcch", "0"),
])
def test_run_out_of_range_value_names_key(ltem_copy, capsys, key, value):
    ltem_copy.write_text(ltem_copy.read_text() + f"{key} = {value}\n")
    assert run_cli("run", ltem_copy) == 3
    assert f"config error: bad value for {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag, kind", [
    (None, "directory"),
    (None, "latin-1"),
    ("--bler-table", "directory"),
    ("--bler-table", "latin-1"),
    ("--out", "directory"),
])
def test_unreadable_path_is_config_error(tmp_path, capsys, flag, kind):
    bad = tmp_path
    if kind == "latin-1":
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("# caf\xe9\n".encode("latin-1"))
    assert run_cli(*(["run", bad] if flag is None else ["run", LTEM, flag, bad])) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--axis", "geometry.altitude_km=600,1200"],
    ["timeline", "--format", "svg"],
    ["calibrate", "--dry-run"],
], ids=lambda command: command[0])
def test_bler_table_option(tmp_path, ltem_copy, capsys, command):
    name, *flags = command
    copy = tmp_path / "copy.csv"
    shutil.copy(PACKAGED_TABLE, copy)
    assert run_cli(name, ltem_copy, *flags) == 0
    default = capsys.readouterr().out
    assert run_cli(name, ltem_copy, *flags, "--bler-table", copy) == 0
    assert capsys.readouterr().out == default
    nan_table = tmp_path / "nan.csv"
    nan_table.write_text(PACKAGED_TABLE.read_text() + "504,1,nan,0.5\n")
    assert run_cli(name, ltem_copy, *flags, "--bler-table", nan_table) == 3
    assert "SNR and BLER must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad_file", ["config", "table"])
def test_error_inside_a_file_names_the_file(tmp_path, ltem_copy, capsys, bad_file):
    table = tmp_path / "table.csv"
    if bad_file == "config":
        ltem_copy.write_text(ltem_copy.read_text() + "cycle.bogus = 1\n")
        table.write_text(PACKAGED_TABLE.read_text())
        expected = f"config error: {ltem_copy}: line "
    else:
        table.write_text("504,1,-6,2\n")
        expected = f"config error: {table}: BLER values must lie in (0, 1]"
    assert run_cli("run", ltem_copy, "--bler-table", table) == 3
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("n_rep", ["0", "100000000000000000000"])
def test_run_table_repetitions_out_of_range(tmp_path, ltem_copy, capsys, n_rep):
    # a one-row table for the config's TB size: the loader names the line
    # instead of a later check naming neither file nor line (0) or an
    # OverflowError traceback (20 digits)
    table = tmp_path / "table.csv"
    table.write_text(f"144,{n_rep},-30,0.01\n")
    ltem_copy.write_text(ltem_copy.read_text() + "tbs_bits = 144\n")
    assert run_cli("run", ltem_copy, "--bler-table", table) == 3
    expected = f"config error: {table}: line 1: tbs must lie in [1, 100000] and n_rep in [1, 100000]"
    assert expected in capsys.readouterr().err


def test_run_infeasible_link_exit_code(tmp_path, ltem_copy):
    ltem_copy.write_text(ltem_copy.read_text() + "link.eirp_dbm = -40\n")
    assert run_cli("run", ltem_copy) == 2


def test_run_bad_key_exit_code(tmp_path, ltem_copy):
    ltem_copy.write_text(ltem_copy.read_text() + "cycle.bogus = 1\n")
    assert run_cli("run", ltem_copy) == 3


def test_run_non_finite_value_exit_code(ltem_copy, capsys):
    ltem_copy.write_text(ltem_copy.read_text() + "geometry.altitude_km = nan\n")
    assert run_cli("run", ltem_copy) == 3
    assert "geometry.altitude_km" in capsys.readouterr().err


def test_run_min_delay_violation_exit_code(tmp_path, capsys):
    # 4 data SFs per TB at zenith against 8 grant SFs: the pad lifts TB 1's
    # grant-to-data delay to the minimum but leaves TB 2's at 4 + 2 < 8
    config = tmp_path / "short_delay.cfg"
    config.write_text(
        "protocol = nb-iot\nprotocol.extended_harq = true\n"
        "geometry.service_elevation_deg = 90\ncycle.rep_pdcch = 8\n"
    )
    assert run_cli("run", config) == 2
    assert "infeasible: TB 2 grant-to-data delay 6 < minimum 8" in capsys.readouterr().err


def test_sweep_rows_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "sweep", LTEM,
        "--axis", "geometry.altitude_km=600,1200",
        "--axis", "mode=legacy,proposed",
    ]
    assert run_cli(*args, "--out", out_a) == 0
    assert run_cli(*args, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert len(lines) == 5  # header + 4 combinations


def test_sweep_bad_axis(tmp_path):
    assert run_cli("sweep", LTEM, "--axis", "nonsense=1,2") == 3


def test_sweep_reports_infeasible_points_and_goes_on(capsys):
    assert run_cli("sweep", LTEM, "--axis", "geometry.altitude_km=600,3000,1200") == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenario_id,altitude_km")
    assert [line.split(",")[1] for line in lines[1:3]] == ["600", "1200"]
    assert lines[3:] == [
        "# infeasible leo3000-transparent-lte-m-ul-proposed-tbs504: "
        "no repetition count reaches BLER 0.1 at -12.4 dB for tbs=504"
    ]


def test_sweep_bad_axis_value_exits_before_any_point_runs(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a point ran before every axis value was parsed")

    monkeypatch.setattr(scenario, "run_scenario", no_run)
    axes = ["--axis", "mode=legacy,proposed", "--axis", "geometry.altitude_km=600,-3"]
    assert run_cli("sweep", LTEM, *axes) == 3
    assert "bad value for geometry.altitude_km: '-3'" in capsys.readouterr().err


def test_run_says_legacy_mode_ignores_monte_carlo(ltem_copy, capsys):
    ltem_copy.write_text(ltem_copy.read_text() + "mode = legacy\n")
    assert run_cli("run", ltem_copy) == 0
    plain = capsys.readouterr()
    ltem_copy.write_text(ltem_copy.read_text() + "monte_carlo.n_cycles = 10\n")
    assert run_cli("run", ltem_copy) == 0
    noted = capsys.readouterr()
    assert noted.out == plain.out
    assert plain.err == ""
    assert noted.err == "note: legacy mode ignores monte_carlo.* (Monte Carlo goodput needs mode = proposed)\n"


def test_timeline_text_ue(capsys):
    assert run_cli("timeline", LTEM, "--perspective", "ue") == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("sf")
    for row in ("PDCCH", "PUSCH", "switch"):
        assert row in text


def test_timeline_bs_matches_ue_when_rendered(capsys):
    assert run_cli("timeline", LTEM, "--perspective", "bs") == 0
    text = capsys.readouterr().out
    assert "PUSCH" in text


def test_timeline_svg(tmp_path):
    out = tmp_path / "cycle.svg"
    assert run_cli("timeline", LTEM, "--format", "svg", "--out", out) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "<rect" in svg


def test_timeline_legacy_conflict_annotated(tmp_path, capsys):
    # small blocks keep the grid readable; four repetitions against a
    # three-SF fixed delay puts TB 1's feedback on TB 2's last data SF
    config = tmp_path / "overlap.cfg"
    # TBS 144 at the LEO600 operating point selects 4 repetitions,
    # exceeding the 3-SF fixed delay
    config.write_text("direction = dl\nmode = legacy\ncycle.n_tbphc = 2\ntbs_bits = 144\n")
    assert run_cli("timeline", config) == 0
    text = capsys.readouterr().out
    assert "! double-booking" in text
    assert "RxPDSCH / TxPUCCH" in text


def test_timeline_legacy_multi_tb_config_cannot_run(tmp_path):
    config = tmp_path / "overlap.cfg"
    config.write_text("direction = dl\nmode = legacy\ncycle.n_tbphc = 2\n")
    assert run_cli("run", config) == 3


def test_timeline_csv_export_format(tmp_path):
    out = tmp_path / "cycle.csv"
    assert run_cli("timeline", LTEM, "--format", "csv", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "0,UE,RxPDCCH,1,1"
    assert all(line.count(",") == 4 for line in lines)


def test_timeline_eight_subframe_ul_cycle():
    # a one-TB uplink cycle squeezed into eight subframes:
    # grant 1 + wait 3 + data 3 + switch 1
    from ntn_harq.cli import render_timeline_text
    from ntn_harq.harq import CycleParams, Direction
    from ntn_harq.scheduler import build_legacy_cycle

    params = CycleParams(n_tbphc=1, rep_pdcch=1, rep_pusch=3, ug2d_min=3, n_switch=1)
    timeline = build_legacy_cycle(params, Direction.UL)
    assert len(timeline) == 8
    header = render_timeline_text(timeline).splitlines()[0]
    assert header.split()[-1] == "7"  # columns 0..7


def test_calibrate_dry_run_keeps_file(tmp_path, ltem_copy, capsys):
    before = ltem_copy.read_bytes()
    assert run_cli("calibrate", ltem_copy, "--dry-run") == 0
    out = capsys.readouterr().out
    assert "rep_pdcch=1 n_a2g=0" in out
    assert ltem_copy.read_bytes() == before


def test_calibrate_writes_pair(tmp_path, ltem_copy):
    assert run_cli("calibrate", ltem_copy) == 0
    text = ltem_copy.read_text()
    assert "cycle.rep_pdcch = 1" in text
    assert "cycle.n_a2g = 0" in text
    # written profile still runs
    assert run_cli("run", ltem_copy) == 0
