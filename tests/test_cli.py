import shutil
from pathlib import Path

import pytest

from ntn_harq import scenario
from ntn_harq.cli import main, render_timeline
from ntn_harq.errors import ConfigError, InvalidInputError, MinDelayViolationError

PROFILES = Path(__file__).resolve().parent.parent / "profiles"
LTEM = PROFILES / "leo600_ltem_ul.cfg"
NBIOT = PROFILES / "leo600_nbiot_ul.cfg"
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


BOM = "\ufeff"  # the UTF-8 byte-order mark, which some editors save first


def test_a_profile_with_a_byte_order_mark_runs_like_the_plain_one(ltem_copy, capsys):
    ltem_copy.write_text(BOM + "protocol = lte-m\n" + LTEM.read_text(), encoding="utf-8")
    assert run_cli("run", LTEM) == 0
    plain = capsys.readouterr().out
    assert run_cli("run", ltem_copy) == 0
    assert capsys.readouterr().out == plain


def test_a_table_with_a_byte_order_mark_loads_like_the_plain_one(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(BOM + PACKAGED_TABLE.read_text(), encoding="utf-8")
    assert run_cli("run", LTEM) == 0
    plain = capsys.readouterr().out
    assert run_cli("run", LTEM, "--bler-table", table) == 0
    assert capsys.readouterr().out == plain


def test_calibrate_rewrites_the_first_line_of_a_profile_with_a_byte_order_mark(tmp_path):
    profile = tmp_path / "nbiot.cfg"
    profile.write_text(BOM + "cycle.rep_pdcch = 2\n" + NBIOT.read_text(), encoding="utf-8")
    assert run_cli("calibrate", profile) == 0
    lines = profile.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cycle.rep_pdcch = 5"  # in place, and written back without the mark
    assert lines[1:] == [*NBIOT.read_text().splitlines(), "cycle.n_a2g = 0"]


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
    expected = f"config error: {table}: line 1: n_rep must be an integer in [1, 100000], got {n_rep}\n"
    assert capsys.readouterr().err == expected


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


def test_sweep_notes_that_it_writes_no_monte_carlo_goodput(ltem_copy, capsys):
    args = ["--axis", "monte_carlo.bler_per_attempt=0.1,0.5", "--axis", "mode=legacy,proposed"]
    assert run_cli("sweep", LTEM, *args) == 0
    plain = capsys.readouterr()
    ltem_copy.write_text(ltem_copy.read_text() + "monte_carlo.n_cycles = 50\n")
    assert run_cli("sweep", ltem_copy, *args) == 0
    captured = capsys.readouterr()
    assert plain.err == ""
    assert captured.out == plain.out
    assert captured.err == "note: sweep writes no Monte Carlo goodput (run one point for it)\n"


@pytest.mark.parametrize(
    "axes, noted",
    [
        (["geometry.altitude_km=600,1200", "mode=legacy"], True),
        (["monte_carlo.n_cycles=0"], False),
        (["monte_carlo.n_cycles=0,20"], True),
        (["monte_carlo.n_cycles=50", "monte_carlo.n_cycles=0"], False),
        (["monte_carlo.n_cycles=0", "mode=legacy", "monte_carlo.n_cycles=20"], True),
    ],
)
def test_sweep_notes_once_when_some_point_sets_monte_carlo(ltem_copy, capsys, axes, noted):
    args = [arg for axis in axes for arg in ("--axis", axis)]
    assert run_cli("sweep", LTEM, *args) == 0
    plain = capsys.readouterr()
    ltem_copy.write_text(ltem_copy.read_text() + "monte_carlo.n_cycles = 50\n")
    assert run_cli("sweep", ltem_copy, *args) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert captured.err == ("note: sweep writes no Monte Carlo goodput (run one point for it)\n" if noted else "")


def test_sweep_bad_axis(tmp_path):
    assert run_cli("sweep", LTEM, "--axis", "nonsense=1,2") == 3


def test_sweep_refuses_an_axis_without_values(capsys):
    assert run_cli("sweep", LTEM, "--axis", "mode") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --axis expects key=v1,v2,..., got 'mode'\n"


@pytest.mark.parametrize("axis", ["mode=", "mode= , ", "mode=,"])
def test_sweep_rejects_an_axis_with_no_values(capsys, axis):
    assert run_cli("sweep", LTEM, "--axis", "geometry.altitude_km=600,1200", "--axis", axis) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sweep axis mode lists no values" in captured.err


def test_sweep_reports_infeasible_points_and_goes_on(capsys):
    assert run_cli("sweep", LTEM, "--axis", "geometry.altitude_km=600,3000,1200") == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenario_id,altitude_km")
    assert [line.split(",")[1] for line in lines[1:3]] == ["600", "1200"]
    assert lines[3:] == [
        "# infeasible leo3000-transparent-lte-m-ul-proposed-tbs504 geometry.altitude_km=3000: "
        "no repetition count reaches BLER 0.1 at -12.4 dB for tbs=504"
    ]


def test_sweep_reports_harq_budget_points_and_goes_on(ltem_copy, capsys):
    ltem_copy.write_text(ltem_copy.read_text() + "cycle.n_tbphc = 6\n")
    assert run_cli("sweep", ltem_copy, "--axis", "geometry.altitude_km=600,300,1200") == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:3]] == ["600", "1200"]
    assert lines[3:] == [
        "# infeasible leo300-transparent-lte-m-ul-proposed-tbs504 geometry.altitude_km=300: "
        "cycle.n_tbphc=6 needs 10 HARQ processes, more than the configured maximum of 8; "
        "the HARQ-process sizing relation caps how many TBs one cycle may carry"
    ]

    assert run_cli("sweep", LTEM, "--axis", "cycle.max_harq=8,1") == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[-6:-4] == ["6", "8"]  # n_tbphc, n_harq_required
    assert lines[2:] == [
        "# infeasible leo600-transparent-lte-m-ul-proposed-tbs504 cycle.max_harq=1: "
        "even one TB per cycle needs more than 1 HARQ processes under the HARQ-process sizing "
        "relation; raise cycle.max_harq or enable protocol.extended_harq"
    ]


def test_sweep_infeasible_labels_carry_each_axis_value(capsys):
    # the scenario_id leaves out the elevation, so only the axis values
    # tell these two points apart
    axes = ["--axis", "geometry.service_elevation_deg=10,20", "--axis", "geometry.altitude_km=2000"]
    assert run_cli("sweep", LTEM, *axes) == 2
    labels = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert labels == [
        "# infeasible leo2000-transparent-lte-m-ul-proposed-tbs504 "
        f"geometry.service_elevation_deg={e} geometry.altitude_km=2000"
        for e in (10, 20)
    ]


def test_sweep_reports_uplink_bundling_and_missing_curves_and_goes_on(ltem_copy, capsys):
    ltem_copy.write_text(ltem_copy.read_text() + "cycle.ack_bundling = true\n")
    assert run_cli("sweep", ltem_copy, "--axis", "direction=dl,ul") == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("leo600-transparent-lte-m-dl-proposed-tbs504,")
    assert lines[2:] == [
        "# infeasible leo600-transparent-lte-m-ul-proposed-tbs504 direction=ul: "
        "cycle.ack_bundling = true needs direction = dl: feedback bundling applies to downlink cycles only"
    ]

    assert run_cli("sweep", LTEM, "--axis", "tbs_bits=504,1000") == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("leo600-transparent-lte-m-ul-proposed-tbs504,")
    assert lines[2:] == [
        "# infeasible leo600-transparent-lte-m-ul-proposed-tbs1000 tbs_bits=1000: "
        "bad value for tbs_bits: 1000 has no BLER curve in the table"
    ]


@pytest.mark.parametrize("command", [["run"], ["timeline"], ["calibrate", "--dry-run"]], ids=lambda c: c[0])
def test_a_tb_size_without_a_curve_is_a_bad_value_for_tbs_bits(ltem_copy, capsys, command):
    ltem_copy.write_text(ltem_copy.read_text() + "tbs_bits = 1000\n")
    assert run_cli(command[0], ltem_copy, *command[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: bad value for tbs_bits: 1000 has no BLER curve in the table\n"


def test_a_multi_tb_legacy_run_names_both_keys(ltem_copy, capsys):
    reason = ("mode = legacy needs cycle.n_tbphc = 1 or auto, got 4: legacy fixed-delay scheduling carries one TB "
              "per cycle; use the timeline command to inspect multi-TB attempts")
    ltem_copy.write_text(ltem_copy.read_text() + "mode = legacy\ncycle.n_tbphc = 4\n")
    assert run_cli("run", ltem_copy) == 3
    assert capsys.readouterr().err == f"config error: {reason}\n"
    assert run_cli("sweep", LTEM, "--axis", "mode=legacy", "--axis", "cycle.n_tbphc=1,4") == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("leo600-transparent-lte-m-ul-legacy-tbs504,")
    assert lines[2:] == [f"# infeasible leo600-transparent-lte-m-ul-legacy-tbs504 mode=legacy cycle.n_tbphc=4: "
                         f"{reason}"]


def test_an_altitude_whose_slant_range_rounds_to_zero_is_one_bad_point(ltem_copy, capsys):
    # 1e-300 km passes the (0, 35786] range, but the slant range it gives is 0.0 km
    assert run_cli("sweep", LTEM, "--axis", "geometry.altitude_km=1e-300,600") == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:2]] == ["600"]
    assert lines[2:] == [
        "# infeasible leo1e-300-transparent-lte-m-ul-proposed-tbs504 geometry.altitude_km=1e-300: "
        "bad value for geometry.altitude_km: 1e-300 rounds the slant range to 0"
    ]
    ltem_copy.write_text(ltem_copy.read_text() + "geometry.altitude_km = 1e-300\n")
    for command in ("run", "timeline"):
        assert run_cli(command, ltem_copy) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad value for geometry.altitude_km" in captured.err


@pytest.mark.parametrize(
    "fixed, key, bad, good",
    [
        ("link.eirp_dbm = 1e308", "link.g_over_t_db", "1e308", "-4.9"),
        ("power.efficiency_mops_per_mw = 1e-308", "power.op_rate_per_s", "1e308", "1e-300"),
        ("power.efficiency_mops_per_mw = 1e300", "power.op_rate_per_s", "1e308", "1000"),  # inf / inf
        # finite in watts, but not in the nanowatts the power_nw column writes
        ("power.efficiency_mops_per_mw = 1e-300", "power.op_rate_per_s", "1e10", "1000"),
    ],
    ids=["snr", "power", "power-nan", "power-nw"],
)
def test_finite_values_that_overflow_a_column_are_refused(ltem_copy, capsys, fixed, key, bad, good):
    keys = (fixed.split(" = ")[0], key)
    base = ltem_copy.read_text() + fixed + "\n"
    ltem_copy.write_text(base + f"{key} = {bad}\n")
    for args in (["run"], ["timeline"], ["calibrate", "--dry-run"]):
        assert run_cli(args[0], ltem_copy, *args[1:]) == 3, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(k in captured.err for k in keys), captured.err
    # as a sweep point it is reported, and the sweep goes on
    ltem_copy.write_text(base)
    assert run_cli("sweep", ltem_copy, "--axis", f"{key}={bad},{good}") == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and "inf" not in lines[1].split(",")
    assert lines[2].startswith(f"# infeasible leo600-transparent-lte-m-ul-proposed-tbs504 {key}={bad}: ")
    assert all(k in lines[2] for k in keys), lines[2]


# 2.5e307 delay evaluations a second at 1 MOPS/mW: 1.5e308 nW at the 6
# operations of UG2D or plain DD2A, but 2e308 at the 8 of bundled DD2A
HUGE_OP_RATE = "power.efficiency_mops_per_mw = 1\npower.op_rate_per_s = 2.5e307\n"


def test_the_power_check_reads_the_configs_own_feedback_scheme(tmp_path, capsys):
    path = tmp_path / "power.cfg"
    for profile in ("leo600_ltem_ul", "leo600_ltem_dl"):
        path.write_text((PROFILES / f"{profile}.cfg").read_text() + HUGE_OP_RATE)
        assert run_cli("run", path) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["power_nw"] == "1.5e+308"
    path.write_text(path.read_text() + "cycle.ack_bundling = true\n")
    assert run_cli("run", path) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "power.efficiency_mops_per_mw" in captured.err and "power.op_rate_per_s" in captured.err, captured.err


def test_a_minimum_delay_shorter_than_the_switch_gap_names_both_keys(ltem_copy, tmp_path, capsys):
    ltem_copy.write_text(ltem_copy.read_text() + "cycle.dd2a_min = 0\n")
    for args in (["run", ltem_copy], ["calibrate", ltem_copy], ["calibrate", ltem_copy, "--dry-run"],
                 ["timeline", ltem_copy]):
        assert run_cli(*args) == 3
        assert capsys.readouterr() == ("", (
            "config error: cycle.dd2a_min = 0 is shorter than cycle.n_switch = 1: "
            "a minimum delay spans the switch between receiving and sending\n"
        ))
    assert ltem_copy.read_text().endswith("cycle.dd2a_min = 0\n")  # calibrate wrote nothing

    # in a sweep the conflict is the point's outcome
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", LTEM, "--axis", "cycle.n_switch=1,4,3", "--out", out) == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[3] == (
        "# infeasible leo600-transparent-lte-m-ul-proposed-tbs504 cycle.n_switch=4: "
        "cycle.dd2a_min = 3 is shorter than cycle.n_switch = 4: "
        "a minimum delay spans the switch between receiving and sending"
    )


@pytest.mark.parametrize("mode", ["proposed", "legacy"])
def test_run_uplink_bundling_names_both_keys(ltem_copy, capsys, mode):
    ltem_copy.write_text(ltem_copy.read_text() + f"cycle.ack_bundling = true\nmode = {mode}\n")
    for args in (["run", ltem_copy], ["timeline", ltem_copy], ["calibrate", ltem_copy, "--dry-run"],
                 ["calibrate", ltem_copy]):
        assert run_cli(*args) == 3
        assert capsys.readouterr() == ("", (
            "config error: cycle.ack_bundling = true needs direction = dl: "
            "feedback bundling applies to downlink cycles only\n"
        ))
    assert ltem_copy.read_text().endswith(f"mode = {mode}\n")  # calibrate wrote nothing


@pytest.mark.parametrize("args", [
    ["timeline", LTEM, "--format", "pdf"],
    [],
    ["run"],
    ["render", LTEM],
], ids=["bad-choice", "no-command", "no-config", "unknown-command"])
def test_a_usage_error_exits_3_not_the_infeasible_status(args, capsys):
    assert run_cli(*args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ntn-harq") and "error: " in err


def test_help_exits_0(capsys):
    assert run_cli("--help") == 0
    assert capsys.readouterr().out.startswith("usage: ntn-harq")


@pytest.mark.parametrize("command", ["run", "timeline"])
def test_auto_tbphc_at_its_cap_says_so(tmp_path, capsys, command):
    path = tmp_path / "dl.cfg"
    shutil.copy(PROFILES / "leo600_ltem_dl.cfg", path)
    assert run_cli(command, path) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    path.write_text(path.read_text() + "cycle.max_harq = 1024\n")
    assert run_cli(command, path) == 0
    capped = capsys.readouterr()
    assert capped.err == (
        "note: auto cycle.n_tbphc stops at its cap of 512 TBs per cycle, "
        "although the HARQ budget of 1024 processes admits more\n"
    )
    if command == "run":
        assert capped.out.splitlines()[1].split(",")[9] == "512"  # n_tbphc
    # an explicit count, or a budget that 512 TBs use up, draws no note
    for extra in ("cycle.n_tbphc = 512\n", "cycle.n_tbphc = auto\ncycle.max_harq = 514\n"):
        path.write_text(path.read_text() + extra)
        assert run_cli(command, path) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "timeline"])
def test_a_bundle_size_without_bundling_says_it_is_ignored(tmp_path, capsys, command):
    path = tmp_path / "dl.cfg"
    shutil.copy(PROFILES / "leo600_ltem_dl.cfg", path)
    assert run_cli(command, path) == 0
    plain = capsys.readouterr()
    path.write_text(path.read_text() + "cycle.n_bundle = 4\n")
    assert run_cli(command, path) == 0
    noted = capsys.readouterr()
    assert noted.out == plain.out
    assert plain.err == ""
    assert noted.err == "note: cycle.n_bundle = 4 is ignored without cycle.ack_bundling = true\n"
    # with bundling on the size is read, so no note
    path.write_text(path.read_text() + "cycle.ack_bundling = true\n")
    assert run_cli(command, path) == 0
    assert capsys.readouterr().err == ""


def test_sweep_bad_axis_value_exits_before_any_point_runs(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a point ran before every axis value was parsed")

    monkeypatch.setattr(scenario, "run_scenario", no_run)
    axes = ["--axis", "mode=legacy,proposed", "--axis", "geometry.altitude_km=600,-3"]
    assert run_cli("sweep", LTEM, *axes) == 3
    assert "bad value for geometry.altitude_km: '-3'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "timeline"])
def test_a_numeric_max_harq_says_it_overrides_extended_harq(tmp_path, capsys, command):
    path = tmp_path / "nbiot.cfg"
    path.write_text(NBIOT.read_text() + "protocol.extended_harq = false\ncycle.max_harq = 3\n")
    assert run_cli(command, path) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    path.write_text(NBIOT.read_text() + "cycle.max_harq = 3\n")  # the profile enables extended_harq
    assert run_cli(command, path) == 0
    noted = capsys.readouterr()
    assert noted.out == plain.out
    assert noted.err == "note: cycle.max_harq = 3 overrides protocol.extended_harq = true\n"
    # the note comes before the point runs, so it heads the budget error too
    path.write_text(NBIOT.read_text() + "cycle.max_harq = 2\n")
    assert run_cli(command, path) == 3
    failed = capsys.readouterr()
    assert failed.out == ""
    assert failed.err.startswith("note: cycle.max_harq = 2 overrides protocol.extended_harq = true\n"
                                 "config error: even one TB per cycle needs more than 2 HARQ processes")
    # the protocol's own budget, extended or not, draws no note
    path.write_text(NBIOT.read_text() + "cycle.max_harq = protocol\n")
    assert run_cli(command, path) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("perspective, fmt, bad", [
    ("BS", "text", "perspective 'BS'"),
    ("ue", "pdf", "format 'pdf'"),
], ids=["perspective", "format"])
def test_render_timeline_rejects_an_unknown_perspective_or_format(perspective, fmt, bad, table):
    config = scenario.load_config(LTEM)
    with pytest.raises(InvalidInputError, match=f"unknown timeline {bad}"):
        render_timeline(config, perspective, fmt, table)


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


def test_calibrate_rewrites_every_line_that_sets_a_key(tmp_path, capsys):
    # read_config lets the last of two lines win, so calibrate must rewrite both
    profile = tmp_path / "nbiot.cfg"
    profile.write_text(NBIOT.read_text() + "cycle.rep_pdcch = 2\ncycle.rep_pdcch = 7\n")
    assert run_cli("calibrate", profile) == 0
    assert capsys.readouterr().out == "rep_pdcch=5 n_a2g=0\ngain_pct=31.7073 target=31\n"
    assert profile.read_text().count("cycle.rep_pdcch = 5\n") == 2
    assert scenario.read_config(profile)["cycle.rep_pdcch"] == "5"
    assert run_cli("run", profile) == 0
    assert ",31.7073," in capsys.readouterr().out


def test_calibrate_keeps_the_comment_of_a_line_it_rewrites(tmp_path):
    profile = tmp_path / "nbiot.cfg"
    profile.write_text(NBIOT.read_text() + "cycle.rep_pdcch = 2  # from the 2023 fit\n")
    assert run_cli("calibrate", profile) == 0
    assert profile.read_text().splitlines()[-2:] == ["cycle.rep_pdcch = 5  # from the 2023 fit", "cycle.n_a2g = 0"]


@pytest.mark.parametrize("line, pair, note", [
    ("protocol.extended_harq = false", "rep_pdcch=8 n_a2g=0",
     "skipped 20 candidates that fail; the first, rep_pdcch=1 n_a2g=0: even one TB per cycle needs more than 2"),
    ("geometry.service_elevation_deg = 90", "rep_pdcch=2 n_a2g=0",
     "skipped 10 candidates that fail; the first, rep_pdcch=7 n_a2g=0: TB 2 grant-to-data delay 7 < minimum 8"),
], ids=["harq-budget", "min-delay"])
def test_calibrate_skips_the_candidates_that_fail(tmp_path, capsys, line, pair, note):
    profile = tmp_path / "nbiot.cfg"
    profile.write_text(f"{NBIOT.read_text()}{line}\n")
    assert run_cli("calibrate", profile, "--dry-run") == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{pair}\n")
    assert captured.err.startswith(f"note: calibrate {note}")
    assert captured.err.count("\n") == 1


def test_calibrate_raises_the_first_candidates_error_when_every_one_fails(monkeypatch, capsys):
    def fail(config, table):
        first = (config.cycle.rep_pdcch, config.n_a2g) == (1, 0)
        raise (ConfigError if first else MinDelayViolationError)(
            f"rep_pdcch={config.cycle.rep_pdcch} n_a2g={config.n_a2g} fails")

    monkeypatch.setattr(scenario, "resolve", fail)
    assert run_cli("calibrate", NBIOT, "--dry-run") == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "config error: rep_pdcch=1 n_a2g=0 fails\n")
