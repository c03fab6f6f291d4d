"""Generated config values and BLER-table rows through the CLI.

Each example appends one ``key = value`` line to a complete profile, or
runs the profile on a table that holds one generated ``tbs,n_rep,snr_db,bler``
row, and runs ``ntn-harq run`` on it.  Whatever the value, the documented
contract holds: exit status 0, 2 or 3, never an exception.
"""
from __future__ import annotations

from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ntn_harq.cli import main
from ntn_harq.scenario import _SCHEMA

ROOT = Path(__file__).resolve().parent.parent
PROFILE = (ROOT / "profiles" / "leo600_ltem_ul.cfg").read_text()
PACKAGED_TABLE = (ROOT / "src" / "ntn_harq" / "data" / "bler_pusch_ntn_tdla.csv").read_text()

NUMBERS = st.one_of(
    st.sampled_from(["1e300", "-1e300", "9" * 40, "9" * 400, "-1", "0", "-0", "1e-300", "5e-324"]),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity"]),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
WORDS = st.sampled_from([
    "auto", "protocol", "true", "false", "yes", "off", "ul", "DL", "legacy", "proposed",
    "stbg", "MTBG", "lte-m", "nb-iot", "transparent", "regenerative", "0.1,0.5", "1,2,3",
])
JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
# Monte Carlo time grows linearly with the cycle count by design, so that
# key only draws counts a test can afford (and non-numbers)
SMALL_COUNTS = st.integers(min_value=-5, max_value=50).map(str)


@st.composite
def config_lines(draw) -> str:
    key = draw(st.sampled_from(sorted(_SCHEMA)))
    numbers = SMALL_COUNTS if key == "monte_carlo.n_cycles" else NUMBERS
    value = draw(st.one_of(numbers, WORDS, JUNK))
    return f"{key} = {value}\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=config_lines())
def test_any_value_for_a_known_key_exits_0_2_or_3(tmp_path, line):
    config = tmp_path / "fuzz.cfg"
    config.write_text(PROFILE + line, encoding="utf-8")
    assert main(["run", str(config), "--out", str(tmp_path / "out.csv")]) in (0, 2, 3)


LTEM_GAPS = {"cycle.n_switch": 1, "cycle.dd2a_min": 3, "cycle.ug2d_min": 3}  # the profile protocol's values


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=st.tuples(*[st.one_of(st.just("protocol"), st.integers(0, 6).map(str))] * len(LTEM_GAPS)))
def test_the_switch_gap_and_the_minimum_delays_drawn_together(tmp_path, capsys, texts):
    n_switch, dd2a_min, ug2d_min = (LTEM_GAPS[key] if text == "protocol" else int(text)
                                    for key, text in zip(LTEM_GAPS, texts))
    config = tmp_path / "fuzz.cfg"
    config.write_text(PROFILE + "".join(f"{key} = {text}\n" for key, text in zip(LTEM_GAPS, texts)), encoding="utf-8")
    status = main(["run", str(config), "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    short = [(name, delay) for name, delay in (("dd2a_min", dd2a_min), ("ug2d_min", ug2d_min)) if delay < n_switch]
    if short:
        name, delay = short[0]
        assert status == 3
        assert err.startswith(f"config error: cycle.{name} = {delay} is shorter than cycle.n_switch = {n_switch}: ")
    else:
        assert (status, err) == (0, "")


@st.composite
def table_cases(draw) -> tuple[str, str]:
    """A config whose ``tbs_bits`` is the drawn row's TB size, and a table
    of that row alone or appended to the packaged table."""
    tbs = draw(st.one_of(st.sampled_from(["144", "504"]), NUMBERS, WORDS))
    n_rep = draw(st.one_of(st.integers(min_value=-2, max_value=200_000).map(str), NUMBERS, WORDS, JUNK))
    snr = draw(st.one_of(st.floats(-40, 40).map(repr), NUMBERS, JUNK))
    bler = draw(st.one_of(st.floats(0, 1).map(repr), NUMBERS, JUNK))
    row = f"{tbs},{n_rep},{snr},{bler}\n"
    return PROFILE + f"tbs_bits = {tbs}\n", (PACKAGED_TABLE if draw(st.booleans()) else "") + row


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=table_cases())
def test_any_table_row_exits_0_2_or_3(tmp_path, case):
    config, table = tmp_path / "fuzz.cfg", tmp_path / "fuzz.csv"
    config.write_text(case[0], encoding="utf-8")
    table.write_text(case[1], encoding="utf-8")
    assert main(["run", str(config), "--bler-table", str(table), "--out", str(tmp_path / "out.csv")]) in (0, 2, 3)
