"""Generated config values through the CLI.

Each example appends one ``key = value`` line to a complete profile and
runs ``ntn-harq run`` on it.  Whatever the value, the documented contract
holds: exit status 0, 2 or 3, never an exception.
"""
from __future__ import annotations

from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ntn_harq.cli import main
from ntn_harq.scenario import _SCHEMA

PROFILE = (Path(__file__).resolve().parent.parent / "profiles" / "leo600_ltem_ul.cfg").read_text()

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
