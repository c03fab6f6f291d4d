"""The caches behind config parsing and cycle completion change no result.

``scenario`` builds each distinct parsed value, section object and
completed cycle once.  These tests hold the cached path to the same
callables run without their caches, and check that errors are never
cached and that equal keys of different meaning stay apart.
"""
from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntn_harq import scenario
from ntn_harq.cli import main
from ntn_harq.errors import (
    ConfigError,
    CurveNotFoundError,
    InfeasibleLinkError,
    InvalidInputError,
    MinDelayViolationError,
)
from ntn_harq.harq import CycleParams
from ntn_harq.scenario import _SCHEMA, config_from_mapping, results_to_csv, run_scenario

CACHED = ("_parse_value", "_section", "_completed_cycle")
POINT_ERRORS = (ConfigError, CurveNotFoundError, InfeasibleLinkError, InvalidInputError, MinDelayViolationError)


def clear_caches() -> None:
    for name in CACHED:
        getattr(scenario, name).cache_clear()


@contextmanager
def cache_free():
    """The scenario module with each cache bypassed: every call runs the
    wrapped callable."""
    with mock.patch.multiple(scenario, **{name: getattr(scenario, name).__wrapped__ for name in CACHED}):
        yield


def outcome(raw: dict[str, str], table) -> tuple:
    """The config, and its CSV row or error, that ``raw`` gives."""
    try:
        config = config_from_mapping(raw)
    except ConfigError as exc:
        return ("config error", str(exc))
    try:
        return (config, results_to_csv([run_scenario(config, table)]))
    except POINT_ERRORS as exc:
        return (config, type(exc).__name__, str(exc))


# a small pool, so texts repeat across examples and the caches hit; it
# mixes valid and invalid texts for most keys
TEXTS = st.sampled_from([
    "0", "-0", "1", "2", "4", "8", "30", "90", "1200", "0.5", " 600 ", "1e300", "-1", "nan",
    "auto", "protocol", "true", "off", "dl", "legacy", "nb-iot", "mtbg", "regenerative",
    "0.1,0.5", "", "junk",
])


@st.composite
def raw_maps(draw) -> dict[str, str]:
    keys = draw(st.lists(st.sampled_from(sorted(_SCHEMA)), max_size=5, unique=True))
    # half the values are the key's own default text, which is valid
    return {key: draw(st.one_of(st.just(_SCHEMA[key][1]), TEXTS)) for key in keys}


@settings(max_examples=300, deadline=None)
@given(raw=raw_maps())
def test_cached_configs_and_rows_match_a_cache_free_reference(table, raw):
    cached = outcome(raw, table)
    with cache_free():
        reference = outcome(raw, table)
    assert cached == reference


def test_a_bad_value_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ConfigError, match=r"bad value for cycle.rep_pdcch: '0' must lie in \[1, 100000\]"):
            config_from_mapping({"cycle.rep_pdcch": "0"})
        with pytest.raises(ConfigError, match="unknown configuration key 'cycle.bogus'"):
            config_from_mapping({"cycle.bogus": "1"})
        with pytest.raises(InvalidInputError, match="n_tbphc must be >= 1"):
            scenario._section(CycleParams, n_tbphc=0)
        with pytest.raises(InvalidInputError, match="rep_pdsch repetitions must be >= 1"):
            scenario._completed_cycle(CycleParams(), 2, 0)


def test_one_text_under_two_keys_is_parsed_per_key():
    config = config_from_mapping({"link.eirp_dbm": "1", "cycle.rep_pdcch": "1", "cycle.n_tbphc": "auto"})
    assert type(config.link.eirp_dbm) is float and type(config.cycle.rep_pdcch) is int
    assert config.n_tbphc is None
    with pytest.raises(ConfigError, match="bad value for cycle.max_harq"):
        config_from_mapping({"cycle.n_tbphc": "auto", "cycle.max_harq": "auto"})


@pytest.mark.parametrize("key", ["link.eirp_dbm", "link.loss_polar_db", "monte_carlo.bler_per_attempt"])
def test_signed_zero_gives_one_output_whichever_parses_first(tmp_path, capsys, key):
    # 0.0 and -0.0 hash and compare equal, so a section cached for one
    # serves the other; the output must not tell them apart.  The raised
    # G/T keeps the link feasible at an EIRP of 0 dBm.
    outputs: dict[str, set[str]] = {"0": set(), "-0": set()}
    for order in (("-0", "0"), ("0", "-0")):
        clear_caches()
        for text in order:
            path = tmp_path / "zero.cfg"
            path.write_text(f"link.g_over_t_db = 18.1\nmonte_carlo.n_cycles = 200\n{key} = {text}\n")
            assert main(["run", str(path)]) == 0
            outputs[text].add(capsys.readouterr().out)
    assert len(outputs["0"]) == 1 and outputs["0"] == outputs["-0"]
    assert "# monte_carlo goodput_bps=" in outputs["0"].pop()
