"""Regression tests for fixed defects and for the bisected TB-count search."""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntn_harq.bler import select_repetitions
from ntn_harq.cli import main
from ntn_harq.errors import ConfigError
from ntn_harq.geometry import round_trip_time, slant_range
from ntn_harq.harq import CycleParams, harq_for_tbphc
from ntn_harq.linkbudget import snr_db
from ntn_harq.scenario import (
    MAX_AUTO_TBPHC,
    config_from_mapping,
    parse_config_text,
    select_tbphc,
)
from ntn_harq.scheduler import Activity, SubframeTimeline, validate

PROFILES = sorted((Path(__file__).resolve().parent.parent / "profiles").glob("*.cfg"))


@pytest.mark.parametrize("n_feedback", [1, 3])
def test_validate_measures_feedback_from_its_first_slot(n_feedback):
    # feedback starts two SFs after the data against a 3-SF minimum,
    # however many SFs the feedback repeats over
    slots = [
        ((Activity.RX_PDSCH, 1),),
        ((Activity.SWITCH, None),),
        *[((Activity.TX_PUCCH, 1),)] * n_feedback,
    ]
    params = CycleParams(dd2a_min=3, n_switch=1, rep_pucch=n_feedback)
    report = validate(SubframeTimeline.from_slots(slots), params)
    assert [(c.kind, c.sf_index) for c in report.conflicts] == [("min-delay", 2)]


def test_tbs_without_bler_curve_is_config_error(tmp_path, capsys):
    config = tmp_path / "tbs300.cfg"
    config.write_text("tbs_bits = 300\n")
    assert main(["run", str(config)]) == 3
    assert "tbs_bits" in capsys.readouterr().err


def linear_select_tbphc(config, n_rep: int, rtt_ms: float) -> int:
    """The largest n_tbphc within the HARQ budget, by trying n = 1, 2, ...
    on each fully built cycle."""
    best = None
    for n in range(1, MAX_AUTO_TBPHC + 1):
        params = config.cycle._replace(n_tbphc=n, rep_pdsch=n_rep, rep_pusch=n_rep)
        if harq_for_tbphc(params, rtt_ms, config.n_a2g) > config.max_harq:
            break
        best = n
    if best is None:
        raise ConfigError("even one TB per cycle exceeds the HARQ budget")
    return best


def assert_select_tbphc_matches_linear_scan(config, table):
    rtt_ms = round_trip_time(config.geometry)
    distance_m = slant_range(config.geometry.altitude_km, config.geometry.service_elevation_deg) * 1000.0
    n_rep = select_repetitions(table, config.tbs_bits, snr_db(config.link, distance_m), config.target_bler)
    try:
        expected = linear_select_tbphc(config, n_rep, rtt_ms)
    except ConfigError:
        with pytest.raises(ConfigError):
            select_tbphc(config, n_rep, rtt_ms)
    else:
        assert select_tbphc(config, n_rep, rtt_ms) == expected


@pytest.mark.parametrize("extended", ["false", "true"])
@pytest.mark.parametrize("max_harq", [1, 8, 64, 512, 513, 1024])
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.stem)
def test_select_tbphc_bisection_matches_linear_scan(profile, max_harq, extended, table):
    raw = parse_config_text(profile.read_text())
    raw.update({"cycle.n_tbphc": "auto", "cycle.max_harq": str(max_harq), "protocol.extended_harq": extended})
    assert_select_tbphc_matches_linear_scan(config_from_mapping(raw), table)


# the default LTE-M uplink link closes from 160 km up to about 1400 km
@settings(max_examples=200, deadline=None)
@given(raw=st.fixed_dictionaries({
    "geometry.altitude_km": st.integers(160, 1300).map(str),
    "cycle.rep_pdcch": st.integers(1, 8).map(str),
    "cycle.rep_pucch": st.integers(1, 8).map(str),
    "cycle.n_dg2d": st.integers(0, 4).map(str),
    "cycle.n_switch": st.integers(0, 3).map(str),  # at most the LTE-M minimum delays of 3 SFs
    "cycle.n_a2g": st.integers(0, 8).map(str),
    "cycle.max_harq": st.one_of(st.integers(1, 64), st.sampled_from([256, 1024])).map(str),
}))
def test_select_tbphc_matches_linear_scan_on_generated_configs(raw, table):
    assert_select_tbphc_matches_linear_scan(config_from_mapping(raw), table)
