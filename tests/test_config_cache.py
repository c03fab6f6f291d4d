"""The caches behind config parsing, cycle completion and operating-point
resolution change no result.

``scenario`` builds each distinct section object and completed cycle
once and resolves each distinct operating point once.
These tests hold the cached path to the same callables run without their
caches, and check that errors are never cached and that equal keys of
different meaning stay apart.
"""
from __future__ import annotations

import itertools
import types
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntn_harq import records, scenario
from ntn_harq.bler import BlerTable
from ntn_harq.cli import main
from ntn_harq.errors import (
    ConfigError,
    InfeasibleLinkError,
    InvalidInputError,
    MinDelayViolationError,
)
from ntn_harq.harq import CycleParams
from ntn_harq.scenario import _SCHEMA, ScenarioConfig, config_from_mapping, parse_config_text, results_to_csv, run_scenario

SECTIONS = ("_geometry_section", "_link_section", "_cycle_section", "_scalar_section", "_monte_carlo_section")
CACHED = (*SECTIONS, "_completed_cycle", "_operating_point")
PROFILES = Path(__file__).resolve().parent.parent / "profiles"
README = PROFILES.parent / "README.md"
POINT_ERRORS = (ConfigError, InfeasibleLinkError, InvalidInputError, MinDelayViolationError)


def cycle_texts(texts: dict[str, str]) -> tuple[str | None, ...]:
    """The cycle section's key: each of its keys' texts, None if absent."""
    return tuple(map(texts.get, scenario._CYCLE_KEYS))


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
    scenario._cycle_section.cache_clear()
    for _ in range(2):
        with pytest.raises(ConfigError, match=r"bad value for cycle.rep_pdcch: '0' must be an integer in \[1, 100000\]"):
            config_from_mapping({"cycle.rep_pdcch": "0"})
        with pytest.raises(ConfigError, match="unknown configuration key 'cycle.bogus'"):
            config_from_mapping({"cycle.bogus": "1"})
        with pytest.raises(ConfigError, match="bad value for cycle.n_bundle: '0' must be an integer >= 1"):
            scenario._cycle_section(cycle_texts({"cycle.n_bundle": "0"}))
        with pytest.raises(InvalidInputError, match=r"rep_pdsch must be an integer in \[1, 100000\], got 0"):
            scenario._completed_cycle(CycleParams(), 2, 0)
    assert scenario._cycle_section.cache_info().currsize == 0


def test_every_scenario_cache_is_bypassed_by_the_cache_free_reference():
    assert {name for name, value in vars(scenario).items() if hasattr(value, "cache_info")} == set(CACHED)


def test_every_scenario_cache_has_the_one_bound():
    bounds = {name: value.cache_info().maxsize for name, value in vars(scenario).items() if hasattr(value, "cache_info")}
    assert bounds == dict.fromkeys(CACHED, scenario._CACHE_SIZE)


def test_the_sections_cover_the_schema():
    keys = (scenario._GEOMETRY_KEYS, scenario._LINK_KEYS, scenario._CYCLE_KEYS, scenario._SCALAR_KEYS,
            scenario._MONTE_CARLO_KEYS)
    assert set().union(*keys) == _SCHEMA.keys()


def test_the_scalar_keys_follow_the_config_fields():
    # the two flags set max_harq and power_nw, and the two power keys give power_nw
    flags = ("protocol.extended_harq", "cycle.ack_bundling")
    power = ("power.efficiency_mops_per_mw", "power.op_rate_per_s")
    names = [key.replace(".", "_").removeprefix("cycle_")
             for key in scenario._SCALAR_KEYS if key not in flags + power]
    assert scenario._SCALAR_KEYS[1:3] == flags and scenario._SCALAR_KEYS[-2:] == power
    assert [*names, "power_nw"] == list(ScenarioConfig._fields)[3:-1]


# two bad keys each, from sections the cache looks up in the other order
# (geometry before cycle, link before Monte Carlo), and unknown keys
TWO_BAD_KEYS = (
    ("cycle.rep_pdcch", "0", "bad value for cycle.rep_pdcch"),
    ("geometry.altitude_km", "-1", "bad value for geometry.altitude_km"),
    ("monte_carlo.seed", "x", "bad value for monte_carlo.seed"),
    ("link.bandwidth_hz", "0", "bad value for link.bandwidth_hz"),
    ("cycle.bogus", "1", "unknown configuration key 'cycle.bogus'"),
    ("mode", "fast", "bad value for mode"),
)


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (1, 4), (4, 1)])
def test_the_first_bad_key_in_mapping_order_names_the_error(first, second):
    (key_a, text_a, error), (key_b, text_b, _) = TWO_BAD_KEYS[first], TWO_BAD_KEYS[second]
    raw = {"cycle.n_tbphc": "auto", key_a: text_a, "tbs_bits": "144", key_b: text_b}
    for _ in range(2):
        with pytest.raises(ConfigError, match=f"^{error}"):
            config_from_mapping(raw)


@pytest.mark.parametrize("position", range(4))
def test_one_unknown_key_among_valid_ones_is_named(position):
    items = [("geometry.altitude_km", "1200"), ("mode", "legacy"), ("tbs_bits", "144")]
    items.insert(position, ("link.bogus", "1"))
    with pytest.raises(ConfigError, match="^unknown configuration key 'link.bogus'$"):
        config_from_mapping(dict(items))


def test_a_read_only_mapping_gives_the_same_config():
    raw = {"geometry.altitude_km": "1200", "mode": "legacy", "cycle.rep_pdcch": "2", "monte_carlo.seed": "7"}
    assert config_from_mapping(types.MappingProxyType(raw)) == config_from_mapping(raw)
    with pytest.raises(ConfigError, match="^unknown configuration key 'link.bogus'$"):
        config_from_mapping(types.MappingProxyType({**raw, "link.bogus": "1"}))


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


# one point of each kind of outcome per profile: rows, an infeasible link,
# a TB size with no curve, uplink bundling, a HARQ budget that fails, and
# the NB-IoT points whose cycle misses a minimum delay
GRID = (
    ("geometry.altitude_km", ("600", "3000")),
    ("geometry.service_elevation_deg", ("30", "90")),
    ("direction", ("ul", "dl")),
    ("mode", ("legacy", "proposed")),
    ("tbs_bits", ("504", "1000")),
    ("cycle.ack_bundling", ("false", "true")),
    ("cycle.rep_pdcch", ("1", "8")),
    ("cycle.n_tbphc", ("auto", "7")),
)


@pytest.mark.parametrize("profile", sorted(p.stem for p in PROFILES.glob("*.cfg")))
def test_grid_rows_and_errors_match_a_cache_free_reference(table, profile):
    base = parse_config_text((PROFILES / f"{profile}.cfg").read_text())
    raws = [
        {**base, "protocol.extended_harq": "true", **dict(zip((k for k, _ in GRID), values))}
        for values in itertools.product(*(options for _, options in GRID))
    ]
    clear_caches()
    cached = [outcome(raw, table) for raw in raws]
    with cache_free():
        reference = [outcome(raw, table) for raw in raws]
    assert cached == reference
    kinds = {result[1] if len(result) == 3 else "row" for result in cached}
    assert {"row", "InfeasibleLinkError", "ConfigError"} <= kinds
    messages = {result[2] for result in cached if len(result) == 3}
    assert "bad value for tbs_bits: 1000 has no BLER curve in the table" in messages


def test_point_errors_raise_on_every_call(table):
    min_delay = {"protocol": "nb-iot", "protocol.extended_harq": "true",
                 "geometry.service_elevation_deg": "90", "cycle.rep_pdcch": "8"}
    cases = (
        (min_delay, MinDelayViolationError),
        ({"geometry.altitude_km": "3000"}, InfeasibleLinkError),
        ({"tbs_bits": "1000"}, ConfigError),
    )
    for raw, error in cases:
        config = config_from_mapping(raw)
        for _ in range(2):
            with pytest.raises(error):
                run_scenario(config, table)
    for _ in range(2):  # uplink bundling is refused when the scalar section is parsed
        with pytest.raises(ConfigError, match="^cycle.ack_bundling = true needs direction = dl"):
            config_from_mapping({"cycle.ack_bundling": "true"})


def test_an_infeasible_point_is_resolved_once_and_raises_a_fresh_error_each_time(table):
    config = config_from_mapping({"geometry.altitude_km": "3000"})
    scenario._operating_point.cache_clear()
    errors = []
    for _ in range(2):
        with pytest.raises(InfeasibleLinkError) as caught:
            scenario.resolve(config, table)
        errors.append(caught.value)
    info = scenario._operating_point.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1])
    assert str(errors[1]).startswith("no repetition count reaches BLER 0.1 at ")


def test_equal_tables_hash_equal_whatever_the_insertion_order(table):
    reordered = BlerTable({
        tbs: dict(reversed(list(by_rep.items())))
        for tbs, by_rep in reversed(list(table.curves.items()))
    })
    assert list(reordered.curves) != list(table.curves)
    assert reordered == table and hash(reordered) == hash(table)
    tbs, by_rep = next(iter(table.curves.items()))
    n_rep, points = next(iter(by_rep.items()))
    (snr, bler), *rest = points
    changed = BlerTable({**table.curves, tbs: {**by_rep, n_rep: ((snr, bler / 2), *rest)}})
    assert changed != table


def test_a_table_differing_in_one_point_selects_on_its_own_curve(table):
    # the operating-point cache is keyed on the table's content, so a table
    # that differs in one point never reads another table's entry
    config = config_from_mapping({})
    assert run_scenario(config, table).n_rep == 12
    curves = {tbs: dict(by_rep) for tbs, by_rep in table.curves.items()}
    curves[504][8] = tuple((snr, bler / 10) for snr, bler in curves[504][8])
    assert run_scenario(config, BlerTable(curves)).n_rep == 8
    assert run_scenario(config, table).n_rep == 12


def test_a_warm_sweep_point_builds_no_validated_record(table, bench_workloads, monkeypatch):
    # once a pass of the benchmark sweep has filled the caches, every
    # validated record that a point needs comes out of them, and so does
    # power_nw, which the scalar section computes once per distinct section
    root, workloads = bench_workloads
    ops = workloads.sweep_ops(root, 1, table)
    for op in ops:
        workloads.run_op(op)
    built = Counter()
    new = records.Validated.__new__

    def counting_new(cls, *args, **kwargs):
        built[cls.__name__] += 1
        return new(cls, *args, **kwargs)

    delay_power = scenario.delay_power

    def counting_delay_power(*args):
        built["delay_power"] += 1
        return delay_power(*args)

    monkeypatch.setattr(records.Validated, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(scenario, "delay_power", counting_delay_power)
    outcomes = Counter(workloads.run_op(op)[0] for op in ops)
    assert outcomes["ok"] == 5728
    assert built == Counter()


def test_one_pass_of_the_benchmark_sweep_fills_the_caches_the_readme_counts(table, bench_workloads):
    root, workloads = bench_workloads
    ops = workloads.sweep_ops(root, 1, table)
    clear_caches()
    for op in ops:
        workloads.run_op(op)
    size = {name: getattr(scenario, name).cache_info().currsize for name in CACHED}
    assert size == {"_geometry_section": 28, "_link_section": 1, "_cycle_section": 12, "_scalar_section": 48,
                    "_monte_carlo_section": 1, "_completed_cycle": 246, "_operating_point": 56}
    sentence = (
        f"The benchmark's {len(ops)}-point sweep fills {sum(size[name] for name in SECTIONS)} sections "
        f"({size['_geometry_section']} geometries, {size['_link_section']} link budget, "
        f"{size['_cycle_section']} cycle templates, {size['_scalar_section']} scalar sets, "
        f"{size['_monte_carlo_section']} Monte Carlo setting), {size['_operating_point']} operating points "
        f"and {size['_completed_cycle']} cycles."
    )
    assert sentence in " ".join(README.read_text().split())
