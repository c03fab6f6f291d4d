"""The contract of the package's 13 record types.

Every record keeps its field names, order and defaults, cannot be
changed after construction, and is equal to, and hashes like, any record
of the same type with equal values.  The three validated records reject a
bad value with the same message whether it comes from construction or
from ``_replace``.  A config key and the record field or function argument
it sets share one rule object, so they accept the same values.
"""
from __future__ import annotations

import math
import re
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntn_harq import bler, metrics, scheduler
from ntn_harq.bler import BlerTable
from ntn_harq.errors import ConfigError, InfeasibleLinkError, InvalidInputError
from ntn_harq.geometry import OrbitGeometry, Payload
from ntn_harq.harq import CycleParams, Direction, GrantMode
from ntn_harq.linkbudget import LinkBudgetParams
from ntn_harq.records import _AT_LEAST_0, IdentityEnum, require
from ntn_harq.metrics import SchedulingMode
from ntn_harq.scenario import (
    PROTOCOLS,
    CalibrationResult,
    MonteCarloSettings,
    ProtocolProfile,
    ScenarioConfig,
    ScenarioResult,
    _SCHEMA,
    _parse_value,
    config_from_mapping,
)
from ntn_harq.scheduler import (
    Activity,
    Conflict,
    ConflictReport,
    GoodputResult,
    Perspective,
    SubframeTimeline,
)


def _protocol() -> dict:
    return dict(name="lte-m", ug2d_min=3, dd2a_min=3, n_switch=1, max_harq=8, max_harq_extended=8,
                target_gain_pct=28.0, gain_tolerance_pct=2.0)


def _config() -> dict:
    return dict(geometry=OrbitGeometry(600.0, Payload.TRANSPARENT, 30.0), link=LinkBudgetParams(23.0, -4.9, 180e3, 2.0),
                cycle=CycleParams(), protocol=PROTOCOLS["lte-m"], tbs_bits=504, target_bler=0.1, direction=Direction.UL,
                mode=SchedulingMode.PROPOSED_VARIABLE, n_tbphc=None, n_a2g=0, max_harq=8,
                power_nw=41.67, monte_carlo=MonteCarloSettings())


def _result() -> dict:
    return dict(scenario_id="leo600-transparent-lte-m-ul-proposed-tbs504", altitude_km=600.0, payload="transparent",
                elevation_deg=30.0, rtt_ms=20.06, snr_db=-0.22, tbs_bits=504, n_rep=12, mode="proposed", n_tbphc=6,
                n_harq_required=8, suf=0.075, throughput_bps=37800.0, gain_pct=27.5, power_nw=41.67)


def _timeline() -> dict:
    return dict(blocks=((0, 2, (Activity.RX_PDCCH, 1), 0),
                        (5, 3, (Activity.TX_PUSCH, 1), 1)), length=9)


# type -> (fresh required values, field names in order, defaults of the others)
RECORDS = {
    ProtocolProfile: (_protocol, tuple(_protocol()), {}),
    MonteCarloSettings: (dict, ("n_cycles", "seed", "bler_per_attempt"),
                         {"n_cycles": 0, "seed": 1, "bler_per_attempt": ()}),
    ScenarioConfig: (_config, tuple(_config()), {}),
    ScenarioResult: (_result, (*_result(), "goodput"), {"goodput": None}),
    CalibrationResult: (lambda: dict(rep_pdcch=2, n_a2g=1, gain_pct=27.9, target_gain_pct=28.0, degraded=False),
                        ("rep_pdcch", "n_a2g", "gain_pct", "target_gain_pct", "degraded", "skipped"),
                        {"skipped": ()}),
    GoodputResult: (lambda: dict(goodput_bps=3.5e4, retransmission_rate=0.1), ("goodput_bps", "retransmission_rate"),
                    {}),
    Conflict: (lambda: dict(sf_index=4, activities=("RxPDCCH", "TxPUSCH"), tb_indices=(1, 2)),
               ("sf_index", "activities", "tb_indices", "kind"), {"kind": "double-booking"}),
    ConflictReport: (lambda: dict(conflicts=(Conflict(4, ("RxPDCCH", "TxPUSCH"), (1, 2)),)),
                     ("conflicts", "attempt"), {"attempt": None}),
    CycleParams: (dict, ("n_tbphc", "rep_pdcch", "rep_pdsch", "rep_pusch", "rep_pucch", "n_switch", "n_dg2d",
                         "dd2a_min", "ug2d_min", "n_bundle", "grant_mode", "ack_bundling"),
                  {"n_tbphc": 1, "rep_pdcch": 1, "rep_pdsch": 1, "rep_pusch": 1, "rep_pucch": 1, "n_switch": 1,
                   "n_dg2d": 1, "dd2a_min": 3, "ug2d_min": 3, "n_bundle": 1, "grant_mode": GrantMode.STBG,
                   "ack_bundling": False}),
    OrbitGeometry: (lambda: dict(altitude_km=600.0, payload=Payload.TRANSPARENT, service_elevation_deg=30.0),
                    ("altitude_km", "payload", "service_elevation_deg", "feeder_elevation_deg"),
                    {"feeder_elevation_deg": 10.0}),
    LinkBudgetParams: (lambda: dict(eirp_dbm=23.0, g_over_t_db=-4.9, bandwidth_hz=180e3, carrier_ghz=2.0),
                       ("eirp_dbm", "g_over_t_db", "bandwidth_hz", "carrier_ghz", "loss_atm_db", "loss_shadow_db",
                        "loss_scint_db", "loss_polar_db"),
                       {"loss_atm_db": 0.0, "loss_shadow_db": 0.0, "loss_scint_db": 0.0, "loss_polar_db": 0.0}),
    BlerTable: (lambda: dict(curves={504: {8: ((-2.0, 0.5), (0.0, 0.1)), 12: ((-2.0, 0.2), (0.0, 0.01))}}),
                ("curves",), {}),
    SubframeTimeline: (_timeline, ("blocks", "length", "perspective", "origin"),
                       {"perspective": Perspective.UE, "origin": 0}),
}
TUPLE_RECORDS = [cls for cls in RECORDS if issubclass(cls, tuple)]
by_name = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def test_there_are_13_record_types_and_11_are_tuples():
    assert len(RECORDS) == 13
    assert set(RECORDS) - set(TUPLE_RECORDS) == {BlerTable, SubframeTimeline}


@by_name
def test_field_names_and_defaults(cls):
    make, names, defaults = RECORDS[cls]
    required = make()
    record = cls(**required)
    assert cls._fields == names
    assert list(required) + list(defaults) == list(names)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert {name: getattr(record, name) for name in required} == required


@by_name
def test_no_attribute_can_be_set(cls):
    make, names, _ = RECORDS[cls]
    record = cls(**make())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "added"


@by_name
def test_equal_values_give_equal_records_and_hashes(cls):
    make, _, _ = RECORDS[cls]
    first, second = cls(**make()), cls(**make())
    assert first is not second
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("cls", TUPLE_RECORDS, ids=lambda cls: cls.__name__)
def test_tuple_records_unpack_and_replace(cls):
    make, names, _ = RECORDS[cls]
    record = cls(**make())
    assert tuple(record) == tuple(getattr(record, name) for name in names)
    assert record == tuple(record)
    assert record._replace() == record and type(record._replace()) is cls


# (type, field, bad value, message) for each check a validated record makes
BAD_VALUES = [
    (CycleParams, "n_tbphc", 0, "n_tbphc must be an integer in [1, 100000], got 0"),
    (CycleParams, "n_bundle", 0, "n_bundle must be an integer >= 1, got 0"),
    (CycleParams, "rep_pdcch", 0, "rep_pdcch must be an integer in [1, 100000], got 0"),
    (CycleParams, "rep_pucch", 0, "rep_pucch must be an integer in [1, 100000], got 0"),
    (CycleParams, "rep_pdsch", 0, "rep_pdsch must be an integer in [1, 100000], got 0"),
    (CycleParams, "rep_pusch", -1, "rep_pusch must be an integer in [1, 100000], got -1"),
    (CycleParams, "n_switch", -1, "n_switch must be an integer in [0, 100000], got -1"),
    (CycleParams, "n_dg2d", -1, "n_dg2d must be an integer in [0, 100000], got -1"),
    (CycleParams, "dd2a_min", -1, "dd2a_min must be an integer in [0, 100000], got -1"),
    (CycleParams, "ug2d_min", -1, "ug2d_min must be an integer in [0, 100000], got -1"),
    (OrbitGeometry, "altitude_km", 0.0, "altitude_km must lie in (0, 35786] (GEO), got 0.0"),
    (OrbitGeometry, "service_elevation_deg", 5.0, "service_elevation_deg must lie in [10, 90], got 5.0"),
    (OrbitGeometry, "feeder_elevation_deg", 91.0, "feeder_elevation_deg must lie in [10, 90], got 91.0"),
    (LinkBudgetParams, "eirp_dbm", math.inf, "eirp_dbm must be finite, got inf"),
    (LinkBudgetParams, "g_over_t_db", -math.inf, "g_over_t_db must be finite, got -inf"),
    (LinkBudgetParams, "bandwidth_hz", 0.0, "bandwidth_hz must lie in (0, inf), got 0.0"),
    (LinkBudgetParams, "carrier_ghz", -2.0, "carrier_ghz must lie in [0.1, 100], got -2.0"),
    (LinkBudgetParams, "loss_atm_db", -0.1, "loss_atm_db must lie in [0, inf), got -0.1"),
    (LinkBudgetParams, "loss_shadow_db", -0.1, "loss_shadow_db must lie in [0, inf), got -0.1"),
    (LinkBudgetParams, "loss_scint_db", -0.1, "loss_scint_db must lie in [0, inf), got -0.1"),
    (LinkBudgetParams, "loss_polar_db", -0.1, "loss_polar_db must lie in [0, inf), got -0.1"),
]


@pytest.mark.parametrize("cls,field,bad,message", BAD_VALUES, ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_a_bad_value_raises_from_construction_and_from_replace(cls, field, bad, message):
    make, _, _ = RECORDS[cls]
    values = make()
    good = cls(**values)
    exact = f"^{re.escape(message)}$"
    with pytest.raises(InvalidInputError, match=exact):
        cls(**{**values, field: bad})
    with pytest.raises(InvalidInputError, match=exact):
        good._replace(**{field: bad})
    with pytest.raises(InvalidInputError, match=exact):
        cls._make(bad if name == field else value for name, value in zip(cls._fields, good))


# each config key that sets a field of a validated record -> (texts just
# outside the field's bound, texts on its edges)
FIELD_KEYS = {
    "geometry.altitude_km": (("0", "-1", "35786.5", "40000"), ("1e-3", "35786")),
    "geometry.service_elevation_deg": (("9.99", "90.01"), ("10", "90")),
    "geometry.feeder_elevation_deg": (("9.99", "90.01"), ("10", "90")),
    **{f"link.{name}": (("inf", "-inf", "1e309"), ("-1.7976931348623157e308", "1.7976931348623157e308"))
       for name in ("eirp_dbm", "g_over_t_db")},
    "link.bandwidth_hz": (("0", "-1", "inf"), ("1e-9", "1e308")),
    "link.carrier_ghz": (("0.0999", "0.05", "100.01"), ("0.1", "100")),
    **{f"link.loss_{name}_db": (("-0.001", "inf"), ("0", "1e308")) for name in ("atm", "shadow", "scint", "polar")},
    **{f"cycle.{name}": (("0", "100001", "1000000"), ("1", "100000")) for name in ("rep_pdcch", "rep_pucch")},
    **{f"cycle.{name}": (("-1", "100001"), ("0", "100000")) for name in ("n_dg2d", "n_switch", "dd2a_min", "ug2d_min")},
    "cycle.n_bundle": (("0", "-1"), ("1", "1000000")),
}
SECTIONS = {"geometry": OrbitGeometry, "link": LinkBudgetParams, "cycle": CycleParams}


def test_a_field_key_holds_its_fields_rule():
    assert len(FIELD_KEYS) == 18
    for key in FIELD_KEYS:
        section, field = key.split(".")
        assert _SCHEMA[key][2] is SECTIONS[section].RULES[field], key
    # keys that are not record fields keep their own rules: the config's TB
    # count is capped at 512, far below CycleParams' bound
    assert _SCHEMA["cycle.n_tbphc"][2] is not CycleParams.RULES["n_tbphc"]
    with pytest.raises(ConfigError, match=r"^bad value for cycle.n_tbphc: '600' must lie in \[1, 512\]$"):
        config_from_mapping({"cycle.n_tbphc": "600"})


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_a_value_outside_a_bound_is_refused_by_the_record_and_by_the_config(key):
    section, field = key.split(".")
    record = getattr(config_from_mapping({}), section)
    parse, _, (rule, _) = _SCHEMA[key]
    outside, edges = FIELD_KEYS[key]
    for text in outside:
        value = parse(text)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{field} {rule}, got {value!r}')}$"):
            record._replace(**{field: value})
        with pytest.raises(ConfigError, match=f"^{re.escape(f'bad value for {key}: {text!r} {rule}')}$"):
            config_from_mapping({key: text})
    for text in edges:
        assert getattr(record._replace(**{field: parse(text)}), field) == _parse_value(key, text) == parse(text)


@pytest.mark.parametrize("section,cls", SECTIONS.items(), ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_every_ruled_field_refuses_nan_and_the_config_refuses_it_for_every_float(section, cls):
    """NaN, inf and -inf: every float field has a rule, which refuses each
    of them, and so does the config, with the same rule's text."""
    make, _, _ = RECORDS[cls]
    record = cls(**make())
    assert {field for field in cls._fields if isinstance(getattr(record, field), float)} <= set(cls.RULES)
    for value in (math.nan, math.inf, -math.inf):
        for field, (rule, _) in cls.RULES.items():
            with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{field} {rule}, got {value!r}')}$"):
                record._replace(**{field: value})
        for key, (parse, _, rule) in _SCHEMA.items():
            if key.startswith(f"{section}.") and parse is float:
                text = repr(value)
                with pytest.raises(ConfigError, match=f"^{re.escape(f'bad value for {key}: {text!r} {rule[0]}')}$"):
                    config_from_mapping({key: text})


_TABLE = BlerTable({504: {1: ((-6.0, 0.5), (0.0, 0.001))}})
# "function.argument" -> (the rule it shares with a config key, or its own
# module-level rule, a call of the function with the argument set to v, a
# value the rule passes, then one or more values it refuses)
ARGUMENT_RULES = {
    "select_repetitions.target_bler": (
        _SCHEMA["target_bler"][2], lambda v: bler.select_repetitions(_TABLE, 504, 0.0, v), 0.1, 1.5),
    "load_bler_table.tbs": (_SCHEMA["tbs_bits"][2], lambda v: bler.load_bler_table([f"{v},1,-6,0.5"]), 504, 0),
    "load_bler_table.n_rep": (
        CycleParams.RULES["rep_pusch"], lambda v: bler.load_bler_table([f"504,{v},-6,0.5"]), 24, 100001),
    "spectral_efficiency.n_rep": (CycleParams.RULES["rep_pusch"], lambda v: bler.spectral_efficiency(504, v), 24, 0),
    "monte_carlo_goodput.bler_per_attempt": (
        _SCHEMA["monte_carlo.bler_per_attempt"][2],
        lambda v: scheduler.monte_carlo_goodput(CycleParams(), Direction.DL, v, 1, 1, 504), [0.1], [0.1, 1.2]),
    "monte_carlo_goodput.n_cycles": (
        scheduler._N_CYCLES, lambda v: scheduler.monte_carlo_goodput(CycleParams(), Direction.DL, [0.1], v, 1, 504),
        1, 0, 2.5, math.inf),
    "monte_carlo_goodput.tbs_bits": (
        _SCHEMA["tbs_bits"][2],
        lambda v: scheduler.monte_carlo_goodput(CycleParams(), Direction.DL, [0.1], 1, 1, v), 504, -504),
    "delay_power.efficiency_mops_per_mw": (
        _SCHEMA["power.efficiency_mops_per_mw"][2], lambda v: metrics.delay_power(v, 1000.0, 6), 144.0, math.inf),
    "delay_power.op_rate_per_s": (
        _SCHEMA["power.op_rate_per_s"][2], lambda v: metrics.delay_power(144.0, v, 6), 1000.0, 0.0),
    "delay_power.op_count": (_AT_LEAST_0, lambda v: metrics.delay_power(144.0, 1000.0, v), 6, -math.inf),
    "throughput.tbs_bits": (_SCHEMA["tbs_bits"][2], lambda v: metrics.throughput(0.5, v), 504, 100001),
}


@pytest.mark.parametrize("argument", ARGUMENT_RULES)
def test_a_function_argument_checks_the_rule_object_of_its_key(monkeypatch, argument):
    rule, call, good, *refused = ARGUMENT_RULES[argument]
    function, _, name = argument.partition(".")
    used = []

    def spy(checked_name, value, checked_rule):
        used.append((checked_name, checked_rule))
        require(checked_name, value, checked_rule)

    for module in (bler, metrics, scheduler):
        monkeypatch.setattr(module, "require", spy)
    call(good)
    assert any(used_name == name and used_rule is rule for used_name, used_rule in used), used
    for bad in refused:
        message = f"{'line 1: ' if function == 'load_bler_table' else ''}{name} {rule[0]}, got {bad!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call(bad)


def _use(key, value):
    """Pass ``value`` to the record field or function argument that shares ``key``'s rule."""
    section, _, field = key.partition(".")
    if section in SECTIONS:
        getattr(config_from_mapping({}), section)._replace(**{field: value})
    else:
        {
            "target_bler": lambda: bler.select_repetitions(_TABLE, 504, 0.0, value),
            "power.efficiency_mops_per_mw": lambda: metrics.delay_power(value, 1000.0, 6),
            "power.op_rate_per_s": lambda: metrics.delay_power(144.0, value, 6),
            "monte_carlo.bler_per_attempt": lambda: scheduler.monte_carlo_goodput(
                CycleParams(), Direction.DL, value, 1, 1, 504),
        }[key]()


# every key of a float or of a list of floats
FLOAT_KEYS = sorted(key for key, (parse, _, _) in _SCHEMA.items() if parse is float) + ["monte_carlo.bler_per_attempt"]
EDGES = (0.0, 0.1, 1.0, 10.0, 90.0, 100.0, 35786.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf)
FLOAT_TEXTS = st.one_of(
    # each edge of a rule, negated or one step off
    st.sampled_from(EDGES).flatmap(lambda e: st.sampled_from([e, -e, math.nextafter(e, -math.inf),
                                                              math.nextafter(e, math.inf)])).map(repr),
    st.floats().map(repr),  # NaN, +-inf and subnormals among them
    st.sampled_from(["NaN", "-nan", "Infinity", "-INF", "+inf", "1e309", "-1e309", "1e-400", "4.9e-324"]),
)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(FLOAT_KEYS), texts=st.lists(FLOAT_TEXTS, min_size=1, max_size=3))
def test_a_float_key_accepts_a_text_exactly_when_its_record_or_function_accepts_the_value(key, texts):
    parse, _, (rule, _) = _SCHEMA[key]
    text = ",".join(texts) if parse is not float else texts[0]
    value = parse(text)
    try:
        _parse_value(key, text)
    except ConfigError as exc:
        assert str(exc) == f"bad value for {key}: {text!r} {rule}"
        config_accepts = False
    else:
        config_accepts = True
    try:
        _use(key, value)
    except InvalidInputError as exc:
        assert str(exc).endswith(f" {rule}, got {value!r}")
        accepts = False
    except InfeasibleLinkError:  # a target below the table's lowest BLER, accepted
        accepts = True
    else:
        accepts = True
    assert config_accepts == accepts
    assert not accepts or all(map(math.isfinite, value if isinstance(value, tuple) else [value]))


def test_a_frozen_record_names_its_fields_and_refuses_deletion():
    timeline = SubframeTimeline(**_timeline())
    assert repr(timeline) == (
        "SubframeTimeline(blocks=((0, 2, (<Activity.RX_PDCCH: 'RxPDCCH'>, 1), 0), "
        "(5, 3, (<Activity.TX_PUSCH: 'TxPUSCH'>, 1), 1)), length=9, perspective=<Perspective.UE: 'UE'>, origin=0)"
    )
    with pytest.raises(AttributeError, match="^cannot delete field 'length'$"):
        del timeline.length
    assert timeline.length == 9


ENUMS = (Direction, GrantMode, Activity, SchedulingMode, Payload, Perspective)


def test_every_enum_subclasses_identity_enum():
    assert set(IdentityEnum.__subclasses__()) == set(ENUMS)


@pytest.mark.parametrize("cls", ENUMS, ids=lambda cls: cls.__name__)
def test_a_member_value_reads_as_enum_reads_it(cls):
    for member in cls:
        assert member.value == Enum.__dict__["value"].__get__(member)
        assert cls(member.value) is member
