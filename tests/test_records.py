"""The contract of the package's 13 record types.

Every record keeps its field names, order and defaults, cannot be
changed after construction, and is equal to, and hashes like, any record
of the same type with equal values.  The three validated records reject a
bad value with the same message whether it comes from construction or
from ``_replace``.
"""
from __future__ import annotations

import re
from enum import Enum

import pytest

from ntn_harq.bler import BlerTable
from ntn_harq.errors import InvalidInputError
from ntn_harq.geometry import OrbitGeometry, Payload
from ntn_harq.harq import CycleParams, Direction, GrantMode
from ntn_harq.linkbudget import LinkBudgetParams
from ntn_harq.records import IdentityEnum
from ntn_harq.metrics import SchedulingMode
from ntn_harq.scenario import (
    PROTOCOLS,
    CalibrationResult,
    MonteCarloSettings,
    ProtocolProfile,
    ScenarioConfig,
    ScenarioResult,
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
                power_efficiency_mops_per_mw=144.0, power_op_rate_per_s=1000.0, monte_carlo=MonteCarloSettings())


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
    (CycleParams, "n_tbphc", 0, "n_tbphc must be >= 1, got 0"),
    (CycleParams, "n_bundle", 0, "n_bundle must be >= 1, got 0"),
    (CycleParams, "rep_pdcch", 0, "rep_pdcch must be >= 1"),
    (CycleParams, "rep_pucch", 0, "rep_pucch must be >= 1"),
    (CycleParams, "rep_pdsch", 0, "rep_pdsch repetitions must be >= 1, got 0"),
    (CycleParams, "rep_pusch", -1, "rep_pusch repetitions must be >= 1, got -1"),
    (CycleParams, "n_switch", -1, "n_switch must be >= 0"),
    (CycleParams, "n_dg2d", -1, "n_dg2d must be >= 0"),
    (CycleParams, "dd2a_min", -1, "dd2a_min must be >= 0"),
    (CycleParams, "ug2d_min", -1, "ug2d_min must be >= 0"),
    (OrbitGeometry, "altitude_km", 0.0, "altitude must be positive, got 0.0"),
    (OrbitGeometry, "service_elevation_deg", 5.0,
     "service_elevation_deg must lie in [10.0, 90.0] degrees, got 5.0"),
    (OrbitGeometry, "feeder_elevation_deg", 91.0,
     "feeder_elevation_deg must lie in [10.0, 90.0] degrees, got 91.0"),
    (LinkBudgetParams, "bandwidth_hz", 0.0, "bandwidth must be positive, got 0.0"),
    (LinkBudgetParams, "carrier_ghz", -2.0, "carrier frequency must be positive, got -2.0"),
    (LinkBudgetParams, "loss_atm_db", -0.1, "loss_atm_db must be >= 0 dB"),
    (LinkBudgetParams, "loss_shadow_db", -0.1, "loss_shadow_db must be >= 0 dB"),
    (LinkBudgetParams, "loss_scint_db", -0.1, "loss_scint_db must be >= 0 dB"),
    (LinkBudgetParams, "loss_polar_db", -0.1, "loss_polar_db must be >= 0 dB"),
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


ENUMS = (Direction, GrantMode, Activity, SchedulingMode, Payload, Perspective)


def test_every_enum_subclasses_identity_enum():
    assert set(IdentityEnum.__subclasses__()) == set(ENUMS)


@pytest.mark.parametrize("cls", ENUMS, ids=lambda cls: cls.__name__)
def test_a_member_value_reads_as_enum_reads_it(cls):
    for member in cls:
        assert member.value == Enum.__dict__["value"].__get__(member)
        assert cls(member.value) is member
