"""Scenario configs and the end-to-end pipeline.

A scenario chains geometry -> link budget -> repetition selection ->
cycle layout -> metrics.  Configs are flat ``key = value`` text files with
dotted section names; every key has a default so a minimal file only
states what differs from the bundled LTE-M/LEO600 uplink case.
"""
from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import product
from math import isfinite
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from . import bler as bler_mod
from .bler import BlerTable, select_repetitions
from .errors import ConfigError, InfeasibleLinkError, MinDelayViolationError
from .geometry import MAX_ELEVATION_DEG, MIN_ELEVATION_DEG, OrbitGeometry, Payload, round_trip_time, slant_range
from .harq import MAX_SUBFRAMES, SF_MS, SF_SECONDS, CycleParams, Direction, GrantMode, harq_for_tbphc, harq_processes
from .linkbudget import LinkBudgetParams, snr_db
from .metrics import (
    DEFAULT_OP_RATE_PER_S,
    DELAY_OP_COUNTS,
    ProcessorProfile,
    SchedulingMode,
    cycle_length_closed_form,
    delay_power,
    suf_closed_form,
    throughput,
)
from .scheduler import GoodputResult, build_proposed_cycle, monte_carlo_goodput

MAX_AUTO_TBPHC = 512


@dataclass(frozen=True)
class ProtocolProfile:
    """Per-protocol fixed timing values and HARQ limits."""

    name: str
    ug2d_min: int
    dd2a_min: int
    n_switch: int
    max_harq: int
    max_harq_extended: int
    target_gain_pct: float
    gain_tolerance_pct: float


PROTOCOLS = {
    "lte-m": ProtocolProfile(
        name="lte-m",
        ug2d_min=3,
        dd2a_min=3,
        n_switch=1,
        max_harq=8,
        max_harq_extended=8,
        target_gain_pct=28.0,
        gain_tolerance_pct=2.0,
    ),
    "nb-iot": ProtocolProfile(
        name="nb-iot",
        ug2d_min=8,
        dd2a_min=8,
        n_switch=2,
        max_harq=2,
        max_harq_extended=4,
        target_gain_pct=31.0,
        gain_tolerance_pct=3.0,
    ),
}


@dataclass(frozen=True)
class MonteCarloSettings:
    n_cycles: int = 0
    seed: int = 1
    bler_per_attempt: tuple[float, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: OrbitGeometry
    link: LinkBudgetParams
    protocol: ProtocolProfile
    tbs_bits: int
    target_bler: float
    direction: Direction
    mode: SchedulingMode
    n_tbphc: int | None  # None selects the largest feasible value
    cycle: CycleParams  # the cycle.* settings; one TB of one repetition until resolved
    n_a2g: int
    max_harq: int
    power_efficiency_mops_per_mw: float
    power_op_rate_per_s: float
    monte_carlo: MonteCarloSettings

    @property
    def scenario_id(self) -> str:
        return (
            f"leo{self.geometry.altitude_km:g}-{self.geometry.payload.value}"
            f"-{self.protocol.name}-{self.direction.value}-{self.mode.value}"
            f"-tbs{self.tbs_bits}"
        )


# ---------------------------------------------------------------------------
# config parsing


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


def _one_of(choices: Mapping[str, Any] | type[Enum]) -> Callable[[str], Any]:
    """A parser of a name in ``choices`` (or of an Enum's value), in any
    case, to what it names."""
    names = choices if isinstance(choices, Mapping) else {m.value: m for m in choices}

    def parse(text: str) -> Any:
        value = names.get(text.lower())
        if value is None:
            raise ValueError(f"expected one of {', '.join(names)}, got {text!r}")
        return value

    return parse


def _int_or(word: str) -> Callable[[str], int | None]:
    """A parser of an integer, or of ``word`` to None."""
    return lambda text: None if text.lower() == word else int(text)


def _between(low: float, high: float) -> tuple[str, Callable[[Any], bool]]:
    """The (rule, check) pair of the closed range [low, high]."""
    return (f"must lie in [{low:g}, {high:g}]", lambda v: v is None or low <= v <= high)


# (rule, check) pairs; None ("auto", "protocol") passes the integer rules
_AT_LEAST_0 = ("must be >= 0", lambda v: v >= 0)
_AT_LEAST_1 = ("must be >= 1", lambda v: v is None or v >= 1)
_POSITIVE = ("must be > 0", lambda v: v > 0)

# key -> (parser from the stripped text to the final value, default text,
# (rule, check) on the parsed value or None).  Every float must also be
# finite.  None from "auto" selects the TB count; None from "protocol"
# takes the protocol's value.
_SCHEMA: dict[str, tuple[Callable[[str], Any], str, tuple[str, Callable[[Any], bool]] | None]] = {
    "geometry.altitude_km": (float, "600", ("must lie in (0, 35786] (GEO)", lambda v: 0 < v <= 35786)),
    "geometry.payload": (_one_of(Payload), "transparent", None),
    "geometry.service_elevation_deg": (float, "30", _between(MIN_ELEVATION_DEG, MAX_ELEVATION_DEG)),
    "geometry.feeder_elevation_deg": (float, "10", _between(MIN_ELEVATION_DEG, MAX_ELEVATION_DEG)),
    "link.eirp_dbm": (float, "23", None),
    "link.g_over_t_db": (float, "-4.9", None),
    "link.bandwidth_hz": (float, "180000", _POSITIVE),
    "link.carrier_ghz": (float, "2", _between(0.1, 100)),
    "link.loss_atm_db": (float, "0.07", _AT_LEAST_0),
    "link.loss_shadow_db": (float, "3", _AT_LEAST_0),
    "link.loss_scint_db": (float, "2.2", _AT_LEAST_0),
    "link.loss_polar_db": (float, "0", _AT_LEAST_0),
    "protocol": (_one_of(PROTOCOLS), "lte-m", None),
    "protocol.extended_harq": (_parse_bool, "false", None),
    "tbs_bits": (int, "504", _between(1, bler_mod.MAX_TBS_BITS)),
    "target_bler": (float, "0.1", ("must lie in (0, 1]", lambda v: 0 < v <= 1)),
    "direction": (_one_of(Direction), "ul", None),
    "mode": (_one_of(SchedulingMode), "proposed", None),
    # an explicit count shares the auto count's cap: each CycleParams holds
    # n-entry repetition tuples, so cost grows with n before any check runs
    "cycle.n_tbphc": (_int_or("auto"), "auto", _between(1, MAX_AUTO_TBPHC)),
    "cycle.rep_pdcch": (int, "1", _between(1, MAX_SUBFRAMES)),
    "cycle.rep_pucch": (int, "1", _between(1, MAX_SUBFRAMES)),
    "cycle.n_dg2d": (int, "1", _between(0, MAX_SUBFRAMES)),
    "cycle.n_switch": (_int_or("protocol"), "protocol", _between(0, MAX_SUBFRAMES)),
    "cycle.dd2a_min": (_int_or("protocol"), "protocol", _between(0, MAX_SUBFRAMES)),
    "cycle.ug2d_min": (_int_or("protocol"), "protocol", _between(0, MAX_SUBFRAMES)),
    "cycle.grant_mode": (_one_of(GrantMode), "stbg", None),
    "cycle.ack_bundling": (_parse_bool, "false", None),
    "cycle.n_bundle": (int, "1", _AT_LEAST_1),
    "cycle.n_a2g": (int, "0", _between(0, MAX_SUBFRAMES)),
    "cycle.max_harq": (_int_or("protocol"), "protocol", _AT_LEAST_1),
    "power.efficiency_mops_per_mw": (float, "144", _POSITIVE),
    "power.op_rate_per_s": (float, str(DEFAULT_OP_RATE_PER_S), _POSITIVE),
    "monte_carlo.n_cycles": (int, "0", _AT_LEAST_0),
    "monte_carlo.seed": (int, "1", None),
    "monte_carlo.bler_per_attempt": (
        _parse_float_list,
        "",
        ("must list probabilities in [0, 1]", lambda v: all(0 <= p <= 1 for p in v)),
    ),
}
_DEFAULTS = {key: parse(default) for key, (parse, default, _) in _SCHEMA.items()}


def parse_config_text(text: str) -> dict[str, str]:
    """Read ``key = value`` lines (``#`` comments allowed) into a raw map."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        raw[key] = value.strip()
    return raw


def config_from_mapping(raw: Mapping[str, str]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from raw string values."""
    values = dict(_DEFAULTS)
    for key, text in raw.items():
        entry = _SCHEMA.get(key)
        if entry is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        parse, _, rule = entry
        text = text.strip()
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        if parse is float and not isfinite(value):
            raise ConfigError(f"bad value for {key}: {text!r} is not a finite number")
        if rule is not None and not rule[1](value):
            raise ConfigError(f"bad value for {key}: {text!r} {rule[0]}")
        values[key] = value

    protocol = values["protocol"]
    extended = values["protocol.extended_harq"]
    def protocol_default(key: str, fallback: int) -> int:
        value = values[key]
        return fallback if value is None else value

    max_harq_default = protocol.max_harq_extended if extended else protocol.max_harq
    return ScenarioConfig(
        geometry=OrbitGeometry(
            altitude_km=values["geometry.altitude_km"],
            payload=values["geometry.payload"],
            service_elevation_deg=values["geometry.service_elevation_deg"],
            feeder_elevation_deg=values["geometry.feeder_elevation_deg"],
        ),
        link=LinkBudgetParams(
            eirp_dbm=values["link.eirp_dbm"],
            g_over_t_db=values["link.g_over_t_db"],
            bandwidth_hz=values["link.bandwidth_hz"],
            carrier_ghz=values["link.carrier_ghz"],
            loss_atm_db=values["link.loss_atm_db"],
            loss_shadow_db=values["link.loss_shadow_db"],
            loss_scint_db=values["link.loss_scint_db"],
            loss_polar_db=values["link.loss_polar_db"],
        ),
        protocol=protocol,
        tbs_bits=values["tbs_bits"],
        target_bler=values["target_bler"],
        direction=values["direction"],
        mode=values["mode"],
        n_tbphc=values["cycle.n_tbphc"],
        cycle=CycleParams(
            rep_pdcch=values["cycle.rep_pdcch"],
            rep_pucch=values["cycle.rep_pucch"],
            n_switch=protocol_default("cycle.n_switch", protocol.n_switch),
            n_dg2d=values["cycle.n_dg2d"],
            dd2a_min=protocol_default("cycle.dd2a_min", protocol.dd2a_min),
            ug2d_min=protocol_default("cycle.ug2d_min", protocol.ug2d_min),
            n_bundle=values["cycle.n_bundle"],
            grant_mode=values["cycle.grant_mode"],
            ack_bundling=values["cycle.ack_bundling"],
        ),
        n_a2g=values["cycle.n_a2g"],
        max_harq=protocol_default("cycle.max_harq", max_harq_default),
        power_efficiency_mops_per_mw=values["power.efficiency_mops_per_mw"],
        power_op_rate_per_s=values["power.op_rate_per_s"],
        monte_carlo=MonteCarloSettings(
            n_cycles=values["monte_carlo.n_cycles"],
            seed=values["monte_carlo.seed"],
            bler_per_attempt=values["monte_carlo.bler_per_attempt"],
        ),
    )


def read_config(path: str | Path) -> dict[str, str]:
    """The raw map of a config file, which must be UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc})") from None
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str | Path, overrides: Mapping[str, str] | None = None) -> ScenarioConfig:
    raw = read_config(path)
    if overrides:
        raw.update(overrides)
    return config_from_mapping(raw)


def update_config_file(path: str | Path, updates: Mapping[str, str]) -> None:
    """Rewrite ``key = value`` lines, appending keys not present.  The new
    text goes to a temp file in the same directory that then replaces the
    profile, so a failed write leaves the profile as it was."""
    path = Path(path)
    lines = path.read_text().splitlines()
    remaining = dict(updates)
    out = []
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped and "=" in stripped:
            key = stripped.split("=", 1)[0].strip()
            if key in remaining:
                out.append(f"{key} = {remaining.pop(key)}")
                continue
        out.append(line)
    for key, value in remaining.items():
        out.append(f"{key} = {value}")
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as f:
            f.write("\n".join(out) + "\n")
            f.flush()
            os.fsync(f.fileno())
        shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# pipeline


def select_tbphc(config: ScenarioConfig, n_rep: int, rtt_ms: float) -> int:
    """Resolve the TB count per variable-delay cycle: the configured value
    (validated against the HARQ budget) or the largest feasible one.  Each
    candidate n is sized on the template's scalars, building no cycle."""
    def needed(n: int) -> int:
        return harq_processes(config.cycle, n, n * n_rep, rtt_ms, SF_MS, config.n_a2g)

    if config.n_tbphc is not None:
        if (count := needed(config.n_tbphc)) > config.max_harq:
            raise ConfigError(
                f"cycle.n_tbphc={config.n_tbphc} needs {count} HARQ processes, more than "
                f"the configured maximum of {config.max_harq}; the HARQ-process sizing "
                f"relation caps how many TBs one cycle may carry"
            )
        return config.n_tbphc

    def fits(n: int) -> bool:
        return needed(n) <= config.max_harq

    # the HARQ count needed grows with n: double n while it fits, then
    # bisect between the last n that fits and the first that does not
    best, high = 0, 1
    while high <= MAX_AUTO_TBPHC and fits(high):
        best, high = high, 2 * high
    high = min(high, MAX_AUTO_TBPHC + 1)
    while high - best > 1:
        n = (best + high) // 2
        best, high = (n, high) if fits(n) else (best, n)
    if not best:
        raise ConfigError(
            f"even one TB per cycle needs more than {config.max_harq} HARQ processes "
            f"under the HARQ-process sizing relation; raise cycle.max_harq or enable "
            f"protocol.extended_harq"
        )
    return best


class ResolvedScenario(NamedTuple):
    """A config's operating point and the cycle laid out at it."""

    rtt_ms: float
    snr_db: float
    n_rep: int
    params: CycleParams


def resolve(config: ScenarioConfig, table: BlerTable) -> ResolvedScenario:
    """Follow the chain geometry -> link budget -> repetition count -> TB
    count per cycle -> cycle parameters.

    A legacy config keeps its configured TB count (one under ``auto``), so
    multi-TB conflict attempts can still be rendered.  Raises
    InfeasibleLinkError when no tabulated repetition count reaches the
    target BLER at the operating SNR.
    """
    rtt_ms = round_trip_time(config.geometry)
    distance_m = slant_range(config.geometry.altitude_km, config.geometry.service_elevation_deg) * 1000.0
    snr = snr_db(config.link, distance_m)
    n_rep = select_repetitions(table, config.tbs_bits, snr, config.target_bler)
    if config.mode is SchedulingMode.LEGACY_FIXED:
        n_tbphc = config.n_tbphc or 1
    else:
        n_tbphc = select_tbphc(config, n_rep, rtt_ms)
    # both data fields carry the count: the HARQ sizing relation reads the
    # DL one in either direction
    params = replace(config.cycle, n_tbphc=n_tbphc, rep_pdsch=n_rep, rep_pusch=n_rep)
    return ResolvedScenario(rtt_ms, snr, n_rep, params)


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario outcome, flattened for CSV emission."""

    scenario_id: str
    altitude_km: float
    payload: str
    elevation_deg: float
    rtt_ms: float
    snr_db: float
    tbs_bits: int
    n_rep: int
    mode: str
    n_tbphc: int
    n_harq_required: int
    suf: float
    throughput_bps: float
    gain_pct: float
    power_nw: float
    goodput: GoodputResult | None = None


CSV_COLUMNS = tuple(f.name for f in fields(ScenarioResult) if f.name != "goodput")


def _power_scheme(config: ScenarioConfig) -> str:
    if config.direction is Direction.UL:
        return "ug2d"
    return "dd2a_bundled" if config.cycle.ack_bundling else "dd2a"


def run_scenario(config: ScenarioConfig, table: BlerTable | None = None) -> ScenarioResult:
    """Full pipeline for one scenario.

    Raises InfeasibleLinkError when no tabulated repetition count reaches
    the target BLER at the operating SNR, and MinDelayViolationError when
    the variable-delay cycle misses a mandatory minimum delay.
    """
    table = table if table is not None else bler_mod.default_table()
    if config.mode is SchedulingMode.LEGACY_FIXED and config.n_tbphc not in (None, 1):
        raise ConfigError(
            "legacy fixed-delay scheduling carries one TB per cycle; use the timeline "
            "command to inspect multi-TB attempts"
        )
    rtt_ms, snr, n_rep, params = resolve(config, table)
    suf = suf_closed_form(params, config.direction, config.mode)
    gain = 0.0
    if config.mode is SchedulingMode.PROPOSED_VARIABLE:
        timeline = build_proposed_cycle(params, config.direction)
        expected = cycle_length_closed_form(params, config.direction, config.mode)
        if len(timeline) != expected:
            raise AssertionError(
                f"cycle layout ({len(timeline)} SFs) diverged from closed form ({expected} SFs)"
            )
        baseline_params = replace(config.cycle, rep_pdsch=n_rep, rep_pusch=n_rep)
        baseline_suf = suf_closed_form(baseline_params, config.direction, SchedulingMode.LEGACY_FIXED)
        gain = suf / baseline_suf - 1.0
    rate = throughput(suf, config.tbs_bits, SF_SECONDS)
    required = harq_for_tbphc(params, rtt_ms, SF_MS, config.n_a2g)
    profile = ProcessorProfile(
        efficiency_mops_per_mw=config.power_efficiency_mops_per_mw,
        op_rate_per_s=config.power_op_rate_per_s,
        op_count=DELAY_OP_COUNTS[_power_scheme(config)],
    )
    power_w = delay_power(profile)
    goodput = None
    mc = config.monte_carlo
    if mc.n_cycles > 0 and config.mode is SchedulingMode.PROPOSED_VARIABLE:
        goodput = monte_carlo_goodput(
            params,
            config.direction,
            list(mc.bler_per_attempt) or [0.0],
            mc.n_cycles,
            mc.seed,
            config.tbs_bits,
            SF_SECONDS,
        )
    return ScenarioResult(
        scenario_id=config.scenario_id,
        altitude_km=config.geometry.altitude_km,
        payload=config.geometry.payload.value,
        elevation_deg=config.geometry.service_elevation_deg,
        rtt_ms=rtt_ms,
        snr_db=snr,
        tbs_bits=config.tbs_bits,
        n_rep=n_rep,
        mode=config.mode.value,
        n_tbphc=params.n_tbphc,
        n_harq_required=required,
        suf=suf,
        throughput_bps=rate,
        gain_pct=100.0 * gain,
        power_nw=power_w * 1e9,
        goodput=goodput,
    )


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def results_to_csv(results: list[ScenarioResult]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in results:
        lines.append(",".join(_format_cell(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def sweep(
    base_raw: Mapping[str, str],
    axes: list[tuple[str, list[str]]],
    table: BlerTable | None = None,
) -> tuple[list[ScenarioResult], list[tuple[str, str]]]:
    """Cartesian product over axis values in row-major order of the given
    axes; a key on two axes takes the later axis's value.

    Every axis value is parsed before any point runs.  Returns one result
    per feasible point, and the ``(scenario_id, reason)`` of each point
    whose link is infeasible or whose cycle misses a minimum delay; the
    sweep goes on past those.
    """
    for key, options in axes:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown sweep parameter {key!r}")
        for text in options:
            config_from_mapping({key: text})  # each value alone: a bad one fails before any point runs
    table = table if table is not None else bler_mod.default_table()
    keys = [key for key, _ in axes]
    results, infeasible = [], []
    for values in product(*(options for _, options in axes)):
        config = config_from_mapping({**base_raw, **dict(zip(keys, values))})
        try:
            results.append(run_scenario(config, table))
        except (InfeasibleLinkError, MinDelayViolationError) as exc:
            infeasible.append((config.scenario_id, str(exc)))
    return results, infeasible


# ---------------------------------------------------------------------------
# calibration


@dataclass(frozen=True)
class CalibrationResult:
    rep_pdcch: int
    n_a2g: int
    gain_pct: float
    target_gain_pct: float
    within_tolerance: bool

    @property
    def degraded(self) -> bool:
        return not self.within_tolerance


def calibrate(config: ScenarioConfig, table: BlerTable | None = None) -> CalibrationResult:
    """Search the grant-repetition and feedback-processing-delay pair that
    best reproduces the protocol's published throughput gain.

    The search covers rep_pdcch in [1, 8] and n_a2g in [0, 4] with the TB
    count re-selected per candidate; ties break toward the smallest pair.
    A result outside the protocol's tolerance is flagged degraded rather
    than hidden.
    """
    table = table if table is not None else bler_mod.default_table()
    target = config.protocol.target_gain_pct
    best: tuple[float, int, int, float] | None = None
    for p in range(1, 9):
        for a in range(0, 5):
            candidate = replace(config, cycle=replace(config.cycle, rep_pdcch=p), n_a2g=a,
                                n_tbphc=None, mode=SchedulingMode.PROPOSED_VARIABLE)
            result = run_scenario(candidate, table)
            distance = abs(result.gain_pct - target)
            key = (distance, p, a, result.gain_pct)
            if best is None or key[:3] < best[:3]:
                best = key
    assert best is not None
    distance, p, a, gain_pct = best
    return CalibrationResult(
        rep_pdcch=p,
        n_a2g=a,
        gain_pct=gain_pct,
        target_gain_pct=target,
        within_tolerance=distance <= config.protocol.gain_tolerance_pct,
    )
