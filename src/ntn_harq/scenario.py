"""Scenario configs and the end-to-end pipeline.

A scenario chains geometry -> link budget -> repetition selection -> TB
count per cycle -> closed-form metrics.  Configs are flat ``key = value``
text files with dotted section names; every key has a default so a
minimal file only states what differs from the bundled LTE-M/LEO600
uplink case.
"""
from __future__ import annotations

import os
import shutil
import tempfile
from enum import Enum
from functools import lru_cache
from itertools import product
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from .bler import _BLER_PER_ATTEMPT, _TARGET_BLER, _TBS_BITS, BlerTable, select_repetitions
from .errors import ConfigError, InfeasibleLinkError, MinDelayViolationError
from .geometry import OrbitGeometry, Payload, round_trip_time, slant_range
from .harq import MAX_SUBFRAMES, CycleParams, Direction, GrantMode, harq_for_tbphc, harq_processes
from .linkbudget import LinkBudgetParams, snr_db
from .metrics import (
    DEFAULT_OP_RATE_PER_S,
    DELAY_OP_COUNTS,
    SchedulingMode,
    delay_power,
    suf_closed_form,
    throughput,
)
from .records import _AT_LEAST_0, _AT_LEAST_1, _POSITIVE, Rule, _between

if TYPE_CHECKING:
    from .scheduler import GoodputResult

MAX_AUTO_TBPHC = 512

_UL, _LEGACY, _PROPOSED = Direction.UL, SchedulingMode.LEGACY_FIXED, SchedulingMode.PROPOSED_VARIABLE  # see harq._DL

# The bound of every cache here: the five config sections, the operating
# points and completed cycles.  Full, they retain under 8 MB (see the
# README).
_CACHE_SIZE = 1024


class ProtocolProfile(NamedTuple):
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


class MonteCarloSettings(NamedTuple):
    n_cycles: int = 0
    seed: int = 1
    bler_per_attempt: tuple[float, ...] = ()


class ScenarioConfig(NamedTuple):
    geometry: OrbitGeometry
    link: LinkBudgetParams
    cycle: CycleParams  # the cycle.* settings; one TB of one repetition until resolved
    protocol: ProtocolProfile
    tbs_bits: int
    target_bler: float
    direction: Direction
    mode: SchedulingMode
    n_tbphc: int | None  # None selects the largest feasible value
    n_a2g: int
    max_harq: int
    # the delay power of its feedback scheme, derived when parsed, like
    # max_harq: a _replace(direction=...) does not recompute it
    power_nw: float
    monte_carlo: MonteCarloSettings


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


# key -> (parser from the stripped text to the final value, default text,
# rule on the parsed value or None); a key of a record field or of a function
# argument reads its rule, and every float's rule refuses NaN and +-inf.
# None ("auto", "protocol") passes any rule.
_SCHEMA: dict[str, tuple[Callable[[str], Any], str, Rule | None]] = {
    "geometry.altitude_km": (float, "600", OrbitGeometry.RULES["altitude_km"]),
    "geometry.payload": (_one_of(Payload), "transparent", None),
    "geometry.service_elevation_deg": (float, "30", OrbitGeometry.RULES["service_elevation_deg"]),
    "geometry.feeder_elevation_deg": (float, "10", OrbitGeometry.RULES["feeder_elevation_deg"]),
    "link.eirp_dbm": (float, "23", LinkBudgetParams.RULES["eirp_dbm"]),
    "link.g_over_t_db": (float, "-4.9", LinkBudgetParams.RULES["g_over_t_db"]),
    "link.bandwidth_hz": (float, "180000", LinkBudgetParams.RULES["bandwidth_hz"]),
    "link.carrier_ghz": (float, "2", LinkBudgetParams.RULES["carrier_ghz"]),
    "link.loss_atm_db": (float, "0.07", LinkBudgetParams.RULES["loss_atm_db"]),
    "link.loss_shadow_db": (float, "3", LinkBudgetParams.RULES["loss_shadow_db"]),
    "link.loss_scint_db": (float, "2.2", LinkBudgetParams.RULES["loss_scint_db"]),
    "link.loss_polar_db": (float, "0", LinkBudgetParams.RULES["loss_polar_db"]),
    "protocol": (_one_of(PROTOCOLS), "lte-m", None),
    "protocol.extended_harq": (_parse_bool, "false", None),
    "tbs_bits": (int, "504", _TBS_BITS),
    "target_bler": (float, "0.1", _TARGET_BLER),
    "direction": (_one_of(Direction), "ul", None),
    "mode": (_one_of(SchedulingMode), "proposed", None),
    # an explicit count shares the auto count's cap: timeline lays the cycle
    # out and Monte Carlo draws once per TB slot, in time that grows with n
    "cycle.n_tbphc": (_int_or("auto"), "auto", _between(1, MAX_AUTO_TBPHC)),
    "cycle.rep_pdcch": (int, "1", CycleParams.RULES["rep_pdcch"]),
    "cycle.rep_pucch": (int, "1", CycleParams.RULES["rep_pucch"]),
    "cycle.n_dg2d": (int, "1", CycleParams.RULES["n_dg2d"]),
    "cycle.n_switch": (_int_or("protocol"), "protocol", CycleParams.RULES["n_switch"]),
    "cycle.dd2a_min": (_int_or("protocol"), "protocol", CycleParams.RULES["dd2a_min"]),
    "cycle.ug2d_min": (_int_or("protocol"), "protocol", CycleParams.RULES["ug2d_min"]),
    "cycle.grant_mode": (_one_of(GrantMode), "stbg", None),
    "cycle.ack_bundling": (_parse_bool, "false", None),
    "cycle.n_bundle": (int, "1", CycleParams.RULES["n_bundle"]),
    "cycle.n_a2g": (int, "0", _between(0, MAX_SUBFRAMES)),
    "cycle.max_harq": (_int_or("protocol"), "protocol", _AT_LEAST_1),
    "power.efficiency_mops_per_mw": (float, "144", _POSITIVE),
    "power.op_rate_per_s": (float, str(DEFAULT_OP_RATE_PER_S), _POSITIVE),
    "monte_carlo.n_cycles": (int, "0", _AT_LEAST_0),
    "monte_carlo.seed": (int, "1", None),
    "monte_carlo.bler_per_attempt": (_parse_float_list, "", _BLER_PER_ATTEMPT),
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


def _parse_value(key: str, text: str) -> Any:
    """The checked value of one raw ``key = text`` pair."""
    entry = _SCHEMA.get(key)
    if entry is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    parse, _, rule = entry
    text = text.strip()
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None
    if rule is not None and value is not None and not rule[1](value):
        raise ConfigError(f"bad value for {key}: {text!r} {rule[0]}")
    return value


@lru_cache(maxsize=_CACHE_SIZE)
def _completed_cycle(template: CycleParams, n_tbphc: int, n_rep: int) -> CycleParams:
    """``template`` for ``n_tbphc`` TBs of ``n_rep`` repetitions each, the
    same few scalars whatever the TB count.  Both data fields carry the
    count: the HARQ sizing relation reads the DL one in either direction."""
    return template._replace(n_tbphc=n_tbphc, rep_pdsch=n_rep, rep_pusch=n_rep)


def _values(keys: tuple[str, ...], texts: tuple[str | None, ...]) -> dict[str, Any]:
    """The checked value of each key, from its text or, where the text is
    None, its default; named by the part of the key after its section."""
    return {key.rpartition(".")[2]: _DEFAULTS[key] if text is None else _parse_value(key, text)
            for key, text in zip(keys, texts)}


# the keys of each section of a ScenarioConfig: together, the schema's keys.
# Apart from the two flags after protocol and the power keys, the scalar keys follow its field order.
_GEOMETRY_KEYS = tuple(key for key in _SCHEMA if key.startswith("geometry."))
_LINK_KEYS = tuple(key for key in _SCHEMA if key.startswith("link."))
_CYCLE_KEYS = ("protocol", "cycle.rep_pdcch", "cycle.rep_pucch", "cycle.n_switch", "cycle.n_dg2d",
               "cycle.dd2a_min", "cycle.ug2d_min", "cycle.n_bundle", "cycle.grant_mode", "cycle.ack_bundling")
_SCALAR_KEYS = ("protocol", "protocol.extended_harq", "cycle.ack_bundling", "tbs_bits", "target_bler", "direction",
                "mode", "cycle.n_tbphc", "cycle.n_a2g", "cycle.max_harq", "power.efficiency_mops_per_mw",
                "power.op_rate_per_s")
_MONTE_CARLO_KEYS = tuple(key for key in _SCHEMA if key.startswith("monte_carlo."))
# every schema key without a text, and a reader of each section's texts
_UNSET = dict.fromkeys(_SCHEMA)
_geometry_texts, _link_texts, _cycle_texts, _scalar_texts, _monte_carlo_texts = (
    itemgetter(*keys) for keys in (_GEOMETRY_KEYS, _LINK_KEYS, _CYCLE_KEYS, _SCALAR_KEYS, _MONTE_CARLO_KEYS))


def _section_of(cls: type, keys: tuple[str, ...]) -> Callable[[tuple[str | None, ...]], Any]:
    """A bounded cache of the ``cls`` built from each distinct tuple of texts of ``keys``."""
    return lru_cache(maxsize=_CACHE_SIZE)(lambda texts: cls(**_values(keys, texts)))


_geometry_section = _section_of(OrbitGeometry, _GEOMETRY_KEYS)
_link_section = _section_of(LinkBudgetParams, _LINK_KEYS)
_monte_carlo_section = _section_of(MonteCarloSettings, _MONTE_CARLO_KEYS)


@lru_cache(maxsize=_CACHE_SIZE)
def _cycle_section(texts: tuple[str | None, ...]) -> CycleParams:
    """The cycle template; a ``protocol`` timing value takes the protocol's.
    A minimum delay must leave room for the switch between receiving and
    sending that it spans; the scalar section, which reads ``direction``, rules on bundling."""
    values = _values(_CYCLE_KEYS, texts)
    protocol = values.pop("protocol")
    for name in ("n_switch", "dd2a_min", "ug2d_min"):
        if values[name] is None:
            values[name] = getattr(protocol, name)
    for name in ("dd2a_min", "ug2d_min"):
        if values[name] < values["n_switch"]:
            raise ConfigError(
                f"cycle.{name} = {values[name]} is shorter than cycle.n_switch = {values['n_switch']}: "
                f"a minimum delay spans the switch between receiving and sending"
            )
    return CycleParams(**values)


@lru_cache(maxsize=_CACHE_SIZE)
def _scalar_section(texts: tuple[str | None, ...]) -> tuple[Any, ...]:
    """The ScenarioConfig fields that hold one value each, in field order.  The
    feedback scheme is decided here: an uplink may not bundle, and ``power_nw`` is the scheme's."""
    values = _values(_SCALAR_KEYS, texts)
    extended, bundled = values.pop("extended_harq"), values.pop("ack_bundling")
    if values["max_harq"] is None:
        protocol = values["protocol"]
        values["max_harq"] = protocol.max_harq_extended if extended else protocol.max_harq
    if bundled and values["direction"] is _UL:
        raise ConfigError(
            "cycle.ack_bundling = true needs direction = dl: feedback bundling "
            "applies to downlink cycles only"
        )
    scheme = "ug2d" if values["direction"] is _UL else "dd2a_bundled" if bundled else "dd2a"
    power_nw = delay_power(values.pop("efficiency_mops_per_mw"), values.pop("op_rate_per_s"),
                           DELAY_OP_COUNTS[scheme]) * 1e9
    if not isfinite(power_nw):
        raise ConfigError("power.op_rate_per_s over power.efficiency_mops_per_mw overflows the delay power")
    return (*values.values(), power_nw)


def _raise_first_bad_key(raw: Mapping[str, str]) -> None:
    """Parse the texts in mapping order, so the first bad key raises."""
    for key, text in raw.items():
        _parse_value(key, text)


def config_from_mapping(raw: Mapping[str, str]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from raw string values.  Each
    section is one cache lookup on the texts of its keys: one merge puts
    every schema key's text, None where absent, in one map, and one
    ``itemgetter`` per section reads its texts off that map."""
    texts = {**_UNSET, **raw}  # not `_UNSET | raw`, which refuses a Mapping that is not a dict
    if len(texts) != len(_UNSET):
        _raise_first_bad_key(raw)  # raises: a key outside the schema is bad
    try:
        return ScenarioConfig(  # positional, in field order: the fastest call
            _geometry_section(_geometry_texts(texts)),
            _link_section(_link_texts(texts)),
            _cycle_section(_cycle_texts(texts)),
            *_scalar_section(_scalar_texts(texts)),
            _monte_carlo_section(_monte_carlo_texts(texts)),
        )
    except ConfigError:
        _raise_first_bad_key(raw)
        raise


def read_config(path: str | Path) -> dict[str, str]:
    """The raw map of a config file, which must be UTF-8 text, with or
    without a byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc})") from None
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_mapping(read_config(path))


def update_config_file(path: str | Path, updates: Mapping[str, str]) -> None:
    """Rewrite every line that sets a key of ``updates``, keeping its
    trailing comment, and append the keys not present.  The profile is
    read like ``read_config`` and written as UTF-8 without a byte-order
    mark.  The new text goes to a temp file in the same directory that
    then replaces the profile, so a failed write leaves the profile as it
    was."""
    path = Path(path)
    out, written = [], set()
    for line in path.read_text(encoding="utf-8-sig").splitlines():
        setting, mark, comment = line.partition("#")
        key = setting.split("=", 1)[0].strip()
        if "=" in setting and key in updates:
            line = f"{key} = {updates[key]}"
            if mark:  # the comment stays, as far from the value as it was
                line += setting[len(setting.rstrip()):] + mark + comment
            written.add(key)
        out.append(line)
    out += [f"{key} = {value}" for key, value in updates.items() if key not in written]
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
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
    if config.n_tbphc is not None:
        if (count := harq_processes(config.cycle, config.n_tbphc, n_rep, rtt_ms, config.n_a2g)) > config.max_harq:
            raise ConfigError(
                f"cycle.n_tbphc={config.n_tbphc} needs {count} HARQ processes, more than "
                f"the configured maximum of {config.max_harq}; the HARQ-process sizing "
                f"relation caps how many TBs one cycle may carry"
            )
        return config.n_tbphc

    # the HARQ count needed grows with n and is ceil(n * (1 + wait / cycle)) >= n,
    # so no n above max_harq fits: bisect once below the budget and the cap
    template, n_a2g, budget = config.cycle, config.n_a2g, config.max_harq
    best, high = 0, min(budget, MAX_AUTO_TBPHC) + 1
    while high - best > 1:
        n = (best + high) // 2
        best, high = (n, high) if harq_processes(template, n, n_rep, rtt_ms, n_a2g) <= budget else (best, n)
    if not best:
        raise ConfigError(
            f"even one TB per cycle needs more than {config.max_harq} HARQ processes "
            f"under the HARQ-process sizing relation; raise cycle.max_harq or enable "
            f"protocol.extended_harq"
        )
    return best


class ResolvedScenario(NamedTuple):
    """A config's operating point and the parameters of its cycle there."""

    rtt_ms: float
    snr_db: float
    n_rep: int
    params: CycleParams


@lru_cache(maxsize=_CACHE_SIZE)
def _operating_point(geometry: OrbitGeometry, link: LinkBudgetParams, table: BlerTable, tbs_bits: int,
                     target_bler: float) -> tuple[float, float, int | str]:
    """The round trip in ms, the operating SNR in dB and the repetition
    count that reaches the target there, or the reason no count does: a
    value, not an exception.  A slant range that rounds to 0 km, an SNR
    that overflows and a TB size with no curve in the table raise."""
    rtt_ms = round_trip_time(geometry)
    distance_km = slant_range(geometry.altitude_km, geometry.service_elevation_deg)
    if not distance_km > 0:
        raise ConfigError(f"bad value for geometry.altitude_km: {geometry.altitude_km!r} rounds the slant range to 0")
    snr = snr_db(link, distance_km * 1000.0)
    if not isfinite(snr):
        raise ConfigError(f"link.eirp_dbm, link.g_over_t_db and link.loss_*_db overflow the SNR to {snr} dB")
    if not table.curves.get(tbs_bits):
        raise ConfigError(f"bad value for tbs_bits: {tbs_bits} has no BLER curve in the table")
    try:
        return rtt_ms, snr, select_repetitions(table, tbs_bits, snr, target_bler)
    except InfeasibleLinkError as exc:
        return rtt_ms, snr, str(exc)


def resolve(config: ScenarioConfig, table: BlerTable) -> ResolvedScenario:
    """Follow the chain geometry -> link budget -> repetition count -> TB
    count per cycle -> cycle parameters.

    A legacy config keeps its configured TB count (one under ``auto``), so
    multi-TB conflict attempts can still be rendered.  Raises
    ConfigError when the table has no curve for the TB size, and
    InfeasibleLinkError when no tabulated repetition count reaches the
    target BLER at the operating SNR.
    """
    rtt_ms, snr, n_rep = _operating_point(config.geometry, config.link, table, config.tbs_bits, config.target_bler)
    if isinstance(n_rep, str):
        raise InfeasibleLinkError(n_rep)
    if config.mode is _LEGACY:
        n_tbphc = config.n_tbphc or 1
    else:
        n_tbphc = select_tbphc(config, n_rep, rtt_ms)
    params = _completed_cycle(config.cycle, n_tbphc, n_rep)
    return ResolvedScenario(rtt_ms, snr, n_rep, params)


def auto_tbphc_capped(config: ScenarioConfig, resolved: ResolvedScenario) -> bool:
    """Whether auto sizing stopped at ``MAX_AUTO_TBPHC`` TBs per cycle
    although the HARQ budget admits more."""
    return (
        config.n_tbphc is None
        and config.mode is _PROPOSED
        and resolved.params.n_tbphc == MAX_AUTO_TBPHC
        and harq_processes(config.cycle, MAX_AUTO_TBPHC + 1, resolved.n_rep, resolved.rtt_ms, config.n_a2g)
        <= config.max_harq
    )


class ScenarioResult(NamedTuple):
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


CSV_COLUMNS = tuple(name for name in ScenarioResult._fields if name != "goodput")
# the keys a scenario's id reads, named by _values as _scenario_id's arguments
_ID_KEYS = ("geometry.altitude_km", "geometry.payload", "protocol", "direction", "mode", "tbs_bits")


def _scenario_id(altitude_km: float, payload: Payload, protocol: ProtocolProfile, direction: Direction,
                 mode: SchedulingMode, tbs_bits: int) -> str:
    return f"leo{altitude_km:g}-{payload.value}-{protocol.name}-{direction.value}-{mode.value}-tbs{tbs_bits}"


def _gain_pct(config: ScenarioConfig, n_rep: int, suf: float) -> float:
    """The gain in % of ``suf`` over the one-TB legacy cycle's SUF at ``n_rep`` repetitions."""
    baseline_params = _completed_cycle(config.cycle, 1, n_rep)
    return 100.0 * (suf / suf_closed_form(baseline_params, config.direction, _LEGACY) - 1.0)


def run_scenario(config: ScenarioConfig, table: BlerTable) -> ScenarioResult:
    """Full pipeline for one scenario; its gain is ``_gain_pct``'s, as each ``calibrate`` candidate's is.

    Raises InfeasibleLinkError when no tabulated repetition count reaches
    the target BLER at the operating SNR, and MinDelayViolationError when
    ``harq.delay_guard``, read by the closed-form SUF, finds an uplink TB
    short of its minimum delay.
    """
    mode = config.mode
    if mode is _LEGACY and config.n_tbphc not in (None, 1):
        raise ConfigError(
            f"mode = legacy needs cycle.n_tbphc = 1 or auto, got {config.n_tbphc}: legacy fixed-delay scheduling "
            f"carries one TB per cycle; use the timeline command to inspect multi-TB attempts"
        )
    rtt_ms, snr, n_rep, params = resolve(config, table)
    suf = suf_closed_form(params, config.direction, mode)
    gain_pct = _gain_pct(config, n_rep, suf) if mode is _PROPOSED else 0.0
    rate = throughput(suf, config.tbs_bits)
    required = harq_for_tbphc(params, rtt_ms, config.n_a2g)
    goodput = None
    mc = config.monte_carlo
    if mc.n_cycles > 0 and mode is _PROPOSED:
        from .scheduler import monte_carlo_goodput  # here, so runs without Monte Carlo never load the scheduler
        goodput = monte_carlo_goodput(
            params,
            config.direction,
            list(mc.bler_per_attempt) or [0.0],
            mc.n_cycles,
            mc.seed,
            config.tbs_bits,
        )
    geometry = config.geometry
    return ScenarioResult(  # positional, in field order: the fastest call
        _scenario_id(geometry.altitude_km, geometry.payload, config.protocol, config.direction, mode, config.tbs_bits),
        geometry.altitude_km, geometry.payload.value, geometry.service_elevation_deg, rtt_ms, snr, config.tbs_bits,
        n_rep, mode.value, params.n_tbphc, required, suf, rate, gain_pct, config.power_nw, goodput,
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


# the errors of one point, which sweep and calibrate report and go on past
_POINT_ERRORS = (InfeasibleLinkError, MinDelayViolationError, ConfigError)
# the Monte Carlo settings of every point that sweep runs: it writes no goodput
_NO_MONTE_CARLO = MonteCarloSettings()


def sweep(
    base_raw: Mapping[str, str],
    axes: list[tuple[str, list[str]]],
    table: BlerTable,
) -> tuple[list[ScenarioResult], list[tuple[str, str]]]:
    """Cartesian product over axis values in row-major order of the given
    axes; a key on two axes takes the later axis's value.

    Every axis value, and every base value no axis sets, is parsed alone
    before any point runs, and an axis with no values is a ConfigError.
    Returns one result per feasible point, and the ``(label, reason)`` of
    each point whose link is infeasible, whose uplink cycle misses a
    minimum delay or whose settings fail a check that depends on the
    point (such as a TB size with no BLER curve, the HARQ budget at its
    round trip, feedback bundling on an uplink point, or a minimum delay
    shorter than the switch gap); the sweep goes on past those.  A label
    is the point's ``scenario_id``, read off its texts, followed by one
    ``key=value`` per axis, in axis order, so points with distinct axis
    values never share one.  Points run with Monte Carlo off: no goodput.
    """
    for key, options in axes:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown sweep parameter {key!r}")
        if not options:
            raise ConfigError(f"sweep axis {key} lists no values")
        for text in options:
            _parse_value(key, text)  # each value alone: a bad one fails before any point runs
    keys = [key for key, _ in axes]
    for key, text in base_raw.items():
        if key not in keys:
            _parse_value(key, text)  # so only keys in conflict fail a point's parse
    results, infeasible = [], []
    for values in product(*(options for _, options in axes)):
        raw = {**base_raw, **dict(zip(keys, values))}
        try:
            results.append(run_scenario(config_from_mapping(raw)._replace(monte_carlo=_NO_MONTE_CARLO), table))
        except _POINT_ERRORS as exc:
            point_id = _scenario_id(**_values(_ID_KEYS, tuple(map(raw.get, _ID_KEYS))))  # each parsed alone above
            infeasible.append((" ".join([point_id, *(f"{k}={v}" for k, v in zip(keys, values))]), str(exc)))
    return results, infeasible


# ---------------------------------------------------------------------------
# calibration


class CalibrationResult(NamedTuple):
    rep_pdcch: int
    n_a2g: int
    gain_pct: float
    target_gain_pct: float
    degraded: bool  # the closest gain lies outside the protocol's tolerance
    skipped: tuple[tuple[str, str], ...] = ()  # (candidate, reason) of each candidate that failed


def calibrate(config: ScenarioConfig, table: BlerTable) -> CalibrationResult:
    """Search the grant-repetition and feedback-processing-delay pair that
    best reproduces the protocol's published throughput gain.

    The search covers rep_pdcch in [1, 8] and n_a2g in [0, 4], scoring each
    candidate as ``run_scenario`` scores mode = proposed there: ``resolve``
    (an explicit TB count kept), then ``_gain_pct``; ties go to the smallest pair.
    A candidate that fails as a sweep point can (its HARQ budget, say, or
    an uplink minimum delay) is skipped and listed in ``skipped``; when
    every one fails, as all do for a TB size with no BLER curve, the first
    one's error is raised.  A result outside the protocol's tolerance is
    flagged degraded rather than hidden.
    """
    target = config.protocol.target_gain_pct
    scored: list[tuple[float, int, int, float]] = []  # (distance to the target, rep_pdcch, n_a2g, gain)
    skipped: list[tuple[str, Exception]] = []
    for p, a in product(range(1, 9), range(5)):
        candidate = config._replace(cycle=config.cycle._replace(rep_pdcch=p), n_a2g=a, mode=_PROPOSED)
        try:
            _, _, n_rep, params = resolve(candidate, table)
            gain_pct = _gain_pct(candidate, n_rep, suf_closed_form(params, candidate.direction, _PROPOSED))
        except _POINT_ERRORS as exc:
            skipped.append((f"rep_pdcch={p} n_a2g={a}", exc))
            continue
        scored.append((abs(gain_pct - target), p, a, gain_pct))
    if not scored:
        raise skipped[0][1]
    distance, p, a, gain_pct = min(scored)  # each pair once, so a tie goes to the smallest pair
    return CalibrationResult(
        rep_pdcch=p,
        n_a2g=a,
        gain_pct=gain_pct,
        target_gain_pct=target,
        degraded=distance > config.protocol.gain_tolerance_pct,
        skipped=tuple((label, str(exc)) for label, exc in skipped),
    )
