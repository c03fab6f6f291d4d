"""BLER lookup tables and repetition selection.

Curves are consumed as data, one waterfall per (TBS, repetition count):
interpolation is log-linear in BLER against SNR in dB and clamps at the
curve endpoints.  The bundled table anchors the PUSCH operating points
used by the scenario runner; regenerating the underlying physical-layer
simulation is out of scope.
"""
from __future__ import annotations

import math
from functools import cache
from pathlib import Path
from typing import Iterable

from .errors import InfeasibleLinkError, InvalidInputError
from .harq import CycleParams
from .records import Frozen, Rule, _between, require

DEFAULT_TABLE_RESOURCE = "bler_pusch_ntn_tdla.csv"
Points = tuple[tuple[float, float], ...]  # (snr_db, bler), ascending snr
# the rules of arguments that the config schema reads for its keys too
_TBS_BITS = _between(1, 100_000)  # far above any LTE-M or NB-IoT transport block
_TARGET_BLER: Rule = ("must lie in (0, 1]", lambda v: 0 < v <= 1)
_BLER_PER_ATTEMPT: Rule = ("must list probabilities in [0, 1]", lambda v: all(0 <= p <= 1 for p in v))
_N_REP = CycleParams.RULES["rep_pusch"]


class BlerTable(Frozen):
    """Immutable set of BLER curves: TBS -> repetition count, ascending ->
    the curve's points.  Equality is structural, and the hash follows the
    content, whatever the order the curves were inserted in."""

    __slots__ = ("curves", "_hash")
    _fields = ("curves",)

    def __init__(self, curves: dict[int, dict[int, Points]]) -> None:
        object.__setattr__(self, "curves", curves)
        content = frozenset((tbs, frozenset(by_rep.items())) for tbs, by_rep in curves.items())
        object.__setattr__(self, "_hash", hash(content))

    def __hash__(self) -> int:
        return self._hash

    def reps_for(self, tbs: int) -> list[int]:
        """Available repetition counts for a TBS, ascending."""
        return list(self.curves.get(tbs, ()))

    def curve(self, tbs: int, n_rep: int) -> Points:
        try:
            return self.curves[tbs][n_rep]
        except KeyError:
            raise InvalidInputError(f"no BLER curve for tbs={tbs}, n_rep={n_rep}") from None


def _interp_log(points: Points, snr: float) -> float:
    if snr <= points[0][0]:
        return points[0][1]
    if snr >= points[-1][0]:
        return points[-1][1]
    for (s0, b0), (s1, b1) in zip(points, points[1:]):
        if s0 <= snr <= s1:
            t = (snr - s0) / (s1 - s0)
            return 10.0 ** ((1.0 - t) * math.log10(b0) + t * math.log10(b1))
    raise InvalidInputError(f"SNR must be a number, got {snr}")  # only NaN fails every comparison


def bler_at(table: BlerTable, tbs: int, n_rep: int, snr: float) -> float:
    """Interpolated BLER for one curve, clamped outside the tabulated range."""
    return _interp_log(table.curve(tbs, n_rep), snr)


def select_repetitions(table: BlerTable, tbs: int, snr: float, target_bler: float) -> int:
    """Smallest available repetition count whose BLER at ``snr`` meets the target.

    Raises InfeasibleLinkError when even the largest tabulated repetition
    count misses the target, i.e. the link is too weak for this TBS, and
    InvalidInputError for a target the ``target_bler`` key's rule refuses,
    a NaN SNR or a TBS with no curves in the table.
    """
    require("target_bler", target_bler, _TARGET_BLER)
    reps = table.reps_for(tbs)
    if not reps:
        raise InvalidInputError(f"no BLER curves for tbs={tbs}")
    for n_rep in reps:
        if bler_at(table, tbs, n_rep, snr) <= target_bler:
            return n_rep
    raise InfeasibleLinkError(
        f"no repetition count reaches BLER {target_bler} at {snr:.1f} dB for tbs={tbs}"
    )


def spectral_efficiency(tbs: int, n_rep: int) -> float:
    """Payload bits per PRB-subframe when one TB spans one PRB per repetition."""
    require("n_rep", n_rep, _N_REP)
    return tbs / n_rep


def _validate_curve(tbs: int, n_rep: int, points: Points) -> None:
    snrs = [s for s, _ in points]
    blers = [b for _, b in points]
    if any(s1 <= s0 for s0, s1 in zip(snrs, snrs[1:])):
        raise InvalidInputError(
            f"SNR points must strictly increase (tbs={tbs}, n_rep={n_rep})"
        )
    if any(not 0.0 < b <= 1.0 for b in blers):
        raise InvalidInputError(
            f"BLER values must lie in (0, 1] (tbs={tbs}, n_rep={n_rep})"
        )
    if any(b1 > b0 for b0, b1 in zip(blers, blers[1:])):
        raise InvalidInputError(
            f"BLER must be non-increasing in SNR (tbs={tbs}, n_rep={n_rep})"
        )


def _validate_cross_rep(table: BlerTable) -> None:
    # More redundancy must never raise the BLER.  Piecewise log-linear
    # curves only need checking at the union of their breakpoints.
    for tbs, by_rep in table.curves.items():
        curves = list(by_rep.items())
        for (n_low, low), (n_high, high) in zip(curves, curves[1:]):
            grid = sorted({s for s, _ in low} | {s for s, _ in high})
            for snr in grid:
                if _interp_log(high, snr) > _interp_log(low, snr) + 1e-12:
                    raise InvalidInputError(
                        f"BLER not non-increasing in n_rep at tbs={tbs}, snr={snr} "
                        f"(n_rep {n_low} -> {n_high})"
                    )


def load_bler_table(source: str | Path | Iterable[str]) -> BlerTable:
    """Parse a ``tbs,n_rep,snr_db,bler`` CSV into a validated BlerTable.

    ``source`` may be the path of a UTF-8 file, with or without a
    byte-order mark, or an iterable of lines such as an open file.  Lines
    starting with ``#`` and blank lines are ignored.  TB sizes must pass
    the ``tbs_bits`` key's rule and repetition counts ``CycleParams``'.
    """
    if isinstance(source, (str, Path)):
        try:
            lines = Path(source).read_text(encoding="utf-8-sig").splitlines()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{source} is not UTF-8 text ({exc})") from None
        try:
            return load_bler_table(lines)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{source}: {exc}") from None
    rows: dict[int, dict[int, list[tuple[float, float]]]] = {}
    for lineno, raw in enumerate(source, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise InvalidInputError(f"line {lineno}: expected 'tbs,n_rep,snr_db,bler', got {line!r}")
        try:
            tbs, n_rep = int(parts[0]), int(parts[1])
            snr, bler = float(parts[2]), float(parts[3])
            require("tbs", tbs, _TBS_BITS)  # an InvalidInputError is a ValueError, so it names the line too
            require("n_rep", n_rep, _N_REP)
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(snr) and math.isfinite(bler)):
            raise InvalidInputError(f"line {lineno}: SNR and BLER must be finite, got {line!r}")
        rows.setdefault(tbs, {}).setdefault(n_rep, []).append((snr, bler))
    curves = {
        tbs: {n_rep: tuple(sorted(by_rep[n_rep])) for n_rep in sorted(by_rep)}
        for tbs, by_rep in rows.items()
    }
    for tbs, by_rep in curves.items():
        for n_rep, points in by_rep.items():
            _validate_curve(tbs, n_rep, points)
    table = BlerTable(curves=curves)
    _validate_cross_rep(table)
    return table


@cache
def default_table() -> BlerTable:
    """The packaged NTN TDL-A PUSCH table, read once per process.  Every
    call returns the same table, so callers must not change its curves."""
    return load_bler_table(Path(__file__).with_name("data") / DEFAULT_TABLE_RESOURCE)
