"""Uplink budget: free-space path loss and operating SNR in the log domain.

All loss terms are subtracted in dB.  EIRP arrives in dBm and is converted
to dBW internally; the Boltzmann constant is folded in as -228.6 dBW/Hz/K.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInputError
from .records import _AT_LEAST_0, _FINITE, _POSITIVE, Validated, _between

BOLTZMANN_DBW_PER_HZ_K = -228.6
DBM_TO_DBW = -30.0


class _LinkFields(NamedTuple):
    eirp_dbm: float
    g_over_t_db: float
    bandwidth_hz: float
    carrier_ghz: float
    loss_atm_db: float = 0.0
    loss_shadow_db: float = 0.0
    loss_scint_db: float = 0.0
    loss_polar_db: float = 0.0


class LinkBudgetParams(Validated, _LinkFields):
    """Transmit-side and propagation parameters of the IoT uplink."""

    __slots__ = ()
    RULES = {
        **dict.fromkeys(("eirp_dbm", "g_over_t_db"), _FINITE),
        "bandwidth_hz": _POSITIVE,
        "carrier_ghz": _between(0.1, 100),
        **dict.fromkeys(("loss_atm_db", "loss_shadow_db", "loss_scint_db", "loss_polar_db"), _AT_LEAST_0),
    }


def fspl_db(carrier_ghz: float, distance_m: float) -> float:
    """Free-space path loss in dB for a carrier in GHz and a path in meters.

    32.45 + 20 log10(f_GHz) + 20 log10(d_m); identical to the Friis form
    92.45 + 20 log10(f_GHz) + 20 log10(d_km).
    """
    if not carrier_ghz > 0:
        raise InvalidInputError(f"carrier frequency must be positive, got {carrier_ghz}")
    if not distance_m > 0:
        raise InvalidInputError(f"distance must be positive, got {distance_m}")
    return 10.0 * (3.245 + math.log10(carrier_ghz ** 2) + math.log10(distance_m ** 2))


def snr_db(params: LinkBudgetParams, distance_m: float) -> float:
    """Operating SNR in dB at the given slant distance in meters."""
    path_loss = fspl_db(params.carrier_ghz, distance_m)
    return (
        params.eirp_dbm
        + DBM_TO_DBW
        + params.g_over_t_db
        - BOLTZMANN_DBW_PER_HZ_K
        - path_loss
        - params.loss_atm_db
        - params.loss_shadow_db
        - params.loss_scint_db
        - params.loss_polar_db
        - 10.0 * math.log10(params.bandwidth_hz)
    )
