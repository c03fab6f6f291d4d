"""Orbital geometry: slant ranges and round-trip times for LEO IoT links.

Spherical-earth model with a static snapshot of the pass; the RTT drift
within a pass is small enough (sub-microsecond per subframe) that each
scenario uses one fixed geometry.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInputError
from .records import IdentityEnum, Validated, _between

EARTH_RADIUS_KM = 6371.0
SPEED_OF_LIGHT_KM_S = 299792.458


class Payload(IdentityEnum):
    """Satellite payload architecture.

    A regenerative payload hosts the base station on board, so the round
    trip covers the service link only.  A transparent (bent-pipe) payload
    relays the waveform to a ground gateway, adding the feeder link.
    """

    TRANSPARENT = "transparent"
    REGENERATIVE = "regenerative"


class _OrbitFields(NamedTuple):
    altitude_km: float
    payload: Payload
    service_elevation_deg: float
    feeder_elevation_deg: float = 10.0


class OrbitGeometry(Validated, _OrbitFields):
    """Snapshot of one satellite pass.

    altitude_km: circular-orbit altitude.
    service_elevation_deg: UE-to-satellite elevation angle.
    feeder_elevation_deg: gateway-to-satellite elevation angle; consulted
        only when the payload is transparent.
    """

    __slots__ = ()
    RULES = {
        "altitude_km": ("must lie in (0, 35786] (GEO)", lambda v: 0 < v <= 35786),
        "service_elevation_deg": _between(10, 90),  # the link model's operational elevation window
        "feeder_elevation_deg": _between(10, 90),
    }


def slant_range(altitude_km: float, elevation_deg: float) -> float:
    """Line-of-sight distance in km from a ground terminal to the satellite.

    d = sqrt(R_E^2 sin^2(e) + h^2 + 2 h R_E) - R_E sin(e); equals the
    altitude at zenith and grows monotonically as the elevation drops.
    """
    if not altitude_km > 0:
        raise InvalidInputError(f"altitude must be positive, got {altitude_km}")
    if not 0.0 <= elevation_deg <= 90.0:
        raise InvalidInputError(f"elevation must lie in [0, 90] degrees, got {elevation_deg}")
    sin_e = math.sin(math.radians(elevation_deg))
    h = altitude_km
    re = EARTH_RADIUS_KM
    return math.sqrt(re * re * sin_e * sin_e + h * h + 2.0 * h * re) - re * sin_e


def round_trip_time(geom: OrbitGeometry) -> float:
    """Round-trip time in milliseconds for the given pass geometry.

    Regenerative payloads bounce off the satellite; transparent payloads
    add the satellite-gateway hop in both directions.
    """
    one_way_km = slant_range(geom.altitude_km, geom.service_elevation_deg)
    if geom.payload is Payload.TRANSPARENT:
        one_way_km += slant_range(geom.altitude_km, geom.feeder_elevation_deg)
    return 2.0 * one_way_km / SPEED_OF_LIGHT_KM_S * 1000.0
