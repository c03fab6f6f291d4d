import math

import pytest

from ntn_harq.errors import InvalidInputError
from ntn_harq.geometry import (
    EARTH_RADIUS_KM,
    OrbitGeometry,
    Payload,
    round_trip_time,
    slant_range,
)


def slant_range_oracle(altitude_km, elevation_deg):
    """Independent check: solve the earth-center triangle numerically.

    Law of cosines with the angle between the UE->satellite ray and the
    local vertical-complement: (R+h)^2 = R^2 + d^2 + 2 R d sin(e).
    Bisection on d, no closed form used.
    """
    re = EARTH_RADIUS_KM
    sin_e = math.sin(math.radians(elevation_deg))
    target = (re + altitude_km) ** 2

    def f(d):
        return re * re + d * d + 2.0 * re * d * sin_e - target

    lo, hi = 0.0, altitude_km + 2.0 * re
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_zenith_equals_altitude():
    assert slant_range(600, 90) == pytest.approx(600.0, abs=1e-9)


@pytest.mark.parametrize(
    "altitude,elevation,frozen",
    [
        (600, 10, 1931.6),   # computed with slant_range_oracle
        (1200, 30, 1998.9),  # computed with slant_range_oracle
    ],
)
def test_slant_range_against_oracle(altitude, elevation, frozen):
    got = slant_range(altitude, elevation)
    assert got == pytest.approx(slant_range_oracle(altitude, elevation), abs=1e-6)
    assert got == pytest.approx(frozen, abs=0.1)


def test_slant_range_at_least_altitude():
    for h in (400, 600, 1200):
        for e in (0, 10, 30, 60, 90):
            assert slant_range(h, e) >= h - 1e-9


def test_slant_range_monotonic_in_elevation():
    for h in (600, 1200):
        ranges = [slant_range(h, e) for e in range(5, 91, 5)]
        assert all(a > b for a, b in zip(ranges, ranges[1:]))


def test_slant_range_monotonic_in_altitude():
    for e in (10, 30, 90):
        ranges = [slant_range(h, e) for h in (400, 600, 800, 1200)]
        assert all(a < b for a, b in zip(ranges, ranges[1:]))


@pytest.mark.parametrize("bad", [(0, 45), (-5, 45), (600, -1), (600, 90.5), (math.nan, 45), (600, math.nan)])
def test_slant_range_rejects_bad_inputs(bad):
    with pytest.raises(InvalidInputError):
        slant_range(*bad)


# UE-satellite RTT table: (altitude, payload, elevation) -> ms.  Elevations
# apply to both the service and feeder links.
RTT_TABLE = [
    (600, Payload.REGENERATIVE, 90, 4),
    (600, Payload.REGENERATIVE, 10, 13),
    (600, Payload.TRANSPARENT, 90, 8),
    (600, Payload.TRANSPARENT, 10, 26),
    (1200, Payload.REGENERATIVE, 90, 8),
    (1200, Payload.REGENERATIVE, 10, 21),
    (1200, Payload.TRANSPARENT, 90, 16),
    (1200, Payload.TRANSPARENT, 10, 42),
]


@pytest.mark.parametrize("altitude,payload,elevation,expected_ms", RTT_TABLE)
def test_rtt_endpoints(altitude, payload, elevation, expected_ms):
    geom = OrbitGeometry(altitude, payload, elevation, elevation)
    assert round_trip_time(geom) == pytest.approx(expected_ms, abs=0.5)


@pytest.mark.parametrize(
    "altitude,expected_ms",
    [(600, 20), (1200, 34)],
)
def test_rtt_mixed_elevation_scenarios(altitude, expected_ms):
    geom = OrbitGeometry(altitude, Payload.TRANSPARENT, 30, 10)
    assert round_trip_time(geom) == pytest.approx(expected_ms, abs=0.5)


def test_transparent_exceeds_regenerative():
    for h in (600, 1200):
        for service in (10, 30, 60, 90):
            for feeder in (10, 45, 90):
                transparent = OrbitGeometry(h, Payload.TRANSPARENT, service, feeder)
                regen = OrbitGeometry(h, Payload.REGENERATIVE, service, feeder)
                assert round_trip_time(transparent) > round_trip_time(regen)


def test_orbit_geometry_validation():
    with pytest.raises(InvalidInputError):
        OrbitGeometry(0, Payload.REGENERATIVE, 30)
    with pytest.raises(InvalidInputError, match=r"^altitude_km must lie in \(0, 35786\] \(GEO\), got nan$"):
        OrbitGeometry(math.nan, Payload.REGENERATIVE, 30)
    with pytest.raises(InvalidInputError):
        OrbitGeometry(600, Payload.REGENERATIVE, 5)
    with pytest.raises(InvalidInputError):
        OrbitGeometry(600, Payload.TRANSPARENT, 30, 95)
