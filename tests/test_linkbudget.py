import math

import pytest

from ntn_harq.errors import InvalidInputError
from ntn_harq.geometry import slant_range
from ntn_harq.linkbudget import LinkBudgetParams, fspl_db, snr_db

# Standard IoT-NTN uplink settings used throughout.
EVAL_PARAMS = LinkBudgetParams(
    eirp_dbm=23.0,
    g_over_t_db=-4.9,
    bandwidth_hz=180e3,
    carrier_ghz=2.0,
    loss_atm_db=0.07,
    loss_shadow_db=3.0,
    loss_scint_db=2.2,
    loss_polar_db=0.0,
)


def friis_oracle(carrier_ghz, distance_m):
    """Independent check via the km-based Friis constant."""
    return 92.45 + 20.0 * math.log10(carrier_ghz) + 20.0 * math.log10(distance_m / 1000.0)


def test_fspl_base_case():
    # both log terms vanish
    assert fspl_db(1.0, 1.0) == pytest.approx(32.45, abs=1e-12)


@pytest.mark.parametrize(
    "distance_m,frozen_db",
    [
        (1.0751e6, 159.1),  # via friis_oracle
        (1.9989e6, 164.5),  # via friis_oracle
    ],
)
def test_fspl_against_friis(distance_m, frozen_db):
    got = fspl_db(2.0, distance_m)
    assert got == pytest.approx(friis_oracle(2.0, distance_m), abs=1e-9)
    assert got == pytest.approx(frozen_db, abs=0.05)


@pytest.mark.parametrize("bad", [(0, 1), (2, 0), (-1, 1), (2, -5), (math.nan, 1e6), (2, math.nan)])
def test_fspl_rejects_bad_inputs(bad):
    with pytest.raises(InvalidInputError):
        fspl_db(*bad)


@pytest.mark.parametrize(
    "altitude_km,expected_db",
    [(600, -0.2), (1200, -5.6)],
)
def test_operating_snr(altitude_km, expected_db):
    distance_m = slant_range(altitude_km, 30) * 1000.0
    assert snr_db(EVAL_PARAMS, distance_m) == pytest.approx(expected_db, abs=0.1)


def test_snr_term_by_term_identity():
    params = LinkBudgetParams(
        eirp_dbm=0.0,
        g_over_t_db=-4.9,
        bandwidth_hz=1.0,
        carrier_ghz=1.0,
    )
    # -30 (dBm->dBW) - 4.9 + 228.6 - 32.45 with every other term zero
    assert snr_db(params, 1.0) == pytest.approx(161.25, abs=1e-9)


def test_snr_distance_scaling_law():
    d1, d2 = 5e5, 2.3e6
    delta = snr_db(EVAL_PARAMS, d1) - snr_db(EVAL_PARAMS, d2)
    assert delta == pytest.approx(20.0 * math.log10(d2 / d1), abs=1e-9)


@pytest.mark.parametrize(
    "field", ["loss_atm_db", "loss_shadow_db", "loss_scint_db", "loss_polar_db"]
)
def test_each_loss_term_subtracts_exactly(field):
    base = snr_db(EVAL_PARAMS, 1e6)
    bumped = EVAL_PARAMS._replace(**{field: getattr(EVAL_PARAMS, field) + 1.7})
    assert base - snr_db(bumped, 1e6) == pytest.approx(1.7, abs=1e-9)


def test_params_validation():
    with pytest.raises(InvalidInputError):
        LinkBudgetParams(23, -4.9, 0, 2.0)
    for field in ("bandwidth_hz", "carrier_ghz", "loss_atm_db", "loss_shadow_db", "loss_scint_db", "loss_polar_db"):
        with pytest.raises(InvalidInputError):
            EVAL_PARAMS._replace(**{field: math.nan})
    with pytest.raises(InvalidInputError):
        LinkBudgetParams(23, -4.9, 180e3, 2.0, loss_shadow_db=-1)
