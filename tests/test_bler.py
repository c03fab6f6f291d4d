import math

import pytest

from ntn_harq.bler import (
    bler_at,
    load_bler_table,
    select_repetitions,
    spectral_efficiency,
)
from ntn_harq.errors import CurveNotFoundError, InfeasibleLinkError, InvalidInputError


def make_table(lines):
    return load_bler_table(lines)


def test_midpoint_interpolation_is_geometric_mean():
    table = make_table(["100,1,-6,0.2", "100,1,-4,0.02"])
    # log-midpoint between 0.2 and 0.02 is sqrt(0.2 * 0.02)
    expected = math.sqrt(0.2 * 0.02)  # 0.06324555...
    assert bler_at(table, 100, 1, -5.0) == pytest.approx(expected, rel=1e-12)
    assert bler_at(table, 100, 1, -5.0) == pytest.approx(0.0632, abs=5e-4)


def test_clamping_outside_curve():
    table = make_table(["100,1,-6,0.2", "100,1,-4,0.02"])
    assert bler_at(table, 100, 1, -20.0) == 0.2
    assert bler_at(table, 100, 1, 5.0) == 0.02


def test_exact_tabulated_points_returned_verbatim(table):
    assert bler_at(table, 504, 24, -5.6) == pytest.approx(0.1, rel=1e-12)


def test_missing_curve_raises(table):
    with pytest.raises(CurveNotFoundError):
        bler_at(table, 504, 3, -5.6)
    with pytest.raises(CurveNotFoundError):
        select_repetitions(table, 999, -5.6, 0.1)


@pytest.mark.parametrize(
    "tbs,snr,expected",
    [
        (504, -5.6, 24),
        (144, -5.6, 12),
        (504, -0.2, 12),
    ],
)
def test_operating_point_selection(table, tbs, snr, expected):
    assert select_repetitions(table, tbs, snr, 0.1) == expected


def test_selection_infeasible_when_link_too_weak(table):
    with pytest.raises(InfeasibleLinkError):
        select_repetitions(table, 504, -40.0, 0.1)


def test_selection_monotone_in_snr(table):
    for tbs in (144, 504):
        previous = None
        for snr in [x / 2.0 for x in range(-16, 20)]:
            try:
                n = select_repetitions(table, tbs, snr, 0.1)
            except InfeasibleLinkError:
                continue
            if previous is not None:
                assert n <= previous
            previous = n


def test_selection_monotone_in_target(table):
    for target_lo, target_hi in [(0.01, 0.1), (0.1, 0.5)]:
        lo = select_repetitions(table, 504, -3.0, target_lo)
        hi = select_repetitions(table, 504, -3.0, target_hi)
        assert hi <= lo


@pytest.mark.parametrize(
    "tbs,n_rep,expected",
    [(144, 12, 12), (504, 24, 21), (504, 504, 1)],
)
def test_spectral_efficiency(tbs, n_rep, expected):
    assert spectral_efficiency(tbs, n_rep) == expected


def test_spectral_efficiency_rejects_zero_rep():
    with pytest.raises(InvalidInputError):
        spectral_efficiency(144, 0)


def test_larger_tbs_wins_on_spectral_efficiency(table):
    # at both operating SNRs, the bigger block carries more bits per
    # PRB-subframe once the repetition count is chosen for 10% BLER
    for snr in (-5.6, -0.2):
        se = {
            tbs: spectral_efficiency(tbs, select_repetitions(table, tbs, snr, 0.1))
            for tbs in (144, 504)
        }
        assert se[504] > se[144]


def test_loader_rejects_duplicate_snr():
    with pytest.raises(InvalidInputError):
        make_table(["100,1,-6,0.2", "100,1,-6,0.1"])


def test_loader_rejects_bler_out_of_range():
    with pytest.raises(InvalidInputError):
        make_table(["100,1,-6,0"])
    with pytest.raises(InvalidInputError):
        make_table(["100,1,-6,1.5"])


def test_loader_rejects_increasing_bler_in_snr():
    with pytest.raises(InvalidInputError):
        make_table(["100,1,-6,0.1", "100,1,-4,0.2"])


def test_loader_rejects_rep_inversion():
    # more repetitions must never produce a higher BLER
    with pytest.raises(InvalidInputError):
        make_table(
            [
                "100,1,-6,0.1",
                "100,1,-4,0.01",
                "100,2,-6,0.5",
                "100,2,-4,0.05",
            ]
        )


def test_loader_rejects_malformed_line():
    with pytest.raises(InvalidInputError):
        make_table(["100,1,-6"])
    with pytest.raises(InvalidInputError):
        make_table(["a,b,c,d"])


@pytest.mark.parametrize("row", ["504,1,nan,0.5", "504,1,-inf,0.5", "504,1,-6,nan", "504,1,inf,inf"])
def test_loader_rejects_non_finite_values(row):
    with pytest.raises(InvalidInputError, match="line 3: SNR and BLER must be finite"):
        make_table(["# tbs,n_rep,snr_db,bler", "504,1,-8,0.9", row])


@pytest.mark.parametrize("row", [
    "144,0,-30,0.01",
    "144,-1,-30,0.01",
    "144,100001,-30,0.01",
    "144,100000000000000000000,-30,0.01",
    "0,1,-30,0.01",
    "-5,1,-30,0.01",
    "100001,1,-30,0.01",
])
def test_loader_rejects_out_of_range_sizes_and_reps(row):
    with pytest.raises(InvalidInputError, match=f"line 2: tbs must lie in .* got '{row}'"):
        make_table(["# tbs,n_rep,snr_db,bler", row])


def test_loader_accepts_range_edges():
    table = make_table(["1,1,-30,0.01", "100000,100000,-30,0.01"])
    assert (table.reps_for(1), table.reps_for(100000)) == ([1], [100000])


def test_loader_reads_an_open_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("100,1,-6,0.2\n100,1,-4,0.02\n")
    with path.open() as f:
        assert load_bler_table(f) == load_bler_table(path)


def test_loader_accepts_comments_and_blanks():
    table = make_table(["# comment", "", "100,1,-6,0.2", "100,1,-4,0.02"])
    assert table.reps_for(100) == [1]
