"""Byte-identity of CLI outputs against copies recorded in ``tests/golden/``.

The copies pin the ``run`` CSV and the ``calibrate --dry-run`` output of
every shipped profile, the ``run`` CSV with its ``# monte_carlo`` line at
auto n_tbphc 2 (NB-IoT) and 6 (LTE-M) and at 64 TBs per cycle, under
heavy, light and flat BLER vectors, the ``sweep`` CSV over three axes,
over a key repeated across two axes and with no axis, and every timeline
format and view of large auto-sized downlink (MTBG) and uplink (STBG)
cycles, of small STBG downlink cycles with and without feedback
bundling, and of legacy multi-TB attempts in both directions with their
conflict annotations.

Record the copies of new cases, and only those, with

    PYTHONPATH=src python tests/test_golden.py

which writes the golden files that are missing and leaves the others as
they are.  When an output is meant to change, name the cases to
re-record:

    PYTHONPATH=src python tests/test_golden.py timeline.large_dl.ue.csv ...
"""
from __future__ import annotations

import gzip
import io
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ntn_harq.bler import default_table
from ntn_harq.cli import main, render_timeline
from ntn_harq.scenario import config_from_mapping, read_config, update_config_file

ROOT = Path(__file__).resolve().parent.parent
PROFILES = ROOT / "profiles"
GOLDEN = Path(__file__).resolve().parent / "golden"
# auto n_tbphc under a raised HARQ budget reaches the 512-TB cap
LARGE = {"cycle.n_tbphc": "auto", "cycle.max_harq": "1024"}
# twelve repetitions against the 3-SF fixed delay double-book every TB
LEGACY = {"mode": "legacy", "cycle.n_tbphc": "8"}
# (profile, overrides) per timeline case; the downlink profile grants
# with MTBG, the uplink one with STBG
TIMELINES = {
    "large_dl": ("leo600_ltem_dl", LARGE),
    "legacy_dl": ("leo600_ltem_dl", LEGACY),
    "large_ul": ("leo600_ltem_ul", LARGE),
    "legacy_ul": ("leo600_ltem_ul", LEGACY),
    "stbg_dl": ("leo600_ltem_dl", {"cycle.grant_mode": "stbg"}),
    "bundled_dl": ("leo600_ltem_dl", {"cycle.grant_mode": "stbg", "cycle.ack_bundling": "true",
                                      "cycle.n_bundle": "4", "cycle.max_harq": "64"}),
}
# (profile, overrides) per Monte Carlo run case: auto sizing gives NB-IoT
# 2 TBs per cycle and LTE-M 6, so both branches of the retry loop run
MONTE_CARLO = {
    f"mc_{label}": (profile, {**overrides, "monte_carlo.n_cycles": "5000", "monte_carlo.seed": "1",
                              "monte_carlo.bler_per_attempt": bler})
    for label, profile, overrides, bler in (
        ("nbiot_ul_heavy", "leo600_nbiot_ul", {}, "0.6,0.4,0.2"),
        ("ltem_ul_light", "leo600_ltem_ul", {}, "0.1,0.01"),
        ("ltem_dl_flat", "leo600_ltem_dl", {}, "0.3"),
        ("n64_heavy", "leo600_ltem_ul", {"cycle.n_tbphc": "64", "cycle.max_harq": "128"}, "0.6,0.4,0.2"),
    )
}
SWEEPS = {
    "three_axes": (
        "leo600_ltem_ul",
        ["geometry.altitude_km=600,1200", "direction=ul,dl", "cycle.rep_pdcch=1,2,4"],
    ),
    # the later axis of a repeated key sets its value
    "repeated_key": (
        "leo600_ltem_ul",
        ["cycle.rep_pdcch=1,2", "geometry.service_elevation_deg=30,60", "cycle.rep_pdcch=3,4"],
    ),
    "no_axes": ("leo1200_nbiot_ul", []),
}


def _cli(*args: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(args)) == 0
    return out.getvalue()


def _run_csv(profile: str, overrides: dict[str, str] | None = None) -> str:
    if not overrides:
        return _cli("run", str(PROFILES / f"{profile}.cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{profile}.cfg"
        shutil.copyfile(PROFILES / f"{profile}.cfg", path)
        update_config_file(path, overrides)
        return _cli("run", str(path))


def _calibration(profile: str) -> str:
    return _cli("calibrate", str(PROFILES / f"{profile}.cfg"), "--dry-run")


def _sweep_csv(profile: str, axes: list[str]) -> str:
    return _cli("sweep", str(PROFILES / f"{profile}.cfg"), *(f"--axis={a}" for a in axes))


def _timeline(profile: str, overrides: dict[str, str], view: str, fmt: str) -> str:
    raw = read_config(PROFILES / f"{profile}.cfg")
    raw.update(overrides)
    text, status = render_timeline(config_from_mapping(raw), view, fmt, default_table())
    assert status == 0
    return text


CASES = {
    **{f"run.{p.stem}.csv": (_run_csv, p.stem) for p in sorted(PROFILES.glob("*.cfg"))},
    **{f"run.{label}.csv": (_run_csv, *case) for label, case in MONTE_CARLO.items()},
    **{f"calibrate.{p.stem}.txt": (_calibration, p.stem) for p in sorted(PROFILES.glob("*.cfg"))},
    **{f"sweep.{label}.csv": (_sweep_csv, *args) for label, args in SWEEPS.items()},
    **{
        f"timeline.{label}.{view}.{fmt}": (_timeline, *case, view, fmt)
        for label, case in TIMELINES.items()
        for view in ("ue", "bs")
        for fmt in ("text", "svg", "csv")
    },
}


def produce(name: str) -> str:
    fn, *args = CASES[name]
    return fn(*args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = gzip.decompress((GOLDEN / f"{name}.gz").read_bytes()).decode()
    assert produce(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    names = sys.argv[1:] or [name for name in CASES if not (GOLDEN / f"{name}.gz").exists()]
    for name in names:
        (GOLDEN / f"{name}.gz").write_bytes(gzip.compress(produce(name).encode(), mtime=0))
        print(f"wrote {name}")
