"""The names and signatures the benchmark's tracer relies on.

``bench/tracing.py`` rebinds the functions it lists by name in the
``ntn_harq`` modules and reads some of their arguments by name, so a
refactor that renames one breaks the traced benchmark run; these checks
catch that in the test suite instead.
"""
from __future__ import annotations

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from ntn_harq import cli
from ntn_harq.harq import CycleParams, Direction
from ntn_harq.scenario import load_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"ntn_harq.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ntn_harq.{layer}.{name}"


def test_monte_carlo_counter_binds_its_arguments(tracing):
    from ntn_harq.scheduler import monte_carlo_goodput

    args = (CycleParams(n_tbphc=3, rep_pusch=2), Direction.UL, [0.5], 40, 7, 504)
    result = monte_carlo_goodput(*args)
    counts = defaultdict(float)
    tracing.COUNTERS["scheduler.monte_carlo_goodput"](counts, args, {}, result)
    assert counts["scheduler.monte_carlo_goodput.tb_attempts"] == 40 * 3


def test_render_timeline_returns_text_and_status(table):
    config = load_config(ROOT / "profiles" / "leo600_ltem_dl.cfg")
    text, status = cli.render_timeline(config, "bs", "text", table)
    assert isinstance(text, str) and text.startswith("sf")
    assert status == 0


def test_traced_names_are_not_cache_wrappers(tracing):
    # on a cache hit a cached function skips its body, so its span and the
    # spans of the layers it calls would stop counting every call's work
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"ntn_harq.{layer}")
        for name in names:
            assert not hasattr(getattr(module, name), "cache_info"), f"ntn_harq.{layer}.{name}"
