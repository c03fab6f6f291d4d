import importlib.util
import sys
from pathlib import Path

import pytest

from ntn_harq.bler import default_table


@pytest.fixture(scope="session")
def table():
    return default_table()


@pytest.fixture(scope="session")
def bench_workloads():
    """The repository root and the benchmark's workload module."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return root, module
