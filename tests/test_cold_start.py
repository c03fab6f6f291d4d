"""A cold ``ntn-harq`` process loads neither ``dataclasses`` nor ``inspect``,
and only the commands that lay out a timeline load ``ntn_harq.scheduler``.

Defining the package's records as dataclasses cost about 20 ms of every
cold start, and ``import dataclasses`` pulls in ``inspect``, ``ast``, ``dis``
and ``tokenize`` for another 10 ms.  Compiling and running the scheduler
costs about 10 ms more, which ``run`` needs only for Monte Carlo
goodput, and ``sweep`` and ``calibrate`` not at all.  One stray decorator
or top-level import would bring them back, so each process below reports
what it loaded.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROFILE = ROOT / "profiles" / "leo600_ltem_ul.cfg"
UNWANTED = ("dataclasses", "inspect")

# prints the unwanted modules loaded before and after importing the CLI and
# running it on the given arguments, as the last line of stdout
PROBE = """
import json, sys
before = [name for name in {unwanted} if name in sys.modules]
from ntn_harq.cli import main
if sys.argv[1:]:
    main(sys.argv[1:])
print(json.dumps([before, [name for name in {unwanted} if name in sys.modules]]))
"""


def probe(modules: tuple[str, ...], args: list[str]) -> tuple[list[str], list[str]]:
    """Which of ``modules`` a fresh interpreter holds before importing the
    CLI, and which after running it on ``args``."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(unwanted=modules), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    return before, after


@pytest.mark.parametrize(
    "args",
    [[], ["run", str(PROFILE)], ["calibrate", str(PROFILE), "--dry-run"]],
    ids=["import", "run", "calibrate"],
)
def test_a_cold_process_leaves_dataclasses_and_inspect_unloaded(args):
    before, after = probe(UNWANTED, args)
    if before:
        pytest.skip(f"the interpreter loads {before} before the package is imported")
    assert after == [], f"ntn-harq {' '.join(args[:1]) or 'import'} loaded {after}"


@pytest.fixture(scope="module")
def monte_carlo_profile(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "monte_carlo.cfg"
    path.write_text(PROFILE.read_text() + "monte_carlo.n_cycles = 50\n")
    return path


@pytest.mark.parametrize(
    "command, loads",
    [
        ("import", False),
        ("run", False),
        ("calibrate", False),
        ("sweep", False),
        ("timeline", True),
        ("run-monte-carlo", True),
        ("calibrate-monte-carlo", False),
        ("sweep-monte-carlo", False),
    ],
)
def test_only_the_commands_that_lay_out_a_timeline_load_the_scheduler(monte_carlo_profile, command, loads):
    args = {
        "import": [],
        "run": ["run", str(PROFILE)],
        "calibrate": ["calibrate", str(PROFILE), "--dry-run"],
        "sweep": ["sweep", str(PROFILE), "--axis", "direction=ul,dl", "--axis", "mode=legacy,proposed"],
        "timeline": ["timeline", str(PROFILE)],
        "run-monte-carlo": ["run", str(monte_carlo_profile)],
        "calibrate-monte-carlo": ["calibrate", str(monte_carlo_profile), "--dry-run"],
        "sweep-monte-carlo": ["sweep", str(monte_carlo_profile), "--axis", "direction=ul,dl", "--axis",
                              "mode=legacy,proposed"],
    }[command]
    before, after = probe(("ntn_harq.scheduler",), args)
    assert before == []
    assert after == (["ntn_harq.scheduler"] if loads else []), f"ntn-harq {command}"
