"""A cold ``ntn-harq`` process loads neither ``dataclasses`` nor ``inspect``.

Defining the package's records as dataclasses cost about 20 ms of every
cold start, and ``import dataclasses`` pulls in ``inspect``, ``ast``, ``dis``
and ``tokenize`` for another 10 ms.  One stray decorator would bring both
back, so each process below reports what it loaded.
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


@pytest.mark.parametrize(
    "args",
    [[], ["run", str(PROFILE)], ["calibrate", str(PROFILE), "--dry-run"]],
    ids=["import", "run", "calibrate"],
)
def test_a_cold_process_leaves_dataclasses_and_inspect_unloaded(args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(unwanted=UNWANTED), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    if before:
        pytest.skip(f"the interpreter loads {before} before the package is imported")
    assert after == [], f"ntn-harq {' '.join(args[:1]) or 'import'} loaded {after}"
