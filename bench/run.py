"""ntn-harq benchmark: one workload per run, measured end to end or traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # sweep, timeline and goodput

Each workload is one process driving the public ``ntn_harq`` API in a
closed loop with one client: the next op starts when the previous one
has returned.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same ops untraced and traced in turn and reports the per-layer
metrics from the spans.  Every op output is checked: against goldens
recorded with ``record_goldens.py``, and against invariants that hold
for any seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a
readable report with the provenance of the run; the same record, with
the span file of a traced run, goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "timeline", "goodput")


def run_all(args) -> int:
    """Every workload in its own process; one summary JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ntn_harq" / "__init__.py").is_file() or not (ROOT / "profiles").is_dir():
        print(f"no ntn_harq sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import measure

    return measure.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
