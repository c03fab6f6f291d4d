"""Record the goldens that the benchmark checks every output against.

    python3 bench/record_goldens.py

Runs every op of every workload once at the default seed, the probe ops
and each workload's CLI set, and writes the outcome kind and a digest of
each output to ``bench/goldens.json``.  Re-record only for a change that
is meant to alter outputs, and say so where the change is described.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from ntn_harq.bler import default_table  # noqa: E402

import workloads  # noqa: E402


def record_ops(ops) -> dict[str, str]:
    golden = {}
    for op in ops:
        kind, value, _ = workloads.run_op(op)
        golden[op.key] = workloads.signature(kind, op.observe(value) if kind == "ok" else {})
    return golden


def main() -> int:
    table = default_table()
    goldens = {
        name: record_ops(w.make_ops(ROOT, workloads.DEFAULT_SEED, table))
        for name, w in workloads.WORKLOADS.items()
    }
    goldens["probe"] = record_ops(workloads.calibrate_ops(ROOT, table))
    goldens["cli"] = {}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="goldens-", dir=ROOT / ".bench_out"))
    try:
        for name, w in workloads.WORKLOADS.items():
            for key, args in w.cli_set(ROOT, tmp):
                code, stdout, _ = workloads.run_cli(args, ROOT / "src", tmp)
                goldens["cli"][f"{name}.{key}"] = workloads.signature(f"exit{code}", {"out": stdout})
    finally:
        shutil.rmtree(tmp)
    (BENCH / "goldens.json").write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    for name, section in goldens.items():
        kinds: dict[str, int] = {}
        for sig in section.values():
            kinds[sig.split(" ")[0]] = kinds.get(sig.split(" ")[0], 0) + 1
        print(name, kinds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
