"""Timed passes, checks and metrics for one workload run.

Imported by ``run.py`` once the program's sources are on the path.
"""
from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import hostspeed
import tracing
import workloads
from ntn_harq.bler import default_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 20
PROBE_REPEATS = 3
CHILD_PROBE_SAMPLES = 5
MAX_TRACED_PASSES = 3  # bounds the spans kept in memory
# left out of the unchanged-tree check: caches and the benchmark's own output
UNTRACKED_DIRS = {".git", "__pycache__", ".bench_out", ".bench_build"}
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import ntn_harq.cli; t1 = time.perf_counter(); "
    "ntn_harq.bler.default_table(); print(t1 - t0, time.perf_counter() - t1)"
)


class Tally:
    """Outcome of every op and every check of one run."""

    def __init__(self, golden: dict[str, str], skip: frozenset[str] = frozenset()) -> None:
        self.golden = golden
        self.skip = skip  # outputs not compared at this seed
        self.attempted = 0
        self.failed = 0
        self.crashes: Counter[str] = Counter()
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def record(self, op: workloads.Op, kind: str, value) -> str:
        """Check one op outcome; returns ok, infeasible, config_error or failed."""
        self.attempted += 1
        outputs: dict[str, str] = {}
        problems: list[str] = []
        if kind == "ok":
            try:
                outputs = op.observe(value)
                problems = op.verify(value)
            except Exception as exc:  # a malformed output is a finding, not a stop
                problems = [f"check raised {exc!r}"]
        mismatch = workloads.compare(self.golden.get(op.key), workloads.signature(kind, outputs), self.skip)
        if mismatch:
            problems.append(mismatch)
        for text in problems:
            self.problem(f"{op.key}: {text}")
        if kind.startswith("crash:"):
            self.crashes[kind] += 1
        if problems or kind.startswith("crash:"):
            self.failed += 1
            return "failed"
        return kind


class SideJobs:
    """Cold processes spread evenly over the timed loop, one at a time
    between ops, so that their samples see the same machine conditions as
    the ops do.  Time spent in them is left out of the loop's clock.  The
    host speed is sampled on each side of every job."""

    def __init__(self, jobs: list, seconds: float, speed: hostspeed.HostSpeed) -> None:
        self.jobs = jobs
        self.speed = speed
        self.done = 0
        self.spacing = seconds / max(1, len(jobs))
        self.start = time.monotonic()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.start - self.paused

    def poll(self) -> None:
        if self.done < len(self.jobs) and self.elapsed() >= self.done * self.spacing:
            began = time.monotonic()
            self.run_next()
            self.paused += time.monotonic() - began

    def run_next(self) -> None:
        self.speed.sample()
        self.jobs[self.done]()
        self.speed.sample()
        self.done += 1

    def finish(self) -> None:
        while self.done < len(self.jobs):
            self.run_next()


def run_pass(ops, order, tally: Tally, recorder=None, side=None, speed=None) -> tuple[list[int], list[int], Counter]:
    """Run the ops in ``order`` once: per-op latency and start
    (perf_counter) in ns, outcome counts."""
    latencies = []
    starts = []
    outcomes: Counter[str] = Counter()
    for index in order:
        op = ops[index]
        if recorder is not None:
            recorder.begin_op(op.key)
        if speed is not None:
            speed.poll()
        starts.append(time.perf_counter_ns())
        kind, value, elapsed = workloads.run_op(op)
        latencies.append(elapsed)
        outcomes[tally.record(op, kind, value)] += 1
        if side is not None:
            side.poll()
    return latencies, starts, outcomes


def tail_quantile(n: int) -> float:
    """Highest of p99, p90, p50 with at least ten samples beyond it."""
    return 0.99 if n >= 1000 else 0.9 if n >= 100 else 0.5


def quantile(sorted_values: list[int], q: float) -> int:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def python_child(args: list[str]) -> tuple[str, float]:
    """Run a fresh interpreter with the program on its path: (stdout, wall s)."""
    _, stdout, seconds = workloads.run_python(args, SRC, check=True)
    return stdout, seconds


def at_nominal(samples: list[tuple[int, float]], speed: hostspeed.HostSpeed) -> list[float]:
    """(start ns, time) samples as times on the nominal host."""
    return [value * speed.scale(start) for start, value in samples]


@contextmanager
def cli_jobs(workload: workloads.Workload, goldens: dict[str, str], tally: Tally,
             times: list[tuple[int, float]]):
    """Jobs that each run one cold CLI process of the workload's set on temp
    copies and record its start and wall time; outputs are checked, and the
    inputs must still read as written when the jobs are done."""
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"cli-{workload.name}-", dir=OUT))
    try:
        commands = workload.cli_set(ROOT, tmp)
        inputs = {path: path.read_bytes() for path in tmp.iterdir()}

        def job(key: str, args: list[str]) -> None:
            start = time.perf_counter_ns()
            code, stdout, seconds = workloads.run_cli(args, SRC, tmp)
            times.append((start, seconds))
            golden_key = f"{workload.name}.{key}"
            mismatch = workloads.compare(goldens.get(golden_key), workloads.signature(f"exit{code}", {"out": stdout}))
            if mismatch:
                tally.problem(f"cli {golden_key}: {mismatch}")

        yield [partial(job, key, args) for _ in range(workload.cli_rounds) for key, args in commands]
        for path, data in inputs.items():
            if path.read_bytes() != data:
                tally.problem(f"cli rewrote its input {path.name}")
    finally:
        shutil.rmtree(tmp)


def end_to_end(workload, ops, args, tally: Tally, goldens) -> tuple[dict, dict, dict]:
    rng = random.Random(args.seed)
    speed = hostspeed.HostSpeed()
    setup: list[tuple[int, float]] = []
    cli: list[tuple[int, float]] = []

    def setup_job() -> None:
        start = time.perf_counter_ns()
        stdout = python_child([str(BENCH / "setup_child.py"), workload.name, str(args.seed)])[0]
        setup.append((start, float(stdout.split()[-1])))

    order = list(range(len(ops)))
    passes = []  # (order, latencies, starts) of each pass
    with cli_jobs(workload, goldens["cli"], tally, cli) as jobs:
        jobs += [setup_job] * SETUP_SAMPLES
        rng.shuffle(jobs)
        side = SideJobs(jobs, args.seconds, speed)
        while not passes or side.elapsed() < args.seconds:  # whole passes only
            rng.shuffle(order)
            lat, starts, _ = run_pass(ops, order, tally, side=side, speed=speed)
            passes.append((array("l", order), array("q", lat), array("q", starts)))
        side.finish()
        speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every time as taken on the nominal host (see hostspeed.py)
    latencies = array("d")  # compact, so that it barely moves peak RSS
    per_op = [array("d") for _ in ops]
    pass_rates = []
    for pass_order, lat, starts in passes:
        scaled = at_nominal(list(zip(starts, lat)), speed)
        latencies.extend(scaled)
        for index, elapsed in zip(pass_order, scaled):
            per_op[index].append(elapsed)
        pass_rates.append(len(scaled) * 1e9 / sum(scaled))
    latencies = sorted(latencies)
    q = tail_quantile(len(latencies))
    factors = [hostspeed.REFERENCE_NS / cost for cost in speed.costs]
    metrics = {
        "ops_per_s": statistics.median(pass_rates),
        # each op's median over the passes damps bursts of host contention,
        # which the pooled median amplifies where op latencies bunch up
        "op_p50_ms": statistics.median(statistics.median(a) for a in per_op) / 1e6,
        "op_tail_ms": quantile(latencies, q) / 1e6,
        "cli_p50_ms": statistics.median(at_nominal(cli, speed)) * 1e3,
        "setup_s": statistics.median(at_nominal(setup, speed)),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "ops_per_s": f"median of {len(pass_rates)} passes of {len(ops)} ops, over time inside the program's calls",
        "op_p50_ms": f"median over {len(ops)} ops of each op's median over {len(pass_rates)} passes",
        "op_tail_ms": f"p{q * 100:g}, n={len(latencies)}",
        "cli_p50_ms": f"n={len(cli)} cold processes",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "host_speed": f"{len(factors)} kernel samples; nominal-host factor min {min(factors):.3g}, "
                      f"median {statistics.median(factors):.3g}, max {max(factors):.3g}",
    }
    samples = {"pass_ops_per_s": pass_rates, "cli": cli, "setup": setup,
               "host_speed": list(zip(speed.starts, speed.costs))}
    return metrics, notes, samples


def probe_keys() -> set[str]:
    keys = {workloads.proposed_key(d, "stbg", n, rep) for d, n, rep in scaling_grid()}
    keys |= {workloads.legacy_key(d, n) for d in ("dl", "ul") for n in workloads.SCALING_N}
    keys |= {workloads.render_key("leo600_ltem_dl", 1024, "ue", fmt) for fmt in workloads.RENDER_FORMATS}
    return keys


def scaling_grid() -> list[tuple[str, int, int]]:
    return [
        (direction, n, rep)
        for direction in ("dl", "ul")
        for n in workloads.SCALING_N
        for rep in workloads.SCALING_REP
    ]


def per_layer(workload, ops, args, tally: Tally, goldens, table) -> tuple[dict, dict, dict]:
    rng = random.Random(args.seed)
    order = list(range(len(ops)))
    passes = tracing.Recorder("pass")
    outcomes: Counter[str] = Counter()
    ratios = []
    deadline = time.monotonic() + args.seconds
    while not ratios or (time.monotonic() < deadline and len(ratios) < MAX_TRACED_PASSES):
        rng.shuffle(order)
        plain, _, _ = run_pass(ops, order, tally)
        with tracing.installed(passes):
            traced, _, traced_outcomes = run_pass(ops, order, tally, passes)
        outcomes += traced_outcomes
        ratios.append(sum(traced) / sum(plain))
    n = len(ratios)

    # probes: the same on every workload
    probe_ops = [
        op for op in workloads.timeline_ops(ROOT, args.seed, table) if op.key in probe_keys()
    ] + workloads.calibrate_ops(ROOT, table)
    probe_tally = Tally({**goldens["timeline"], **goldens["probe"]})
    probes = tracing.Recorder("probe")
    with tracing.installed(probes):
        for op in probe_ops:
            for _ in range(PROBE_REPEATS):
                probes.begin_op(op.key)
                probe_tally.record(op, *workloads.run_op(op)[:2])
    tally.problems += probe_tally.problems
    imports = [python_child(["-c", IMPORT_PROBE])[0].split() for _ in range(CHILD_PROBE_SAMPLES)]
    interpreter = [python_child(["-c", "pass"])[1] for _ in range(CHILD_PROBE_SAMPLES)]

    spans = passes.by_name()
    probe_spans = probes.by_name()
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(OUT / f"spans-{workload.name}.csv.gz", [passes, probes])

    def busy_ms(name: str) -> float:
        return sum(d for _, d, _ in spans.get(name, ())) / n / 1e6

    def probe_ms(name: str, key: str) -> float:
        return statistics.median(d for k, d, _ in probe_spans[name] if k == key) / 1e6

    m: dict[str, float] = {}
    for name in ("config_from_mapping", "select_tbphc"):
        m[f"scenario.{name}.busy_ms"] = busy_ms(f"scenario.{name}")
    m["scenario.run_scenario.self_ms"] = sum(s for _, _, s in spans.get("scenario.run_scenario", ())) / n / 1e6
    for profile in workloads.PROFILES:
        m[f"scenario.calibrate.{profile}_ms"] = probe_ms("scenario.calibrate", f"calibrate.{profile}")
    for outcome in ("ok", "infeasible", "config_error", "failed"):
        m[f"scenario.outcome.{outcome}"] = outcomes[outcome] / n
    for name in (
        "geometry.round_trip_time",
        "linkbudget.snr_db",
        "bler.select_repetitions",
        "harq.harq_for_tbphc",
        "harq.delay_plan",
        "metrics.cycle_length_closed_form",
        "metrics.suf_closed_form",
        "scheduler.build_proposed_cycle",
    ):
        m[f"{name}.busy_ms"] = busy_ms(name)
    m["bler.default_table_ms"] = statistics.median(float(t) for _, t in imports) * 1e3
    for fn in ("build_proposed_cycle", "validate", "bs_view", "export_timeline"):
        for direction, n_tbphc, rep in scaling_grid():
            m[f"scheduler.{fn}.{direction}.n{n_tbphc}.rep{rep}_ms"] = probe_ms(
                f"scheduler.{fn}", workloads.proposed_key(direction, "stbg", n_tbphc, rep)
            )
    for direction in ("dl", "ul"):
        for n_tbphc in workloads.SCALING_N:
            m[f"scheduler.build_legacy_cycle.{direction}.n{n_tbphc}_ms"] = probe_ms(
                "scheduler.build_legacy_cycle", workloads.legacy_key(direction, n_tbphc)
            )
    for name in ("scheduler.slots", "scheduler.build_legacy_cycle.conflicts", "scheduler.validate.findings"):
        m[name] = passes.counts[name] / n
    mc = "scheduler.monte_carlo_goodput"
    attempts = passes.counts[f"{mc}.tb_attempts"]
    m[f"{mc}.busy_ms"] = busy_ms(mc)
    m[f"{mc}.tb_attempts_per_s"] = attempts / n / (m[f"{mc}.busy_ms"] / 1e3) if attempts else 0.0
    m[f"{mc}.retransmission_rate"] = passes.counts[f"{mc}.retransmissions"] / attempts if attempts else 0.0
    m["cli.render_timeline_text_ms"] = probe_ms(
        "cli.render_timeline_text", workloads.proposed_key("dl", "stbg", 512, 24)
    )
    for fmt in workloads.RENDER_FORMATS:
        m[f"cli.render_timeline.{fmt}_ms"] = probe_ms(
            "cli.render_timeline", workloads.render_key("leo600_ltem_dl", 1024, "ue", fmt)
        )
    m["cli.import_ms"] = statistics.median(float(t) for t, _ in imports) * 1e3
    m["cli.interpreter_ms"] = statistics.median(interpreter) * 1e3
    m["trace.overhead_ratio"] = statistics.median(ratios)
    notes = {
        "busy": f"per pass of {len(ops)} ops, mean of {n} traced passes",
        "trace.overhead_ratio": "traced / untraced op time over the same ops in the same order",
        "probes": f"scaling grid, calibrate and render: median of {PROBE_REPEATS} calls",
    }
    return m, notes, {"overhead_ratios": ratios}


def tree_snapshot() -> dict[str, tuple[int, int]]:
    snapshot = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in UNTRACKED_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            snapshot[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return snapshot


def provenance(args) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": os.getloadavg(),
    }


def run_workload(args) -> int:
    start_tree = tree_snapshot()
    prov = provenance(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    goldens = json.loads((BENCH / "goldens.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    table = default_table()
    ops = workload.make_ops(ROOT, args.seed, table)
    skip = frozenset() if args.seed == workloads.DEFAULT_SEED else workload.seeded_outputs
    tally = Tally(goldens[workload.name], skip)
    measure = per_layer(workload, ops, args, tally, goldens, table) if args.trace else \
        end_to_end(workload, ops, args, tally, goldens)
    metrics, notes, samples = measure
    for path, _ in sorted(set(start_tree.items()) ^ set(tree_snapshot().items())):
        tally.problem(f"the run changed {path}")
    if set(units) != set(metrics):
        tally.problem(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")

    error_rate = tally.failed / tally.attempted
    crashes = ", ".join(f"{k} x{v}" for k, v in sorted(tally.crashes.items())) or "none"
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# provenance {json.dumps(prov)}")
    for name, value in metrics.items():
        print(f"{name:<52} {value:>14.6g} {units.get(name, '?'):<6} {notes.get(name, '')}")
    print(f"{'error_rate':<52} {error_rate:>14.6g} {'ratio':<6} "
          f"{tally.failed} failed of {tally.attempted} attempted; crashes: {crashes}")
    for name, text in notes.items():
        if name not in metrics:
            print(f"# {name}: {text}")
    for text in tally.problems[:20]:
        print(f"! {text}")
    if len(tally.problems) > 20:
        print(f"! ... {len(tally.problems) - 20} more problems")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {**result, "provenance": prov, "why": workload.why, "error_rate": error_rate,
              "crashes": dict(tally.crashes), "notes": notes, "samples": samples,
              "problems": tally.problems}
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0
