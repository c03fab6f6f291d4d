"""Benchmark workloads over the public ``ntn_harq`` API.

A workload turns a seed into a list of operations (``Op``), says how to
check each operation's output, and names the cold CLI processes that go
with it.  The seed sets the op order and the Monte Carlo seeds; the
program only ever sees the generated inputs.

Timed code calls the program through module attributes
(``scenario.run_scenario``) so that the traced run's wrappers see those
calls.  Checking code uses names imported directly, which the wrappers
leave alone, so checks never show up in the per-layer numbers.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from ntn_harq import cli, scenario, scheduler
from ntn_harq.bler import BlerTable
from ntn_harq.errors import ConfigError, InfeasibleLinkError
from ntn_harq.harq import CycleParams, Direction, GrantMode
from ntn_harq.metrics import SchedulingMode, cycle_length_closed_form
from ntn_harq.scenario import config_from_mapping, parse_config_text, results_to_csv
from ntn_harq.scheduler import ConflictReport

DEFAULT_SEED = 1
PROFILES = (
    "leo600_ltem_ul",
    "leo600_ltem_dl",
    "leo600_nbiot_ul",
    "leo1200_ltem_ul",
    "leo1200_nbiot_ul",
)
TB_SECONDS = 0.001  # one TB slot is one 1 ms subframe
BS_VIEW_RTT_MS = 20.0  # about the LEO600 transparent round trip


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``run`` makes the program calls that are timed.  ``observe`` returns
    the output texts that must match the goldens; ``verify`` returns
    problems found by invariants that hold for any seed.
    """

    key: str
    run: Callable[[], object]
    observe: Callable[[object], dict[str, str]]
    verify: Callable[[object], list[str]] = lambda value: []


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_ops: Callable[[Path, int, BlerTable], list[Op]]
    # (key, ntn-harq CLI arguments) for cold processes, given a temp dir
    cli_set: Callable[[Path, Path], list[tuple[str, list[str]]]]
    cli_rounds: int
    # outputs that depend on the Monte Carlo seed, so match goldens only
    # at DEFAULT_SEED
    seeded_outputs: frozenset[str] = frozenset()


def profile_raw(root: Path, name: str) -> dict[str, str]:
    return parse_config_text((root / "profiles" / f"{name}.cfg").read_text())


def config_text(raw: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in raw.items())


def _csv_row(result) -> str:
    return results_to_csv([result]).splitlines()[1]


# ---------------------------------------------------------------------------
# sweep: many small scenarios through the per-scenario chain

SWEEP_WHY = (
    "many small scenarios: config parsing, geometry, link budget, BLER, HARQ sizing, "
    "metrics and the small-n cycle check do the work; validate and Monte Carlo do none"
)
SWEEP_BASE = "leo600_ltem_ul"
# calibrate's own search axes close the list
SWEEP_AXES = (
    [{"geometry.altitude_km": str(a)} for a in (600, 800, 1000, 1200, 1500, 2000, 3000)],
    [{"geometry.service_elevation_deg": str(e)} for e in (20, 30, 45, 90)],
    [{"protocol": "lte-m"}, {"protocol": "nb-iot", "protocol.extended_harq": "true"}],
    [{"direction": d, "mode": m} for d in ("ul", "dl") for m in ("legacy", "proposed")],
    [{"tbs_bits": str(t)} for t in (144, 504)],
    [{"cycle.grant_mode": g} for g in ("stbg", "mtbg")],
    [{"cycle.rep_pdcch": str(p), "cycle.n_a2g": str(a)} for p in (1, 4, 8) for a in (0, 2, 4)],
)


def _sweep_point(raw: dict[str, str], table: BlerTable):
    return scenario.run_scenario(scenario.config_from_mapping(raw), table)


def _observe_row(result) -> dict[str, str]:
    return {"row": _csv_row(result)}


def sweep_ops(root: Path, seed: int, table: BlerTable) -> list[Op]:
    base = profile_raw(root, SWEEP_BASE)
    ops = []
    for index, combo in enumerate(itertools.product(*SWEEP_AXES)):
        raw = dict(base)
        for update in combo:
            raw.update(update)
        ops.append(Op(str(index), partial(_sweep_point, raw, table), _observe_row))
    return ops


def sweep_cli_set(root: Path, tmp: Path) -> list[tuple[str, list[str]]]:
    commands = []
    for name in PROFILES:
        path = tmp / f"{name}.cfg"
        path.write_bytes((root / "profiles" / f"{name}.cfg").read_bytes())
        commands.append((f"run.{name}", ["run", str(path)]))
        commands.append((f"calibrate.{name}", ["calibrate", str(path), "--dry-run"]))
    return commands


# ---------------------------------------------------------------------------
# timeline: a few huge cycles through the scheduler layout path

TIMELINE_WHY = (
    "few huge cycles: build, validate (superlinear in n_tbphc), BS view, export and "
    "text render over n_tbphc 8..512 x repetitions 1, 24; idle on the sweep chain"
)
SCALING_N = (8, 64, 512)
SCALING_REP = (1, 24)
LEGACY_REP = 24
DL_VARIANTS = {
    "stbg": {},
    "mtbg": {"grant_mode": GrantMode.MTBG},
    "bundle4": {"ack_bundling": True, "n_bundle": 4},
}
# (profile, cycle.max_harq, perspective) rendered in each format
RENDER_CASES = (
    ("leo600_ltem_ul", 64, "ue"),
    ("leo600_ltem_ul", 1024, "ue"),
    ("leo600_ltem_dl", 64, "ue"),
    ("leo600_ltem_dl", 1024, "ue"),
    ("leo600_ltem_dl", 1024, "bs"),
)
RENDER_FORMATS = ("text", "svg", "csv")


def proposed_key(direction: str, variant: str, n: int, rep: int) -> str:
    return f"proposed.{direction}.{variant}.n{n}.rep{rep}"


def legacy_key(direction: str, n: int) -> str:
    return f"legacy.{direction}.n{n}"


def render_key(profile: str, max_harq: int, view: str, fmt: str) -> str:
    return f"render.{profile}.h{max_harq}.{view}.{fmt}"


def _proposed_cycle(params: CycleParams, direction: Direction):
    timeline = scheduler.build_proposed_cycle(params, direction)
    report = scheduler.validate(timeline, params)
    bs = scheduler.bs_view(timeline, BS_VIEW_RTT_MS)
    return timeline, report, scheduler.export_timeline(bs), cli.render_timeline_text(timeline)


def _verify_proposed(params: CycleParams, direction: Direction, value) -> list[str]:
    timeline, report, _, _ = value
    problems = []
    expected = cycle_length_closed_form(params, direction, SchedulingMode.PROPOSED_VARIABLE)
    if len(timeline) != expected:
        problems.append(f"built length {len(timeline)} != closed form {expected}")
    if report.conflicts:
        problems.append(f"validate reported {len(report.conflicts)} findings, first {report.conflicts[0]}")
    return problems


def _observe_cycle(value) -> dict[str, str]:
    return {"export": value[-2], "text": value[-1]}


def _legacy_cycle(params: CycleParams, direction: Direction):
    built = scheduler.build_legacy_cycle(params, direction)
    report = built if isinstance(built, ConflictReport) else None
    timeline = built.attempt if report else built
    bs = scheduler.bs_view(timeline, BS_VIEW_RTT_MS)
    return scheduler.export_timeline(bs), cli.render_timeline_text(timeline, report)


def _render(config, view: str, fmt: str, table: BlerTable):
    return cli.render_timeline(config, view, fmt, table)


def _observe_render(value) -> dict[str, str]:
    text, status = value
    return {"out": text, "status": str(status)}


def timeline_ops(root: Path, seed: int, table: BlerTable) -> list[Op]:
    """45 ops: a tenth of them ends mid-op, so that p90 over whole passes
    falls inside one op's copies, not between two ops."""
    ops = []
    for direction in Direction:
        variants = DL_VARIANTS if direction is Direction.DL else {"stbg": {}}
        for (variant, extra), n, rep in itertools.product(variants.items(), SCALING_N, SCALING_REP):
            params = CycleParams(n_tbphc=n, rep_pdsch=rep, rep_pusch=rep, **extra)
            ops.append(Op(
                proposed_key(direction.value, variant, n, rep),
                partial(_proposed_cycle, params, direction),
                _observe_cycle,
                partial(_verify_proposed, params, direction),
            ))
        for n in SCALING_N:
            params = CycleParams(n_tbphc=n, rep_pdsch=LEGACY_REP, rep_pusch=LEGACY_REP)
            ops.append(Op(legacy_key(direction.value, n), partial(_legacy_cycle, params, direction), _observe_cycle))
    # auto n_tbphc under a raised HARQ budget runs select_tbphc's scan and
    # harq_for_tbphc at large n (1024 reaches the 512 cap)
    for profile, max_harq, view in RENDER_CASES:
        raw = profile_raw(root, profile)
        raw.update({"cycle.n_tbphc": "auto", "cycle.max_harq": str(max_harq)})
        config = config_from_mapping(raw)
        for fmt in RENDER_FORMATS:
            ops.append(Op(render_key(profile, max_harq, view, fmt), partial(_render, config, view, fmt, table),
                          _observe_render))
    return ops


def timeline_cli_set(root: Path, tmp: Path) -> list[tuple[str, list[str]]]:
    raw = profile_raw(root, "leo600_ltem_dl")
    raw.update({"cycle.n_tbphc": "auto", "cycle.max_harq": "1024"})
    path = tmp / "large_dl.cfg"
    path.write_text(config_text(raw))
    return [
        (f"timeline.{fmt}.{view}", ["timeline", str(path), "--format", fmt, "--perspective", view])
        for fmt in RENDER_FORMATS
        for view in ("ue", "bs")
    ]


# ---------------------------------------------------------------------------
# goodput: the run_scenario entry with the time in the Monte Carlo loop

GOODPUT_WHY = (
    "run_scenario with Monte Carlo on: time goes to the FIFO retry loop, so closed-form "
    "speed-ups show no gain here and Monte Carlo speed-ups none on sweep"
)
BLER_VECTORS = {"light": (0.1, 0.01), "heavy": (0.6, 0.4, 0.2), "flat": (0.3,)}
# n_tbphc setting -> (extra keys, Monte Carlo cycles); 64 TBs need a
# raised HARQ budget
GOODPUT_TBPHC = {
    "auto": ({"cycle.n_tbphc": "auto"}, 20000),
    "n64": ({"cycle.n_tbphc": "64", "cycle.max_harq": "128"}, 2000),
}
# five cases per profile make 25 ops: a tenth of them ends mid-op, so
# that p90 over whole passes falls inside one op's copies
GOODPUT_CASES = (("light", "auto"), ("light", "n64"), ("heavy", "auto"), ("heavy", "n64"), ("flat", "auto"))


def attempt_moments(bler_per_attempt: tuple[float, ...]) -> tuple[float, float]:
    """Mean and variance of the attempts one TB needs when attempt k fails
    with ``bler_per_attempt[k]`` (the last entry repeating):
    ``E[A] = sum_k prod_{i<k} p_i``."""
    mean = second = 0.0
    survive = 1.0  # P(A > k)
    k = 0
    while survive > 1e-15:
        mean += survive
        second += (2 * k + 1) * survive
        survive *= bler_per_attempt[min(k, len(bler_per_attempt) - 1)]
        k += 1
    return mean, second - mean * mean


def _verify_goodput(bler: tuple[float, ...], n_cycles: int, result) -> list[str]:
    if result.goodput is None:
        return ["no Monte Carlo result"]
    # goodput = successes / (cycles * cycle length) * tbs / t, and
    # suf = n_tbphc / cycle length, so this is successes per TB slot
    success = result.goodput.goodput_bps * TB_SECONDS / result.tbs_bits / result.suf
    mean, var = attempt_moments(bler)
    slots = n_cycles * result.n_tbphc
    # five renewal-theory standard deviations, plus the attempts that TBs
    # still queued at the end have used
    tolerance = 5.0 * math.sqrt(var / (mean ** 3 * slots)) + 3.0 * result.n_tbphc * mean / slots
    if abs(success - 1.0 / mean) > tolerance:
        return [f"success per TB slot {success:.6f} vs oracle {1.0 / mean:.6f} (tolerance {tolerance:.6f})"]
    return []


def _observe_goodput(result) -> dict[str, str]:
    g = result.goodput
    return {
        "row": _csv_row(result),
        "mc": f"goodput_bps={g.goodput_bps:.6g} retransmission_rate={g.retransmission_rate:.6g}",
    }


def goodput_ops(root: Path, seed: int, table: BlerTable) -> list[Op]:
    mc_seeds = random.Random(f"goodput-mc-{seed}")
    ops = []
    for profile, (vector, setting) in itertools.product(PROFILES, GOODPUT_CASES):
        bler = BLER_VECTORS[vector]
        extra, n_cycles = GOODPUT_TBPHC[setting]
        raw = profile_raw(root, profile)
        raw.update(extra)
        raw.update({
            "mode": "proposed",
            "monte_carlo.n_cycles": str(n_cycles),
            "monte_carlo.seed": str(mc_seeds.randrange(2 ** 31)),
            "monte_carlo.bler_per_attempt": ",".join(map(str, bler)),
        })
        config = config_from_mapping(raw)
        ops.append(Op(
            f"{profile}.{vector}.{setting}",
            partial(_goodput_run, config, table),
            _observe_goodput,
            partial(_verify_goodput, bler, n_cycles),
        ))
    return ops


def _goodput_run(config, table: BlerTable):
    return scenario.run_scenario(config, table)


def goodput_cli_set(root: Path, tmp: Path) -> list[tuple[str, list[str]]]:
    commands = []
    for vector, setting in GOODPUT_CASES:
        bler = BLER_VECTORS[vector]
        extra, n_cycles = GOODPUT_TBPHC[setting]
        raw = profile_raw(root, "leo600_ltem_ul")
        raw.update(extra)
        raw.update({
            "monte_carlo.n_cycles": str(n_cycles // 5),
            "monte_carlo.seed": "1",
            "monte_carlo.bler_per_attempt": ",".join(map(str, bler)),
        })
        path = tmp / f"mc_{vector}_{setting}.cfg"
        path.write_text(config_text(raw))
        commands.append((f"run.{vector}.{setting}", ["run", str(path)]))
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP_WHY, sweep_ops, sweep_cli_set, cli_rounds=4),
        Workload("timeline", TIMELINE_WHY, timeline_ops, timeline_cli_set, cli_rounds=5),
        Workload("goodput", GOODPUT_WHY, goodput_ops, goodput_cli_set, cli_rounds=6,
                 seeded_outputs=frozenset({"mc"})),
    )
}


# ---------------------------------------------------------------------------
# probe ops: measured in every traced run, whatever the workload


def calibrate_ops(root: Path, table: BlerTable) -> list[Op]:
    """In-memory ``calibrate`` of each shipped profile."""
    return [
        Op(f"calibrate.{name}", partial(_calibrate, config_from_mapping(profile_raw(root, name)), table),
           _observe_calibration)
        for name in PROFILES
    ]


def _calibrate(config, table: BlerTable):
    return scenario.calibrate(config, table)


def _observe_calibration(result) -> dict[str, str]:
    return {"out": f"rep_pdcch={result.rep_pdcch} n_a2g={result.n_a2g} gain_pct={result.gain_pct:.6g} "
                   f"degraded={result.degraded}"}


# ---------------------------------------------------------------------------
# running and checking


def run_op(op: Op) -> tuple[str, object, int]:
    """Run one op: (outcome kind, value, elapsed ns).

    The documented errors are outcomes; anything else the program raises
    is a crash, named by its exception type.
    """
    value = None
    start = time.perf_counter_ns()
    try:
        value = op.run()
        kind = "ok"
    except InfeasibleLinkError:
        kind = "infeasible"
    except ConfigError:
        kind = "config_error"
    except Exception as exc:  # the op loop must go on; the crash is counted
        kind = f"crash:{type(exc).__name__}"
    return kind, value, time.perf_counter_ns() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def signature(kind: str, outputs: dict[str, str]) -> str:
    """Golden form of one outcome: its kind, then a digest per output."""
    return " ".join([kind, *(f"{name}={digest(text)}" for name, text in sorted(outputs.items()))])


def _fields(sig: str, skip: frozenset[str]) -> list[str]:
    kind, *outputs = sig.split(" ")
    return [kind, *(o for o in outputs if o.split("=", 1)[0] not in skip)]


def compare(expected: str | None, actual: str, skip: frozenset[str] = frozenset()) -> str | None:
    """Mismatch description, or None when ``actual`` matches the golden
    (ignoring the outputs named in ``skip``)."""
    if expected is None:
        return "no golden recorded"
    if expected != actual and _fields(expected, skip) != _fields(actual, skip):
        return f"expected {expected!r}, got {actual!r}"
    return None


def run_python(args: list[str], src: Path, cwd: Path | None = None, check: bool = False) -> tuple[int, str, float]:
    """One fresh interpreter with the program on its path: (exit code,
    stdout, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120, check=check)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def run_cli(args: list[str], src: Path, cwd: Path) -> tuple[int, str, float]:
    """One cold ``python -m ntn_harq.cli`` process."""
    return run_python(["-m", "ntn_harq.cli", *args], src, cwd)
