"""Command-line front end.

Subcommands:
  run        one scenario -> CSV row (plus Monte Carlo goodput if enabled)
  sweep      Cartesian parameter sweep -> CSV dataset
  timeline   one cycle as a channel-by-subframe grid (text/SVG) or as the
             per-SF export format (csv)
  calibrate  fit the unpublished grant/processing parameters to the
             protocol's reference throughput gain and store them

Exit status: 0 success, 2 infeasible link or an uplink schedule that
misses a minimum delay (for sweep: at one point or more, the others still
emitted; a point whose settings fail a check that depends on the point,
such as its HARQ budget or a TB size with no BLER curve, counts too), 3
configuration error or a command-line usage error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .bler import BlerTable, default_table, load_bler_table
from .errors import (
    ConfigError,
    InfeasibleLinkError,
    InvalidInputError,
    MinDelayViolationError,
)
from .harq import Activity
from .metrics import SchedulingMode
from .scenario import (
    MAX_AUTO_TBPHC,
    ScenarioConfig,
    _values,
    auto_tbphc_capped,
    calibrate,
    config_from_mapping,
    read_config,
    resolve,
    results_to_csv,
    run_scenario,
    sweep,
    update_config_file,
)

if TYPE_CHECKING:
    from .scheduler import ConflictReport, SubframeTimeline

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3

_PERSPECTIVES = ("ue", "bs")
_FORMATS = ("text", "svg", "csv")
_CHANNEL_ROWS = (
    ("PDCCH", Activity.RX_PDCCH, "#4c78a8"),
    ("PDSCH", Activity.RX_PDSCH, "#72b7b2"),
    ("PUCCH", Activity.TX_PUCCH, "#f58518"),
    ("PUSCH", Activity.TX_PUSCH, "#e45756"),
    ("switch", Activity.SWITCH, "#b0b0b0"),
)
_LEGACY = SchedulingMode.LEGACY_FIXED  # a global: see harq._DL
# the keys of the max_harq note, whose texts the schema's parsers read
_OVERRIDE_KEYS = ("cycle.max_harq", "protocol.extended_harq")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_table(path: str | None):
    return load_bler_table(path) if path else default_table()


def _load(args: argparse.Namespace) -> tuple[ScenarioConfig, BlerTable]:
    raw = read_config(args.config)
    config = config_from_mapping(raw)
    max_harq, extended = _values(_OVERRIDE_KEYS, tuple(map(raw.get, _OVERRIDE_KEYS))).values()
    if max_harq is not None and extended:  # decided from the texts, before any point runs
        print(f"note: cycle.max_harq = {raw['cycle.max_harq']} overrides protocol.extended_harq = true",
              file=sys.stderr)
    return config, _load_table(args.bler_table)


def _note_capped_or_ignored(config: ScenarioConfig, table) -> None:
    if auto_tbphc_capped(config, resolve(config, table)):
        print(f"note: auto cycle.n_tbphc stops at its cap of {MAX_AUTO_TBPHC} TBs per cycle, "
              f"although the HARQ budget of {config.max_harq} processes admits more",
              file=sys.stderr)
    if config.cycle.n_bundle != 1 and not config.cycle.ack_bundling:
        print(f"note: cycle.n_bundle = {config.cycle.n_bundle} is ignored without cycle.ack_bundling = true",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# timeline rendering


def render_timeline_text(timeline: SubframeTimeline, conflicts: ConflictReport | None = None) -> str:
    """One row per channel, one column per subframe; cells show the TB
    index (or ``#`` for untagged activity), the later of two uses of one
    channel in a subframe.  One pass over the segments writes every row.

    The header is ``"%3d"`` of every SF index.  It pads only -99..99, and
    below -99 it writes what ``repr`` does, so the indices up to 99 are
    formatted in one go; the run of indices from 100 on is written by
    ``scheduler.index_run``, unpadded, from its digit tables."""
    from .scheduler import index_run  # see render_timeline
    width = 3
    blank = " " * width
    n = len(timeline)
    origin, end = timeline.origin, timeline.origin + n
    wide = min(max(origin, 100), end)  # the first index "%3d" does not pad
    header = "sf".ljust(8) + (f"%{width}d" * (wide - origin)) % tuple(range(origin, wide)) + index_run(wide, end, "")
    cells = {activity: [] for activity in Activity}  # the idle row is never shown
    written = dict.fromkeys(Activity, 0)  # columns of each row written so far
    for first, stop, uses in timeline.segments:
        for activity, tb in uses:
            row = cells[activity]
            done = written[activity]
            if done > first:  # a use earlier in this run: the later one shows
                row.pop()
            elif done < first:
                row.append(blank * (first - done))
            row.append(("#" if tb is None else str(tb)).rjust(width) * (stop - first))
            written[activity] = stop
    lines = [header, *(label.ljust(8) + "".join(cells[activity]) + blank * (n - written[activity])
                       for label, activity, _ in _CHANNEL_ROWS)]
    if conflicts:
        for c in conflicts.conflicts:
            tbs = ",".join("-" if t is None else str(t) for t in c.tb_indices)
            lines.append(f"! {c.kind} at SF {c.sf_index}: {' / '.join(c.activities)} (tb {tbs})")
    return "\n".join(lines) + "\n"


def render_timeline_svg(timeline: SubframeTimeline, conflicts: ConflictReport | None = None) -> str:
    """One row per channel, one column per subframe.  A run of subframes
    with at most one use writes each subframe (its index, rect and TB
    label) as one string; runs where uses overlap write cell by cell."""
    cell_w, cell_h, left, top = 18, 22, 70, 24
    width = left + len(timeline) * cell_w + 10
    height = top + len(_CHANNEL_ROWS) * cell_h + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">'
    ]
    rows = {}  # activity -> its row's rect and the head of a TB label, each after the x attribute
    for row, (label, activity, fill) in enumerate(_CHANNEL_ROWS):
        y = top + row * cell_h
        parts.append(f'<text x="4" y="{y + 14}">{label}</text>')
        rows[activity] = (f'" y="{y}" width="{cell_w - 1}" height="{cell_h - 1}" fill="{fill}"/>',
                          f'" y="{y + 14}" fill="white">')
    label = f'" y="{top - 8}">'
    origin = timeline.origin
    for first, stop, uses in timeline.segments:
        columns = zip(range(left + first * cell_w, left + stop * cell_w, cell_w), range(origin + first, origin + stop))
        if len(uses) > 1:
            drawn = [(rows[channel], tb) for channel in rows for activity, tb in uses if activity is channel]
            for x, sf in columns:
                parts.append(f'<text x="{x + 3}{label}{sf}</text>')
                for (rect, text), tb in drawn:
                    parts.append(f'<rect x="{x}{rect}')
                    if tb is not None:
                        parts.append(f'<text x="{x + 5}{text}{tb}</text>')
            continue
        activity, tb = uses[0] if uses else (None, None)
        if activity not in rows:  # idle: the index alone
            parts += [f'<text x="{x + 3}{label}{sf}</text>' for x, sf in columns]
            continue
        rect, text = rows[activity]
        if tb is None:
            parts += [f'<text x="{x + 3}{label}{sf}</text><rect x="{x}{rect}' for x, sf in columns]
        else:
            text = f'{text}{tb}</text>'
            parts += [f'<text x="{x + 3}{label}{sf}</text><rect x="{x}{rect}<text x="{x + 5}{text}'
                      for x, sf in columns]
    if conflicts:
        y = top + len(_CHANNEL_ROWS) * cell_h + 16
        for c in conflicts.conflicts:
            parts.append(
                f'<text x="4" y="{y}" fill="#c00">{c.kind} at SF {c.sf_index}: '
                f'{" / ".join(c.activities)}</text>'
            )
            y += 14
    parts.append("</svg>")
    return "".join(parts) + "\n"


def render_timeline(config: ScenarioConfig, perspective: str, fmt: str, table: BlerTable) -> tuple[str, int]:
    """Build the configured cycle and render it; legacy conflicts render
    the attempted layout with annotations.  Raises InvalidInputError for a
    perspective other than ue or bs, or a format other than text, svg or
    csv."""
    if perspective not in _PERSPECTIVES:
        raise InvalidInputError(f"unknown timeline perspective {perspective!r}; expected ue or bs")
    if fmt not in _FORMATS:
        raise InvalidInputError(f"unknown timeline format {fmt!r}; expected text, svg or csv")
    # here, so the commands that lay out no timeline never load the scheduler
    from .scheduler import ConflictReport, bs_view, build_legacy_cycle, build_proposed_cycle, export_timeline
    resolved = resolve(config, table)
    conflicts = None
    if config.mode is _LEGACY:
        timeline = build_legacy_cycle(resolved.params, config.direction)
        if isinstance(timeline, ConflictReport):
            conflicts, timeline = timeline, timeline.attempt
    else:
        timeline = build_proposed_cycle(resolved.params, config.direction)
    if perspective == "bs":
        timeline = bs_view(timeline, resolved.rtt_ms)
    if fmt == "svg":
        return render_timeline_svg(timeline, conflicts), EXIT_OK
    if fmt == "csv":
        return export_timeline(timeline), EXIT_OK
    return render_timeline_text(timeline, conflicts), EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    config, table = _load(args)
    result = run_scenario(config, table)
    _note_capped_or_ignored(config, table)
    if result.goodput is None and config.monte_carlo.n_cycles > 0:
        print("note: legacy mode ignores monte_carlo.* (Monte Carlo goodput needs mode = proposed)",
              file=sys.stderr)
    text = results_to_csv([result])
    if result.goodput is not None:
        text += (
            f"# monte_carlo goodput_bps={result.goodput.goodput_bps:.6g} "
            f"retransmission_rate={result.goodput.retransmission_rate:.6g}\n"
        )
    _emit(text, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    raw = read_config(args.config)
    axes = []
    for spec in args.axis or []:
        if "=" not in spec:
            raise ConfigError(f"--axis expects key=v1,v2,..., got {spec!r}")
        key, values = spec.split("=", 1)
        axes.append((key.strip(), [v.strip() for v in values.split(",") if v.strip()]))
    table = _load_table(args.bler_table)
    results, infeasible = sweep(raw, axes, table)
    # texts that sweep has parsed; like sweep, dict() gives a key on two axes the later axis's values
    n_cycles = dict(axes).get("monte_carlo.n_cycles", [raw.get("monte_carlo.n_cycles")])
    if any(_values(("monte_carlo.n_cycles",), (text,))["n_cycles"] > 0 for text in n_cycles):
        print("note: sweep writes no Monte Carlo goodput (run one point for it)", file=sys.stderr)
    text = results_to_csv(results) + "".join(f"# infeasible {label}: {reason}\n" for label, reason in infeasible)
    _emit(text, args.out)
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _cmd_timeline(args: argparse.Namespace) -> int:
    config, table = _load(args)
    text, status = render_timeline(config, args.perspective, args.format, table)
    _note_capped_or_ignored(config, table)
    _emit(text, args.out)
    return status


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config, table = _load(args)
    result = calibrate(config, table)
    if result.skipped:
        label, reason = result.skipped[0]
        print(f"note: calibrate skipped {len(result.skipped)} candidates that fail; the first, {label}: {reason}",
              file=sys.stderr)
    lines = [
        f"rep_pdcch={result.rep_pdcch} n_a2g={result.n_a2g}",
        f"gain_pct={result.gain_pct:.6g} target={result.target_gain_pct:.6g}",
    ]
    if result.degraded:
        lines.append(
            "DEGRADED: no candidate landed within tolerance; closest achieved gain reported"
        )
    print("\n".join(lines))
    if not args.dry_run:
        update_config_file(
            args.config,
            {
                "cycle.rep_pdcch": str(result.rep_pdcch),
                "cycle.n_a2g": str(result.n_a2g),
            },
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntn-harq",
        description="HARQ scheduling and throughput analysis for IoT links over LEO satellites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("config")
    inputs.add_argument("--bler-table")
    outputs = argparse.ArgumentParser(add_help=False, parents=[inputs])
    outputs.add_argument("--out")

    run_p = sub.add_parser("run", parents=[outputs], help="run one scenario and emit a CSV row")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[outputs], help="run a parameter sweep and emit CSV")
    sweep_p.add_argument("--axis", action="append", metavar="KEY=V1,V2,...")
    sweep_p.set_defaults(func=_cmd_sweep)

    tl_p = sub.add_parser("timeline", parents=[outputs], help="render one cycle as text or SVG")
    tl_p.add_argument("--perspective", choices=_PERSPECTIVES, default="ue")
    tl_p.add_argument("--format", choices=_FORMATS, default="text")
    tl_p.set_defaults(func=_cmd_timeline)

    cal_p = sub.add_parser(
        "calibrate",
        parents=[inputs],
        help="fit rep_pdcch and n_a2g to the protocol's reference gain and store them",
    )
    cal_p.add_argument("--dry-run", action="store_true", help="print the pair without rewriting the config")
    cal_p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, this tool's infeasible status, on a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (InfeasibleLinkError, MinDelayViolationError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, InvalidInputError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
