"""Command-line front end.

Subcommands:
  run        one scenario -> CSV row (plus Monte Carlo goodput if enabled)
  sweep      Cartesian parameter sweep -> CSV dataset
  timeline   one cycle as a channel-by-subframe grid (text/SVG) or as the
             per-SF export format (csv)
  calibrate  fit the unpublished grant/processing parameters to the
             protocol's reference throughput gain and store them

Exit status: 0 success, 2 infeasible link or a schedule that misses a
minimum delay (for sweep: at one point or more, the others still
emitted), 3 configuration error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bler import default_table, load_bler_table
from .errors import (
    ConfigError,
    CurveNotFoundError,
    InfeasibleLinkError,
    InvalidInputError,
    MinDelayViolationError,
)
from .metrics import SchedulingMode
from .scenario import (
    ScenarioConfig,
    calibrate,
    load_config,
    read_config,
    resolve,
    results_to_csv,
    run_scenario,
    sweep,
    update_config_file,
)
from .scheduler import (
    Activity,
    ConflictReport,
    SubframeTimeline,
    bs_view,
    build_legacy_cycle,
    build_proposed_cycle,
    export_timeline,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3

_CHANNEL_ROWS = (
    ("PDCCH", Activity.RX_PDCCH, "#4c78a8"),
    ("PDSCH", Activity.RX_PDSCH, "#72b7b2"),
    ("PUCCH", Activity.TX_PUCCH, "#f58518"),
    ("PUSCH", Activity.TX_PUSCH, "#e45756"),
    ("switch", Activity.SWITCH, "#b0b0b0"),
)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_table(path: str | None):
    return load_bler_table(path) if path else default_table()


# ---------------------------------------------------------------------------
# timeline rendering


def render_timeline_text(timeline: SubframeTimeline, conflicts: ConflictReport | None = None) -> str:
    """One row per channel, one column per subframe; cells show the TB
    index (or ``#`` for untagged activity)."""
    width = 3
    n = len(timeline)
    header = "sf".ljust(8) + (f"%{width}d" * n) % tuple(range(timeline.origin, timeline.origin + n))
    rows = []
    for label, activity, _ in _CHANNEL_ROWS:
        cells = []
        for first, stop, uses in timeline.segments:
            mark = ""
            for use in uses:
                if use.activity is activity:
                    mark = "#" if use.tb_index is None else str(use.tb_index)
            cells.append(mark.rjust(width) * (stop - first))
        rows.append(label.ljust(8) + "".join(cells))
    lines = [header, *rows]
    if conflicts:
        for c in conflicts.conflicts:
            tbs = ",".join("-" if t is None else str(t) for t in c.tb_indices)
            lines.append(
                f"! {c.kind} at SF {c.sf_index}: {' / '.join(c.activities)} (tb {tbs})"
            )
    return "\n".join(lines) + "\n"


def render_timeline_svg(timeline: SubframeTimeline, conflicts: ConflictReport | None = None) -> str:
    cell_w, cell_h, left, top = 18, 22, 70, 24
    width = left + len(timeline) * cell_w + 10
    height = top + len(_CHANNEL_ROWS) * cell_h + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">'
    ]
    for row, (label, _, _) in enumerate(_CHANNEL_ROWS):
        y = top + row * cell_h
        parts.append(f'<text x="4" y="{y + 14}">{label}</text>')
    label = f'" y="{top - 8}">'
    for first, stop, uses in timeline.segments:
        # markup of each cell in this run's columns, after its x attribute
        cells = []
        for row, (_, activity, fill) in enumerate(_CHANNEL_ROWS):
            y = top + row * cell_h
            for use in uses:
                if use.activity is activity:
                    cells.append((
                        f'" y="{y}" width="{cell_w - 1}" height="{cell_h - 1}" fill="{fill}"/>',
                        None if use.tb_index is None else f'" y="{y + 14}" fill="white">{use.tb_index}</text>',
                    ))
        for i in range(first, stop):
            x = left + i * cell_w
            parts.append(f'<text x="{x + 3}{label}{timeline.origin + i}</text>')
            for rect, text in cells:
                parts.append(f'<rect x="{x}{rect}')
                if text:
                    parts.append(f'<text x="{x + 5}{text}')
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


def render_timeline(
    config: ScenarioConfig,
    perspective: str = "ue",
    fmt: str = "text",
    table=None,
) -> tuple[str, int]:
    """Build the configured cycle and render it; legacy conflicts render
    the attempted layout with annotations."""
    resolved = resolve(config, table if table is not None else default_table())
    conflicts = None
    if config.mode is SchedulingMode.LEGACY_FIXED:
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
    config = load_config(args.config)
    table = _load_table(args.bler_table)
    result = run_scenario(config, table)
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
    text = results_to_csv(results) + "".join(f"# infeasible {sid}: {reason}\n" for sid, reason in infeasible)
    _emit(text, args.out)
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _cmd_timeline(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    table = _load_table(args.bler_table)
    text, status = render_timeline(config, args.perspective, args.format, table)
    _emit(text, args.out)
    return status


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    table = _load_table(args.bler_table)
    result = calibrate(config, table)
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
    tl_p.add_argument("--perspective", choices=("ue", "bs"), default="ue")
    tl_p.add_argument("--format", choices=("text", "svg", "csv"), default="text")
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleLinkError, MinDelayViolationError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, InvalidInputError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CurveNotFoundError as exc:
        print(f"config error: tbs_bits has no BLER curve in the table ({exc})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
