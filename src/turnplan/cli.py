"""Command-line front end: layout generation, planning, and benchmarking.

Angles are taken in degrees on the command line and converted to radians
internally. Report and plot-data files are deterministic functions of the
inputs and seeds; measured planning times appear on stdout only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from .bench import (SUMMARY, Scenario, comparison_rows, plot_data_rows, run_comparison,
                    timed_plan, write_csvs)
from .clustering import ClusterParams
from .geometry import generate_waypoints, hemisphere_layout, load_part_layout, save_part_layout
from .metrics import CellModel
from .sequencing import ALGORITHMS, save_plan


class _Parser(argparse.ArgumentParser):
    """Raises ValueError for `main` to report in one line; reads -1e-3 as a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValueError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    # each default is the one its record owns, so a flag left out plans as the record would
    parser.add_argument("--k", type=int, default=ClusterParams.k,
                        help="number of clusters / angle groups")
    parser.add_argument("--angular-bound-deg", type=float,
                        default=math.degrees(ClusterParams.angular_bound),
                        help="reachable sector width in degrees: the summary counts the "
                             "points served beyond half of it from their stop, and gives the "
                             "least rotation that leaves none; no planner reads it yet")
    parser.add_argument("--standoff", type=float, default=Scenario.standoff,
                        help="stand-off distance along the hole axis, meters")
    parser.add_argument("--attack-deg", type=float, default=math.degrees(Scenario.attack),
                        help="attack angle about the hole x axis, degrees")
    parser.add_argument("--robot-center-deg", type=float,
                        default=math.degrees(Scenario.robot_center_angle),
                        help="table angle the robot works at, degrees")
    parser.add_argument("--robot-speed", type=float, default=CellModel.robot_linear_speed,
                        help="robot linear speed, m/s (placeholder default)")
    parser.add_argument("--table-speed", type=float, default=CellModel.turntable_angular_speed,
                        help="turntable angular speed, rad/s (placeholder default)")
    parser.add_argument("--dwell", type=float, default=CellModel.dwell_per_point,
                        help="seconds spent per point")
    parser.add_argument("--planner-overhead", type=float,
                        default=CellModel.planner_overhead_per_point,
                        help="extra seconds per point to emulate motion-planner search")
    parser.add_argument("--seed", type=int, default=ClusterParams.seed, help="base seed")
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="stdout summary format")


def _scenario(args, part) -> Scenario:
    return Scenario(
        part=part,
        standoff=args.standoff,
        attack=math.radians(args.attack_deg),
        cluster_params=ClusterParams(k=args.k,
                                     angular_bound=math.radians(args.angular_bound_deg),
                                     seed=args.seed),
        cell=CellModel(robot_linear_speed=args.robot_speed,
                       turntable_angular_speed=args.table_speed,
                       dwell_per_point=args.dwell,
                       planner_overhead_per_point=args.planner_overhead),
        robot_center_angle=math.radians(args.robot_center_deg),
    )


def cmd_generate(args) -> int:
    part = hemisphere_layout(args.n, args.radius, args.seed)
    save_part_layout(part, args.out)
    print(f"wrote {args.out}: {len(part.origins)} holes on a {args.radius} m hemisphere "
          f"(seed {args.seed})")
    return 0


def _note_placeholder_speeds(cell: CellModel) -> None:
    if cell == CellModel():
        print("note: execution times use placeholder cell speeds "
              "(override with --robot-speed / --table-speed / --dwell)")


def _print_scores(head: str, scores: dict[str, float]) -> None:
    print(head, *(f"{name}={value:.6f}" for name, value in scores.items()))


def _reject_one_file_twice(layout: str, outputs: dict[str, str]) -> None:
    """Raise, before anything is read or written, if two paths a command names are one file:
    by `os.path.samefile`, or by `os.path.realpath` where a path cannot be stat'ed (yet)."""
    paths = [(None, layout), *outputs.items()]
    for i, (flag, path) in enumerate(paths):
        for earlier, other in paths[:i]:
            try:
                same = os.path.samefile(other, path)
            except OSError:  # one does not exist yet, or cannot be examined
                same = os.path.realpath(other) == os.path.realpath(path)
            if same:
                raise ValueError(f"{flag} names the layout file {layout}" if earlier is None
                                 else f"{earlier} and {flag} both name {other}")


def cmd_plan(args) -> int:
    _reject_one_file_twice(args.layout, {"--out": args.out})
    scenario = _scenario(args, load_part_layout(args.layout))
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    plan, report = timed_plan(args.algorithm, waypoints, scenario)
    save_plan(plan, waypoints, args.out)
    scores = {key: getattr(report, key) for key in SUMMARY}
    if args.format == "json":
        print(json.dumps({"n": report.n_points, **scores}))
    else:
        _print_scores(f"n={report.n_points}", scores)
        _note_placeholder_speeds(scenario.cell)
    return 0


def cmd_bench(args) -> int:
    _reject_one_file_twice(args.layout, {"--report": args.report, "--plot-data": args.plot_data})
    scenario = _scenario(args, load_part_layout(args.layout))
    result = run_comparison(scenario, args.trials)
    # built before any file is written: a zero baseline time raises here
    columns = {f"mean_{key}": result.means(key) for key in SUMMARY}
    columns["improvement_vs_baseline"] = result.improvement_vs_baseline
    summary = {name: {column: values[name] for column, values in columns.items()}
               for name in result.reports}
    write_csvs({args.report: comparison_rows(result), args.plot_data: plot_data_rows(result)})
    if args.format == "json":
        print(json.dumps(summary))
    else:
        for name, scores in summary.items():
            _print_scores(name, scores)
        _note_placeholder_speeds(scenario.cell)
        print(f"wrote {args.report} and {args.plot_data}")
    return 0


# one shared parser per process: parse_args leaves it unchanged, and each
# cmd_* looks up the module globals it calls when it runs
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="turnplan",
        description="Task-sequencing planner for a robot arm working over a "
                    "one-way turntable.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic hemisphere hole layout")
    gen.add_argument("--n", type=int, default=40, help="number of holes")
    gen.add_argument("--radius", type=float, default=0.15, help="hemisphere radius, meters")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="layout JSON path")
    gen.set_defaults(func=cmd_generate)

    plan = sub.add_parser("plan", help="plan a visit sequence for a layout")
    plan.add_argument("layout", help="layout JSON path")
    plan.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="greedy")
    plan.add_argument("--out", required=True, help="plan JSON path")
    _add_config_flags(plan)
    plan.set_defaults(func=cmd_plan)

    bench = sub.add_parser("bench", help="compare all algorithms on a layout")
    bench.add_argument("layout", help="layout JSON path")
    bench.add_argument("--trials", type=int, default=3)
    bench.add_argument("--report", default="bench_report.csv", help="report CSV path")
    bench.add_argument("--plot-data", default="bench_plot_data.csv",
                       help="long-format plot data CSV path")
    _add_config_flags(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a `generate --n` whose arrays cannot be allocated
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
