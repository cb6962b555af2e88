"""Command-line front end: layout generation, planning, and benchmarking.

Angles are taken in degrees on the command line and converted to radians
internally. Report and plot-data files are deterministic functions of the
inputs and seeds; measured planning times appear on stdout only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .bench import Scenario, comparison_rows, plot_data_rows, run_comparison, without_timing
from .clustering import ClusterParams
from .geometry import generate_waypoints, hemisphere_layout, load_part_layout, save_part_layout
from .metrics import CellModel, PLANNERS, ssp_distance, write_csv
from .sequencing import save_plan


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=5, help="number of clusters / angle groups")
    parser.add_argument("--angular-bound-deg", type=float, default=72.0,
                        help="reachable sector width in degrees")
    parser.add_argument("--standoff", type=float, default=0.05,
                        help="stand-off distance along the hole axis, meters")
    parser.add_argument("--attack-deg", type=float, default=0.0,
                        help="attack angle about the hole x axis, degrees")
    parser.add_argument("--robot-center-deg", type=float, default=0.0,
                        help="table angle the robot works at, degrees")
    parser.add_argument("--robot-speed", type=float, default=0.5,
                        help="robot linear speed, m/s (placeholder default)")
    parser.add_argument("--table-speed", type=float, default=0.2,
                        help="turntable angular speed, rad/s (placeholder default)")
    parser.add_argument("--dwell", type=float, default=1.0, help="seconds spent per point")
    parser.add_argument("--planner-overhead", type=float, default=0.0,
                        help="extra seconds per point to emulate motion-planner search")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
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
        base_seed=args.seed,
    )


def cmd_generate(args) -> int:
    part = hemisphere_layout(args.n, args.radius, args.seed)
    save_part_layout(part, args.out)
    print(f"wrote {args.out}: {len(part.holes)} holes on a {args.radius} m hemisphere "
          f"(seed {args.seed})")
    return 0


def cmd_plan(args) -> int:
    scenario = _scenario(args, load_part_layout(args.layout))
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    tic = time.perf_counter()
    plan = PLANNERS[args.algorithm](waypoints, scenario, scenario.cluster_params)
    planning_time = time.perf_counter() - tic
    save_plan(plan, waypoints, args.out)
    summary = {
        "n": plan.n_points,
        "ssp_distance_m": ssp_distance(plan, waypoints.positions),
        "total_rotation_rad": plan.cluster_plan.total_rotation,
        "planning_time_s": planning_time,
    }
    if args.format == "json":
        print(json.dumps(summary))
    else:
        print(f"n={summary['n']} ssp_distance_m={summary['ssp_distance_m']:.6f} "
              f"total_rotation_rad={summary['total_rotation_rad']:.6f} "
              f"planning_time_s={summary['planning_time_s']:.6f}")
    return 0


def cmd_bench(args) -> int:
    part = load_part_layout(args.layout)
    scenario = _scenario(args, part)
    result = run_comparison(scenario, args.trials)
    # file artifacts stay byte-identical across runs with the same inputs and
    # seeds, so wall-clock timing is zeroed there and reported on stdout only
    write_csv(comparison_rows(without_timing(result)), args.report)
    write_csv(plot_data_rows(result), args.plot_data)
    if args.format == "json":
        summary = {
            name: {
                "mean_ssp_distance_m": result.mean_ssp_distance[name],
                "mean_estimated_execution_time_s": result.mean_execution_time[name],
                "mean_planning_time_s":
                    sum(r.planning_time for r in result.reports[name]) / args.trials,
                "improvement_vs_baseline": result.improvement_vs_baseline[name],
            }
            for name in result.reports
        }
        print(json.dumps(summary))
    else:
        print(f"{'algorithm':<10} {'ssp_m':>10} {'exec_s':>10} {'plan_s':>10} {'improve':>9}")
        for name, reports in result.reports.items():
            mean_planning = sum(r.planning_time for r in reports) / len(reports)
            print(f"{name:<10} {result.mean_ssp_distance[name]:>10.4f} "
                  f"{result.mean_execution_time[name]:>10.2f} {mean_planning:>10.4f} "
                  f"{result.improvement_vs_baseline[name]:>8.1%}")
        if scenario.cell == CellModel():
            print("note: execution times use placeholder cell speeds "
                  "(override with --robot-speed / --table-speed / --dwell)")
    print(f"wrote {args.report} and {args.plot_data}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    plan.add_argument("--algorithm", choices=tuple(PLANNERS), default="greedy")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
