"""Task-sequencing planner for a 6-DOF arm working over a one-way turntable.

Pipeline: generate an end-effector waypoint per hole, cluster the waypoints
spatially, schedule the clusters within a single turntable revolution, then
greedily order the waypoints inside each cluster to cut total time.
"""

from .angles import TWO_PI, circular_separation, forward_delta, wrap_angle
from .bench import (ComparisonResult, Scenario, clustering_only_plan, hemisphere_scenario,
                    run_comparison, write_comparison_csv, write_plot_data)
from .clustering import (Cluster, ClusterParams, ClusterPlan, ClusterReach,
                         DegenerateMeanError, center_offset, circular_mean, cluster_points,
                         order_clusters, reachability_report)
from .geometry import (DegeneratePositionError, HoleFrame, PartModel, Pose, Waypoint,
                       Waypoints, as_waypoints, generate_waypoint, generate_waypoints,
                       hemisphere_layout, load_part_layout, save_part_layout, turntable_angle)
from .metrics import (BenchmarkReport, CellModel, benchmark, estimate_execution_time,
                      ssp_distance, write_report_csv)
from .sequencing import (DistanceMatrix, InstanceTooLargeError, Plan, Sequence,
                         baseline_angle_sequence, clustering_only, distance_matrix,
                         full_pipeline, greedy_chain, greedy_sequence, optimal_sequence,
                         plan_records, plan_waypoints, save_plan)

__all__ = [
    "TWO_PI", "wrap_angle", "forward_delta", "circular_separation",
    "Pose", "HoleFrame", "Waypoint", "Waypoints", "as_waypoints", "PartModel",
    "DegeneratePositionError",
    "generate_waypoint", "generate_waypoints", "turntable_angle", "hemisphere_layout",
    "save_part_layout", "load_part_layout",
    "Cluster", "ClusterPlan", "ClusterParams", "ClusterReach", "DegenerateMeanError",
    "circular_mean", "cluster_points", "order_clusters", "center_offset",
    "reachability_report",
    "DistanceMatrix", "Sequence", "Plan", "InstanceTooLargeError",
    "distance_matrix", "greedy_sequence", "greedy_chain", "optimal_sequence",
    "baseline_angle_sequence", "plan_waypoints", "full_pipeline", "clustering_only",
    "plan_records", "save_plan",
    "CellModel", "BenchmarkReport", "ssp_distance", "estimate_execution_time",
    "benchmark", "write_report_csv",
    "Scenario", "ComparisonResult", "hemisphere_scenario", "clustering_only_plan",
    "run_comparison", "write_comparison_csv", "write_plot_data",
]
