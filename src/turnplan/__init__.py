"""Task-sequencing planner for a 6-DOF arm working over a one-way turntable.

Pipeline: generate an end-effector waypoint per hole, cluster the waypoints
spatially, schedule the clusters within a single turntable revolution, then
greedily order the waypoints inside each cluster to cut total time.
"""

from .bench import Scenario, hemisphere_scenario, run_comparison
from .clustering import ClusterParams
from .geometry import generate_waypoints, hemisphere_layout, load_part_layout, save_part_layout
from .metrics import PLANNERS, CellModel, benchmark, estimate_execution_time, ssp_distance
from .sequencing import Plan, baseline_angle_sequence, plan_waypoints, save_plan

__all__ = [
    "hemisphere_layout", "load_part_layout", "save_part_layout", "generate_waypoints",
    "ClusterParams", "Plan", "plan_waypoints", "baseline_angle_sequence", "save_plan",
    "CellModel", "PLANNERS", "benchmark", "ssp_distance", "estimate_execution_time",
    "Scenario", "hemisphere_scenario", "run_comparison",
]
