"""Runtime task-assignment optimization via Binary Quadratic Programming.

The paper (EVM operation 7) optimizes resource allocation and logical-task to
physical-node mapping at runtime with BQP.  The formulation:

    minimize   sum_t sum_n c[t][n] * x[t,n]
             + sum_{t<u} traffic[t,u] * hops(n(t), n(u))
    s.t.       each task on exactly one node,
               per-node utilization within capacity,
               capability feasibility (c[t][n] = inf if node n can't host t).

Solvers:

- :func:`bqp_assign` -- exact enumeration with feasibility pruning for small
  instances, falling back to greedy + steepest-descent local search (moves
  and swaps) above ``exact_limit`` candidate combinations;
- :func:`greedy_assign` -- the baseline the paper's "provably minimal
  degradation" claim is benchmarked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import VcMember

INFEASIBLE = math.inf


@dataclass
class AssignmentProblem:
    """One placement instance."""

    tasks: list[LogicalTask]
    nodes: list[VcMember]
    # Affinity cost of placing task t on node n (beyond feasibility);
    # e.g. hop distance from the node to the task's sensor/actuator.
    affinity: dict[tuple[str, str], float] = field(default_factory=dict)
    # Pairwise traffic weight between tasks (object-transfer volume).
    traffic: dict[tuple[str, str], float] = field(default_factory=dict)
    # Hop distance between nodes (symmetric; missing => 1 if distinct).
    hops: dict[tuple[str, str], int] = field(default_factory=dict)

    def placement_cost(self, task: LogicalTask, node: VcMember) -> float:
        if not node.healthy or not node.can_host(task):
            return INFEASIBLE
        return self.affinity.get((task.name, node.node_id), 0.0)

    def hop_distance(self, a: str, b: str) -> int:
        if a == b:
            return 0
        return self.hops.get((a, b), self.hops.get((b, a), 1))

    def pair_traffic(self, t: str, u: str) -> float:
        return self.traffic.get((t, u), self.traffic.get((u, t), 0.0))


@dataclass
class AssignmentResult:
    """Solution: task name -> node id, with its objective value."""

    placement: dict[str, str]
    cost: float
    feasible: bool
    explored: int = 0
    method: str = ""


def evaluate(problem: AssignmentProblem,
             placement: dict[str, str]) -> float:
    """Objective value of a complete placement (inf if infeasible)."""
    nodes_by_id = {n.node_id: n for n in problem.nodes}
    load: dict[str, float] = {}
    total = 0.0
    for task in problem.tasks:
        node_id = placement.get(task.name)
        if node_id is None or node_id not in nodes_by_id:
            return INFEASIBLE
        node = nodes_by_id[node_id]
        cost = problem.placement_cost(task, node)
        if cost == INFEASIBLE:
            return INFEASIBLE
        total += cost
        load[node_id] = load.get(node_id, 0.0) + task.utilization
    for node_id, used in load.items():
        if used > nodes_by_id[node_id].cpu_capacity + 1e-12:
            return INFEASIBLE
    names = [t.name for t in problem.tasks]
    for t, u in itertools.combinations(names, 2):
        weight = problem.pair_traffic(t, u)
        if weight:
            total += weight * problem.hop_distance(placement[t], placement[u])
    return total


def greedy_assign(problem: AssignmentProblem) -> AssignmentResult:
    """Place tasks one at a time on the cheapest feasible node.

    Order: heaviest utilization first (best-fit-decreasing flavor).  The
    marginal cost includes traffic to already-placed tasks.
    """
    placement: dict[str, str] = {}
    load: dict[str, float] = {n.node_id: 0.0 for n in problem.nodes}
    ordered = sorted(problem.tasks, key=lambda t: -t.utilization)
    for task in ordered:
        best_node, best_cost = None, INFEASIBLE
        for node in problem.nodes:
            cost = problem.placement_cost(task, node)
            if cost == INFEASIBLE:
                continue
            if load[node.node_id] + task.utilization > node.cpu_capacity + 1e-12:
                continue
            for placed_task, placed_node in placement.items():
                weight = problem.pair_traffic(task.name, placed_task)
                if weight:
                    cost += weight * problem.hop_distance(node.node_id,
                                                          placed_node)
            if cost < best_cost or (cost == best_cost and best_node is not None
                                    and node.node_id < best_node):
                best_node, best_cost = node.node_id, cost
        if best_node is None:
            return AssignmentResult(placement={}, cost=INFEASIBLE,
                                    feasible=False, method="greedy")
        placement[task.name] = best_node
        load[best_node] += task.utilization
    return AssignmentResult(placement=placement,
                            cost=evaluate(problem, placement),
                            feasible=True, method="greedy")


def bqp_assign(problem: AssignmentProblem,
               exact_limit: int = 250_000) -> AssignmentResult:
    """Solve the BQP: exact when small, local search otherwise."""
    combos = len(problem.nodes) ** max(1, len(problem.tasks))
    if combos <= exact_limit:
        return _exact(problem)
    return _local_search(problem)


def _exact(problem: AssignmentProblem) -> AssignmentResult:
    names = [t.name for t in problem.tasks]
    node_ids = [n.node_id for n in problem.nodes]
    best_placement: dict[str, str] = {}
    best_cost = INFEASIBLE
    explored = 0
    # Pre-prune: per-task feasible node lists.
    feasible_nodes: list[list[str]] = []
    nodes_by_id = {n.node_id: n for n in problem.nodes}
    for task in problem.tasks:
        options = [n.node_id for n in problem.nodes
                   if problem.placement_cost(task, n) != INFEASIBLE]
        if not options:
            return AssignmentResult(placement={}, cost=INFEASIBLE,
                                    feasible=False, method="bqp-exact")
        feasible_nodes.append(options)
    for combo in itertools.product(*feasible_nodes):
        explored += 1
        placement = dict(zip(names, combo))
        cost = evaluate(problem, placement)
        if cost < best_cost:
            best_cost = cost
            best_placement = placement
    return AssignmentResult(placement=best_placement, cost=best_cost,
                            feasible=best_cost != INFEASIBLE,
                            explored=explored, method="bqp-exact")


def _local_search(problem: AssignmentProblem,
                  max_rounds: int = 200) -> AssignmentResult:
    seed = greedy_assign(problem)
    if not seed.feasible:
        return AssignmentResult(placement={}, cost=INFEASIBLE,
                                feasible=False, method="bqp-local")
    placement = dict(seed.placement)
    cost = seed.cost
    names = [t.name for t in problem.tasks]
    node_ids = [n.node_id for n in problem.nodes]
    explored = 0
    for _ in range(max_rounds):
        improved = False
        # Moves: relocate one task.
        for name in names:
            original = placement[name]
            for node_id in node_ids:
                if node_id == original:
                    continue
                placement[name] = node_id
                explored += 1
                candidate = evaluate(problem, placement)
                if candidate < cost - 1e-12:
                    cost = candidate
                    improved = True
                    original = node_id
                else:
                    placement[name] = original
        # Swaps: exchange two tasks' nodes.
        for a, b in itertools.combinations(names, 2):
            if placement[a] == placement[b]:
                continue
            placement[a], placement[b] = placement[b], placement[a]
            explored += 1
            candidate = evaluate(problem, placement)
            if candidate < cost - 1e-12:
                cost = candidate
                improved = True
            else:
                placement[a], placement[b] = placement[b], placement[a]
        if not improved:
            break
    return AssignmentResult(placement=placement, cost=cost, feasible=True,
                            explored=explored, method="bqp-local")
