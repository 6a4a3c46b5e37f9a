"""Write reference_seed7.json, the expected outputs at the default seed.

    python3 perfbench/make_reference.py

For every goal shape the planning workloads query, on the libraries
learned from the default corpus, it records the optimal plan cost and
the optimal plan length. The planning workloads query the same goals
at every seed, so the values hold at every seed; plan_many's onTop
goals differ only in their cubes and share one shape's values. Each
value is computed by
``planner.solve`` and cross-checked against a plain uniform-cost search
over frozenset states written here; where the reachable state space is
small enough it is also checked against an exhaustive oracle, the
Bellman-Ford relaxation of acceptance criterion 6 over every state
within a step bound that no cheaper plan can exceed. It also records
the sha256 of the library.json and domain.pddl that
``demoplan pipeline --synth-corpus --seed 7`` writes. Run it again only
when those outputs are meant to change.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  pins BLAS threads and puts src/ on the path

from demoplan import cli, planner, synthgen
from demoplan.model import Literal, PlanningProblem
from demoplan.ontology import execution_registry
from pace import Pacer
from tracer import Tracer
from workloads import deep_shapes, learn_default_libraries, load_library, many_shapes

SEED = synthgen.DEFAULT_CORPUS_SEED
EXHAUSTIVE_STATE_LIMIT = 60_000  # states held in memory by the oracle


def plain_ucs(init, goal, actions, unit: bool) -> int | None:
    """Cheapest (or shortest) plan value by Dijkstra over frozenset states."""
    pos = {l.atom for l in goal if l.positive}
    neg = {l.atom for l in goal if not l.positive}
    best = {init: 0}
    tie = itertools.count()
    heap = [(0, next(tie), init)]
    while heap:
        g, _, state = heapq.heappop(heap)
        if g > best[state]:
            continue
        if pos <= state and not (neg & state):
            return g
        for a in actions:
            if a.pre_pos <= state and not (a.pre_neg & state):
                nxt = (state - a.delete) | a.add
                ng = g + (1 if unit else a.cost)
                if ng < best.get(nxt, ng + 1):
                    best[nxt] = ng
                    heapq.heappush(heap, (ng, next(tie), nxt))
    return None


def bounded_graph(init, actions, max_steps: int, limit: int):
    """States reachable in at most ``max_steps`` steps, with their depth
    and successor edges; None if there are more than ``limit``."""
    depth = {init: 0}
    edges: dict = {}
    layer = [init]
    for step in range(1, max_steps + 1):
        nxt_layer = []
        for state in layer:
            succ = edges[state] = []
            for a in actions:
                if a.pre_pos <= state and not (a.pre_neg & state):
                    nxt = (state - a.delete) | a.add
                    succ.append((nxt, a.cost))
                    if nxt not in depth:
                        depth[nxt] = step
                        nxt_layer.append(nxt)
        if len(depth) > limit:
            return None
        layer = nxt_layer
    for state in layer:
        edges[state] = []
    return depth, edges


def exhaustive_oracle(init, goal, actions, optimum: int) -> tuple[int, int] | None:
    """Optimal cost and length over every plan of at most K steps.

    K is the largest step count whose cheapest possible plan (K times the
    cheapest action) does not exceed ``optimum``, so no longer plan can be
    cheaper and the answer is exact. The cost comes from criterion 6's
    relaxation run K rounds; the length from the breadth-first depth.
    None when the bounded space is too large to enumerate.
    """
    max_steps = optimum // min(a.cost for a in actions)
    graph = bounded_graph(init, actions, max_steps, EXHAUSTIVE_STATE_LIMIT)
    if graph is None:
        return None
    depth, edges = graph
    best = {init: 0}
    for _ in range(max_steps):
        relaxed = dict(best)
        for state, cost in best.items():
            for nxt, step_cost in edges[state]:
                candidate = cost + step_cost
                if candidate < relaxed.get(nxt, candidate + 1):
                    relaxed[nxt] = candidate
        best = relaxed

    def reached(state) -> bool:
        return all((l.atom in state) == l.positive for l in goal)

    return (
        min(cost for state, cost in best.items() if reached(state)),
        min(d for state, d in depth.items() if reached(state)),
    )


def pipeline_digests() -> dict[str, str]:
    goal = [{"pred": "onTop", "args": ["Cube_green3", "Cube_blue3"], "positive": True}]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "goal.json").write_text(json.dumps(goal))
        argv = ["pipeline", "--synth-corpus", "--seed", str(SEED)]
        argv += ["--goal", str(out / "goal.json"), "--out", str(out / "run")]
        if cli.main(argv) != 0:
            raise SystemExit("demoplan pipeline failed")
        return {
            name: hashlib.sha256((out / "run" / name).read_bytes()).hexdigest()
            for name in ("library.json", "domain.pddl")
        }


def instances(raw_json: str, repaired_json: str):
    """(shape, library text, registry, goal) for every goal the planning
    workloads solve with min_cost and min_length."""
    for shape, (registry, goal, modes) in deep_shapes().items():
        if "min_cost" in modes:
            yield shape, repaired_json, registry, goal
    registry = execution_registry()
    for shape, text in many_shapes(raw_json, repaired_json).items():
        for a, b in itertools.permutations(registry.cubes, 2):
            yield shape, text, registry, (Literal("onTop", (a, b)),)


def main() -> int:
    tr = Tracer(False)
    with tempfile.TemporaryDirectory() as tmp:
        raw_json, repaired_json = learn_default_libraries(Path(tmp), tr, Pacer())

    optimal: dict[str, dict[str, int]] = {}
    checked_by: dict[str, list[str]] = {}
    for name, text, registry, goal in instances(raw_json, repaired_json):
        actions = planner.ground(load_library(text, tr), registry)
        init = planner.tabletop_init(registry)
        problem = PlanningProblem(registry, init, goal)
        cost = planner.solve(problem, actions, "min_cost").total_cost
        length = planner.solve(problem, actions, "min_length").total_length
        methods = ["planner.solve"]
        if (plain_ucs(init, goal, actions, unit=False), plain_ucs(init, goal, actions, unit=True)) != (cost, length):
            raise SystemExit(f"{name}: plain UCS disagrees with planner.solve")
        methods.append("plain_ucs")
        exhaustive = exhaustive_oracle(init, goal, actions, cost)
        if exhaustive is not None:
            if exhaustive != (cost, length):
                raise SystemExit(f"{name}: exhaustive oracle {exhaustive} disagrees with planner.solve")
            methods.append("exhaustive_oracle")
        value = {"min_cost": cost, "min_length": length}
        if optimal.setdefault(name, value) != value:
            raise SystemExit(f"{name}: {value} differs from {optimal[name]} on another labelling")
        checked_by[name] = methods
        print(f"{name}: cost {cost}, length {length}, checked by {', '.join(methods)}")

    doc = {
        "seed": SEED,
        "digests": pipeline_digests(),
        "optimal": optimal,
        "checked_by": checked_by,
    }
    out = Path(__file__).resolve().parent / "reference_seed7.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
