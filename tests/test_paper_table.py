"""The paper's success table on the seed-7 corpus.

Each demonstration alone, and the whole corpus, is learned into a
repaired library. Every library plans the four benchmark goals and every
non-trivial stacking arrangement of the four execution cubes in
``min_cost`` mode, and a success is a plan that mutex replay accepts.
The counts are pinned: a change that moves them says so.
"""

import itertools

import pytest

from demoplan import grounding, oplearn, planner, segmentation
from demoplan.model import Literal, OperatorLibrary, PlanningProblem

CAREFUL, HESITANT, FLUENT = range(0, 4), range(4, 8), range(8, 12)


def arrangements(cubes: list[str]) -> list[tuple[Literal, ...]]:
    """Every way to stack the cubes into towers on the table, as the onTop
    goals of its stacked pairs; all cubes flat is left out."""
    found = set()
    for order in itertools.permutations(cubes):
        for cuts in itertools.product((False, True), repeat=len(cubes) - 1):
            pairs = [(order[i + 1], order[i]) for i, cut in enumerate(cuts) if not cut]
            if pairs:
                found.add(tuple(sorted(Literal("onTop", pair) for pair in pairs)))
    return sorted(found)


def _library(demos, registry) -> OperatorLibrary:
    library = OperatorLibrary()
    for demo in demos:
        states = grounding.ground_trace(demo.trace)
        segments = segmentation.segment(states)
        oplearn.learn_from_demo(states, segments, library, registry, demo.trace)
    return oplearn.repair_exclusivity(oplearn.assign_costs(library))


def _successes(library, registry, goals) -> list[bool]:
    """Per goal, whether min_cost finds a plan that mutex replay accepts."""
    actions = planner.ground(library, registry)
    init = planner.tabletop_init(registry)
    solved = []
    for goal in goals:
        problem = PlanningProblem(registry, init, goal)
        plan = planner.solve(problem, actions)
        solved.append(plan is not None and planner.validate(problem, plan, mutex=True).valid)
    return solved


@pytest.fixture(scope="module")
def table(corpus, demo_registry, exec_registry):
    """Per library (each demo's, then the corpus's), the successes on
    the standard goals and on the arrangements."""
    standard = list(planner.standard_goals(exec_registry).values())
    stacks = arrangements(exec_registry.cubes)
    rows = []
    for demos in [[demo] for demo in corpus] + [corpus]:
        library = _library(demos, demo_registry)
        solved = _successes(library, exec_registry, standard + stacks)
        rows.append((solved[: len(standard)], solved[len(standard):]))
    return rows


def test_arrangements_of_four_cubes():
    goals = arrangements(["a", "b", "c", "d"])
    assert len(goals) == 72
    assert sum(len(goal) == 3 for goal in goals) == 24  # single towers of four


def test_standard_goals_per_demo(table):
    """32 of 48 pairs succeed; the 16 failures are every goal of a fluent demo."""
    outcomes = [
        (d, g, ok) for d, (standard, _) in enumerate(table[:12]) for g, ok in enumerate(standard)
    ]
    assert len(outcomes) == 48
    assert [(d, g) for d, g, ok in outcomes if not ok] == [(d, g) for d in FLUENT for g in range(4)]


def test_arrangements_per_demo(table):
    solved = [sum(stacks) for _, stacks in table[:12]]
    for d in (*CAREFUL, *HESITANT):
        assert solved[d] == 72, d
    for d in FLUENT:
        assert solved[d] == 0, d


def test_corpus_library_solves_everything(table):
    standard, stacks = table[12]
    assert sum(standard) == 4
    assert sum(stacks) == 72
    assert sum(sum(stacks) for _, stacks in table) == 648
    assert sum(len(stacks) for _, stacks in table) == 936
