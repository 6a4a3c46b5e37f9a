"""Tests for planner.py."""

import hashlib
import json
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planner_oracle

from demoplan import planner
from demoplan.model import (
    NEQ,
    SINGLE_VALUED,
    LearnedOperator,
    Literal,
    ModelError,
    OperatorLibrary,
    PlanningProblem,
    Revocation,
    mask_of,
)
from demoplan.ontology import EnvironmentRegistry, ObjectInstance
from demoplan.oplearn import assign_costs
from demoplan.planner import (
    MODES,
    Plan,
    PlannerError,
    _HMax,
    ground,
    naming,
    plan_from_json,
    plan_to_json,
    solve,
    standard_goals,
    tabletop_init,
    validate,
)
from demoplan.segmentation import ActivityLabel

GRIPPER = "Robot_gripper"


def pick(actions, name, *args):
    """The unique ground action with this name and argument tuple."""
    matches = [a for a in actions if a.name == name and a.args == args]
    assert len(matches) == 1, f"{name}{args} matched {len(matches)} actions"
    return matches[0]


def goal_problem(registry, *literals):
    return PlanningProblem(registry, tabletop_init(registry), tuple(literals))


def test_ground_counts(single_careful_library, exec_registry):
    """One hand and four cubes give the expected binding counts per shape."""
    actions = ground(single_careful_library, exec_registry)
    counts = Counter(a.name for a in actions)
    assert counts == {
        "Reach": 4,
        "Take": 4,
        "Put": 4,
        "Stack": 12,
        "IdleMotion": 12,
    }
    assert len(actions) == 36
    assert actions == sorted(actions, key=lambda a: (a.name, a.args))
    # neq preconditions prune the diagonal, never a mixed pair
    for action in actions:
        if action.name == "Stack":
            assert action.args[1] != action.args[2]


def test_ground_skips_cubeless_registry(single_careful_library):
    """No cubes, no Stack bindings; every learned shape mentions a cube."""
    registry = EnvironmentRegistry(
        "execution",
        [ObjectInstance(GRIPPER, "Hand"), ObjectInstance("high_table", "Table")],
    )
    actions = ground(single_careful_library, registry)
    assert [a for a in actions if a.name == "Stack"] == []
    assert actions == []


def test_ground_requires_costs(exec_registry):
    library = OperatorLibrary(
        [
            LearnedOperator(
                activity=ActivityLabel.REACH,
                config_index=1,
                params=(("?Hand1", "Hand"),),
                preconditions=frozenset({Literal("handOpen", ("?Hand1",))}),
                effects=frozenset({Literal("handMove", ("?Hand1",))}),
                count=1,
            )
        ]
    )
    with pytest.raises(ModelError, match="has no cost"):
        ground(library, exec_registry)


def test_satisfied_goal_yields_empty_plan(exec_actions, exec_registry):
    problem = goal_problem(exec_registry, Literal("handOpen", (GRIPPER,)))
    plan = solve(problem, exec_actions)
    assert plan == Plan(())
    report = validate(problem, plan)
    assert report.valid and report.failing_step is None


def test_empty_library_solves(exec_registry):
    """No operators, no actions: a goal the initial state meets gives
    the empty plan in every mode, and any other goal no plan."""
    actions = ground(OperatorLibrary(), exec_registry)
    assert actions == []
    met = goal_problem(exec_registry, Literal("handOpen", (GRIPPER,)))
    unmet = goal_problem(exec_registry, *standard_goals(exec_registry)["goal1"])
    for mode in MODES:
        assert solve(met, actions, mode) == Plan(())
        assert solve(unmet, actions, mode) is None


def test_solve_refuses_actions_of_two_groundings(combined_library, exec_registry):
    """Each grounding numbers its atoms in its own index, so the masks of
    two groundings do not mix."""
    problem = goal_problem(exec_registry, *standard_goals(exec_registry)["goal1"])
    mixed = ground(combined_library, exec_registry) + ground(combined_library, exec_registry)
    with pytest.raises(PlannerError, match="more than one grounding"):
        solve(problem, mixed)


def test_unreachable_goal_returns_none(combined_library):
    """Two cubes each on top of the other; two cubes keep the exhaustive
    search instant."""
    registry = EnvironmentRegistry(
        "execution",
        [
            ObjectInstance(GRIPPER, "Hand"),
            ObjectInstance("Cube_blue3", "Wooden_cube"),
            ObjectInstance("Cube_green3", "Wooden_cube"),
            ObjectInstance("high_table", "Table"),
        ],
    )
    problem = goal_problem(
        registry,
        Literal("onTop", ("Cube_blue3", "Cube_green3")),
        Literal("onTop", ("Cube_green3", "Cube_blue3")),
    )
    assert solve(problem, ground(combined_library, registry)) is None


def test_expansion_budget(exec_actions, exec_registry):
    problem = goal_problem(exec_registry, *standard_goals(exec_registry)["goal3"])
    with pytest.raises(PlannerError, match="gave up after 3 expansions"):
        solve(problem, exec_actions, max_expansions=3)


def test_negative_expansion_budget(exec_actions, exec_registry):
    """Rejected before the search, even for a goal the initial state meets."""
    problem = goal_problem(exec_registry, Literal("handOpen", (GRIPPER,)))
    with pytest.raises(PlannerError, match="budget must not be negative, got -1"):
        solve(problem, exec_actions, max_expansions=-1)


def test_unknown_mode(exec_actions, exec_registry):
    problem = goal_problem(exec_registry, Literal("handOpen", (GRIPPER,)))
    with pytest.raises(PlannerError, match="unknown mode 'best'"):
        solve(problem, exec_actions, mode="best")


def test_all_modes_return_sound_plans(exec_actions, exec_registry):
    """Every mode must replay cleanly; only min_cost promises optimality."""
    problem = goal_problem(exec_registry, *standard_goals(exec_registry)["goal3"])
    costs = {}
    for mode in ("min_cost", "min_length", "greedy"):
        plan = solve(problem, exec_actions, mode)
        assert plan is not None
        assert plan.total_cost == sum(step.cost for step in plan.steps)
        assert plan.total_length == len(plan.steps)
        assert validate(problem, plan).valid
        costs[mode] = plan.total_cost
    assert costs["min_cost"] <= costs["min_length"]
    assert costs["min_cost"] <= costs["greedy"]


def test_cost_mode_comparison():
    """Two observations of the same activity, one dominant and one rare.

    Length-optimal search ties at one step and keeps the first action in
    name order; cost-optimal search switches to the cheap configuration.
    """

    def put(config_index, count):
        return LearnedOperator(
            activity=ActivityLabel.PUT,
            config_index=config_index,
            params=(("?Hand1", "Hand"), ("?Wooden_cube1", "Wooden_cube")),
            preconditions=frozenset(
                {Literal("graspable", ("?Hand1", "?Wooden_cube1"))}
            ),
            effects=frozenset({Literal("inHand", ("?Hand1", "?Wooden_cube1"))}),
            count=count,
        )

    registry = EnvironmentRegistry(
        "execution",
        [
            ObjectInstance(GRIPPER, "Hand"),
            ObjectInstance("Cube_red3", "Wooden_cube"),
            ObjectInstance("high_table", "Table"),
        ],
    )
    problem = PlanningProblem(
        registry,
        frozenset({("graspable", (GRIPPER, "Cube_red3"))}),
        (Literal("inHand", (GRIPPER, "Cube_red3")),),
    )

    skewed = assign_costs(OperatorLibrary([put(1, 1), put(2, 9)]))
    assert [(op.name, op.cost) for op in skewed] == [("Put", 90), ("Put2", 10)]
    actions = ground(skewed, registry)
    cost_plan, length_plan = (solve(problem, actions, mode) for mode in ("min_cost", "min_length"))
    assert [s.name for s in cost_plan.steps] == ["Put2"]
    assert cost_plan.total_cost == 10
    assert [s.name for s in length_plan.steps] == ["Put"]
    assert length_plan.total_cost == 90

    balanced = assign_costs(OperatorLibrary([put(1, 5), put(2, 5)]))
    assert all(op.cost == 50 for op in balanced)
    actions = ground(balanced, registry)
    assert [solve(problem, actions, m).total_cost for m in ("min_cost", "min_length")] == [50, 50]

    # no Put adds onTop
    impossible = PlanningProblem(
        registry, frozenset(), (Literal("onTop", ("Cube_red3", "high_table")),)
    )
    for mode in ("min_cost", "min_length"):
        assert solve(impossible, ground(skewed, registry), mode) is None


def test_mutex_replay_rejects_stale_contact(exec_actions, exec_registry):
    """Closed-world replay accepts a reach-elsewhere-then-take sequence
    that mutex semantics must reject: the second reach displaces the
    hand's contact with the first cube, so the take has lost its support."""
    steps = (
        pick(exec_actions, "Reach", GRIPPER, "Cube_blue3"),
        pick(exec_actions, "Reach4", GRIPPER, "Cube_green3"),
        pick(exec_actions, "Take", GRIPPER, "Cube_blue3"),
    )
    plan = Plan(steps)
    problem = goal_problem(exec_registry, Literal("inHand", (GRIPPER, "Cube_blue3")))

    assert validate(problem, plan).valid
    report = validate(problem, plan, mutex=True)
    assert not report.valid
    assert report.failing_step == 2
    assert "missing actedOn" in report.reason
    assert "graspable" in report.reason


def test_repaired_library_passes_mutex(repaired_library, exec_registry):
    problem = goal_problem(exec_registry, Literal("inHand", (GRIPPER, "Cube_blue3")))
    plan = solve(problem, ground(repaired_library, exec_registry))
    assert plan is not None
    assert validate(problem, plan, mutex=True).valid


def test_validate_rejects_unknown_instance(exec_actions, exec_registry):
    import dataclasses

    ghost = dataclasses.replace(
        pick(exec_actions, "Reach", GRIPPER, "Cube_blue3"),
        args=(GRIPPER, "Cube_missing"),
    )
    problem = goal_problem(exec_registry, Literal("handOpen", (GRIPPER,)))
    with pytest.raises(PlannerError, match="unknown instance 'Cube_missing'"):
        validate(problem, Plan((ghost,)))


def test_validate_reports_missing_atoms(exec_actions, exec_registry):
    take = pick(exec_actions, "Take", GRIPPER, "Cube_blue3")
    problem = goal_problem(exec_registry, Literal("inHand", (GRIPPER, "Cube_blue3")))
    report = validate(problem, Plan((take,)))
    assert not report.valid
    assert report.failing_step == 0
    assert report.reason.startswith("step 0 (Take(Robot_gripper, Cube_blue3)):")
    assert "missing" in report.reason


def test_validate_refuses_steps_of_two_groundings(combined_library, exec_registry):
    """Like solve, validate reads the steps' masks over one atom index."""
    first, second = (ground(combined_library, exec_registry) for _ in range(2))
    steps = (
        pick(first, "Reach", GRIPPER, "Cube_blue3"),
        pick(second, "Take", GRIPPER, "Cube_blue3"),
    )
    problem = goal_problem(exec_registry, Literal("inHand", (GRIPPER, "Cube_blue3")))
    with pytest.raises(PlannerError, match="more than one grounding"):
        validate(problem, Plan(steps))


@pytest.fixture(scope="module")
def validate_groundings(libraries, exec_registry):
    """(registry, actions) of the raw and repaired libraries on the
    execution table and on a two-gripper table."""
    hands2 = table_registry(COLORS[:4], ("Left_gripper", "Right_gripper"))
    return {
        (name, table): (registry, ground(library, registry))
        for name, library in libraries.items()
        for table, registry in (("exec4", exec_registry), ("hands2", hands2))
    }


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_validate_matches_the_frozenset_replay(validate_groundings, data):
    """validate on masks gives the oracle's report on plans that mostly
    replay, some with a stray step, from the tabletop with some
    single-valued atoms held, and on goals drawn from the atoms with
    either sign, so that goals are met, unmet or negated."""
    key = data.draw(st.sampled_from(sorted(validate_groundings)), label="grounding")
    registry, actions = validate_groundings[key]
    held = sorted(atom for atom in actions[0].index if atom[0] in SINGLE_VALUED)
    init = tabletop_init(registry) | set(data.draw(st.lists(st.sampled_from(held), max_size=3)))
    state, steps = init, []
    for _ in range(data.draw(st.integers(0, 6), label="length")):
        ready = [a for a in actions if planner_oracle.applicable(state, a)]
        if not ready or data.draw(st.integers(0, 4), label="stray") == 0:
            ready = actions
        step = data.draw(st.sampled_from(ready))
        steps.append(step)
        if planner_oracle.applicable(state, step):
            state = planner_oracle.apply_action(state, step)
    atoms = sorted(
        {atom for atom in [*init, *actions[0].index] if len(set(atom[1])) == len(atom[1])}
    )
    goal = tuple(
        Literal(*atom, atom in state if data.draw(st.booleans()) else data.draw(st.booleans()))
        for atom in data.draw(st.lists(st.sampled_from(atoms), max_size=3, unique=True))
    )
    problem = PlanningProblem(registry, init, goal)
    plan = Plan(tuple(steps))
    mutex = data.draw(st.booleans(), label="mutex")
    assert validate(problem, plan, mutex) == planner_oracle.validate(problem, plan, mutex)


def test_mutex_displaces_only_for_a_newly_acquired_atom(exec_registry):
    """A step that adds a single-valued atom the hand already holds
    displaces nothing."""
    a, b = exec_registry.cubes[:2]
    held = {("actedOn", (GRIPPER, a)), ("actedOn", (GRIPPER, b))}
    touch = planner_oracle.action("Touch", (GRIPPER, a), add={("actedOn", (GRIPPER, a))})
    init = tabletop_init(exec_registry) | held
    problem = PlanningProblem(exec_registry, init, (Literal("actedOn", (GRIPPER, b)),))
    plan = Plan((touch,))
    assert validate(problem, plan, mutex=True) == planner_oracle.validate(problem, plan, mutex=True)
    assert validate(problem, plan, mutex=True).valid


def test_tabletop_init(exec_registry):
    init = tabletop_init(exec_registry)
    assert ("handOpen", (GRIPPER,)) in init
    for cube in exec_registry.cubes:
        assert ("onTop", (cube, "high_table")) in init
        assert ("inTouch", (cube, "high_table")) in init
        assert ("inTouch", ("high_table", cube)) in init
    assert len(init) == 1 + 3 * len(exec_registry.cubes)


def test_standard_goals(exec_registry):
    goals = standard_goals(exec_registry)
    on = lambda a, b: Literal("onTop", (a, b))
    assert goals["goal1"] == (on("Cube_green3", "Cube_blue3"),)
    assert goals["goal2"] == goals["goal1"] + (on("Cube_red3", "Cube_green3"),)
    assert goals["goal3"] == goals["goal2"] + (on("Cube_yellow3", "Cube_red3"),)
    assert goals["goal4"] == (
        on("Cube_green3", "Cube_blue3"),
        on("Cube_yellow3", "Cube_red3"),
    )

    one_cube = EnvironmentRegistry(
        "execution",
        [
            ObjectInstance(GRIPPER, "Hand"),
            ObjectInstance("Cube_red3", "Wooden_cube"),
            ObjectInstance("high_table", "Table"),
        ],
    )
    with pytest.raises(PlannerError, match="need four cubes"):
        standard_goals(one_cube)


def test_plan_totals_are_the_sums_over_its_steps(exec_actions):
    steps = (
        pick(exec_actions, "Reach", GRIPPER, "Cube_blue3"),
        pick(exec_actions, "Take", GRIPPER, "Cube_blue3"),
    )
    cost = steps[0].cost + steps[1].cost
    plan = Plan(steps)
    assert (plan.total_cost, plan.total_length) == (cost, 2)
    assert Plan(steps, cost, 2) == plan
    for totals in ((cost + 1, 2), (cost, 1), (cost, None)):
        with pytest.raises(PlannerError, match="are not the sums over its steps"):
            Plan(steps, *totals)


def test_plan_to_json(exec_actions, exec_registry):
    reach = pick(exec_actions, "Reach", GRIPPER, "Cube_blue3")
    plan = Plan((reach,))
    doc = plan_to_json(plan)
    assert doc == {
        "steps": [
            {"name": "Reach", "args": [GRIPPER, "Cube_blue3"], "cost": reach.cost}
        ],
        "total_cost": reach.cost,
        "total_length": 1,
    }
    problem = goal_problem(exec_registry, Literal("actedOn", (GRIPPER, "Cube_blue3")))
    with_report = plan_to_json(plan, validate(problem, plan))
    assert with_report["validation"] == {
        "valid": True,
        "failing_step": None,
        "reason": "ok",
    }
    assert plan_from_json(doc, exec_actions) == plan
    assert plan_from_json(with_report, exec_actions) == plan


# --- equivalence with the full-scan oracle ---------------------------------

COLORS = ("green", "yellow", "blue", "red", "white", "black")


def table_registry(colors, hands=(GRIPPER,)):
    return EnvironmentRegistry(
        "execution",
        [ObjectInstance(hand, "Hand") for hand in hands]
        + [ObjectInstance(f"Cube_{c}3", "Wooden_cube") for c in colors]
        + [ObjectInstance("high_table", "Table")],
    )


def outcome(solver, problem, actions, mode, max_expansions=None):
    """A solver's result as comparable data: the plan's JSON, None, or
    the budget error's message."""
    try:
        plan = solver(problem, actions, mode, max_expansions)
    except PlannerError as exc:
        return ("error", str(exc))
    return None if plan is None else plan_to_json(plan)


def assert_same_plans(problem, actions, modes=MODES, max_expansions=None):
    """greedy gives the scan's plan, None or budget error, byte for byte.
    The optimal modes give None where the scan does, and otherwise a
    plan that replays, at the scan's cost (min_cost) or length
    (min_length). Where the scan gives up within the budget, A* may give
    up, find no plan, or find one that replays."""
    for mode in modes:
        expected = outcome(planner_oracle.solve, problem, actions, mode, max_expansions)
        if mode == "greedy":
            assert outcome(solve, problem, actions, mode, max_expansions) == expected, mode
            continue
        gave_up = isinstance(expected, tuple)
        try:
            plan = solve(problem, actions, mode, max_expansions if gave_up else None)
        except PlannerError:
            assert gave_up, mode
            continue
        if plan is None:
            assert expected is None or gave_up, mode
            continue
        assert expected is not None, mode
        assert plan.total_cost == sum(step.cost for step in plan.steps)
        assert plan.total_length == len(plan.steps)
        assert validate(problem, plan).valid, mode
        if not gave_up:
            total = "total_cost" if mode == "min_cost" else "total_length"
            assert plan_to_json(plan)[total] == expected[total], mode


@pytest.fixture(scope="module")
def libraries(combined_library, repaired_library):
    return {"raw": combined_library, "repaired": repaired_library}


@pytest.mark.parametrize("library_name", ["raw", "repaired"])
@pytest.mark.parametrize("goal_name", ["goal1", "goal2", "goal3", "goal4"])
def test_solve_matches_the_scan_on_the_standard_goals(
    libraries, exec_registry, library_name, goal_name
):
    actions = ground(libraries[library_name], exec_registry)
    problem = goal_problem(exec_registry, *standard_goals(exec_registry)[goal_name])
    assert_same_plans(problem, actions)


@pytest.mark.parametrize(
    "registry",
    [table_registry(COLORS), table_registry(COLORS[:4], ("Left_gripper", "Right_gripper"))],
    ids=["cubes6", "hands2"],
)
@pytest.mark.parametrize("goal_name", ["goal1", "goal2", "goal4"])
def test_solve_matches_the_scan_on_larger_tables(
    repaired_library, registry, goal_name
):
    actions = ground(repaired_library, registry)
    problem = goal_problem(registry, *standard_goals(registry)[goal_name])
    assert_same_plans(problem, actions)


@pytest.mark.parametrize("goal_name", ["goal1", "goal2", "goal3", "goal4"])
def test_solve_ignores_the_order_of_the_actions(repaired_library, exec_registry, goal_name):
    """solve gives the same plan for the grounding reversed, as a list or
    a tuple, in every mode."""
    actions = ground(repaired_library, exec_registry)
    problem = goal_problem(exec_registry, *standard_goals(exec_registry)[goal_name])
    for mode in MODES:
        expected = plan_to_json(solve(problem, actions, mode))
        for shuffled in (actions[::-1], tuple(actions[::-1])):
            assert plan_to_json(solve(problem, shuffled, mode)) == expected, mode


def on_top_goals(registry, min_size=1, signs=st.booleans()):
    """``min_size`` to three onTop literals between two things, each
    negated or not as ``signs`` draws."""
    return st.lists(
        st.builds(
            lambda above, below, positive: Literal("onTop", (above, below), positive),
            st.sampled_from(registry.cubes),
            st.sampled_from(registry.cubes + [registry.table]),
            signs,
        ).filter(lambda l: l.args[0] != l.args[1]),
        min_size=min_size,
        max_size=3,
        unique_by=lambda l: l.atom,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_matches_the_scan_on_random_goals(libraries, data):
    """Random onTop goals over a random subset of cubes on one or two
    grippers; a small budget bounds the search, and greedy must give up
    where the scan does."""
    library = libraries[data.draw(st.sampled_from(["raw", "repaired"]))]
    hands = data.draw(st.sampled_from([(GRIPPER,), ("Left_gripper", "Right_gripper")]))
    colors = data.draw(
        st.lists(st.sampled_from(COLORS[:5]), min_size=2, max_size=4, unique=True)
    )
    registry = table_registry(colors, hands)
    goal = data.draw(on_top_goals(registry))
    problem = goal_problem(registry, *goal)
    assert_same_plans(problem, ground(library, registry), max_expansions=1500)


def handless_and_two_hand_operators():
    """A cube slide that names no hand and a handover that names two:
    both land in the group tested on every expansion."""
    slide = LearnedOperator(
        activity=ActivityLabel.PUT,
        config_index=9,
        params=(("?Wooden_cube1", "Wooden_cube"), ("?Wooden_cube2", "Wooden_cube")),
        preconditions=frozenset(
            {
                Literal("onTop", ("?Wooden_cube1", "high_table")),
                Literal("onTop", ("?Wooden_cube2", "high_table")),
                Literal(NEQ, ("?Wooden_cube1", "?Wooden_cube2")),
            }
        ),
        effects=frozenset(
            {
                Literal("onTop", ("?Wooden_cube1", "?Wooden_cube2")),
                Literal("onTop", ("?Wooden_cube1", "high_table"), False),
            }
        ),
        count=1,
        cost=5,
    )
    handover = LearnedOperator(
        activity=ActivityLabel.TAKE,
        config_index=9,
        params=(("?Hand1", "Hand"), ("?Hand2", "Hand"), ("?Wooden_cube1", "Wooden_cube")),
        preconditions=frozenset(
            {
                Literal("inHand", ("?Hand1", "?Wooden_cube1")),
                Literal("handOpen", ("?Hand2",)),
                Literal(NEQ, ("?Hand1", "?Hand2")),
            }
        ),
        effects=frozenset(
            {
                Literal("inHand", ("?Hand2", "?Wooden_cube1")),
                Literal("inHand", ("?Hand1", "?Wooden_cube1"), False),
                Literal("handOpen", ("?Hand1",)),
                Literal("handOpen", ("?Hand2",), False),
            }
        ),
        count=1,
        cost=1,
    )
    return OperatorLibrary([slide, handover])


def with_handover(library):
    """``library`` with ``handless_and_two_hand_operators`` appended."""
    return OperatorLibrary(list(library) + list(handless_and_two_hand_operators()))


@pytest.mark.parametrize(
    "hands", [(GRIPPER,), ("Left_gripper", "Right_gripper")], ids=["one-hand", "two-hands"]
)
def test_solve_matches_the_scan_with_actions_outside_any_hand(repaired_library, hands):
    registry = table_registry(COLORS[:4], hands)
    actions = ground(with_handover(repaired_library), registry)
    cubes = registry.cubes
    for goal in (
        (Literal("onTop", (cubes[1], cubes[0])),),
        (Literal("inHand", (hands[-1], cubes[2])),),
        (Literal("onTop", (cubes[1], cubes[0])), Literal("inHand", (hands[0], cubes[3]))),
    ):
        problem = goal_problem(registry, *goal)
        assert_same_plans(problem, actions)
    slide_plan = solve(goal_problem(registry, Literal("onTop", (cubes[1], cubes[0]))), actions)
    assert [s.name for s in slide_plan.steps] == ["Put9"]


def test_hands_in_the_same_configuration_keep_their_own_candidates():
    """Neither hand names an atom of the initial state, so both hands'
    parts of it are the same empty key; each must still get its own
    actions."""
    open_hand = LearnedOperator(
        activity=ActivityLabel.REACH,
        config_index=9,
        params=(("?Hand1", "Hand"),),
        preconditions=frozenset({Literal("handOpen", ("?Hand1",), False)}),
        effects=frozenset({Literal("handOpen", ("?Hand1",))}),
        count=1,
        cost=3,
    )
    hands = ("Left_gripper", "Right_gripper")
    registry = table_registry(COLORS[:1], hands)
    actions = ground(OperatorLibrary([open_hand]), registry)
    problem = PlanningProblem(
        registry, frozenset(), tuple(Literal("handOpen", (h,)) for h in hands)
    )
    assert_same_plans(problem, actions)
    plan = solve(problem, actions)
    assert [s.args for s in plan.steps] == [("Left_gripper",), ("Right_gripper",)]


@pytest.mark.parametrize(
    "hands, goal_name, mode",
    [
        ((GRIPPER,), "goal2", "min_cost"),
        ((GRIPPER,), "goal4", "min_length"),
        (("Left_gripper", "Right_gripper"), "goal2", "min_cost"),
        (("Left_gripper", "Right_gripper"), "goal2", "greedy"),
    ],
    ids=[
        "one-hand-goal2-min_cost",
        "one-hand-goal4-min_length",
        "two-hands-goal2-min_cost",
        "two-hands-goal2-greedy",
    ],
)
def test_expansion_budget_fails_at_the_same_point_as_the_scan(
    repaired_library, hands, goal_name, mode
):
    """greedy gives up at the same point as the scan. A* needs no more
    expansions than the scan: within the budget the scan needs, it finds
    a plan of the scan's cost or length."""
    registry = table_registry(COLORS[:4], hands)
    actions = ground(repaired_library, registry)
    problem = goal_problem(registry, *standard_goals(registry)[goal_name])

    def scan_gives_up(k):
        return isinstance(outcome(planner_oracle.solve, problem, actions, mode, k), tuple)

    low, high = 0, 1  # the scan gives up at low and not at high
    while scan_gives_up(high):
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if scan_gives_up(mid):
            low = mid
        else:
            high = mid
    expected = outcome(planner_oracle.solve, problem, actions, mode, high)
    if mode == "greedy":
        with pytest.raises(PlannerError, match=f"gave up after {low} expansions"):
            solve(problem, actions, mode, max_expansions=low)
        assert outcome(solve, problem, actions, mode, high) == expected
        return
    plan = solve(problem, actions, mode, max_expansions=high)
    total = "total_cost" if mode == "min_cost" else "total_length"
    assert plan_to_json(plan)[total] == expected[total]
    assert validate(problem, plan).valid


# --- grounding against the per-binding oracle -----------------------------


def assert_ground_matches_the_oracle(library, registry):
    """The same actions in the same order, atom sets and all; every
    action shares one index, and each atom set encodes through it to the
    action's stored mask."""
    actions = ground(library, registry)

    def described(actions):
        return [
            (a.name, a.activity, a.args, a.cost, a.pre_pos, a.pre_neg, a.add, a.delete)
            for a in actions
        ]

    assert described(actions) == described(planner_oracle.ground(library, registry))
    for a in actions:
        assert a.index is actions[0].index
        views = (a.pre_pos, a.pre_neg, a.add, a.delete)
        assert tuple(sum(a.index[atom] for atom in view) for view in views) == a.masks


@pytest.mark.parametrize("library_name", ["raw", "repaired"])
@pytest.mark.parametrize("registry_name", ["exec4", "cubes6", "cubes8", "hands2"])
def test_ground_matches_the_per_binding_oracle(
    libraries, exec_registry, library_name, registry_name
):
    """The same actions in the same order, atom sets and all."""
    registry = {
        "exec4": exec_registry,
        "cubes6": table_registry(COLORS),
        "cubes8": table_registry(COLORS + ("orange", "purple")),
        "hands2": table_registry(COLORS[:4], ("Left_gripper", "Right_gripper")),
    }[registry_name]
    assert_ground_matches_the_oracle(libraries[library_name], registry)


def constant_operators():
    """Hand-built operators whose literals and revocations name constants:
    a constant argument, a neq on a constant, a revocation keeping a
    constant cube and one on a constant hand, and no parameters at all."""

    def operator(activity, params, pre, eff, revokes=()):
        return dict(
            activity=activity,
            params=params,
            preconditions=frozenset(pre),
            effects=frozenset(eff),
            revokes=revokes,
        )

    hand, cube = ("?Hand1", "Hand"), ("?Wooden_cube1", "Wooden_cube")
    return [
        operator(
            ActivityLabel.PUT,
            (hand, cube),
            [Literal("inHand", ("?Hand1", "?Wooden_cube1"))],
            [
                Literal("onTop", ("?Wooden_cube1", "high_table")),
                Literal("inHand", ("?Hand1", "?Wooden_cube1"), False),
                Literal("handOpen", ("?Hand1",)),
            ],
        ),
        operator(
            ActivityLabel.REACH,
            (cube,),
            [
                Literal(NEQ, ("?Wooden_cube1", "Cube_green3")),
                Literal("onTop", ("?Wooden_cube1", "high_table")),
                Literal("actedOn", (GRIPPER, "?Wooden_cube1"), False),
            ],
            [Literal("actedOn", (GRIPPER, "?Wooden_cube1"))],
            (Revocation("actedOn", GRIPPER, "?Wooden_cube1"),),
        ),
        operator(
            ActivityLabel.TAKE,
            (hand,),
            [Literal("handOpen", ("?Hand1",))],
            [Literal("actedOn", ("?Hand1", "Cube_red3"))],
            (
                Revocation("actedOn", "?Hand1", "Cube_red3"),
                Revocation("graspable", "?Hand1", "Cube_blue3"),
            ),
        ),
        operator(
            ActivityLabel.IDLE,
            (),
            [Literal("handOpen", (GRIPPER,))],
            [Literal("handOpen", (GRIPPER,), False), Literal("handMove", (GRIPPER,))],
        ),
        operator(
            ActivityLabel.STACK,
            (hand, ("?Thing1", "Thing")),
            [
                Literal(NEQ, ("?Thing1", "high_table")),
                Literal(NEQ, ("?Hand1", "?Thing1")),
                Literal("inHand", ("?Hand1", "?Thing1")),
            ],
            [Literal("onTop", ("?Thing1", "high_table"))],
        ),
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ground_matches_the_per_binding_oracle_on_constants(data):
    """Hand-built operators, drawn in any number and order, on tables of
    0 to 4 cubes and 1 or 2 hands."""
    n_cubes = data.draw(st.integers(0, 4))
    hands = data.draw(st.sampled_from([(GRIPPER,), ("Left_gripper", GRIPPER)]))
    registry = table_registry(data.draw(st.permutations(COLORS[:4]))[:n_cubes], hands)
    chosen = data.draw(st.lists(st.sampled_from(constant_operators()), max_size=6))
    library = OperatorLibrary(
        [
            LearnedOperator(config_index=i + 1, count=1, cost=data.draw(st.integers(0, 9)), **fields)
            for i, fields in enumerate(chosen)
        ]
    )
    assert_ground_matches_the_oracle(library, registry)


# --- the A* heuristic ------------------------------------------------------


def atoms_of(index, state):
    """The atoms of ``index`` that ``state`` holds."""
    return frozenset(atom for atom, bit in index.items() if state & bit)


def heuristic_of(problem, actions, mode):
    """H as ``solve`` builds it, with a copy of the actions' index that
    numbers the init and goal atoms too, the initial state, and the
    weighted action masks H is built over."""
    index = dict(actions[0].index)
    init = mask_of(index, problem.init)
    goal = mask_of(index, [l.atom for l in problem.goal if l.positive])
    hand_masks = [naming(actions[0].index, hand) for hand in problem.registry.hands]
    masks = [a.masks for a in actions]
    weights = [1 if mode == "min_length" else a.cost for a in actions]
    return _HMax(hand_masks, masks, weights, goal), index, init, list(zip(masks, weights))


def heuristic_goals(registry):
    """A tower of the cubes in a drawn order, or two or three onTop
    literals whose sign hypothesis tries positive first. H reads only
    the positive goal atoms, and a cube on a cube is a sink, so these
    goals have several sinks for the walks to set some of."""
    towers = st.permutations(registry.cubes).map(
        lambda cubes: [Literal("onTop", (above, below)) for below, above in zip(cubes, cubes[1:])]
    )
    return st.one_of(towers, on_top_goals(registry, 2, st.sampled_from([True, False])))


def draw_library(libraries, data):
    """The raw or the repaired library, or the repaired one with
    ``handless_and_two_hand_operators``: under the one pattern over all
    hands, actions that name no hand or two project differently."""
    name = data.draw(st.sampled_from(["raw", "repaired", "repaired+handover"]))
    if name == "repaired+handover":
        return with_handover(libraries["repaired"])
    return libraries[name]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_heuristic_is_admissible_and_consistent(libraries, data):
    """On states of random walks over small tables, from the tabletop
    with a drawn subset of the goal atoms set: H never exceeds the scan's
    cost to go, never drops by more than an action's weight along an
    action, and is infinite only where the scan finds no plan."""
    library = draw_library(libraries, data)
    # at most 41,000 reachable states, so the scan can exhaust them
    hands, n_cubes = data.draw(
        st.sampled_from([((GRIPPER,), 2), ((GRIPPER,), 3), (("Left_gripper", "Right_gripper"), 2)])
    )
    colors = data.draw(st.permutations(COLORS[:4]))[:n_cubes]
    mode = data.draw(st.sampled_from(["min_cost", "min_length"]))
    registry = table_registry(colors, hands)
    goal = data.draw(heuristic_goals(registry))
    actions = ground(library, registry)
    problem = goal_problem(registry, *goal)
    heuristic, index, state, weighted = heuristic_of(problem, actions, mode)
    # start with a drawn subset of the goal atoms true, so that sinks in s count
    state |= sum(index[l.atom] for l in goal if data.draw(st.booleans()))
    total = "total_cost" if mode == "min_cost" else "total_length"
    for _ in range(data.draw(st.integers(1, 4))):
        h = heuristic(state)
        here = PlanningProblem(registry, atoms_of(index, state), problem.goal)
        to_go = outcome(planner_oracle.solve, here, actions, mode)
        if h == math.inf:
            assert to_go is None
        elif to_go is not None:
            assert h <= to_go[total]
        successors = []
        for (pp, pn, add, dl), weight in weighted:
            if state & pp == pp and not state & pn:
                nxt = (state & ~dl) | add
                assert h <= weight + heuristic(nxt)
                successors.append(nxt)
        if not successors:
            break
        state = data.draw(st.sampled_from(successors))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_heuristic_equals_the_reference_h_max(libraries, data):
    """On states of random walks from the tabletop with a drawn subset of
    the goal atoms set, H is exactly the reference h_max: no relaxed
    action the table leaves out, and no atom the pattern misses, makes
    it weaker."""
    library = draw_library(libraries, data)
    hands = data.draw(st.sampled_from([(GRIPPER,), ("Left_gripper", "Right_gripper")]))
    colors = data.draw(st.lists(st.sampled_from(COLORS[:4]), min_size=2, max_size=4, unique=True))
    mode = data.draw(st.sampled_from(["min_cost", "min_length"]))
    registry = table_registry(colors, hands)
    actions = ground(library, registry)
    goal = data.draw(heuristic_goals(registry))
    problem = goal_problem(registry, *goal)
    heuristic, index, state, weighted = heuristic_of(problem, actions, mode)
    # start with a drawn subset of the goal atoms true, so that sinks in s count
    state |= sum(index[l.atom] for l in goal if data.draw(st.booleans()))
    for _ in range(data.draw(st.integers(1, 30))):
        atoms_of_state = atoms_of(index, state)
        assert heuristic(state) == planner_oracle.h_max(problem, actions, mode, atoms_of_state)
        successors = [
            (state & ~dl) | add
            for (pp, pn, add, dl), _ in weighted
            if state & pp == pp and not state & pn
        ]
        if not successors:
            break
        state = data.draw(st.sampled_from(successors))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_heuristic_parts_merge_and_keep_needed_goals(repaired_library, data):
    """With the handover and the slide: the handover names both hands,
    so their atoms form one part; the slide adds a goal onTop from no
    atom of the pattern, so it gets the part with no atoms; inHand is a
    goal atom that other actions need, so it is no sink. H is still
    exactly the reference h_max on states of random walks."""
    hands = data.draw(st.sampled_from([(GRIPPER,), ("Left_gripper", "Right_gripper")]))
    registry = table_registry(COLORS[:4], hands)
    actions = ground(with_handover(repaired_library), registry)
    c0, c1, c2, c3 = registry.cubes
    goal = data.draw(
        st.sampled_from(
            [
                (Literal("onTop", (c1, c0)), Literal("inHand", (hands[0], c3))),
                (Literal("inHand", (hands[-1], c2)),),
                (Literal("onTop", (c1, c0)), Literal("onTop", (c2, c1))),
            ]
        )
    )
    mode = data.draw(st.sampled_from(["min_cost", "min_length"]))
    problem = goal_problem(registry, *goal)
    heuristic, index, state, weighted = heuristic_of(problem, actions, mode)
    part_masks = [mask for mask, _, _ in heuristic.parts]
    (merged,) = [mask for mask in part_masks if mask]
    assert all(merged & naming(index, hand) for hand in hands)
    assert (0 in part_masks) == (goal[0].pred == "onTop")
    sinks = sum(heuristic.sinks)
    assert all(bool(sinks & index[l.atom]) == (l.pred == "onTop") for l in goal)
    # start with some goal atoms already true, so that sinks in s count
    state |= sum(data.draw(st.sets(st.sampled_from([index[l.atom] for l in goal]))))
    for _ in range(data.draw(st.integers(1, 30))):
        atoms_of_state = atoms_of(index, state)
        assert heuristic(state) == planner_oracle.h_max(problem, actions, mode, atoms_of_state)
        successors = [
            (state & ~dl) | add
            for (pp, pn, add, dl), _ in weighted
            if state & pp == pp and not state & pn
        ]
        if not successors:
            break
        state = data.draw(st.sampled_from(successors))


@pytest.mark.parametrize(
    "hands, goal_name, n_parts, max_runs",
    [
        (("Left_gripper", "Right_gripper"), "goal2", 2, 150),
        ((GRIPPER,), "goal3", 1, 100),
    ],
    ids=["hands2-goal2", "exec4-goal3"],
)
def test_heuristic_reruns_a_part_only_for_a_new_part_key(
    repaired_library, exec_registry, monkeypatch, hands, goal_name, n_parts, max_runs
):
    """Each part runs its Dijkstra once per distinct s & part. One
    pattern with one memo ran it for every distinct s & P that A*
    popped: 1,403 times on two grippers (116 by parts, one per hand) and
    352 times on the 4-tower (70 by part)."""
    built = []

    class Recorded(_HMax):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(planner, "_HMax", Recorded)
    registry = exec_registry if hands == (GRIPPER,) else table_registry(COLORS[:4], hands)
    actions = ground(repaired_library, registry)
    problem = goal_problem(registry, *standard_goals(registry)[goal_name])
    assert solve(problem, actions, "min_cost") is not None
    (heuristic,) = built
    assert len(heuristic.parts) == n_parts
    assert sum(len(memo) for _, memo, _ in heuristic.parts) <= max_runs


# --- seed-7 plans and towers ------------------------------------------------

# sha256 of json.dumps(plan_to_json(plan), sort_keys=True) for the seed-7
# repaired library on the execution table, as uniform-cost search planned
# them.
SEED7_PLAN_DIGESTS = {
    ("goal1", "min_cost"): "8f1be5ca39a45aa91ebea97e64bd8c79a52c15eec47f42cb58c060f7da95fdf3",
    ("goal1", "min_length"): "70d353cb382ee9fa7645d543aee203addde90b94e5b0c9a4d7a9320a72210ed3",
    ("goal1", "greedy"): "70d353cb382ee9fa7645d543aee203addde90b94e5b0c9a4d7a9320a72210ed3",
    ("goal2", "min_cost"): "3aaa79bfa6e5be6ec3f62d095ab9847cde7124949d3920c0e85066a80d1e77f3",
    ("goal2", "min_length"): "5cbefba1a4a134465bbd976f8c3830f708db9274a7a2c704d8b19c17c6e3d170",
    ("goal2", "greedy"): "5cbefba1a4a134465bbd976f8c3830f708db9274a7a2c704d8b19c17c6e3d170",
    ("goal3", "min_cost"): "0bf8f8b8adfb24f489a7da951cfe1de70d845dac2f987faab7b87a77cdbf3bc4",
    ("goal3", "min_length"): "5639d7665553bfe4b271d20a888c99ea392de8c1a870338e975700d7b9871c33",
    ("goal3", "greedy"): "5639d7665553bfe4b271d20a888c99ea392de8c1a870338e975700d7b9871c33",
    ("goal4", "min_cost"): "893427c98b0605ccc100731ff52adbbbd779f4925557616c14d91f4f0ac726da",
    ("goal4", "min_length"): "9eb4b7097e73b4681b61d61d3ae110071fe00cb47ca78779d5466a9bd8d78ee0",
    ("goal4", "greedy"): "9eb4b7097e73b4681b61d61d3ae110071fe00cb47ca78779d5466a9bd8d78ee0",
}


@pytest.mark.parametrize("goal_name, mode", sorted(SEED7_PLAN_DIGESTS))
def test_seed7_plans_are_pinned(repaired_library, exec_registry, goal_name, mode):
    actions = ground(repaired_library, exec_registry)
    problem = goal_problem(exec_registry, *standard_goals(exec_registry)[goal_name])
    doc = json.dumps(plan_to_json(solve(problem, actions, mode)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == SEED7_PLAN_DIGESTS[goal_name, mode]


@pytest.mark.parametrize(
    "hands, goal_name, mode, budget",
    [
        ((GRIPPER,), "goal3", "min_cost", 1500),
        ((GRIPPER,), "goal3", "min_length", 1500),
        (("Left_gripper", "Right_gripper"), "goal2", "min_cost", 600),
        (("Left_gripper", "Right_gripper"), "goal2", "min_length", 300),
    ],
    ids=["min_cost", "min_length", "two-hands-goal2-min_cost", "two-hands-goal2-min_length"],
)
def test_heuristic_prunes_goal3(repaired_library, exec_registry, hands, goal_name, mode, budget):
    """A* plans the 4-tower within 1,500 expansions (it takes 1,112 and
    1,302); uniform-cost search takes 10,973 and 12,179, and A* that
    expands a popped state whose f exceeds its bound takes 3,011 and
    2,624. On two grippers the 2-tower takes 488 and 228; a pattern per
    hand, which lets one hand's Stack skip that hand's Take, took 4,944
    and 3,507."""
    registry = exec_registry if hands == (GRIPPER,) else table_registry(COLORS[:4], hands)
    actions = ground(repaired_library, registry)
    problem = goal_problem(registry, *standard_goals(registry)[goal_name])
    assert solve(problem, actions, mode, max_expansions=budget) is not None


def test_five_cube_tower_is_solved_optimally(repaired_library):
    """Each cube on the one before it in name order; uniform-cost search
    gives up on this tower after 200,000 expansions."""
    registry = table_registry(COLORS[:5])
    cubes = registry.cubes
    problem = goal_problem(
        registry, *(Literal("onTop", (above, below)) for below, above in zip(cubes, cubes[1:]))
    )
    actions = ground(repaired_library, registry)
    start = time.perf_counter()
    plan = solve(problem, actions, "min_cost")
    elapsed = time.perf_counter() - start
    assert plan.total_cost == 837
    assert plan.total_length == 15
    assert validate(problem, plan, mutex=True).valid
    assert elapsed < 5.0, f"{elapsed:.2f} s"
