"""Tests for oplearn.py."""

import pytest
from grounding_oracle import columns
from hypothesis import given
from hypothesis import strategies as st
from trace_oracle import DemoFrame, HandSample, trace_of

from demoplan.grounding import EnvSymState, HandSymState
from demoplan.model import Literal, Revocation
from demoplan.oplearn import (
    AttributionError,
    OperatorDraft,
    _env_atom_changes,
    extract,
    filter_relevant,
    generalize,
    operator_cost,
    repair_exclusivity,
)
from demoplan.ontology import demonstration_registry
from demoplan.segmentation import ActivityLabel, ActivitySegment

IDLE_HAND = HandSymState(False, True, None, None, None)
MOVING_HAND = HandSymState(True, True, None, None, None)
EMPTY_ENV = EnvSymState(frozenset(), frozenset())


def env(*touch_pairs, on_top=()):
    return EnvSymState(
        frozenset(frozenset(p) for p in touch_pairs), frozenset(on_top)
    )


def state(t, right, left, env_state=EMPTY_ENV):
    return t, {"Right_hand": right, "Left_hand": left}, env_state


def segs(hand, *rows):
    return [ActivitySegment(hand, label, start, end) for label, start, end in rows]


def still_trace(right_pos, left_pos, objects, frames=3):
    """Open, motionless hands and objects at fixed positions, at 10 Hz.
    The registry's non-hands missing from ``objects`` rest far away."""
    hands = {
        "Right_hand": HandSample(right_pos, True, None),
        "Left_hand": HandSample(left_pos, True, None),
    }
    registry = demonstration_registry()
    far = {name: (10.0 + k, 10.0, 0.775) for k, name in enumerate(sorted(registry.non_hands))}
    objects = {**far, **objects}
    return trace_of([DemoFrame(i / 10, hands, objects, frozenset()) for i in range(frames)], registry)


# --- cost formula ---------------------------------------------------------

def test_cost_examples():
    assert operator_cost(4, 20) == 80
    assert operator_cost(9, 10) == 10
    assert operator_cost(1, 10) == 90
    assert operator_cost(16, 22) == 28
    # A configuration observed every single time still costs at least 1.
    assert operator_cost(1, 1) == 1
    assert operator_cost(7, 7) == 1


def test_cost_rejects_bad_counts():
    with pytest.raises(ValueError):
        operator_cost(0, 5)
    with pytest.raises(ValueError):
        operator_cost(6, 5)


@given(st.integers(1, 400), st.integers(1, 400))
def test_cost_bounds_and_monotonicity(count, total):
    if count > total:
        count, total = total, count
    cost = operator_cost(count, total)
    assert 1 <= cost <= 100
    if count < total:
        assert operator_cost(count + 1, total) <= cost


# --- draft filtering ------------------------------------------------------

def test_filter_signs_changed_and_constant_atoms():
    draft = OperatorDraft(
        segment=ActivitySegment("Right_hand", ActivityLabel.REACH, 1, 3),
        pre_state=HandSymState(False, True, None, None, None),
        final_state=HandSymState(True, True, None, "Cube_red1", None),
        const_true=frozenset({("handOpen", ("Right_hand",))}),
        env_pairs={
            ("inTouch", ("Cube_red1", "table1")): (True, False),
            ("onTop", ("Cube_red1", "table1")): (True, True),
        },
    )
    pre, eff = filter_relevant(draft)
    assert set(map(str, pre)) == {
        "not handMove(Right_hand)",
        "handOpen(Right_hand)",
        "not actedOn(Right_hand, Cube_red1)",
        "inTouch(Cube_red1, table1)",
    }
    assert set(map(str, eff)) == {
        "handMove(Right_hand)",
        "handOpen(Right_hand)",
        "actedOn(Right_hand, Cube_red1)",
        "not inTouch(Cube_red1, table1)",
    }


def test_filter_drops_constantly_false_atoms():
    draft = OperatorDraft(
        segment=ActivitySegment("Right_hand", ActivityLabel.IDLE, 1, 2),
        pre_state=IDLE_HAND,
        final_state=IDLE_HAND,
        const_true=frozenset({("handOpen", ("Right_hand",))}),
    )
    pre, eff = filter_relevant(draft)
    # handMove/inHand/actedOn/graspable were never true: no mention at all.
    assert [str(l) for l in pre] == ["handOpen(Right_hand)"]
    assert [str(l) for l in eff] == ["handOpen(Right_hand)"]


# --- generalisation -------------------------------------------------------

def test_generalize_types_variables_and_adds_neq():
    registry = demonstration_registry()
    pre = [
        Literal("inHand", ("Right_hand", "Cube_red1")),
        Literal("onTop", ("Cube_red1", "Cube_blue1"), False),
    ]
    eff = [Literal("onTop", ("Cube_red1", "Cube_blue1"))]
    params, pre_l, eff_l = generalize(pre, eff, registry)
    assert params == (
        ("?Hand1", "Hand"),
        ("?Wooden_cube1", "Wooden_cube"),
        ("?Wooden_cube2", "Wooden_cube"),
    )
    assert Literal("neq", ("?Wooden_cube1", "?Wooden_cube2")) in pre_l
    assert Literal("neq", ("?Wooden_cube2", "?Wooden_cube1")) in pre_l
    assert not any(l.pred == "neq" for l in eff_l)


@given(st.permutations(["Cube_red1", "Cube_green1", "Cube_blue2"]))
def test_generalize_is_invariant_under_instance_renaming(names):
    """Whatever concrete cubes appear, the lifted operator is the same."""
    registry = demonstration_registry()
    held, base, other = names
    pre = [
        Literal("inHand", ("Left_hand", held)),
        Literal("inTouch", (base, other)),
        Literal("onTop", (held, base), False),
    ]
    eff = [Literal("onTop", (held, base))]
    fixed = generalize(
        [
            Literal("inHand", ("Left_hand", "Cube_red1")),
            Literal("inTouch", ("Cube_green1", "Cube_blue2")),
            Literal("onTop", ("Cube_red1", "Cube_green1"), False),
        ],
        [Literal("onTop", ("Cube_red1", "Cube_green1"))],
        registry,
    )
    assert generalize(pre, eff, registry) == fixed


# --- extraction and attribution ------------------------------------------

def test_env_changes_carry_contact_pairs_in_name_order_and_supports_as_placed():
    """Stacking red on blue: both contact orientations flip with the
    name-ordered pair, and onTop keeps (above, below)."""
    before = env(("Cube_red1", "table1"), ("Cube_blue1", "table1"),
                 on_top=[("Cube_red1", "table1"), ("Cube_blue1", "table1")])
    after = env(("Cube_red1", "Cube_blue1"), ("Cube_blue1", "table1"),
                on_top=[("Cube_red1", "Cube_blue1"), ("Cube_blue1", "table1")])
    red_blue, red_table = ("Cube_blue1", "Cube_red1"), ("Cube_red1", "table1")
    assert _env_atom_changes(before, after) == [
        (("inTouch", ("Cube_blue1", "Cube_red1")), False, True, red_blue),
        (("inTouch", ("Cube_red1", "Cube_blue1")), False, True, red_blue),
        (("inTouch", ("Cube_red1", "table1")), True, False, red_table),
        (("inTouch", ("table1", "Cube_red1")), True, False, red_table),
        (("onTop", ("Cube_red1", "Cube_blue1")), False, True, ("Cube_red1", "Cube_blue1")),
        (("onTop", ("Cube_red1", "table1")), True, False, red_table),
    ]


def test_extract_skips_the_opening_segment():
    states = columns([
        state(0.0, IDLE_HAND, IDLE_HAND),
        state(0.1, MOVING_HAND, IDLE_HAND),
        state(0.2, MOVING_HAND, IDLE_HAND),
    ])
    segments = segs("Right_hand", (ActivityLabel.IDLE, 0, 0), (ActivityLabel.REACH, 1, 2))
    segments += segs("Left_hand", (ActivityLabel.IDLE, 0, 2))
    trace = still_trace((0.9, 0.9, 0.9), (0.25, 0.2, 0.8), {}, frames=4)
    drafts = extract(states, segments, demonstration_registry(), trace)
    assert [(d.segment.hand, d.segment.label) for d in drafts] == [
        ("Right_hand", ActivityLabel.REACH)
    ]
    draft = drafts[0]
    assert draft.pre_state == IDLE_HAND
    assert draft.final_state == MOVING_HAND


def test_extract_requires_full_coverage():
    """Each hand's segments must tile the states: no gap, no overlap, and
    nothing past the last state."""
    states = columns([state(0.0, IDLE_HAND, IDLE_HAND), state(0.1, IDLE_HAND, IDLE_HAND)])
    trace = still_trace((0.9, 0.9, 0.9), (0.25, 0.2, 0.8), {})
    left = segs("Left_hand", (ActivityLabel.IDLE, 0, 1))
    for right in [
        [(ActivityLabel.IDLE, 0, 0)],
        [(ActivityLabel.IDLE, 0, 1), (ActivityLabel.REACH, 1, 1)],
        [(ActivityLabel.IDLE, 0, 0), (ActivityLabel.REACH, 1, 2)],
    ]:
        with pytest.raises(ValueError, match="cover"):
            extract(states, segs("Right_hand", *right) + left, demonstration_registry(), trace)


def test_ambiguous_environment_change_raises():
    changed = env(("Cube_red1", "Cube_green1"))
    states = columns([
        state(0.0, IDLE_HAND, IDLE_HAND),
        state(0.1, IDLE_HAND, IDLE_HAND, changed),
    ])
    segments = segs("Right_hand", (ActivityLabel.IDLE, 0, 1))
    segments += segs("Left_hand", (ActivityLabel.IDLE, 0, 1))
    objects = {"Cube_red1": (0.2, 0.2, 0.775), "Cube_green1": (0.25, 0.2, 0.775)}
    trace = still_trace((0.9, 0.9, 0.9), (0.25, 0.2, 0.8), objects)
    with pytest.raises(AttributionError, match="frame 2") as err:
        extract(states, segments, demonstration_registry(), trace)
    assert err.value.frame == 2


def test_change_while_every_hand_is_idle_raises_even_with_a_trace():
    """Proximity only chooses among candidate hands, and a hand that is
    idle and holds or acts on no involved cube is not one."""
    objects = {"Cube_red1": (0.2, 0.2, 0.775), "Cube_green1": (0.25, 0.2, 0.775)}
    trace = still_trace((0.25, 0.2, 0.8), (0.9, 0.9, 0.9), objects, frames=5)
    changed = env(("Cube_red1", "Cube_green1"))

    # The scene above, both hands idle from the start.
    states = columns([state(0.0, IDLE_HAND, IDLE_HAND), state(0.1, IDLE_HAND, IDLE_HAND, changed)])
    segments = segs("Right_hand", (ActivityLabel.IDLE, 0, 1))
    segments += segs("Left_hand", (ActivityLabel.IDLE, 0, 1))
    with pytest.raises(AttributionError, match="frame 2: cannot attribute"):
        extract(states, segments, demonstration_registry(), trace)

    # The right hand reaches and rests before the cubes start touching:
    # the change must not become an effect of its IdleMotion.
    states = columns([
        state(0.0, IDLE_HAND, IDLE_HAND),
        state(0.1, MOVING_HAND, IDLE_HAND),
        state(0.2, IDLE_HAND, IDLE_HAND),
        state(0.3, IDLE_HAND, IDLE_HAND, changed),
    ])
    segments = segs(
        "Right_hand",
        (ActivityLabel.IDLE, 0, 0),
        (ActivityLabel.REACH, 1, 1),
        (ActivityLabel.IDLE, 2, 3),
    )
    segments += segs("Left_hand", (ActivityLabel.IDLE, 0, 3))
    with pytest.raises(AttributionError, match="frame 4: cannot attribute"):
        extract(states, segments, demonstration_registry(), trace)


def test_change_during_opening_segment_raises():
    holding = HandSymState(False, False, "Cube_red1", None, None)
    changed = env(("Cube_red1", "table1"))
    states = columns([
        state(0.0, holding, IDLE_HAND),
        state(0.1, holding, IDLE_HAND, changed),
    ])
    segments = segs("Right_hand", (ActivityLabel.TAKE, 0, 1))
    segments += segs("Left_hand", (ActivityLabel.IDLE, 0, 1))
    objects = {"Cube_red1": (0.25, 0.2, 0.775), "table1": (0.5, 0.5, 0.37)}
    trace = still_trace((0.25, 0.2, 0.8), (0.9, 0.9, 0.9), objects)
    with pytest.raises(AttributionError, match="opening segment"):
        extract(states, segments, demonstration_registry(), trace)


def test_trace_proximity_breaks_attribution_ties():
    """Two moving hands, neither qualifying: the nearer one is blamed."""
    changed = env(("Cube_red1", "table1"))
    states = columns([
        state(0.0, IDLE_HAND, IDLE_HAND),
        state(0.1, MOVING_HAND, MOVING_HAND, changed),
    ])
    segments = segs("Right_hand", (ActivityLabel.IDLE, 0, 0), (ActivityLabel.PUT, 1, 1))
    segments += segs("Left_hand", (ActivityLabel.IDLE, 0, 0), (ActivityLabel.PUT, 1, 1))

    registry = demonstration_registry()
    objects = {"Cube_red1": (0.2, 0.2, 0.775), "table1": (0.5, 0.5, 0.37)}
    trace = still_trace((0.9, 0.9, 0.9), (0.25, 0.2, 0.8), objects)
    drafts = extract(states, segments, registry, trace)
    blamed = {d.segment.hand: d.env_pairs for d in drafts}
    assert blamed["Left_hand"]
    assert not blamed["Right_hand"]


# --- repair ---------------------------------------------------------------

def test_repair_adds_revocations_to_fresh_assertions():
    from demoplan.model import OperatorLibrary

    registry = demonstration_registry()
    pre = [
        Literal("handOpen", ("Right_hand",)),
        Literal("actedOn", ("Right_hand", "Cube_red1"), False),
        Literal("handMove", ("Right_hand",), False),
    ]
    eff = [
        Literal("handOpen", ("Right_hand",)),
        Literal("handMove", ("Right_hand",)),
        Literal("actedOn", ("Right_hand", "Cube_red1")),
    ]
    params, pre_l, eff_l = generalize(pre, eff, registry)
    library = OperatorLibrary()
    library.observe(ActivityLabel.REACH, params, pre_l, eff_l)

    repaired = repair_exclusivity(library)
    assert repaired.repaired
    assert not library.repaired
    op = repaired.operators[0]
    assert op.revokes == (Revocation("actedOn", "?Hand1", "?Wooden_cube1"),)


def test_repair_leaves_steady_assertions_alone():
    from demoplan.model import OperatorLibrary

    registry = demonstration_registry()
    # actedOn true on both sides: no fresh assertion, nothing to revoke.
    pre = [
        Literal("actedOn", ("Right_hand", "Cube_red1")),
        Literal("handMove", ("Right_hand",)),
    ]
    eff = [
        Literal("actedOn", ("Right_hand", "Cube_red1")),
        Literal("handMove", ("Right_hand",)),
        Literal("handOpen", ("Right_hand",)),
    ]
    params, pre_l, eff_l = generalize(pre, eff, registry)
    library = OperatorLibrary()
    library.observe(ActivityLabel.REACH, params, pre_l, eff_l)
    repaired = repair_exclusivity(library)
    assert repaired.operators[0].revokes == ()
    assert not repaired.repaired


# --- one full demonstration ----------------------------------------------

def test_single_careful_demo_learns_the_five_operators(single_careful_library):
    ops = {op.name: op for op in single_careful_library}
    assert sorted(ops) == ["IdleMotion", "Put", "Reach", "Stack", "Take"]
    assert all(op.count == 1 for op in ops.values())
    assert all(op.cost == 1 for op in ops.values())

    reach = ops["Reach"]
    assert reach.params == (("?Hand1", "Hand"), ("?Wooden_cube1", "Wooden_cube"))
    assert sorted(str(l) for l in reach.preconditions) == [
        "handOpen(?Hand1)",
        "not actedOn(?Hand1, ?Wooden_cube1)",
        "not graspable(?Hand1, ?Wooden_cube1)",
        "not handMove(?Hand1)",
    ]
    assert sorted(str(l) for l in reach.effects) == [
        "actedOn(?Hand1, ?Wooden_cube1)",
        "graspable(?Hand1, ?Wooden_cube1)",
        "handMove(?Hand1)",
        "handOpen(?Hand1)",
    ]

    take = ops["Take"]
    assert sorted(str(l) for l in take.preconditions) == [
        "actedOn(?Hand1, ?Wooden_cube1)",
        "graspable(?Hand1, ?Wooden_cube1)",
        "handMove(?Hand1)",
        "handOpen(?Hand1)",
        "not inHand(?Hand1, ?Wooden_cube1)",
    ]
    assert sorted(str(l) for l in take.effects) == [
        "graspable(?Hand1, ?Wooden_cube1)",
        "inHand(?Hand1, ?Wooden_cube1)",
        "not actedOn(?Hand1, ?Wooden_cube1)",
        "not handMove(?Hand1)",
        "not handOpen(?Hand1)",
    ]

    put = ops["Put"]
    assert put.params == (
        ("?Hand1", "Hand"),
        ("?Table1", "Table"),
        ("?Wooden_cube1", "Wooden_cube"),
    )
    assert sorted(str(l) for l in put.preconditions) == [
        "graspable(?Hand1, ?Wooden_cube1)",
        "inHand(?Hand1, ?Wooden_cube1)",
        "inTouch(?Table1, ?Wooden_cube1)",
        "inTouch(?Wooden_cube1, ?Table1)",
        "not handMove(?Hand1)",
        "onTop(?Wooden_cube1, ?Table1)",
    ]
    assert sorted(str(l) for l in put.effects) == [
        "graspable(?Hand1, ?Wooden_cube1)",
        "handMove(?Hand1)",
        "inHand(?Hand1, ?Wooden_cube1)",
        "not inTouch(?Table1, ?Wooden_cube1)",
        "not inTouch(?Wooden_cube1, ?Table1)",
        "not onTop(?Wooden_cube1, ?Table1)",
    ]

    stack = ops["Stack"]
    assert sorted(str(l) for l in stack.preconditions) == [
        "graspable(?Hand1, ?Wooden_cube1)",
        "handMove(?Hand1)",
        "inHand(?Hand1, ?Wooden_cube1)",
        "neq(?Wooden_cube1, ?Wooden_cube2)",
        "neq(?Wooden_cube2, ?Wooden_cube1)",
        "not actedOn(?Hand1, ?Wooden_cube2)",
        "not inTouch(?Wooden_cube1, ?Wooden_cube2)",
        "not inTouch(?Wooden_cube2, ?Wooden_cube1)",
        "not onTop(?Wooden_cube1, ?Wooden_cube2)",
    ]
    assert sorted(str(l) for l in stack.effects) == [
        "actedOn(?Hand1, ?Wooden_cube2)",
        "graspable(?Hand1, ?Wooden_cube1)",
        "handMove(?Hand1)",
        "inHand(?Hand1, ?Wooden_cube1)",
        "inTouch(?Wooden_cube1, ?Wooden_cube2)",
        "inTouch(?Wooden_cube2, ?Wooden_cube1)",
        "onTop(?Wooden_cube1, ?Wooden_cube2)",
    ]


def test_corpus_configuration_inventory(combined_library):
    """Counts and costs of every configuration over the seed-7 corpus."""
    inventory = {
        op.name: (op.count, op.cost) for op in combined_library
    }
    assert inventory == {
        "Reach": (6, 77),
        "Reach2": (8, 70),
        "Reach3": (6, 77),
        "Reach4": (6, 77),
        "Take": (6, 50),
        "Take2": (6, 50),
        "Put": (12, 50),
        "Put2": (4, 84),
        "Put3": (6, 75),
        "Put4": (2, 92),
        "Stack": (16, 28),
        "Stack2": (6, 73),
        "IdleMotion": (16, 39),
        "IdleMotion2": (8, 70),
        "IdleMotion3": (2, 93),
    }
