"""Tests for grounding.py.

The threshold geometry is exercised with tiny hand-built traces where
every distance and velocity is chosen by hand, so the expected truth
values can be read off the rule definitions directly.
"""

import json

import grounding_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from trace_oracle import DemoFrame, HandSample, frames_of, trace_of

from demoplan.grounding import (
    EnvSymState,
    GroundingConfig,
    HandSymState,
    ground_trace,
    states_to_json,
)
from demoplan.model import NEQ, SCHEMAS, Literal
from demoplan.ontology import (
    CUBE,
    HAND,
    THING,
    EnvironmentRegistry,
    ObjectInstance,
    execution_registry,
)
from demoplan.ontology import TABLE as TABLE_TYPE

DT = 0.1
TABLE = (0.5, 0.5, 0.37)
# Every execution cube, each too far from the tests' hands to be acted
# on or grasped; a test moves the cubes of its geometry into reach.
FAR_CUBES = {
    name: (10.0 + j, 10.0, 0.775) for j, name in enumerate(execution_registry().cubes)
}


def make_trace(p0, p1, held=None, open_=True, cubes=None, contacts=()):
    """Two frames with the gripper moving p0 -> p1 over 0.1 s."""
    cubes = cubes or {"Cube_red3": (0.5, 0.5, 0.775)}
    objects = {**FAR_CUBES, **cubes, "high_table": TABLE}
    frames = [
        DemoFrame(t, {"Robot_gripper": HandSample(p, open_, held)}, objects,
                  frozenset(frozenset(pair) for pair in contacts))
        for t, p in ((0.0, p0), (DT, p1))
    ]
    return trace_of(frames, execution_registry())


def gripper(trace, config=None):
    return ground_trace(trace, config).hands["Robot_gripper"][0]


def test_config_defaults():
    config = GroundingConfig()
    assert config.acted_on_dist == 0.16
    assert config.graspable_dist == 0.10
    assert config.move_speed == 0.10
    assert config.approach_cosine == 0.5


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "grounding.json"
    path.write_text(json.dumps({"acted_on_dist": 0.2}))
    config = GroundingConfig.from_file(path)
    assert config.acted_on_dist == 0.2
    assert config.move_speed == 0.10

    path.write_text(json.dumps({"acted_on": 0.2}))
    with pytest.raises(ValueError, match="unknown grounding config keys"):
        GroundingConfig.from_file(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"move_speed": "fast"}', "move_speed must be a finite number"),
        ('{"move_speed": NaN}', "move_speed must be a finite number"),
        ('{"acted_on_dist": true}', "acted_on_dist must be a finite number"),
        ('{"graspable_dist": null}', "graspable_dist must be a finite number"),
        ("5", "must be a JSON object"),
        ('"abc"', "must be a JSON object"),
        ("[]", "must be a JSON object"),
    ],
)
def test_config_file_rejects_values_that_are_not_finite_numbers(tmp_path, text, message):
    path = tmp_path / "grounding.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        GroundingConfig.from_file(path)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"acted_on_dist": -0.01}, "acted_on_dist must not be negative, got -0.01"),
        ({"graspable_dist": -0.5}, "graspable_dist must not be negative, got -0.5"),
        ({"move_speed": -1}, "move_speed must not be negative, got -1"),
        ({"approach_cosine": 3}, r"approach_cosine must lie in \[-1, 1\], got 3"),
        ({"approach_cosine": -1.5}, r"approach_cosine must lie in \[-1, 1\], got -1.5"),
    ],
)
def test_config_rejects_values_out_of_range(doc, message):
    with pytest.raises(ValueError, match=message):
        GroundingConfig(**doc)


def test_config_accepts_the_ends_of_its_ranges():
    GroundingConfig(acted_on_dist=0.0, graspable_dist=0.0, move_speed=0.0, approach_cosine=-1.0)
    GroundingConfig(approach_cosine=1.0)


def test_still_hand_grounds_to_rest_state():
    trace = make_trace((0.5, 0.5, 1.0), (0.5, 0.5, 1.0))
    hand = gripper(trace)
    assert hand == HandSymState(
        handMove=False, handOpen=True, inHand=None, actedOn=None, graspable=None
    )


def test_move_speed_threshold():
    below = make_trace((0.5, 0.5, 1.0), (0.5, 0.5, 1.0 - 0.0099))
    above = make_trace((0.5, 0.5, 1.0), (0.5, 0.5, 1.0 - 0.0101))
    assert not gripper(below).handMove
    assert gripper(above).handMove


def test_acted_on_requires_approach_within_range():
    # Cube at z=0.775; hand descending fast from straight above.
    toward = make_trace((0.5, 0.5, 0.95), (0.5, 0.5, 0.93))
    away = make_trace((0.5, 0.5, 0.93), (0.5, 0.5, 0.95))
    far = make_trace((0.5, 0.5, 1.2), (0.5, 0.5, 1.18))
    assert gripper(toward).actedOn == "Cube_red3"
    assert gripper(away).actedOn is None
    assert gripper(far).actedOn is None


def test_acted_on_distance_is_strict():
    # After the step the hand sits exactly 0.16 above the cube centre.
    at = make_trace((0.5, 0.5, 0.955), (0.5, 0.5, 0.935))
    inside = make_trace((0.5, 0.5, 0.954), (0.5, 0.5, 0.934))
    assert gripper(at).actedOn is None
    assert gripper(inside).actedOn == "Cube_red3"


def test_acted_on_cosine_is_strict():
    # Descend at 45 degrees: cosine to the cube straight below the end
    # position is 1/sqrt(2) > 0.5; sliding sideways past it is below.
    diagonal = make_trace((0.48, 0.5, 0.90), (0.5, 0.5, 0.88))
    sideways = make_trace((0.48, 0.5, 0.80), (0.5, 0.5, 0.80))
    assert gripper(diagonal).actedOn == "Cube_red3"
    assert gripper(sideways).actedOn is None


def test_zero_distance_counts_as_approached():
    trace = make_trace((0.48, 0.5, 0.775), (0.5, 0.5, 0.775))
    assert gripper(trace).actedOn == "Cube_red3"


def test_nearest_cube_wins_and_ties_break_by_name():
    # Mirror-image offsets of 1/16 on the x axis give a bit-exact tie.
    cubes = {
        "Cube_red3": (0.5 - 0.0625, 0.5, 0.655),
        "Cube_blue3": (0.5 + 0.0625, 0.5, 0.655),
    }
    # Descending between the two; both approached at equal distance.
    trace = make_trace((0.5, 0.5, 0.8), (0.5, 0.5, 0.775), cubes=cubes)
    assert gripper(trace).actedOn == "Cube_blue3"

    still = {
        "Cube_red3": (0.5 - 0.0625, 0.5, 0.775),
        "Cube_blue3": (0.5 + 0.0625, 0.5, 0.775),
    }
    trace = make_trace((0.5, 0.5, 0.775), (0.5, 0.5, 0.775), cubes=still)
    assert gripper(trace).graspable == "Cube_blue3"

    # Nudge red closer and it wins the same tie.
    still["Cube_red3"] = (0.5 - 0.0624, 0.5, 0.775)
    trace = make_trace((0.5, 0.5, 0.775), (0.5, 0.5, 0.775), cubes=still)
    assert gripper(trace).graspable == "Cube_red3"


def test_held_cube_is_not_acted_on():
    trace = make_trace(
        (0.5, 0.5, 0.85), (0.5, 0.5, 0.80), held="Cube_red3", open_=False
    )
    hand = gripper(trace)
    assert hand.inHand == "Cube_red3"
    assert hand.actedOn is None
    assert hand.graspable == "Cube_red3"


def test_graspable_does_not_need_motion():
    trace = make_trace((0.5, 0.5, 0.85), (0.5, 0.5, 0.85))
    assert gripper(trace).graspable == "Cube_red3"
    far = make_trace((0.5, 0.5, 0.88), (0.5, 0.5, 0.88))
    assert gripper(far).graspable is None


def test_hand_state_invariants():
    with pytest.raises(ValueError, match="moving"):
        HandSymState(False, True, None, "Cube_red3", None)
    with pytest.raises(ValueError, match="closed"):
        HandSymState(False, True, "Cube_red3", None, None)


def test_env_contacts_and_support():
    cubes = {"Cube_red3": (0.5, 0.5, 0.775), "Cube_blue3": (0.5, 0.5, 0.825)}
    trace = make_trace(
        (0.2, 0.2, 1.0),
        (0.2, 0.2, 1.0),
        cubes=cubes,
        contacts=(
            ("Cube_red3", "high_table"),
            ("Cube_red3", "Cube_blue3"),
            ("Cube_red3", "Robot_gripper"),
        ),
    )
    env = ground_trace(trace).env[0]
    # Hand contact is ignored; both object pairs remain.
    assert env.in_touch == frozenset(
        {
            frozenset({"Cube_red3", "high_table"}),
            frozenset({"Cube_red3", "Cube_blue3"}),
        }
    )
    assert env.on_top == frozenset(
        {("Cube_red3", "high_table"), ("Cube_blue3", "Cube_red3")}
    )


def test_on_top_needs_contact():
    with pytest.raises(ValueError, match="without contact"):
        EnvSymState(frozenset(), frozenset({("a", "b")}))


def test_grounding_starts_at_frame_one():
    trace = make_trace((0.5, 0.5, 1.0), (0.5, 0.5, 1.0))
    assert ground_trace(trace).times == [DT]


@given(
    speed=st.floats(min_value=0.0, max_value=1.0),
    threshold=st.floats(min_value=0.01, max_value=0.5),
)
def test_hand_move_matches_threshold(speed, threshold):
    """handMove is speed > threshold, for any threshold."""
    assume(abs(speed - threshold) > 1e-6)
    trace = make_trace((0.5, 0.5, 2.0), (0.5, 0.5, 2.0 - speed * DT))
    config = GroundingConfig(move_speed=threshold)
    assert gripper(trace, config).handMove == (speed > threshold)


@given(gap=st.floats(min_value=0.011, max_value=0.5))
def test_graspable_iff_within_distance(gap):
    assume(abs(gap - 0.10) > 1e-6)
    trace = make_trace((0.5, 0.5, 0.775 + gap), (0.5, 0.5, 0.775 + gap))
    hand = gripper(trace)
    assert (hand.graspable == "Cube_red3") == (gap < 0.10)


def test_hand_speed_is_a_backward_difference():
    # 0.3 m in 0.1 s: 3.0 m/s, up to the last bit of the division.
    trace = make_trace((0.0, 0.0, 1.0), (0.3, 0.0, 1.0))
    assert gripper(trace, GroundingConfig(move_speed=2.999)).handMove
    assert not gripper(trace, GroundingConfig(move_speed=3.001)).handMove


def test_seed7_corpus_matches_the_per_frame_oracle(corpus):
    """The oracle's states, with equal neighbours in every column one
    object, as ``extract``'s skip of unchanged frames relies on."""
    for demo in corpus:
        states = ground_trace(demo.trace)
        assert states_to_json(states) == states_to_json(
            grounding_oracle.ground_frames(frames_of(demo.trace), demo.trace.registry)
        )
        for column in (*states.hands.values(), states.env):
            assert all((a is b) == (a == b) for a, b in zip(column, column[1:]))


# Generated scenes: coordinates on a 1/32 m lattice make exactly equal
# distances, zero distances and distances exactly at a threshold common.
LATTICE = st.integers(0, 8).map(lambda k: k / 32)
COORD = st.one_of(LATTICE, st.floats(0.0, 0.25, allow_nan=False))
POINT = st.tuples(COORD, COORD, COORD)
SCENE_CUBES = ("Cube_b", "Cube_a", "Cube_d", "Cube_c")
SCENE_HANDS = ("Right_hand", "Left_hand")


def _scene_registry():
    instances = [ObjectInstance(hand, HAND) for hand in SCENE_HANDS]
    instances += [ObjectInstance(cube, CUBE) for cube in SCENE_CUBES]
    instances.append(ObjectInstance("table1", TABLE_TYPE))
    return EnvironmentRegistry("demonstration", instances)


def _near(point):
    """Points a few lattice steps from ``point`` along one axis."""
    return st.tuples(st.integers(0, 2), st.integers(-4, 4)).map(
        lambda step: tuple(
            x + step[1] / 32 if axis == step[0] else x for axis, x in enumerate(point)
        )
    )


@st.composite
def scenes(draw):
    n_frames = draw(st.integers(2, 6))
    held = draw(st.sampled_from((None, *SCENE_CUBES)))
    t = 0.0
    frames = []
    right = draw(POINT)
    for _ in range(n_frames):
        right = draw(st.one_of(POINT, _near(right)))
        objects = {}
        for cube in draw(st.permutations(SCENE_CUBES)):
            if cube == held:
                objects[cube] = right
            else:
                objects[cube] = draw(st.one_of(POINT, _near(right)))
        objects["table1"] = TABLE
        hands = {
            "Right_hand": HandSample(right, held is None, held),
            "Left_hand": HandSample(draw(POINT), True, None),
        }
        touching = sorted(objects) + sorted(hands)
        contacts = draw(st.sets(st.sampled_from(touching).flatmap(
            lambda a: st.sampled_from([b for b in touching if b != a]).map(
                lambda b: frozenset((a, b)))), max_size=4))
        frames.append(DemoFrame(t, hands, objects, frozenset(contacts)))
        t += draw(st.sampled_from((0.1, 0.125, 1 / 30)))
    return trace_of(frames, _scene_registry())


CONFIGS = st.builds(
    GroundingConfig,
    acted_on_dist=st.sampled_from((0.16, 0.0625, 0.25)),
    graspable_dist=st.sampled_from((0.10, 0.0625, 0.125)),
    move_speed=st.sampled_from((0.10, 0.0, 0.5)),
    approach_cosine=st.sampled_from((0.5, 0.0, -1.0, 0.9)),
)


@settings(max_examples=200, deadline=None)
@given(trace=scenes(), config=CONFIGS)
def test_generated_traces_match_the_per_frame_oracle(trace, config):
    states = ground_trace(trace, config)
    expected = grounding_oracle.ground_frames(frames_of(trace), trace.registry, config)
    assert states_to_json(states) == states_to_json(expected)
    assert states == expected
    assert list(states.hands) == list(expected.hands)


def test_distances_speeds_and_cosines_are_numpys_to_the_bit():
    """A threshold equal to what np.linalg.norm and np.dot give fails the
    strict test, and the next float past it passes."""
    up = lambda x: float(np.nextafter(x, np.inf))
    down = lambda x: float(np.nextafter(x, -np.inf))
    rng = np.random.default_rng(0)
    for _ in range(100):
        p0, p1 = (tuple(rng.uniform(0.4, 0.6, 3).tolist()) for _ in range(2))
        cube = tuple(rng.uniform(0.4, 0.6, 3).tolist())
        trace = make_trace(p0, p1, cubes={"Cube_red3": cube})
        velocity = (np.asarray(p1) - np.asarray(p0)) / DT
        offset = np.asarray(cube) - np.asarray(p1)
        speed = float(np.linalg.norm(velocity))
        d = float(np.linalg.norm(offset))
        cosine = float(np.dot(velocity, offset) / (speed * d))

        assert not gripper(trace, GroundingConfig(move_speed=speed)).handMove
        assert gripper(trace, GroundingConfig(move_speed=down(speed))).handMove
        assert gripper(trace, GroundingConfig(graspable_dist=d)).graspable is None
        assert gripper(trace, GroundingConfig(graspable_dist=up(d))).graspable == "Cube_red3"
        acted = dict(move_speed=0.0, approach_cosine=-1.0)
        assert gripper(trace, GroundingConfig(acted_on_dist=d, **acted)).actedOn is None
        assert gripper(trace, GroundingConfig(acted_on_dist=up(d), **acted)).actedOn == "Cube_red3"
        acted = dict(move_speed=0.0, acted_on_dist=1.0)
        assert gripper(trace, GroundingConfig(approach_cosine=cosine, **acted)).actedOn is None
        assert gripper(trace, GroundingConfig(approach_cosine=down(cosine), **acted)).actedOn == "Cube_red3"


def test_hand_atoms_spell_each_set_field():
    """Each true flag is a unary atom, each named cube a binary one."""
    busy = HandSymState(True, False, "Cube_red3", "Cube_blue3", "Cube_blue3")
    assert busy.atoms("Robot_gripper") == {
        ("handMove", ("Robot_gripper",)),
        ("inHand", ("Robot_gripper", "Cube_red3")),
        ("actedOn", ("Robot_gripper", "Cube_blue3")),
        ("graspable", ("Robot_gripper", "Cube_blue3")),
    }
    open_still = HandSymState(False, True, None, None, "Cube_red3")
    assert open_still.atoms("Left_hand") == {
        ("handOpen", ("Left_hand",)),
        ("graspable", ("Left_hand", "Cube_red3")),
    }
    assert HandSymState(False, False, None, None, None).atoms("Left_hand") == frozenset()


def test_env_atoms_are_contact_both_ways_and_support_one_way():
    stacked = EnvSymState(
        frozenset({frozenset({"Cube_red3", "Cube_blue3"}), frozenset({"Cube_blue3", "high_table"})}),
        frozenset({("Cube_red3", "Cube_blue3"), ("Cube_blue3", "high_table")}),
    )
    assert stacked.atoms() == {
        ("inTouch", ("Cube_red3", "Cube_blue3")),
        ("inTouch", ("Cube_blue3", "Cube_red3")),
        ("inTouch", ("Cube_blue3", "high_table")),
        ("inTouch", ("high_table", "Cube_blue3")),
        ("onTop", ("Cube_red3", "Cube_blue3")),
        ("onTop", ("Cube_blue3", "high_table")),
    }
    touching = EnvSymState(frozenset({frozenset({"Cube_red3", "Cube_blue3"})}), frozenset())
    assert touching.atoms() == {
        ("inTouch", ("Cube_red3", "Cube_blue3")),
        ("inTouch", ("Cube_blue3", "Cube_red3")),
    }
    assert EnvSymState(frozenset(), frozenset()).atoms() == frozenset()


def test_grounded_atoms_are_schema_literals(corpus, demo_registry):
    """Every atom of every grounded seed-7 state is a literal that
    SCHEMAS accepts, each argument of its declared type."""
    atoms = set()
    for demo in corpus:
        states = ground_trace(demo.trace)
        atoms.update(*(e.atoms() for e in states.env))
        atoms.update(*(h.atoms(n) for n, column in states.hands.items() for h in column))
    assert {pred for pred, _ in atoms} == set(SCHEMAS) - {NEQ}
    for pred, args in atoms:
        Literal(pred, args)
        for term, type_name in zip(args, SCHEMAS[pred]):
            assert type_name in (THING, demo_registry.type_of(term)), (pred, args)
