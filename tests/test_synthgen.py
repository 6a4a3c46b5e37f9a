"""Tests for synthgen.py.

The generator is the data source for everything downstream, so the tests
pin its determinism, the physical plausibility of the motion, and the
shape of the ground truth sidecar.
"""

import math
import re

import numpy as np
import pytest
import synth_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from demoplan import synthgen
from demoplan.grounding import GroundingConfig
from demoplan.ontology import EnvironmentRegistry, ObjectInstance, demonstration_registry
from demoplan.segmentation import ActivityLabel
from demoplan.synthgen import CUBE_REST_Z, DT, DemoScript, corpus_scripts, generate
from demoplan.trace import read_trace

# One frame count per corpus trace; any drift in the choreography shows
# up here first.
CORPUS_FRAMES = [272, 209, 339, 374, 401, 265, 465, 441, 126, 155, 207, 192]


@pytest.fixture(scope="module")
def registry():
    return demonstration_registry()


def test_script_validation():
    with pytest.raises(ValueError, match="at least one"):
        DemoScript(seed=1, hand="Right_hand", cubes_to_stack=())
    with pytest.raises(ValueError, match="duplicates"):
        DemoScript(seed=1, hand="Right_hand", cubes_to_stack=("Cube_red1", "Cube_red1"))
    with pytest.raises(ValueError, match="exceed"):
        DemoScript(
            seed=1, hand="Right_hand", cubes_to_stack=("Cube_red1",), approach_speed=0.05
        )
    with pytest.raises(ValueError, match="non-negative"):
        DemoScript(
            seed=1, hand="Right_hand", cubes_to_stack=("Cube_red1",), noise_sigma=-1.0
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("approach_speed", math.nan, "approach_speed must be a finite number exceeding 0.1 m/s"),
        ("approach_speed", math.inf, "approach_speed must be a finite number exceeding 0.1 m/s"),
        ("approach_speed", "0.3", "approach_speed must be a finite number exceeding 0.1 m/s"),
        ("noise_sigma", math.nan, "noise_sigma must be a finite non-negative number"),
        ("noise_sigma", math.inf, "noise_sigma must be a finite non-negative number"),
        ("hover_frames", 2.5, "hover_frames must be an integer, got 2.5"),
        ("take_frames", True, "take_frames must be an integer, got True"),
        ("seed", -1, "seed must be non-negative, got -1"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
    ],
)
def test_script_refuses_values_generate_cannot_run(field, value, message):
    """Each of these used to pass the script and fail deep inside
    generate, with an error that did not name the field."""
    fields = {"seed": 1, "hand": "Right_hand", "cubes_to_stack": ("Cube_red1",), field: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        DemoScript(**fields)


@pytest.mark.parametrize("field", ["false_starts", "hover_frames", "take_frames"])
def test_script_refuses_negative_counts(registry, field):
    """A negative count would silently drop a scripted step (take_frames
    -2 loses the Take activity); zero stays a valid script."""
    with pytest.raises(ValueError, match=f"{field} must be non-negative, got -2"):
        DemoScript(seed=1, hand="Right_hand", cubes_to_stack=("Cube_red1",), **{field: -2})
    script = DemoScript(seed=1, hand="Right_hand", cubes_to_stack=("Cube_red1",), **{field: 0})
    labels = [row["label"] for row in generate(script, registry).labels]
    assert {"Reach", "Stack"} <= set(labels)


def test_generate_refuses_an_instance_it_cannot_place(registry):
    """The demonstrator positions cubes and the table only, so a trace of
    a registry with a plain Thing would lack its position."""
    with_lamp = EnvironmentRegistry(
        registry.role, [*registry.instances, ObjectInstance("lamp1", "Thing")]
    )
    with pytest.raises(ValueError, match="cannot place lamp1"):
        generate(corpus_scripts(7, with_lamp)[0], with_lamp)


def test_corpus_scripts_cover_styles_and_tasks(registry):
    scripts = corpus_scripts(7, registry)
    assert len(scripts) == 12
    assert [s.noise_sigma for s in scripts] == [0.0] * 4 + [0.001] * 4 + [0.002] * 4
    assert [s.take_frames > 0 for s in scripts] == [True] * 8 + [False] * 4
    assert all(s.false_starts == 2 for s in scripts[4:8])
    # Tasks alternate hands and single/double stacks within each style.
    for block in (scripts[0:4], scripts[4:8], scripts[8:12]):
        assert [s.hand for s in block] == [
            "Right_hand", "Left_hand", "Right_hand", "Left_hand",
        ]
        assert [len(s.cubes_to_stack) for s in block] == [1, 1, 2, 2]
    # No script ever stacks more than two cubes.
    assert max(len(s.cubes_to_stack) for s in scripts) == 2


def test_corpus_scripts_are_seed_deterministic(registry):
    a = corpus_scripts(7, registry)
    b = corpus_scripts(7, registry)
    c = corpus_scripts(8, registry)
    assert a == b
    assert a != c


def test_generate_is_deterministic(registry):
    script = corpus_scripts(7, registry)[4]
    one = generate(script, registry)
    two = generate(script, registry)
    a, b = one.trace, two.trace
    assert np.array_equal(a.times, b.times)
    assert a.hands.keys() == b.hands.keys()
    for hand, (pos, opens, helds) in a.hands.items():
        assert np.array_equal(pos, b.hands[hand][0])
        assert (opens, helds) == b.hands[hand][1:]
    assert a.names == b.names
    assert np.array_equal(a.positions, b.positions)
    assert a.contacts == b.contacts
    assert one.labels == two.labels


def test_corpus_frame_counts(registry):
    demos = synthgen.generate_corpus(7, registry)
    assert [len(d.trace) for d in demos] == CORPUS_FRAMES


def test_labels_cover_every_frame_contiguously(registry):
    demo = generate(corpus_scripts(7, registry)[0], registry)
    n = len(demo.trace)
    by_hand = {}
    for row in demo.labels:
        ActivityLabel(row["label"])
        by_hand.setdefault(row["hand"], []).append(row)
    assert set(by_hand) == {"Right_hand", "Left_hand"}
    for rows in by_hand.values():
        assert rows[0]["start_frame"] == 0
        assert rows[-1]["end_frame"] == n - 1
        for prev, cur in zip(rows, rows[1:]):
            assert cur["start_frame"] == prev["end_frame"] + 1
            assert cur["label"] != prev["label"]


def test_idle_hand_never_leaves_home(registry):
    demo = generate(corpus_scripts(7, registry)[0], registry)
    # Script 0 moves the right hand; the left one must hold still.
    pos = demo.trace.hands["Left_hand"][0]
    assert np.array_equal(pos, np.broadcast_to(pos[0], pos.shape))
    labels = {row["label"] for row in demo.labels if row["hand"] == "Left_hand"}
    assert labels == {"IdleMotion"}


def test_held_cube_tracks_the_hand(registry):
    script = corpus_scripts(7, registry)[0]
    demo = generate(script, registry)
    cube = script.cubes_to_stack[0]
    pos, opens, helds = demo.trace.hands[script.hand]
    held_frames = [i for i, held in enumerate(helds) if held == cube]
    assert held_frames
    cube_pos = demo.trace.positions[held_frames, demo.trace.names.index(cube)]
    assert (np.linalg.norm(cube_pos - pos[held_frames], axis=1) < 0.08).all()
    assert not any(opens[i] for i in held_frames)


def test_unmoved_cubes_rest_on_the_table(registry):
    script = corpus_scripts(7, registry)[0]
    demo = generate(script, registry)
    movers = set(script.cubes_to_stack)
    trace = demo.trace
    for cube in registry.cubes:
        if cube in movers:
            continue
        assert trace.positions[:, trace.names.index(cube), 2] == pytest.approx(CUBE_REST_Z)
        assert all(frozenset({cube, "table1"}) in contacts for contacts in trace.contacts)


def test_stacked_cube_ends_on_its_base(registry):
    script = corpus_scripts(7, registry)[2]
    assert len(script.cubes_to_stack) == 2
    demo = generate(script, registry)
    mover, base = script.cubes_to_stack[1], script.cubes_to_stack[0]
    trace = demo.trace
    assert frozenset({mover, base}) in trace.contacts[-1]
    z = trace.positions[-1, :, 2]
    assert z[trace.names.index(mover)] > z[trace.names.index(base)]
    # The base itself was stacked onto the first slot earlier and now
    # carries nothing else.
    assert trace.hands[script.hand][2][-1] is None


@pytest.mark.parametrize("false_starts", [0, 1, 2])
def test_three_cube_script_builds_a_tower_of_three(registry, false_starts):
    """The cruise clears the tallest stack, so the leg up from the third
    placement is not empty: the script runs, its oracle agrees, and the
    last frame holds the three-high tower on its base."""
    script = DemoScript(
        seed=3, hand="Right_hand", cubes_to_stack=("Cube_red1", "Cube_green1", "Cube_blue1"),
        false_starts=false_starts,
    )
    demo = generate(script, registry)
    expected = synth_oracle.generate(script, registry)
    assert demo.labels == expected.labels
    assert demo.trace.contacts == expected.trace.contacts
    assert np.array_equal(demo.trace.positions, expected.trace.positions)
    contacts = demo.trace.contacts[-1]
    (base,) = {c for pair in contacts if "Cube_red1" in pair for c in pair}.difference(
        script.cubes_to_stack
    )
    tower = [base, *script.cubes_to_stack]
    assert all(frozenset(pair) in contacts for pair in zip(tower, tower[1:]))
    z = demo.trace.positions[-1, :, 2]
    heights = [z[demo.trace.names.index(cube)] for cube in tower]
    assert heights == pytest.approx([CUBE_REST_Z + i * synthgen.CUBE_SIZE for i in range(4)])


def test_noise_free_style_moves_at_scripted_speed(registry):
    script = corpus_scripts(7, registry)[0]
    assert script.noise_sigma == 0.0
    demo = generate(script, registry)
    pos = demo.trace.hands[script.hand][0]
    speeds = np.linalg.norm(np.diff(pos, axis=0), axis=1) / synthgen.DT
    # Legs run at the scripted speed; the fat final step may near-double it.
    assert speeds.max() < 2 * script.approach_speed + 1e-9


def test_write_corpus_layout(tmp_path, registry):
    demos = [generate(corpus_scripts(7, registry)[0], registry)]
    paths = synthgen.write_corpus(demos, tmp_path)
    assert paths == [tmp_path / "trace_00.jsonl"]
    assert (tmp_path / "trace_00.labels.json").exists()
    again = read_trace(paths[0], registry)
    assert len(again) == len(demos[0].trace)


# --- the columns against the per-frame oracle --------------------------------


@st.composite
def scripts(draw):
    """Scripts over the demonstration registry. Where a script cannot be
    run, generate and its oracle must fail alike."""
    registry = demonstration_registry()
    return DemoScript(
        seed=draw(st.integers(0, 2**32)),
        hand=draw(st.sampled_from(registry.hands)),
        cubes_to_stack=tuple(
            draw(st.lists(st.sampled_from(registry.cubes), min_size=1, max_size=3, unique=True))
        ),
        approach_speed=draw(st.floats(0.1, 1.0, exclude_min=True)),
        noise_sigma=draw(st.floats(0.0, 0.002)),
        false_starts=draw(st.integers(0, 2)),
        hover_frames=draw(st.integers(0, 10)),
        take_frames=draw(st.integers(0, 10)),
    )


def _bits(values) -> tuple:
    """An array's dtype, shape and bytes: equal only if bit for bit equal,
    so 0.0 and -0.0 differ."""
    values = np.asarray(values)
    return values.dtype, values.shape, values.tobytes()


def _snapshot_columns(frames, cubes):
    """The arguments of ``synthgen._evaluate_labels`` for ``frames``."""
    hand_pos = np.array([f.hand_pos for f in frames])
    cube_pos = np.array([[f.cube_pos[cube] for cube in cubes] for f in frames])
    return hand_pos, [f.held for f in frames], cube_pos


@settings(max_examples=60, deadline=None)
@given(script=scripts())
def test_generate_matches_the_per_frame_oracle(registry, script):
    """Labels and every trace column are bit for bit those of the
    snapshot timeline and the per-frame label loop; the timeline's own
    columns are the snapshots', except where a held cube is, and the
    label rule gives the oracle's labels on the snapshots."""
    try:
        expected = synth_oracle.generate(script, registry)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            generate(script, registry)
        return
    got = generate(script, registry)
    assert got.labels == expected.labels
    a, b = got.trace, expected.trace
    assert _bits(a.times) == _bits(b.times)
    assert a.hands.keys() == b.hands.keys()
    for hand, (pos, opens, helds) in a.hands.items():
        assert _bits(pos) == _bits(b.hands[hand][0])
        assert (opens, helds) == b.hands[hand][1:]
    assert a.names == b.names
    assert _bits(a.positions) == _bits(b.positions)
    assert a.contacts == b.contacts

    frames = synth_oracle.perform(synth_oracle.SnapshotTimeline, script, registry)[0].frames
    timeline = synth_oracle.perform(synthgen._Timeline, script, registry)[0]
    hand_pos, opens, helds, cube_pos, contacts = timeline.columns()
    cubes = sorted(registry.cubes)
    snap_pos, snap_helds, snap_cubes = _snapshot_columns(frames, cubes)
    assert _bits(hand_pos) == _bits(snap_pos)
    assert opens == [f.open for f in frames]
    assert helds == snap_helds
    assert contacts == [f.contacts for f in frames]
    free = np.array([[cube != held for cube in cubes] for held in helds])
    assert _bits(cube_pos[free]) == _bits(snap_cubes[free])

    config = GroundingConfig()
    labels = synthgen._evaluate_labels(snap_pos, snap_helds, snap_cubes, cubes, config)
    assert labels == synth_oracle.evaluate_labels(frames, config)


def _threshold_configs(frames, cubes):
    """(frame, config) pairs that put one threshold exactly at a speed,
    distance or cosine the oracle evaluates at that frame, or one step
    to the side where its test flips. A value that differs from the
    oracle's in the last bit passes a different test under one of them."""
    default = GroundingConfig()
    for i in range(1, len(frames)):
        cur, prev = frames[i], frames[i - 1]
        v = (np.asarray(cur.hand_pos) - np.asarray(prev.hand_pos)) / DT
        speed = float(np.linalg.norm(v))
        if cur.held is not None:
            # Put and Take differ only in whether the hand moves.
            for move_speed in (speed, np.nextafter(speed, 0)):
                yield i, GroundingConfig(move_speed=float(move_speed))
        if speed <= default.move_speed:
            continue
        for cube in cubes:
            offset = np.asarray(cur.cube_pos[cube]) - np.asarray(cur.hand_pos)
            d = float(np.linalg.norm(offset))
            if cube == cur.held or not 1e-9 <= d < default.acted_on_dist:
                continue
            cosine = float(np.dot(v, offset) / (speed * d))
            if cosine > default.approach_cosine:
                for dist in (d, np.nextafter(d, np.inf)):
                    yield i, GroundingConfig(acted_on_dist=float(dist))
            for bound in (cosine, np.nextafter(cosine, -np.inf)):
                if -1 <= bound <= 1:
                    yield i, GroundingConfig(approach_cosine=float(bound))


@settings(max_examples=40, deadline=None)
@given(script=scripts())
def test_labels_agree_at_their_thresholds(registry, script):
    """The label rule reduces with np.vecdot, so every speed, distance
    and cosine it tests has the bits of np.linalg.norm and np.dot: at
    each threshold placed on one of the oracle's values, both label the
    frame alike."""
    try:
        frames = synth_oracle.perform(synth_oracle.SnapshotTimeline, script, registry)[0].frames
    except ValueError:
        return
    cubes = sorted(registry.cubes)
    hand_pos, helds, cube_pos = _snapshot_columns(frames, cubes)
    for i, config in _threshold_configs(frames, cubes):
        pair = slice(i - 1, i + 1)
        got = synthgen._evaluate_labels(hand_pos[pair], helds[pair], cube_pos[pair], cubes, config)
        assert got == synth_oracle.evaluate_labels(frames[pair], config), (i, config)
