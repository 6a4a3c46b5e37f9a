"""Tests for synthgen.py.

The generator is the data source for everything downstream, so the tests
pin its determinism, the physical plausibility of the motion, and the
shape of the ground truth sidecar.
"""

import numpy as np
import pytest

from demoplan import synthgen
from demoplan.ontology import EnvironmentRegistry, ObjectInstance, demonstration_registry
from demoplan.segmentation import ActivityLabel
from demoplan.synthgen import CUBE_REST_Z, DemoScript, corpus_scripts, generate
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
