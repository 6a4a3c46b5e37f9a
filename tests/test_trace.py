"""Tests for trace.py."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoplan.ontology import (
    CUBE,
    HAND,
    TABLE,
    EnvironmentRegistry,
    ObjectInstance,
    execution_registry,
)
from demoplan.trace import (
    DemoFrame,
    DemoTrace,
    HandSample,
    TraceError,
    read_trace,
    write_trace,
)


def _frame(t, pos, held=None, open_=True, cube_pos=(0.5, 0.5, 0.775)):
    """The gripper at ``pos`` with Cube_red3 on the table and the other
    three execution cubes far out of reach."""
    return DemoFrame(
        t=t,
        hands={"Robot_gripper": HandSample(pos, open_, held)},
        objects={
            "Cube_red3": cube_pos,
            "Cube_green3": (10.0, 10.0, 0.775),
            "Cube_yellow3": (11.0, 10.0, 0.775),
            "Cube_blue3": (12.0, 10.0, 0.775),
            "high_table": (0.5, 0.5, 0.37),
        },
        contacts=frozenset({frozenset({"Cube_red3", "high_table"})}),
    )


@pytest.fixture
def registry():
    return execution_registry()


@pytest.fixture
def two_frames(registry):
    frames = [_frame(0.0, (0.0, 0.0, 1.0)), _frame(0.1, (0.3, 0.0, 1.0))]
    return DemoTrace(frames, registry)


def test_write_read_round_trip(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    again = read_trace(path, registry)
    assert len(again) == 2
    assert again.frames == two_frames.frames


def test_read_reports_line_numbers(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    lines = path.read_text().splitlines()

    broken = tmp_path / "broken.jsonl"
    broken.write_text(lines[0] + "\n{oops\n")
    with pytest.raises(TraceError, match="line 2"):
        read_trace(broken, registry)


def test_read_rejects_unknown_objects(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    text = path.read_text().replace("Cube_red3", "Cube_red9")
    path.write_text(text)
    with pytest.raises(TraceError, match="Cube_red9"):
        read_trace(path, registry)


def test_read_rejects_nonincreasing_time(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[0] + "\n")
    with pytest.raises(TraceError, match="increase"):
        read_trace(path, registry)


def test_read_needs_two_frames(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    first = path.read_text().splitlines()[0]
    path.write_text(first + "\n")
    with pytest.raises(TraceError, match="at least 2"):
        read_trace(path, registry)


def test_blank_lines_are_skipped(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    path.write_text(path.read_text().replace("\n", "\n\n"))
    assert len(read_trace(path, registry)) == 2


HAND_POS = "hand Robot_gripper pos must be a 3-element finite number list"
CUBE_POS = "object Cube_red3 pos must be a 3-element finite number list"
HAND_OPEN = "hand Robot_gripper open must be a JSON boolean"


def _set(path, value):
    """An edit of a frame document: set the value at a key path."""
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


def _drop(path):
    """An edit of a frame document: delete the key at a key path."""
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        del doc[last]
    return edit


def _write_with_second_frame_edited(trace, path, edit):
    write_trace(trace, path)
    first, second = path.read_text().splitlines()
    doc = json.loads(second)
    edit(doc)
    path.write_text(first + "\n" + json.dumps(doc) + "\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(("hands", "Robot_gripper", "pos", 0), float("nan")), HAND_POS),
        (_set(("objects", "Cube_red3", 2), float("-inf")), CUBE_POS),
        (_set(("hands", "Robot_gripper", "pos", 1), True), HAND_POS),
        (_set(("t",), float("inf")), "timestamp must be a finite number"),
        (_set(("t",), True), "timestamp must be a finite number"),
        (_set(("hands",), []), "'hands' must be a JSON object"),
        (_set(("objects",), []), "'objects' must be a JSON object"),
        (_set(("contacts",), 5), "'contacts' must be a JSON list"),
        (_set(("objects", "Cube_red3", 0), 10**400), CUBE_POS),
        (_set(("hands", "Robot_gripper", "open"), "no"), HAND_OPEN),
        (_set(("hands", "Robot_gripper", "open"), 1), HAND_OPEN),
        (_drop(("hands", "Robot_gripper", "open")), HAND_OPEN),
        (_drop(("objects", "Cube_blue3")), "objects lacks a position for Cube_blue3"),
        (_set(("objects",), {}), "objects lacks a position for Cube_blue3, Cube_green3,"),
        (_drop(("objects", "high_table")), "objects lacks a position for high_table"),
    ],
    ids=[
        "nan-coordinate",
        "infinite-coordinate",
        "boolean-coordinate",
        "infinite-timestamp",
        "boolean-timestamp",
        "hands-list",
        "objects-list",
        "contacts-number",
        "huge-int-coordinate",
        "string-open",
        "number-open",
        "missing-open",
        "missing-cube",
        "empty-objects",
        "missing-table",
    ],
)
def test_read_rejects_bad_values_with_the_line(tmp_path, registry, two_frames, edit, message):
    path = tmp_path / "trace.jsonl"
    _write_with_second_frame_edited(two_frames, path, edit)
    with pytest.raises(TraceError, match=f"^line 2: {message}"):
        read_trace(path, registry)


def test_read_accepts_hands_in_objects_and_hand_contacts(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"

    def edit(doc):
        doc["objects"]["Robot_gripper"] = doc["hands"]["Robot_gripper"]["pos"]
        doc["contacts"].append(["Robot_gripper", "Cube_red3"])

    _write_with_second_frame_edited(two_frames, path, edit)
    frame = read_trace(path, registry).frames[1]
    assert frame.objects["Robot_gripper"] == (0.3, 0.0, 1.0)
    assert frozenset(("Robot_gripper", "Cube_red3")) in frame.contacts


def _two_hand_registry():
    return EnvironmentRegistry(
        "demonstration",
        [
            ObjectInstance("Right_hand", HAND),
            ObjectInstance("Left_hand", HAND),
            ObjectInstance("Cube_red1", CUBE),
            ObjectInstance("table1", TABLE),
        ],
    )


@pytest.mark.parametrize(
    "hands_per_frame, line",
    [
        ([["Right_hand"], ["Right_hand", "Left_hand"]], 2),
        ([["Right_hand", "Left_hand"], ["Right_hand", "Left_hand"], ["Right_hand"]], 3),
        ([["Right_hand"], [], ["Right_hand"]], 2),
    ],
    ids=["appears", "leaves", "returns"],
)
def test_read_rejects_a_change_of_hands_with_the_line(tmp_path, hands_per_frame, line):
    """A hand's velocity is the backward difference to the frame before,
    so every frame tracks the hands of the frame before it."""
    registry = _two_hand_registry()
    frames = [
        DemoFrame(
            0.1 * i,
            {hand: HandSample((0.5, 0.5, 1.0), True, None) for hand in hands},
            {"Cube_red1": (0.5, 0.5, 0.775), "table1": (0.5, 0.5, 0.37)},
            frozenset(),
        )
        for i, hands in enumerate(hands_per_frame)
    ]
    path = tmp_path / "trace.jsonl"
    write_trace(DemoTrace(frames, registry), path)
    with pytest.raises(TraceError, match=f"^line {line}: frame tracks hands"):
        read_trace(path, registry)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.sampled_from(["Robot_gripper", "Cube_red3", "high_table"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=12), inner, max_size=3),
    max_leaves=8,
)
FRAME_PATHS = [
    ("t",), ("hands",), ("objects",), ("contacts",),
    ("hands", "Robot_gripper"), ("hands", "Robot_gripper", "pos"),
    ("hands", "Robot_gripper", "pos", 2), ("hands", "Robot_gripper", "open"),
    ("hands", "Robot_gripper", "held"), ("objects", "Cube_red3"),
    ("objects", "Cube_red3", 0), ("contacts", 0), ("contacts", 0, 1),
]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(FRAME_PATHS), value=JSON_VALUES)
def test_read_raises_only_trace_errors_on_fuzzed_values(tmp_path_factory, path, value):
    registry = execution_registry()
    frames = [_frame(0.0, (0.0, 0.0, 1.0)), _frame(0.1, (0.3, 0.0, 1.0))]
    trace_path = tmp_path_factory.mktemp("fuzz") / "trace.jsonl"
    _write_with_second_frame_edited(DemoTrace(frames, registry), trace_path, _set(path, value))
    try:
        read_trace(trace_path, registry)
    except TraceError as exc:
        assert exc.line == 2
