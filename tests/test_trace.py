"""Tests for trace.py."""

import copy
import functools
import itertools
import json
import math
import re
from dataclasses import replace

import grounding_oracle
import numpy as np
import pytest
import trace_oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from trace_oracle import DemoFrame, HandSample, frames_of, trace_of

from demoplan.grounding import ground_trace
from demoplan.ontology import (
    CUBE,
    HAND,
    TABLE,
    EnvironmentRegistry,
    ObjectInstance,
    execution_registry,
)
from demoplan.synthgen import write_corpus
from demoplan.trace import (
    DemoTrace,
    TraceError,
    _read_columns,
    _read_lines,
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
    return trace_of(frames, registry)


def test_write_read_round_trip(tmp_path, registry, two_frames):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    again = read_trace(path, registry)
    assert len(again) == 2
    assert frames_of(again) == frames_of(two_frames)


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


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe{\x00", "line 1: not UTF-8 at byte 1: invalid start byte"),
        (b"\n\n\xc3(\n", "line 3: not UTF-8 at byte 1: invalid continuation byte"),
        (b" \r\xe9\n", "line 2: not UTF-8 at byte 1: unexpected end of data"),
        (b"{oops\n\xff\n", "line 1: invalid JSON"),
    ],
    ids=["utf16-bom", "after-blank-lines", "after-a-carriage-return", "earlier-line-first"],
)
def test_read_rejects_text_that_is_not_utf8(tmp_path, registry, data, message):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    with pytest.raises(TraceError, match=f"^{message}"):
        read_trace(path, registry)


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"t": ' + "1" * 5000 + "}"],
    ids=["nested-too-deeply", "too-many-digits"],
)
def test_read_reports_json_the_decoder_cannot_hold(tmp_path, registry, two_frames, text):
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    path.write_text(path.read_text() + text + "\n")
    with pytest.raises(TraceError, match="^line 3: invalid JSON: ") as raised:
        read_trace(path, registry)
    assert raised.value.line == 3


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
        (_set(("objects", "Robot_gripper"), [0.3, float("nan"), 1.0]),
         "object Robot_gripper pos must be a 3-element finite number list"),
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
        "nan-hand-among-objects",
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
    trace = read_trace(path, registry)
    assert "Robot_gripper" not in trace.names
    assert frames_of(trace)[1].objects == frames_of(two_frames)[1].objects
    assert frozenset(("Robot_gripper", "Cube_red3")) in trace.contacts[1]


def test_seed7_traces_are_written_back_byte_for_byte(tmp_path, corpus, demo_registry):
    """Writing from the columns the reader filled gives the file read."""
    for path in write_corpus(corpus, tmp_path / "corpus"):
        again = tmp_path / "again.jsonl"
        write_trace(read_trace(path, demo_registry), again)
        assert again.read_bytes() == path.read_bytes(), path.name


# --- the column writer against the per-line oracle -------------------------

# Names JSON must escape, beside plain ones.
WRITER_HANDS = ["Robot_gripper", 'Hand "left"', "Hand\\right"]
WRITER_OBJECTS = ["Cube_red3", "high_table", "Cube\tblue", "Cubé", "Cube\u2028", "cube\n\x00"]
COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 5e-324, -2.5e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def written_traces(draw):
    """Traces of 0-2 hands and up to 40 frames whose rows, hand samples
    and contact sets repeat, change, change in one column or only in the
    sign of a zero. A hand may rest while its open or held value changes.
    The registry holds the hands, the objects as cubes and a table that
    the trace does not place."""
    hands = draw(st.lists(st.sampled_from(WRITER_HANDS), max_size=2, unique=True))
    names = draw(st.lists(st.sampled_from(WRITER_OBJECTS), max_size=4, unique=True))
    registry = EnvironmentRegistry("demonstration", [
        *(ObjectInstance(hand, HAND) for hand in hands),
        *(ObjectInstance(name, CUBE) for name in names),
        ObjectInstance("the table", TABLE),
    ])
    n = draw(st.integers(1, 40))

    def evolving(fresh, *variants):
        """n values: a fresh one, then each the one before, a variant of
        it or a fresh one."""
        values = [fresh()]
        for _ in range(n - 1):
            step = draw(st.sampled_from([lambda v: v, *variants, lambda v: fresh()]))
            values.append(step(values[-1]))
        return values

    def rows(k):
        coords = st.lists(COORDS, min_size=3 * k, max_size=3 * k)
        return lambda: np.array(draw(coords)).reshape(k, 3)

    def flip_zeros(row):
        return np.where(row == 0, -row, row)

    def one_column(row):
        row = row.copy()
        row[draw(st.integers(0, len(row) - 1))] = rows(1)()[0]
        return row

    pairs = [frozenset(pair) for pair in itertools.combinations(names + hands, 2)]

    def contact_set():
        if not pairs:
            return frozenset()
        return frozenset(draw(st.lists(st.sampled_from(pairs), max_size=3)))

    def equal_copy(contacts):
        return frozenset(set(contacts))

    columns = {}
    for hand in hands:
        helds = tuple(evolving(lambda: draw(st.sampled_from([None, *names]))))
        opens = evolving(lambda: draw(st.booleans()))
        opens = tuple(held is None and is_open for held, is_open in zip(helds, opens))
        if draw(st.booleans()):
            pos = np.concatenate(evolving(rows(1), flip_zeros))
        else:
            pos = np.tile(rows(1)(), (n, 1))
        columns[hand] = (pos, opens, helds)
    variants = [flip_zeros, one_column] if names else [flip_zeros]
    positions = np.stack(evolving(rows(len(names)), *variants))
    times = np.array(draw(st.lists(COORDS, min_size=n, max_size=n)))
    contacts = evolving(contact_set, equal_copy)
    return DemoTrace(registry, times, columns, names, positions, contacts)


@settings(max_examples=200, deadline=None)
@given(trace=written_traces())
def test_write_matches_the_per_line_oracle(tmp_path_factory, trace):
    """The column writer writes the bytes of one json.dumps per frame."""
    out = tmp_path_factory.getbasetemp() / "written"
    out.mkdir(exist_ok=True)
    write_trace(trace, out / "columns.jsonl")
    trace_oracle.write_trace(trace, out / "frames.jsonl")
    assert (out / "columns.jsonl").read_bytes() == (out / "frames.jsonl").read_bytes()


def _read_both(path, registry):
    """The trace at ``path`` as the column path reads it, asserting it
    does not decline the file and equals the per-line read: float bits,
    tuples with their types, and sets."""
    data = path.read_bytes()
    columns, lines = _read_columns(data, registry), _read_lines(data, registry)
    assert columns is not None
    assert columns.times.tobytes() == lines.times.tobytes()
    assert columns.names == lines.names
    assert columns.positions.shape == lines.positions.shape
    assert columns.positions.tobytes() == lines.positions.tobytes()
    assert list(columns.hands) == list(lines.hands)
    for hand, (pos, opens, helds) in columns.hands.items():
        pos_, opens_, helds_ = lines.hands[hand]
        assert pos.shape == pos_.shape and pos.tobytes() == pos_.tobytes()
        assert [(type(o), o) for o in opens] == [(type(o), o) for o in opens_]
        assert helds == helds_
    assert columns.contacts == lines.contacts
    return columns


@settings(max_examples=200, deadline=None)
@given(trace=written_traces(), data=st.data())
def test_the_column_reader_takes_every_written_trace(tmp_path_factory, trace, data):
    """A file the writer writes is read by columns: a silent fall back to
    the per-line path would cost the gain and pass every other test. The
    drawn trace is made readable: two or more frames at increasing times
    and the table placed."""
    n = len(trace)
    assume(n >= 2)
    times = data.draw(st.lists(COORDS, min_size=n, max_size=n, unique=True).map(sorted))
    table = np.array(data.draw(st.lists(COORDS, min_size=3, max_size=3)))
    positions = np.concatenate((trace.positions, np.tile(table, (n, 1, 1))), axis=1)
    names = [*trace.names, "the table"]
    trace = replace(trace, times=np.array(times), names=names, positions=positions)
    path = tmp_path_factory.getbasetemp() / "readable.jsonl"
    write_trace(trace, path)
    _read_both(path, trace.registry)


@pytest.mark.parametrize(
    "old, new",
    [
        ('"hands": ', '"t": 1.0, "hands": '),
        ('{"t": 0.1', '{"t": 0.1, 0.2'),
        (', "objects": ', '}, "objects": '),
        ('"high_table": ', '"high_table": [0.0, 0.0, 0.0], "high_table": '),
        ('"contacts": ', '"contacts": [], "contacts": '),
    ],
    ids=["repeated-key", "two-times", "hands-closed-early", "repeated-member", "contacts-twice"],
)
def test_the_column_reader_declines_a_piece_that_is_not_one_value(
    tmp_path, registry, two_frames, old, new
):
    """A line is read by columns only if each of its pieces is one whole
    value, members one by one; any other line, valid JSON or not, is left
    to the per-line path."""
    path = tmp_path / "trace.jsonl"
    write_trace(two_frames, path)
    first, second = path.read_bytes().splitlines(keepends=True)
    assert old.encode() in second
    assert _read_columns(first + second.replace(old.encode(), new.encode(), 1), registry) is None


def test_the_column_reader_takes_the_seed7_corpus(tmp_path, corpus, demo_registry):
    for demo, path in zip(corpus, write_corpus(corpus, tmp_path)):
        assert frames_of(_read_both(path, demo_registry)) == frames_of(demo.trace)


def test_write_reencodes_a_row_whose_zero_changes_sign(tmp_path, registry, two_frames):
    """-0.0 == 0.0, yet the two print differently."""
    positions = two_frames.positions.copy()
    positions[1, 0, 0] = -0.0
    positions[0, 0, 0] = 0.0
    trace = replace(two_frames, positions=positions)
    write_trace(trace, tmp_path / "trace.jsonl")
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    first, second = map(json.loads, lines)
    name = trace.names[0]
    assert math.copysign(1, first["objects"][name][0]) == 1
    assert math.copysign(1, second["objects"][name][0]) == -1


@pytest.mark.parametrize("what", ["time", "hand Right_hand pos", "object Cube_red1 pos"])
def test_a_trace_refuses_values_that_are_not_finite(corpus, demo_registry, what):
    """A trace built in memory is checked as a file is: a NaN coordinate
    of a moving hand would ground as a hand at rest."""
    states = ground_trace(corpus[0].trace)
    moving = next(i for i, state in enumerate(states, 1) if state.hands["Right_hand"].handMove)
    frames = frames_of(corpus[0].trace)
    frame = frames[moving]
    hand = frame.hands["Right_hand"]
    frames[moving] = {
        "time": replace(frame, t=float("nan")),
        "hand Right_hand pos": replace(frame, hands={
            **frame.hands, "Right_hand": replace(hand, pos=(float("nan"), *hand.pos[1:]))}),
        "object Cube_red1 pos": replace(frame, objects={
            **frame.objects, "Cube_red1": (0.2, float("-inf"), 0.775)}),
    }[what]
    with pytest.raises(TraceError, match=f"^{what} at frame {moving} is not finite$"):
        trace_of(frames, demo_registry)


def _hand_cut(k):
    """An edit of a trace: the gripper's k-th column (pos, open, held)
    a frame short."""
    def cut(trace):
        column = list(trace.hands["Robot_gripper"])
        column[k] = column[k][:-1]
        return {"hands": {"Robot_gripper": tuple(column)}}
    return cut


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda trace: {"times": trace.times[:, None]},
         r"times has shape \(3, 1\), need \(frames,\)"),
        (_hand_cut(0), r"hand Robot_gripper pos has shape \(2, 3\), need \(3, 3\)"),
        (_hand_cut(1), "hand Robot_gripper open has 2 entries, need 3"),
        (_hand_cut(2), "hand Robot_gripper held has 2 entries, need 3"),
        (lambda trace: {"positions": trace.positions[:, :-1]},
         r"positions has shape \(3, 4, 3\), need \(3, 5, 3\)"),
        (lambda trace: {"contacts": trace.contacts[:-1]}, "contacts has 2 entries, need 3"),
    ],
    ids=["times", "hand-pos", "hand-open", "hand-held", "positions", "contacts"],
)
def test_a_trace_refuses_columns_that_do_not_line_up(registry, cut, message):
    """A column a frame short would crash the writer, or be cut short by
    a writer that zips its columns."""
    trace = trace_of([_frame(0.1 * i, (0.1 * i, 0.0, 1.0)) for i in range(3)], registry)
    with pytest.raises(TraceError, match=f"^{message}$"):
        replace(trace, **cut(trace))


@pytest.mark.parametrize("what, dtype", [("times", np.float32), ("positions", np.int64)])
def test_a_trace_refuses_columns_that_are_not_float64(two_frames, what, dtype):
    """An integer coordinate would be written without its point, and the
    writer compares coordinates by their 64 bits."""
    column = getattr(two_frames, what).astype(dtype)
    with pytest.raises(TraceError, match=f"^{what} has dtype {column.dtype}, need float64$"):
        replace(two_frames, **{what: column})


@pytest.mark.parametrize(
    "hand, opens, helds, message",
    [
        ("Robot_gripper", (1, 1), (None, None),
         "hand Robot_gripper open must be a JSON boolean, got 1"),
        ("Robot_gripper", (True, False), (None, "Cube_nope"),
         "held object 'Cube_nope' is not a known cube"),
        ("Robot_gripper", (True, True), (None, "Cube_red3"),
         "hand Robot_gripper cannot be open while holding Cube_red3"),
        ("Cube_red3", (True, True), (None, None), "unknown hand instance: Cube_red3"),
    ],
    ids=["open-int", "held-unknown", "open-holding", "not-a-hand"],
)
def test_a_trace_refuses_hand_values_the_reader_refuses(two_frames, hand, opens, helds, message):
    """A trace built in memory holds only what the reader takes back: an
    open flag of 1 is written as 1, which the reader refuses, as it
    refuses an unknown held cube."""
    pos = two_frames.hands["Robot_gripper"][0]
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        replace(two_frames, hands={hand: (pos, opens, helds)})


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
    docs = [
        {
            "t": 0.1 * i,
            "hands": {hand: {"pos": [0.5, 0.5, 1.0], "open": True, "held": None} for hand in hands},
            "objects": {"Cube_red1": [0.5, 0.5, 0.775], "table1": [0.5, 0.5, 0.37]},
            "contacts": [],
        }
        for i, hands in enumerate(hands_per_frame)
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
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
    _write_with_second_frame_edited(trace_of(frames, registry), trace_path, _set(path, value))
    try:
        read_trace(trace_path, registry)
    except TraceError as exc:
        assert exc.line == 2


# --- the column reader against the per-frame oracle ------------------------

WINDOW = 12


@pytest.fixture(scope="module")
def seed7_lines(tmp_path_factory, corpus):
    """The lines of the seed-7 corpus's first trace."""
    path = tmp_path_factory.mktemp("seed7") / "trace_00.jsonl"
    write_trace(corpus[0].trace, path)
    return path.read_text().splitlines()


# Each mutation edits the first of ``docs``, the frames from a chosen
# line to the end of the window; a few edit all of them. The chosen line
# is often the first, so that every line of a file may change alike and
# the file stay in the writer's layout.

def _bad_type(draw, docs):
    _set(draw(st.sampled_from(SEED7_PATHS)), draw(JSON_VALUES))(docs[0])


def _non_finite(draw, docs):
    doc = docs[0]
    where = draw(st.sampled_from(
        [("hands", hand, "pos") for hand in doc["hands"]] + [("objects", name) for name in doc["objects"]]
    ))
    _set((*where, draw(st.integers(0, 2))), draw(st.sampled_from([float("nan"), float("inf"), 10**400])))(doc)


def _missing_key(draw, docs):
    doc = docs[0]
    key = draw(st.sampled_from(["t", "hands", "objects", "contacts", "open", "pos", "held"]))
    if key in doc:
        del doc[key]
    else:
        doc["hands"][draw(st.sampled_from(sorted(doc["hands"])))].pop(key)


def _missing_object(draw, docs):
    del docs[0]["objects"][draw(st.sampled_from(sorted(docs[0]["objects"])))]


def _hand_leaves(draw, docs):
    del docs[0]["hands"][draw(st.sampled_from(sorted(docs[0]["hands"])))]


def _hand_as_object_and_contact(draw, docs):
    """From this line on, a hand touches something and may be listed
    among the objects; it may leave on the last line."""
    hand = draw(st.sampled_from(sorted(docs[0]["hands"])))
    listed, other = draw(st.booleans()), draw(st.sampled_from(sorted(docs[0]["objects"])))
    for doc in docs:
        if listed:
            doc["objects"][hand] = doc["hands"][hand]["pos"]
        doc["contacts"].append([hand, other])
    if draw(st.booleans()):
        del docs[-1]["hands"][hand]


def _z_order_flip(draw, docs):
    """Swap the heights of a touching pair and keep the contact list."""
    doc = docs[0]
    a, b = draw(st.sampled_from(doc["contacts"]))
    pa, pb = doc["objects"][a], doc["objects"][b]
    pa[2], pb[2] = pb[2], pa[2]


def _objects_reordered(draw, docs):
    docs[0]["objects"] = dict(draw(st.permutations(list(docs[0]["objects"].items()))))


def _integer_coordinate(draw, docs):
    name = draw(st.sampled_from(sorted(docs[0]["objects"])))
    docs[0]["objects"][name][draw(st.integers(0, 2))] = draw(st.integers(-2, 2))


def _repeated_time(draw, docs):
    docs[0]["t"] = 0.0


def _tail_repeated(draw, docs):
    """Every later line repeats this line's objects and contacts: its
    tail, under the heads of its own."""
    for doc in docs[1:]:
        doc["objects"] = copy.deepcopy(docs[0]["objects"])
        doc["contacts"] = copy.deepcopy(docs[0]["contacts"])


def _split_in_a_string(draw, docs):
    """From this line on, a hand's name or held cube spells the
    ``"objects"`` key, the whole split or a member split."""
    hand = draw(st.sampled_from(sorted(docs[0]["hands"])))
    text = draw(st.sampled_from(["objects", ', "objects": ', '}, "', '], "']))
    rename = draw(st.booleans())
    for doc in docs:
        if rename:
            doc["hands"] = {text if h == hand else h: s for h, s in doc["hands"].items()}
        else:
            doc["hands"][hand]["held"] = text


def _hands_reordered(draw, docs):
    """Some lines list their hands in another order: the hands of each
    line are compared as a set."""
    for doc in docs:
        if draw(st.booleans()):
            doc["hands"] = dict(reversed(doc["hands"].items()))


def _open_one(draw, docs):
    """After a line where a hand is open, the next line repeats its
    sample with ``"open": 1``: ``1 == True``, but only a JSON boolean is a
    finger state."""
    hand = draw(st.sampled_from(sorted(docs[0]["hands"])))
    sample = docs[0]["hands"][hand]
    if sample["open"] is True:
        docs[1]["hands"][hand] = {**sample, "open": 1}


def _untracked_hand_contact(draw, docs):
    """From this line on, a hand is not tracked, and contacts name it on
    some lines, or a tracked hand on others."""
    hands = sorted(docs[0]["hands"])
    gone, other = draw(st.sampled_from(hands)), draw(st.sampled_from(sorted(docs[0]["objects"])))
    for doc in docs:
        del doc["hands"][gone]
    for doc in docs:
        if draw(st.booleans()):
            doc["contacts"].append([draw(st.sampled_from(hands)), other])


# Layout edits: from the chosen line on, each line is written in a layout
# the writer never uses. A line's ``layout`` turns it into text.

class _Line(dict):
    """A frame document, written as ``layout`` of it."""

    layout = staticmethod(json.dumps)


def _keys_reordered(draw, docs):
    order = draw(st.permutations(["t", "hands", "objects", "contacts"]))
    rank = {key: i for i, key in enumerate(order)}
    for doc in docs:
        doc.layout = lambda d, write=doc.layout: write(
            dict(sorted(d.items(), key=lambda item: rank.get(item[0], len(rank))))
        )


def _compact_separators(draw, docs):
    for doc in docs:
        doc.layout = functools.partial(json.dumps, separators=(",", ":"))


def _key_after_contacts(draw, docs):
    """A second ``objects``, a head key again, or a new key, after
    ``contacts``: the last value of a key wins, at its first position."""
    key = draw(st.sampled_from(["objects", "t", "hands", "extra"]))
    value = json.dumps(draw(st.just(docs[0].get(key)) | JSON_VALUES))
    for doc in docs:
        doc.layout = lambda d, write=doc.layout: f"{write(d)[:-1]}, {json.dumps(key)}: {value}}}"


def _head_closed_early(draw, docs):
    """One line's head closes the frame before its tail: invalid JSON
    whose head alone decodes as an object."""
    docs[0].layout = lambda d, write=docs[0].layout: write(d).replace(
        ', "objects": ', '}, "objects": ', 1
    )


def _raw_line_separator(draw, docs):
    """A raw U+2028, a line break to ``str.splitlines`` but not to JSON
    Lines, inside a string of a key no reader reads."""
    hand = draw(st.sampled_from(sorted(docs[0]["hands"])))
    for doc in docs:
        doc["hands"][hand]["note\u2028"] = "a\u2028b"
        doc.layout = functools.partial(json.dumps, ensure_ascii=False)


MUTATIONS = [
    _bad_type, _non_finite, _missing_key, _missing_object, _hand_leaves,
    _hand_as_object_and_contact, _z_order_flip, _objects_reordered,
    _integer_coordinate, _repeated_time, _tail_repeated, _split_in_a_string,
    _hands_reordered, _open_one, _untracked_hand_contact,
    _keys_reordered, _compact_separators, _key_after_contacts, _head_closed_early,
    _raw_line_separator,
]
SEED7_PATHS = [
    ("t",), ("hands",), ("objects",), ("contacts",),
    ("hands", "Right_hand"), ("hands", "Right_hand", "pos"),
    ("hands", "Left_hand", "pos", 1), ("hands", "Right_hand", "open"),
    ("hands", "Right_hand", "held"), ("objects", "Cube_red1"),
    ("objects", "table1", 2), ("contacts", 0), ("contacts", 0, 1),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_matches_the_per_frame_oracle(tmp_path_factory, seed7_lines, demo_registry, data):
    """Mutated windows of a seed-7 trace, some lines in layouts of their
    own: both readers accept a file with equal frames and equal grounded
    states, or reject it with the same message and line. The column
    reader drops the hands that a line lists among its objects, so the
    oracle's frames are compared without them."""
    start = data.draw(st.integers(0, len(seed7_lines) - WINDOW))
    docs = [_Line(json.loads(raw)) for raw in seed7_lines[start:start + WINDOW]]
    for _ in range(data.draw(st.integers(0, 3))):
        mutate = data.draw(st.sampled_from(MUTATIONS))
        try:
            mutate(data.draw, docs[data.draw(st.just(0) | st.integers(0, WINDOW - 1)):])
        except (KeyError, TypeError, IndexError, AttributeError, ValueError):
            pass  # an earlier mutation broke what this one edits
    path = tmp_path_factory.mktemp("diff") / "trace.jsonl"
    path.write_text("".join(doc.layout(doc) + "\n" for doc in docs), encoding="utf-8")
    try:
        expected = trace_oracle.read_trace(path, demo_registry)
    except TraceError as exc:
        with pytest.raises(TraceError) as got:
            read_trace(path, demo_registry)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    trace = read_trace(path, demo_registry)
    assert len(trace) == len(expected)
    hands = set(demo_registry.hands)
    assert frames_of(trace) == [
        DemoFrame(f.t, f.hands, {n: p for n, p in f.objects.items() if n not in hands}, f.contacts)
        for f in expected
    ]
    assert ground_trace(trace) == grounding_oracle.ground_frames(expected, demo_registry)
