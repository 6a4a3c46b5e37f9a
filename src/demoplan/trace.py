"""Demonstration traces: timed frames of hand and object tracking data.

Traces are stored as JSON Lines, one frame per line:

    {"t": 1.2345,
     "hands": {"Right_hand": {"pos": [x, y, z], "open": true, "held": null}},
     "objects": {"Cube_red1": [x, y, z], "table1": [x, y, z]},
     "contacts": [["Cube_red1", "table1"]]}

Every frame tracks the same hands as the frame before it and gives a
position for every non-hand instance of the registry; ``read_trace``
rejects a trace that does not. A trace is held as columns over its
frames (``DemoTrace``), whose shapes must line up. ``write_trace`` joins
each line from texts it renders once per run of equal values in a
column, with the bytes of ``json.dumps`` of the frame. ``read_trace``
reads a file in that layout back by columns, decoding and checking each
distinct text in a column once, and reads any other file, or reports its
first error, line by line. Hands that a line also lists under
``objects`` are checked and then dropped.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .ontology import CUBE, HAND, EnvironmentRegistry, parse_json

_NUMBER_TYPES = frozenset((int, float))
_FLOAT_MAX = sys.float_info.max
_raw_decode = json.JSONDecoder().raw_decode


class TraceError(Exception):
    """Malformed or semantically invalid trace data.

    Carries the 1-based line number of the offending frame when known.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(eq=False)
class DemoTrace:
    """One demonstration as columns over its frames.

    Over n frames, ``times`` is (n,); ``hands`` maps each hand to its
    positions (n, 3) and its n open flags and n held cubes;
    ``positions`` is (n, len(names), 3), where ``positions[i, j]`` is
    where ``names[j]`` is at frame i; and ``contacts`` has n sets. Equal
    consecutive contact sets may be one object. Every column has its
    shape, every time and position is a finite float64, and the hands and
    their open and held values pass the reader's checks, or else
    ``TraceError`` is raised.
    """

    registry: EnvironmentRegistry
    times: np.ndarray
    hands: dict[str, tuple[np.ndarray, tuple[bool, ...], tuple[str | None, ...]]]
    names: list[str]
    positions: np.ndarray
    contacts: list[frozenset[frozenset[str]]]

    def __post_init__(self) -> None:
        if self.times.ndim != 1:
            raise TraceError(f"times has shape {self.times.shape}, need (frames,)")
        n = len(self.times)
        arrays = [("times", self.times, (n,))]
        arrays += [(f"hand {hand} pos", pos, (n, 3)) for hand, (pos, _, _) in self.hands.items()]
        arrays.append(("positions", self.positions, (n, len(self.names), 3)))
        for what, values, shape in arrays:
            if values.dtype != np.float64:
                raise TraceError(f"{what} has dtype {values.dtype}, need float64")
            if values.shape != shape:
                raise TraceError(f"{what} has shape {values.shape}, need {shape}")
        lists = [(f"hand {hand} open", opens) for hand, (_, opens, _) in self.hands.items()]
        lists += [(f"hand {hand} held", helds) for hand, (_, _, helds) in self.hands.items()]
        lists.append(("contacts", self.contacts))
        for what, values in lists:
            if len(values) != n:
                raise TraceError(f"{what} has {len(values)} entries, need {n}")
        for hand, (_, opens, helds) in self.hands.items():
            if hand not in self.registry or self.registry.type_of(hand) != HAND:
                raise TraceError(f"unknown hand instance: {hand}")
            # True == 1, so each distinct value is keyed by its type too.
            for _, is_open, held in dict.fromkeys(zip(map(type, opens), opens, helds)):
                _check_flags(hand, is_open, held, self.registry, None)
        columns = [("time", self.times)]
        columns += [(f"hand {hand} pos", pos) for hand, (pos, _, _) in self.hands.items()]
        columns += [
            (f"object {name} pos", self.positions[:, j]) for j, name in enumerate(self.names)
        ]
        for what, values in columns:
            bad = ~np.isfinite(values)
            if bad.any():
                raise TraceError(f"{what} at frame {np.argwhere(bad)[0][0]} is not finite")

    def __len__(self) -> int:
        return len(self.times)


def _is_number(value) -> bool:
    """A finite JSON number: booleans, NaN, infinities and ints too large
    for a float are not."""
    return type(value) in _NUMBER_TYPES and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _check_vec(value, what: str, line: int | None) -> None:
    if not (isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))):
        raise TraceError(f"{what} must be a 3-element finite number list, got {value!r}", line)


def _as_dict(doc: dict, key: str, line: int | None) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise TraceError(f"{key!r} must be a JSON object, got {value!r}", line)
    return value


def _hand_sample(name: str, sample, registry: EnvironmentRegistry, line: int | None) -> tuple:
    """The (pos, open, held) of hand ``name``'s sample; raises
    ``TraceError`` for the first check it fails."""
    if name not in registry or registry.type_of(name) != HAND:
        raise TraceError(f"unknown hand instance: {name}", line)
    if not isinstance(sample, dict):
        raise TraceError(f"hand sample for {name} must be an object", line)
    is_open, held, pos = sample.get("open"), sample.get("held"), sample.get("pos")
    _check_flags(name, is_open, held, registry, line)
    _check_vec(pos, f"hand {name} pos", line)
    return pos, is_open, held


def _check_flags(name: str, is_open, held, registry: EnvironmentRegistry, line: int | None) -> None:
    """Raises ``TraceError`` unless hand ``name``'s open value is a
    boolean and its held value None or a cube, held by a closed hand."""
    if type(is_open) is not bool:
        raise TraceError(f"hand {name} open must be a JSON boolean, got {is_open!r}", line)
    if held is not None:
        if held not in registry or registry.type_of(held) != CUBE:
            raise TraceError(f"held object {held!r} is not a known cube", line)
        if is_open:
            raise TraceError(f"hand {name} cannot be open while holding {held}", line)


def _object_pos(name: str, value, registry: EnvironmentRegistry, line: int | None) -> list:
    """Object ``name``'s position; raises ``TraceError`` for the first
    check it fails."""
    if name not in registry:
        raise TraceError(f"unknown object instance: {name}", line)
    _check_vec(value, f"object {name} pos", line)
    return value


def _contact_set(
    pairs: list, registry: EnvironmentRegistry, placed, line: int | None
) -> frozenset[frozenset[str]]:
    """The set of a frame's contact ``pairs``, where ``placed`` holds the
    names with a position in the frame; raises ``TraceError`` for the
    first check it fails."""
    found = set()
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise TraceError(f"contact must be a pair, got {pair!r}", line)
        a, b = pair
        for name in (a, b):
            if name not in registry:
                raise TraceError(f"contact names unknown instance: {name}", line)
            if name not in placed:
                raise TraceError(f"contact instance {name} has no position in frame", line)
        if a == b:
            raise TraceError(f"contact pairs an instance with itself: {a}", line)
        found.add(frozenset((a, b)))
    return frozenset(found)


def _documents(data: bytes) -> Iterator[tuple[int, object]]:
    """Each non-blank line of ``data`` by its 1-based number, decoded as
    JSON; raises ``TraceError`` for the first line that is not UTF-8 or
    not JSON."""
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            raw = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            message = f"not UTF-8 at byte {exc.start + 1}: {exc.reason}"
            raise TraceError(message, lineno) from None
        if not raw:
            continue
        try:
            doc = parse_json(raw)
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid JSON: {exc.msg}", lineno) from exc
        yield lineno, doc


def _read_lines(data: bytes, registry: EnvironmentRegistry) -> DemoTrace:
    """The trace in ``data``, one frame document per line in any JSON
    layout. Each line's checks run in one fixed order, and the first
    failing check of the first failing line raises ``TraceError``."""
    names = sorted(registry.non_hands)
    # Per frame: its time, objects' positions in ``names`` order and
    # contact set; per hand, its (pos, open, held) rows.
    times, rows, contacts, hand_rows, hands = [], [], [], {}, None
    for lineno, doc in _documents(data):
        if not isinstance(doc, dict):
            raise TraceError("frame must be a JSON object", lineno)
        for key in ("t", "hands", "objects", "contacts"):
            if key not in doc:
                raise TraceError(f"frame missing {key!r}", lineno)
        t, pairs = doc["t"], doc["contacts"]
        if not _is_number(t):
            raise TraceError(f"timestamp must be a finite number, got {t!r}", lineno)
        if not isinstance(pairs, list):
            raise TraceError(f"'contacts' must be a JSON list, got {pairs!r}", lineno)
        before, hands = hands, _as_dict(doc, "hands", lineno)
        for name, sample in hands.items():
            hand_rows.setdefault(name, []).append(_hand_sample(name, sample, registry, lineno))
        objects = _as_dict(doc, "objects", lineno)
        for name, value in objects.items():
            _object_pos(name, value, registry, lineno)
        missing = ", ".join(sorted(registry.non_hands.difference(objects)))
        if missing:
            raise TraceError(f"objects lacks a position for {missing}", lineno)
        rows.append([objects[name] for name in names])
        contacts.append(_contact_set(pairs, registry, objects.keys() | hands.keys(), lineno))
        t = float(t)
        if times and t <= times[-1]:
            raise TraceError(f"timestamp {t} does not increase over {times[-1]}", lineno)
        if before is not None and hands.keys() != before.keys():
            raise TraceError(
                f"frame tracks hands {sorted(hands)}, the frame before tracks {sorted(before)}",
                lineno,
            )
        times.append(t)
    if len(times) < 2:
        raise TraceError(f"trace has {len(times)} frames, need at least 2")
    hand_columns = {}
    for name, column in hand_rows.items():
        pos, opens, helds = zip(*column)
        hand_columns[name] = (np.array(pos, dtype=float), opens, helds)
    positions = np.array(rows, dtype=float).reshape(len(rows), len(names), 3)
    return DemoTrace(registry, np.array(times), hand_columns, names, positions, contacts)


def _whole(text: str):
    """The JSON value that is the whole of ``text``, else None."""
    try:
        value, end = _raw_decode(text)
    except (ValueError, RecursionError):
        return None
    return value if end == len(text) else None


def _columns(sections: list[str], sep: str, close: str, check) -> tuple | None:
    """The members of JSON object texts in the writer's layout, by column.

    Each section must list the same names in one order, its members
    split at ``sep``, which cuts the ``close`` off every member but the
    last. In braces, a member must decode whole as an object of one
    member, so joined back the members are the section and their merge
    is its decode. Each member is decoded and passed to ``check(name,
    value)`` once per distinct text in its column. Returns (names,
    values, codes), where line i's member j is ``values[codes[i, j]]``
    and ``values`` holds what ``check`` returned, or None if a section
    is not so.
    """
    distinct = dict.fromkeys(sections)
    rows = []
    for section in distinct:
        if not (section.startswith("{") and section.endswith("}")):
            return None
        rows.append(section[1:-1].split(sep) if len(section) > 2 else [])
    k = len(rows[0])
    if any(len(row) != k for row in rows):
        return None
    names, values, columns = [], [], []
    for j, column in enumerate(zip(*rows)):
        codes = dict.fromkeys(column)
        left, right = "{" + '"' * (j > 0), close * (j < k - 1) + "}"
        for piece in codes:
            doc = _whole(left + piece + right)
            if type(doc) is not dict or len(doc) != 1:
                return None
            [(name, value)] = doc.items()
            if len(names) == j:
                names.append(name)
            elif name != names[j]:
                return None
            codes[piece] = len(values)
            values.append(check(name, value))
        columns.append(list(map(codes.__getitem__, column)))
    if len(set(names)) != k:
        return None
    line_rows = list(map({section: i for i, section in enumerate(distinct)}.__getitem__, sections))
    codes = np.array(columns, dtype=np.intp).reshape(k, len(rows)).T
    return names, values, codes[line_rows]


def _read_columns(data: bytes, registry: EnvironmentRegistry) -> DemoTrace | None:
    """The trace in ``data`` if every line is in the writer's layout, else
    None; raises ``TraceError`` for some failing check, not always the
    first, and ``UnicodeDecodeError`` for text that is not UTF-8. Each
    piece of text is decoded and checked once: the times in one batch,
    each hand's and object's member once per distinct text in its
    column, and each distinct contacts text. ``data`` is dropped once
    decoded, and the decoded text once split into lines, so that a caller
    who passes the only reference holds at most two copies of the text."""
    if b"\r" in data or not data.endswith(b"\n"):
        return None
    text = data.decode("utf-8")
    del data
    lines = text.split("\n")
    del text
    lines.pop()  # the empty text after the last newline
    ts, hand_texts, object_texts, contact_texts = [], [], [], []
    for line in lines:
        if not (line.startswith('{"t": ') and line.endswith("}")):
            return None
        t, _, rest = line[6:-1].partition(', "hands": ')
        h, _, rest = rest.partition(', "objects": ')
        o, _, c = rest.partition(', "contacts": ')
        ts.append(t)
        hand_texts.append(h)
        object_texts.append(o)
        contact_texts.append(c)
    del lines
    # A batch of n numbers, each passing _is_number, is one number per
    # piece: a piece that is not one number adds or removes elements, or
    # makes one that is not a number.
    try:
        values = json.loads("[" + ",".join(ts) + "]")
    except (ValueError, RecursionError):
        return None
    if len(values) != len(ts) or len(ts) < 2 or not all(map(_is_number, values)):
        return None
    times = np.array(values, dtype=float)
    if not (times[1:] > times[:-1]).all():
        return None

    hands = _columns(hand_texts, '}, "', "}", lambda h, v: _hand_sample(h, v, registry, None))
    objects = _columns(object_texts, '], "', "]", lambda o, v: _object_pos(o, v, registry, None))
    del hand_texts, object_texts  # freed before the arrays are built
    if hands is None or objects is None:
        return None
    hand_names, samples, hand_codes = hands
    object_names, coords, object_codes = objects
    names = sorted(registry.non_hands)
    column = {name: j for j, name in enumerate(object_names)}
    if not registry.non_hands <= column.keys():
        return None
    coords = np.array(coords, dtype=float).reshape(-1, 3)
    positions = coords[object_codes[:, [column[name] for name in names]]]

    placed = {*object_names, *hand_names}
    sets = {}
    for c in dict.fromkeys(contact_texts):
        pairs = _whole(c)
        if type(pairs) is not list:
            return None
        sets[c] = _contact_set(pairs, registry, placed, None)

    pos, opens, helds = zip(*samples) if samples else ((), (), ())
    pos = np.array(pos, dtype=float).reshape(-1, 3)
    hand_columns = {}
    for j, name in enumerate(hand_names):
        codes = hand_codes[:, j]
        rows = codes.tolist()
        hand_columns[name] = (
            pos[codes], tuple(map(opens.__getitem__, rows)), tuple(map(helds.__getitem__, rows))
        )
    contacts = list(map(sets.__getitem__, contact_texts))
    return DemoTrace(registry, times, hand_columns, names, positions, contacts)


def read_trace(path: str | Path, registry: EnvironmentRegistry) -> DemoTrace:
    """Read a UTF-8 JSON Lines trace file into columns, reporting errors
    with line numbers.

    A file in the writer's layout is read by columns: each distinct text
    in a column is decoded and checked once, and a line is taken only if
    each of its pieces decodes as exactly one whole value, so that the
    line is the JSON object of those values. Any other file, and any file
    that fails a check, is read line by line: any valid JSON layout of a
    line reads the same, each line's checks run in one fixed order, and
    the first failing check of the first failing line is reported.
    """
    path = Path(path)
    try:
        # The column path gets the only reference to the file's bytes.
        trace = _read_columns(path.read_bytes(), registry)
    except (UnicodeDecodeError, TraceError):
        trace = None
    return _read_lines(path.read_bytes(), registry) if trace is None else trace


def _runs(bits: np.ndarray) -> tuple[list[int], list[int]]:
    """Where runs of equal values start in ``bits``, (frames, columns,
    values): the (frame, column) pairs, in frame order, of every column
    at the first frame and of each column at a frame where any of its
    values differs from the frame before."""
    starts = np.ones(bits.shape[:2], dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=2)
    frames, columns = np.nonzero(starts)
    return frames.tolist(), columns.tolist()


def _joined(
    n: int, width: int, frames: list[int], columns: list[int], entries: list[str]
) -> list[str]:
    """The text of a JSON object of ``width`` entries on each of ``n``
    frames, where ``entries[k]`` is column ``columns[k]``'s entry from
    ``frames[k]`` on, as ``_runs`` orders them."""
    current, texts = [""] * width, []
    for i, j, entry, end in zip(frames, columns, entries, [*frames[1:], n]):
        current[j] = entry
        if end != i:
            texts += ["{" + ", ".join(current) + "}"] * (end - i)
    return texts or ["{}"] * n


def write_trace(trace: DemoTrace, path: str | Path) -> None:
    """Write one line per frame, with hands, objects and contact pairs
    sorted by name and every coordinate a float.

    Each line is, byte for byte, ``json.dumps`` of the frame document
    above with its keys in that order. It is joined from texts made once
    per column: a hand's entry once per run of frames with equal position
    bits, ``open`` and ``held``, an object's entry once per run of equal
    position bits (``-0.0 == 0.0``, but the two print differently), and
    each contact set once. Floats are written with ``repr``, as
    ``json.dumps`` writes them; names, ``open`` and ``held`` with
    ``json.dumps``, once per distinct value. The file is written at once.
    """
    dumps, n = json.dumps, len(trace)
    hands = sorted(trace.hands)
    samples = [trace.hands[hand] for hand in hands]
    # The hands' open and held values, and a number for each distinct one.
    flag_keys = [v for _, opens, helds in samples for v in (opens, helds)]
    codes = {key: i for i, key in enumerate(dict.fromkeys(chain.from_iterable(flag_keys)))}
    flag_texts = [dumps(value) for value in codes]
    # (frames, hands, 3) positions, and their bits beside the two codes.
    hand_pos = np.array([pos for pos, _, _ in samples])
    hand_pos = hand_pos.reshape(len(hands), n, 3).transpose(1, 0, 2)
    flags = np.array([[*map(codes.__getitem__, k)] for k in flag_keys], dtype=np.uint64)
    flags = flags.reshape(len(hands), 2, n).transpose(2, 0, 1)
    frames, columns = _runs(np.concatenate((hand_pos.view(np.uint64), flags), axis=2))
    keys = [dumps(hand) for hand in hands]
    entries = [
        f'{keys[j]}: {{"pos": [{x!r}, {y!r}, {z!r}],'
        f' "open": {flag_texts[o]}, "held": {flag_texts[h]}}}'
        for j, (x, y, z), (o, h) in zip(
            columns, hand_pos[frames, columns].tolist(), flags[frames, columns].tolist()
        )
    ]
    hand_texts = _joined(n, len(hands), frames, columns, entries)

    order = sorted(range(len(trace.names)), key=trace.names.__getitem__)
    positions = trace.positions[:, order]
    frames, columns = _runs(positions.view(np.uint64))
    keys = [dumps(trace.names[k]) for k in order]
    entries = [
        f"{keys[j]}: [{x!r}, {y!r}, {z!r}]"
        for j, (x, y, z) in zip(columns, positions[frames, columns].tolist())
    ]
    object_texts = _joined(n, len(order), frames, columns, entries)

    contacts_text: dict[frozenset, str] = {}
    for contacts in trace.contacts:
        if contacts not in contacts_text:
            contacts_text[contacts] = dumps(sorted(sorted(pair) for pair in contacts))
    lines = zip(trace.times.tolist(), hand_texts, object_texts, trace.contacts)
    Path(path).write_text("".join(
        f'{{"t": {t!r}, "hands": {h}, "objects": {o}, "contacts": {contacts_text[c]}}}\n'
        for t, h, o, c in lines
    ))
