"""Traces as frames: the per-frame reader and writer, the oracles for
the column reader and writer.

This is the original reader of ``demoplan.trace``: it validates one
frame document at a time, in a fixed order of checks, and builds a
``DemoFrame`` with a ``HandSample`` per hand. The tests compare
``read_trace`` against it: the same files accepted with equal frames,
the same files rejected with the same ``TraceError`` text and line.
``write_trace`` is the original writer, one ``json.dumps`` of a whole
frame document per line; the column writer must write its bytes.

Frames are also how the tests build traces by hand: ``trace_of`` turns
a list of them into a ``DemoTrace`` and ``frames_of`` turns one back.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from demoplan.ontology import CUBE, HAND, EnvironmentRegistry
from demoplan.trace import DemoTrace, TraceError

_NUMBER_TYPES = frozenset((int, float))
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class HandSample:
    """One hand at one instant: position in metres, finger state, held cube."""

    pos: tuple[float, float, float]
    open: bool
    held: str | None


@dataclass(frozen=True)
class DemoFrame:
    t: float
    hands: dict[str, HandSample]
    objects: dict[str, tuple[float, float, float]]
    contacts: frozenset[frozenset[str]]


def trace_of(frames: list[DemoFrame], registry: EnvironmentRegistry) -> DemoTrace:
    """The trace of ``frames``, over the hands and objects of the first."""
    names = sorted(frames[0].objects)
    hands = {}
    for hand in frames[0].hands:
        samples = [frame.hands[hand] for frame in frames]
        pos, opens, helds = zip(*((s.pos, s.open, s.held) for s in samples))
        hands[hand] = (np.array(pos, dtype=float), opens, helds)
    positions = np.array([[frame.objects[name] for name in names] for frame in frames], dtype=float)
    times = np.array([frame.t for frame in frames], dtype=float)
    return DemoTrace(registry, times, hands, names, positions, [frame.contacts for frame in frames])


def frames_of(trace: DemoTrace) -> list[DemoFrame]:
    """The frames of ``trace``; ``trace_of`` of them is an equal trace."""
    hands = {
        hand: [HandSample(tuple(p), o, h) for p, o, h in zip(pos.tolist(), opens, helds)]
        for hand, (pos, opens, helds) in trace.hands.items()
    }
    return [
        DemoFrame(
            t,
            {hand: samples[i] for hand, samples in hands.items()},
            dict(zip(trace.names, map(tuple, row))),
            trace.contacts[i],
        )
        for i, (t, row) in enumerate(zip(trace.times.tolist(), trace.positions.tolist()))
    ]


def _is_number(value) -> bool:
    """A finite JSON number: booleans, NaN, infinities and ints too large
    for a float are not."""
    return type(value) in _NUMBER_TYPES and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _as_vec(value, what: str, line: int | None) -> tuple[float, float, float]:
    if isinstance(value, (list, tuple)) and len(value) == 3:
        x, y, z = value
        if _is_number(x) and _is_number(y) and _is_number(z):
            return (float(x), float(y), float(z))
    raise TraceError(f"{what} must be a 3-element finite number list, got {value!r}", line)


def _as_dict(doc: dict, key: str, line: int | None) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise TraceError(f"{key!r} must be a JSON object, got {value!r}", line)
    return value


def frame_from_json(doc: dict, registry: EnvironmentRegistry, line: int | None = None) -> DemoFrame:
    """Validate one frame document against the registry."""
    if not isinstance(doc, dict):
        raise TraceError("frame must be a JSON object", line)
    for key in ("t", "hands", "objects", "contacts"):
        if key not in doc:
            raise TraceError(f"frame missing {key!r}", line)
    if not _is_number(doc["t"]):
        raise TraceError(f"timestamp must be a finite number, got {doc['t']!r}", line)
    if not isinstance(doc["contacts"], list):
        raise TraceError(f"'contacts' must be a JSON list, got {doc['contacts']!r}", line)

    hands: dict[str, HandSample] = {}
    for name, sample in _as_dict(doc, "hands", line).items():
        if name not in registry or registry.type_of(name) != HAND:
            raise TraceError(f"unknown hand instance: {name}", line)
        if not isinstance(sample, dict):
            raise TraceError(f"hand sample for {name} must be an object", line)
        is_open = sample.get("open")
        if type(is_open) is not bool:
            raise TraceError(f"hand {name} open must be a JSON boolean, got {is_open!r}", line)
        held = sample.get("held")
        if held is not None:
            if held not in registry or registry.type_of(held) != CUBE:
                raise TraceError(f"held object {held!r} is not a known cube", line)
            if is_open:
                raise TraceError(f"hand {name} cannot be open while holding {held}", line)
        hands[name] = HandSample(
            pos=_as_vec(sample.get("pos"), f"hand {name} pos", line),
            open=is_open,
            held=held,
        )

    objects: dict[str, tuple[float, float, float]] = {}
    for name, pos in _as_dict(doc, "objects", line).items():
        if name not in registry:
            raise TraceError(f"unknown object instance: {name}", line)
        objects[name] = _as_vec(pos, f"object {name} pos", line)
    missing = registry.non_hands.difference(objects)
    if missing:
        raise TraceError(f"objects lacks a position for {', '.join(sorted(missing))}", line)

    contacts: set[frozenset[str]] = set()
    for pair in doc["contacts"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TraceError(f"contact must be a pair, got {pair!r}", line)
        a, b = pair
        for name in (a, b):
            if name not in registry:
                raise TraceError(f"contact names unknown instance: {name}", line)
            if name not in objects and name not in hands:
                raise TraceError(f"contact instance {name} has no position in frame", line)
        if a == b:
            raise TraceError(f"contact pairs an instance with itself: {a}", line)
        contacts.add(frozenset((a, b)))

    return DemoFrame(float(doc["t"]), hands, objects, frozenset(contacts))


def read_trace(path: str | Path, registry: EnvironmentRegistry) -> list[DemoFrame]:
    """Read a JSON Lines trace file, reporting errors with line numbers."""
    frames: list[DemoFrame] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceError(f"invalid JSON: {exc.msg}", lineno) from exc
            frame = frame_from_json(doc, registry, lineno)
            before = frames[-1] if frames else None
            if before and frame.t <= before.t:
                raise TraceError(f"timestamp {frame.t} does not increase over {before.t}", lineno)
            if before and frame.hands.keys() != before.hands.keys():
                raise TraceError(
                    f"frame tracks hands {sorted(frame.hands)},"
                    f" the frame before tracks {sorted(before.hands)}",
                    lineno,
                )
            frames.append(frame)
    if len(frames) < 2:
        raise TraceError(f"trace has {len(frames)} frames, need at least 2")
    return frames


def write_trace(trace: DemoTrace, path: str | Path) -> None:
    """Write one line per frame, with hands, objects and contact pairs
    sorted by name and every coordinate a float."""
    hands = sorted(
        (hand, pos.tolist(), opens, helds) for hand, (pos, opens, helds) in trace.hands.items()
    )
    with open(path, "w") as fh:
        for i, (t, row) in enumerate(zip(trace.times.tolist(), trace.positions.tolist())):
            doc = {
                "t": t,
                "hands": {
                    hand: {"pos": pos[i], "open": opens[i], "held": helds[i]}
                    for hand, pos, opens, helds in hands
                },
                "objects": dict(sorted(zip(trace.names, row))),
                "contacts": sorted(sorted(pair) for pair in trace.contacts[i]),
            }
            fh.write(json.dumps(doc) + "\n")
