"""Demonstrations frame by frame: the oracle for ``synthgen``'s columns.

This is the original timeline and label rule of ``demoplan.synthgen``:
the timeline keeps one snapshot of the whole scene per frame, and the
labels are evaluated frame by frame and cube by cube with
``np.linalg.norm`` and ``np.dot``. ``generate`` drives this timeline
with the same script steps as ``synthgen.generate`` and assembles the
trace from the snapshots, so the tests can compare the two bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from demoplan import synthgen
from demoplan.grounding import GroundingConfig, runs
from demoplan.ontology import EnvironmentRegistry
from demoplan.synthgen import DT, TABLE_BODY_Z, DemoScript, GeneratedDemo
from demoplan.trace import DemoTrace


@dataclass(frozen=True)
class Frame:
    hand_pos: tuple[float, float, float]
    open: bool
    held: str | None
    cube_pos: dict[str, tuple[float, float, float]]
    contacts: frozenset[frozenset[str]]


class SnapshotTimeline:
    """Clean snapshots of one scene as the scripted hand moves through it;
    the script edits ``open``, ``held`` and ``contacts`` in between."""

    def __init__(
        self,
        start: np.ndarray,
        cube_pos: dict[str, tuple[float, float, float]],
        table: str,
    ) -> None:
        self.pos = np.array(start, dtype=float)
        self.open = True
        self.held: str | None = None
        self.cube_pos = dict(cube_pos)
        self.contacts = {frozenset((cube, table)) for cube in cube_pos}
        self.frames: list[Frame] = []

    def hold(self, n_frames: int = 1) -> None:
        snapshot = Frame(
            tuple(self.pos), self.open, self.held, dict(self.cube_pos), frozenset(self.contacts)
        )
        self.frames += [snapshot] * n_frames

    def redo_last(self) -> None:
        """Retake the last snapshot, so it shows the edits made since."""
        self.frames.pop()
        self.hold()

    def move_to(self, target, speed: float) -> None:
        """Straight leg at constant speed; the final step absorbs the
        division remainder so no frame moves slower than requested."""
        target = np.asarray(target, dtype=float)
        start = self.pos.copy()
        dist = float(np.linalg.norm(target - start))
        step = speed * DT
        n_full = math.floor(dist / step)
        if n_full < 1:
            raise ValueError(f"leg of {dist:.4f} m is shorter than one step")
        direction = (target - start) / dist
        for i in range(1, n_full + 1):
            self.pos = target if i == n_full else start + direction * step * i
            if self.held is not None:
                self.cube_pos[self.held] = tuple(self.pos)
            self.hold()


def evaluate_labels(timeline: list[Frame], config: GroundingConfig) -> list[str]:
    """Per-frame activity of the scripted hand on the clean trajectory."""
    labels = ["IdleMotion"]
    for i in range(1, len(timeline)):
        cur, prev = timeline[i], timeline[i - 1]
        v = (np.asarray(cur.hand_pos) - np.asarray(prev.hand_pos)) / DT
        speed = float(np.linalg.norm(v))
        moving = speed > config.move_speed
        held = cur.held
        acted_on = None
        if moving:
            best: tuple[float, str] | None = None
            for cube in sorted(cur.cube_pos):
                if cube == held:
                    continue
                offset = np.asarray(cur.cube_pos[cube]) - np.asarray(cur.hand_pos)
                d = float(np.linalg.norm(offset))
                if d >= config.acted_on_dist:
                    continue
                if d >= 1e-9:
                    cosine = float(np.dot(v, offset) / (speed * d))
                    if cosine <= config.approach_cosine:
                        continue
                if best is None or d < best[0]:
                    best = (d, cube)
            acted_on = best[1] if best else None
        if acted_on is not None:
            labels.append("Stack" if held else "Reach")
        elif held is not None:
            labels.append("Put" if moving else "Take")
        else:
            labels.append("IdleMotion")
    return labels


def perform(timeline_type, script: DemoScript, registry: EnvironmentRegistry):
    """A ``timeline_type`` timeline driven through ``script``'s steps, and
    the script's random generator after them."""
    rng = np.random.default_rng(script.seed)
    start = synthgen._hand_homes(registry)[script.hand]
    tl = timeline_type(start, synthgen._cube_slots(registry), registry.table)
    synthgen._demonstrate(tl, script, registry, rng)
    return tl, rng


def generate(script: DemoScript, registry: EnvironmentRegistry) -> GeneratedDemo:
    """``synthgen.generate`` on the snapshot timeline."""
    tl, rng = perform(SnapshotTimeline, script, registry)
    homes = synthgen._hand_homes(registry)
    table = registry.table
    clean = tl.frames
    labels = evaluate_labels(clean, GroundingConfig())
    rows = [
        {"hand": script.hand, "label": label, "start_frame": start, "end_frame": end}
        for label, start, end in runs(labels)
    ] + [
        {"hand": other, "label": "IdleMotion", "start_frame": 0, "end_frame": len(clean) - 1}
        for other in registry.hands
        if other != script.hand
    ]
    rows.sort(key=lambda r: (r["hand"], r["start_frame"]))

    offsets = synthgen._noise_offsets(len(clean), script.noise_sigma, rng)
    hand_pos = np.array([f.hand_pos for f in clean]) + offsets
    names = sorted([*registry.cubes, table])
    places = ({**f.cube_pos, table: (0.5, 0.35, TABLE_BODY_Z)} for f in clean)
    positions = np.array([[place[name] for name in names] for place in places])
    for i, f in enumerate(clean):
        if f.held is not None:
            positions[i, names.index(f.held)] = hand_pos[i]
    hands = {
        hand: (hand_pos, tuple(f.open for f in clean), tuple(f.held for f in clean))
        if hand == script.hand
        else (np.tile(homes[hand], (len(clean), 1)), (True,) * len(clean), (None,) * len(clean))
        for hand in registry.hands
    }
    times = np.arange(len(clean)) * DT
    trace = DemoTrace(registry, times, hands, names, positions, [f.contacts for f in clean])
    return GeneratedDemo(script, trace, rows)
