"""Symbolic grounding: map tracked frames onto hand and environment state.

Each grounded frame summarises one hand with five state variables
(handMove, handOpen, inHand, actedOn, graspable) and the environment
with contact and support relations (inTouch, onTop) over cubes and
tables. Hands never take part in the environment relations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ontology import CUBE, TABLE, EnvironmentRegistry
from .trace import DemoFrame, DemoTrace, TraceError

# A hand sitting essentially on an object has no usable approach
# direction; treat it as moving toward the object.
_ZERO_DIST = 1e-9

# Position of a cube missing from a frame; masked out before any rule.
_ABSENT = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class GroundingConfig:
    """Distance and motion thresholds for the grounding rules."""

    acted_on_dist: float = 0.16
    graspable_dist: float = 0.10
    move_speed: float = 0.10
    approach_cosine: float = 0.5

    @staticmethod
    def from_file(path: str | Path) -> "GroundingConfig":
        doc = json.loads(Path(path).read_text())
        known = {f for f in GroundingConfig.__dataclass_fields__}
        bad = set(doc) - known
        if bad:
            raise ValueError(f"unknown grounding config keys: {sorted(bad)}")
        return GroundingConfig(**doc)


@dataclass(frozen=True)
class HandSymState:
    handMove: bool
    handOpen: bool
    inHand: str | None
    actedOn: str | None
    graspable: str | None

    def __post_init__(self) -> None:
        if self.actedOn is not None and not self.handMove:
            raise ValueError("actedOn requires a moving hand")
        if self.inHand is not None and self.handOpen:
            raise ValueError("a held cube requires a closed hand")


@dataclass(frozen=True)
class EnvSymState:
    in_touch: frozenset[frozenset[str]]
    on_top: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for above, below in self.on_top:
            if frozenset((above, below)) not in self.in_touch:
                raise ValueError(f"onTop({above}, {below}) without contact")


@dataclass(frozen=True)
class SymbolicState:
    t: float
    hands: dict[str, HandSymState]
    env: EnvSymState

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicState):
            return NotImplemented
        return self.t == other.t and self.hands == other.hands and self.env == other.env


def ground_env(frame_objects, contacts, registry: EnvironmentRegistry) -> EnvSymState:
    """Contact and support relations over cubes and tables only."""
    things = set(registry.of_type(CUBE)).union(registry.of_type(TABLE))
    present = things.intersection(frame_objects)
    for name in frame_objects.keys() - present:
        registry.type_of(name)  # unknown instances raise RegistryError
    in_touch = frozenset(pair for pair in contacts if pair <= present)
    on_top = set()
    for a, b in in_touch:
        za, zb = frame_objects[a][2], frame_objects[b][2]
        if za > zb:
            on_top.add((a, b))
        elif zb > za:
            on_top.add((b, a))
    return EnvSymState(in_touch, frozenset(on_top))


def _norm(v: np.ndarray) -> np.ndarray:
    # np.vecdot reduces like np.dot, so these norms are bit-identical to
    # np.linalg.norm on each 3-vector; a plain (v * v).sum(-1) is not.
    return np.sqrt(np.vecdot(v, v))


def _ground_hand(
    frames: list[DemoFrame],
    dt: np.ndarray,
    hand: str,
    cubes: list[str],
    cube_pos: np.ndarray,
    cube_present: np.ndarray,
    config: GroundingConfig,
) -> list[HandSymState]:
    """The hand's states at frames[1:]; it is present in every one of ``frames``."""
    samples = [frame.hands[hand] for frame in frames]
    pos = np.array([sample.pos for sample in samples], dtype=float).reshape(-1, 3)
    n = len(samples) - 1
    velocity = (pos[1:] - pos[:-1]) / dt[:n, None]
    speed = _norm(velocity)
    moving = speed > config.move_speed
    column = {name: j for j, name in enumerate(cubes)}
    held = np.array([column.get(s.held, -1) for s in samples[1:]])

    offset = cube_pos[:n] - pos[1:, None, :]
    dist = _norm(offset)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.vecdot(velocity[:, None, :], offset) / (speed[:, None] * dist)
    approached = (
        cube_present[:n]
        & moving[:, None]
        & (np.arange(len(cubes)) != held[:, None])
        & (dist < config.acted_on_dist)
        & ((dist < _ZERO_DIST) | (cosine > config.approach_cosine))
    )
    within = cube_present[:n] & (dist < config.graspable_dist)

    return [
        HandSymState(
            handMove=move,
            handOpen=sample.open,
            inHand=sample.held,
            actedOn=None if a is None else cubes[a],
            graspable=None if g is None else cubes[g],
        )
        for sample, move, a, g in zip(
            samples[1:], moving.tolist(), _nearest(approached, dist), _nearest(within, dist)
        )
    ]


def _nearest(mask: np.ndarray, dist: np.ndarray) -> list[int | None]:
    """Per row, the column of least distance among the masked ones, or None.

    argmin keeps the first of equal distances, so ties go to the first name.
    """
    if not mask.shape[1]:
        return [None] * len(mask)
    best = np.argmin(np.where(mask, dist, np.inf), axis=1)
    return [j if hit else None for j, hit in zip(best.tolist(), mask.any(axis=1).tolist())]


def _ground_frames(
    frames: list[DemoFrame],
    registry: EnvironmentRegistry,
    config: GroundingConfig,
    first_index: int,
) -> list[SymbolicState]:
    """Ground frames[1:], where frames[0] is trace frame ``first_index``.

    The velocity at a frame is the backward difference to the frame
    before it, so every hand of a frame must also be in the frame before.
    """
    for k in range(1, len(frames)):
        before = frames[k - 1].hands
        for hand in frames[k].hands:
            if hand not in before:
                raise TraceError(
                    f"hand {hand} missing around frame index {first_index + k}"
                )

    cubes = registry.of_type(CUBE)
    grounded = frames[1:]
    cube_pos = np.array(
        [[frame.objects.get(name, _ABSENT) for name in cubes] for frame in grounded],
        dtype=float,
    ).reshape(len(grounded), len(cubes), 3)
    cube_present = np.array(
        [[name in frame.objects for name in cubes] for frame in grounded], dtype=bool
    ).reshape(len(grounded), len(cubes))
    times = np.array([frame.t for frame in frames], dtype=float)
    dt = times[1:] - times[:-1]

    # A hand in frames[k] is, by the check above, in every frame before it.
    last = {hand: k for k, frame in enumerate(grounded, start=1) for hand in frame.hands}
    per_hand = {
        hand: _ground_hand(frames[: k + 1], dt, hand, cubes, cube_pos, cube_present, config)
        for hand, k in last.items()
    }

    return [
        SymbolicState(
            frame.t,
            {hand: per_hand[hand][i] for hand in frame.hands},
            ground_env(frame.objects, frame.contacts, registry),
        )
        for i, frame in enumerate(grounded)
    ]


def ground_frame(
    trace: DemoTrace, index: int, config: GroundingConfig | None = None
) -> SymbolicState:
    """Ground one frame; needs index >= 1 for the velocity estimate."""
    if index < 1 or index >= len(trace.frames):
        raise ValueError(f"frame index {index} cannot be grounded (need 1..{len(trace.frames) - 1})")
    frames = trace.frames[index - 1 : index + 1]
    return _ground_frames(frames, trace.registry, config or GroundingConfig(), index - 1)[0]


def ground_trace(
    trace: DemoTrace, config: GroundingConfig | None = None
) -> list[SymbolicState]:
    """Ground every frame from index 1 onward."""
    return _ground_frames(trace.frames, trace.registry, config or GroundingConfig(), 0)


def states_to_json(states: list[SymbolicState]) -> list[dict]:
    out = []
    for i, state in enumerate(states):
        out.append(
            {
                "frame": i + 1,
                "t": state.t,
                "hands": {
                    name: {
                        "handMove": h.handMove,
                        "handOpen": h.handOpen,
                        "inHand": h.inHand,
                        "actedOn": h.actedOn,
                        "graspable": h.graspable,
                    }
                    for name, h in sorted(state.hands.items())
                },
                "env": {
                    "inTouch": sorted(sorted(pair) for pair in state.env.in_touch),
                    "onTop": sorted(list(pair) for pair in state.env.on_top),
                },
            }
        )
    return out
