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

from .ontology import CUBE, TABLE
from .trace import DemoFrame, DemoTrace, _is_number

# A hand sitting essentially on an object has no usable approach
# direction; treat it as moving toward the object.
_ZERO_DIST = 1e-9


@dataclass(frozen=True)
class GroundingConfig:
    """Distance and motion thresholds for the grounding rules."""

    acted_on_dist: float = 0.16
    graspable_dist: float = 0.10
    move_speed: float = 0.10
    approach_cosine: float = 0.5

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not _is_number(value):
                raise ValueError(f"grounding config {name} must be a finite number, got {value!r}")

    @staticmethod
    def from_file(path: str | Path) -> "GroundingConfig":
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"grounding config {path} must be a JSON object")
        bad = doc.keys() - GroundingConfig.__dataclass_fields__.keys()
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
    config: GroundingConfig,
) -> list[HandSymState]:
    """The hand's states at frames[1:]."""
    samples = [frame.hands[hand] for frame in frames]
    pos = np.array([sample.pos for sample in samples], dtype=float).reshape(-1, 3)
    velocity = (pos[1:] - pos[:-1]) / dt[:, None]
    speed = _norm(velocity)
    moving = speed > config.move_speed
    column = {name: j for j, name in enumerate(cubes)}
    held = np.array([column.get(s.held, -1) for s in samples[1:]])

    offset = cube_pos - pos[1:, None, :]
    dist = _norm(offset)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.vecdot(velocity[:, None, :], offset) / (speed[:, None] * dist)
    approached = (
        moving[:, None]
        & (np.arange(len(cubes)) != held[:, None])
        & (dist < config.acted_on_dist)
        & ((dist < _ZERO_DIST) | (cosine > config.approach_cosine))
    )
    within = dist < config.graspable_dist

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


def ground_trace(
    trace: DemoTrace, config: GroundingConfig | None = None
) -> list[SymbolicState]:
    """Ground every frame from index 1 onward.

    The velocity at a frame is the backward difference to the frame
    before it. The reader guarantees that every frame tracks the same
    hands and positions every cube and table.
    """
    config = config or GroundingConfig()
    frames = trace.frames
    cubes = trace.registry.of_type(CUBE)
    things = frozenset(cubes).union(trace.registry.of_type(TABLE))
    grounded = frames[1:]
    cube_pos = np.array(
        [[frame.objects[name] for name in cubes] for frame in grounded], dtype=float
    ).reshape(len(grounded), len(cubes), 3)
    times = np.array([frame.t for frame in frames], dtype=float)
    dt = times[1:] - times[:-1]
    per_hand = {
        hand: _ground_hand(frames, dt, hand, cubes, cube_pos, config) for hand in frames[0].hands
    }

    states = []
    for i, frame in enumerate(grounded):
        # Contact and support relations over cubes and tables only.
        in_touch = frozenset(pair for pair in frame.contacts if pair <= things)
        on_top = set()
        for a, b in in_touch:
            za, zb = frame.objects[a][2], frame.objects[b][2]
            if za > zb:
                on_top.add((a, b))
            elif zb > za:
                on_top.add((b, a))
        hands = {hand: per_hand[hand][i] for hand in frame.hands}
        states.append(SymbolicState(frame.t, hands, EnvSymState(in_touch, frozenset(on_top))))
    return states


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
