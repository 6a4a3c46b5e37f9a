"""Symbolic grounding: map tracked frames onto hand and environment state.

Each grounded frame summarises one hand with five state variables
(handMove, handOpen, inHand, actedOn, graspable) and the environment
with contact and support relations (inTouch, onTop) over cubes and
tables. Hands never take part in the environment relations. Each state
spells its true atoms in the predicates of ``model.SCHEMAS``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Atom
from .ontology import CUBE, TABLE, load_json
from .trace import DemoTrace, _is_number

# A hand sitting essentially on an object has no usable approach
# direction; treat it as moving toward the object.
_ZERO_DIST = 1e-9


@dataclass(frozen=True)
class GroundingConfig:
    """Distance and motion thresholds for the grounding rules: the two
    distances and the speed are non-negative, the cosine lies in [-1, 1]."""

    acted_on_dist: float = 0.16
    graspable_dist: float = 0.10
    move_speed: float = 0.10
    approach_cosine: float = 0.5

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not _is_number(value):
                raise ValueError(f"grounding config {name} must be a finite number, got {value!r}")
        for name in ("acted_on_dist", "graspable_dist", "move_speed"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"grounding config {name} must not be negative, got {value}")
        cosine = self.approach_cosine
        if not -1 <= cosine <= 1:
            raise ValueError(f"grounding config approach_cosine must lie in [-1, 1], got {cosine}")

    @staticmethod
    def from_file(path: str | Path) -> "GroundingConfig":
        doc = load_json(path, "grounding config")
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

    def atoms(self, hand: str) -> frozenset[Atom]:
        """The true atoms of ``hand``: each field that is true or names a
        cube is the predicate of its name, over the hand and that cube."""
        return frozenset(
            (pred, (hand, value) if isinstance(value, str) else (hand,))
            for pred, value in vars(self).items()
            if isinstance(value, str) or value
        )


@dataclass(frozen=True)
class EnvSymState:
    in_touch: frozenset[frozenset[str]]
    on_top: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for above, below in self.on_top:
            if frozenset((above, below)) not in self.in_touch:
                raise ValueError(f"onTop({above}, {below}) without contact")

    def atoms(self) -> frozenset[Atom]:
        """The true atoms: inTouch both ways, onTop as (above, below)."""
        touch = [("inTouch", ab) for pair in self.in_touch for ab in itertools.permutations(pair)]
        return frozenset(touch + [("onTop", pair) for pair in self.on_top])


@dataclass(frozen=True)
class SymbolicState:
    t: float
    hands: dict[str, HandSymState]
    env: EnvSymState


def _norm(v: np.ndarray) -> np.ndarray:
    # np.vecdot reduces like np.dot, so these norms are bit-identical to
    # np.linalg.norm on each 3-vector; a plain (v * v).sum(-1) is not.
    return np.sqrt(np.vecdot(v, v))


def runs(labels: list) -> list[tuple]:
    """Maximal runs of equal labels as (label, start, end), end inclusive."""
    found = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            found.append((labels[start], start, i - 1))
            start = i
    return found


def _shared(keys: list[tuple], make) -> list:
    """``make(*key)`` for every key, made once per run of equal keys."""
    return [made for key, start, end in runs(keys) for made in [make(*key)] * (end - start + 1)]


def approach(
    pos: np.ndarray,
    helds: tuple[str | None, ...] | list[str | None],
    dt: np.ndarray,
    cubes: list[str],
    cube_pos: np.ndarray,
    config: GroundingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether one hand moves at frames 1 onward, which of ``cubes`` it
    approaches (frames, cubes) and its distance to each, from its
    positions and held cubes at every frame, the time steps between
    frames and the cube positions (frames 1 onward, cube, axis). A moving
    hand approaches a cube it does not hold from within reach and along
    its motion, or by sitting on it, where it has no direction."""
    velocity = (pos[1:] - pos[:-1]) / dt[:, None]
    speed = _norm(velocity)
    moving = speed > config.move_speed
    column = {name: j for j, name in enumerate(cubes)}
    offset = cube_pos - pos[1:, None, :]
    dist = _norm(offset)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.vecdot(velocity[:, None, :], offset) / (speed[:, None] * dist)
    approached = (
        moving[:, None]
        & (np.arange(len(cubes)) != np.array([column.get(h, -1) for h in helds[1:]])[:, None])
        & (dist < config.acted_on_dist)
        & ((dist < _ZERO_DIST) | (cosine > config.approach_cosine))
    )
    return moving, approached, dist


def _nearest(mask: np.ndarray, dist: np.ndarray, cubes: list[str]) -> list[str | None]:
    """Per row, the cube of least distance among the masked ones, or None.

    argmin keeps the first of equal distances, so ties go to the first name.
    """
    if not cubes:
        return [None] * len(mask)
    best = np.argmin(np.where(mask, dist, np.inf), axis=1)
    return [cubes[j] if hit else None for j, hit in zip(best.tolist(), mask.any(axis=1).tolist())]


def _env_state(in_touch, pairs, signs) -> EnvSymState:
    on_top = frozenset(pair if sign > 0 else pair[::-1] for pair, sign in zip(pairs, signs) if sign)
    return EnvSymState(in_touch, on_top)


def _ground_env(trace: DemoTrace, things: frozenset[str]) -> list[EnvSymState]:
    """The environment at frames 1 onward. Within a run of one contact
    set, onTop follows the heights of each touching pair frame by frame."""
    column = {name: j for j, name in enumerate(trace.names)}
    z = trace.positions[1:, :, 2]
    keys = []
    for contacts, start, end in runs(trace.contacts[1:]):
        in_touch = frozenset(pair for pair in contacts if pair <= things)
        pairs = tuple(tuple(pair) for pair in in_touch)
        za, zb = (z[start:end + 1, [column[pair[k]] for pair in pairs]] for k in (0, 1))
        signs = (za > zb).view(np.int8) - (zb > za).view(np.int8)
        keys += [(in_touch, pairs, tuple(row)) for row in signs.tolist()]
    return _shared(keys, _env_state)


def ground_trace(
    trace: DemoTrace, config: GroundingConfig | None = None
) -> list[SymbolicState]:
    """Ground every frame from index 1 onward.

    The velocity at a frame is the backward difference to the frame
    before it. ``DemoTrace`` guarantees increasing times, the same hands
    tracked in every frame and every cube and table placed. Equal
    consecutive hand and environment states are one object.
    """
    config = config or GroundingConfig()
    cubes = trace.registry.of_type(CUBE)
    things = frozenset(cubes).union(trace.registry.of_type(TABLE))
    cube_pos = trace.positions[1:, [trace.names.index(name) for name in cubes]]
    dt = trace.times[1:] - trace.times[:-1]
    per_hand = {}
    for hand, (pos, opens, helds) in trace.hands.items():
        moving, approached, dist = approach(pos, helds, dt, cubes, cube_pos, config)
        acted_on = _nearest(approached, dist, cubes)
        graspable = _nearest(dist < config.graspable_dist, dist, cubes)
        keys = list(zip(moving.tolist(), opens[1:], helds[1:], acted_on, graspable))
        per_hand[hand] = _shared(keys, HandSymState)
    return [
        SymbolicState(t, {hand: states[i] for hand, states in per_hand.items()}, env)
        for i, (t, env) in enumerate(zip(trace.times[1:].tolist(), _ground_env(trace, things)))
    ]


def states_to_json(states: list[SymbolicState]) -> list[dict]:
    return [
        {
            "frame": frame,
            "t": state.t,
            "hands": {name: dict(vars(h)) for name, h in sorted(state.hands.items())},
            "env": {
                "inTouch": sorted(sorted(pair) for pair in state.env.in_touch),
                "onTop": sorted(list(pair) for pair in state.env.on_top),
            },
        }
        for frame, state in enumerate(states, 1)
    ]
