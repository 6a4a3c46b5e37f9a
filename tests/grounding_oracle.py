"""Frame-by-frame grounding, kept as the oracle for the array kernel.

This is the original one-frame-at-a-time implementation of the rules
in ``demoplan.grounding``: a backward-difference velocity per hand,
``np.linalg.norm`` per cube and a sorted scan for the nearest cube. The
tests compare ``ground_trace`` against it state for state, on frames
as ``trace_oracle`` holds them.
"""

from __future__ import annotations

import numpy as np

from demoplan.grounding import (
    EnvSymState,
    GroundingConfig,
    HandSymState,
    SymbolicState,
)
from demoplan.ontology import CUBE, TABLE
from demoplan.trace import TraceError

_ZERO_DIST = 1e-9


def hand_velocity(frames, hand: str, index: int) -> np.ndarray:
    if index <= 0 or index >= len(frames):
        raise TraceError(f"velocity undefined at frame index {index}")
    cur, prev = frames[index], frames[index - 1]
    if hand not in cur.hands or hand not in prev.hands:
        raise TraceError(f"hand {hand} missing around frame index {index}")
    dt = cur.t - prev.t
    p1 = np.asarray(cur.hands[hand].pos)
    p0 = np.asarray(prev.hands[hand].pos)
    return (p1 - p0) / dt


def _nearest_cube(hand_pos, candidates, max_dist):
    best = None
    for name in sorted(candidates):
        d = float(np.linalg.norm(candidates[name] - hand_pos))
        if d < max_dist and (best is None or d < best[0]):
            best = (d, name)
    if best is None:
        return None
    return best[1], best[0]


def ground_env(frame_objects, contacts, registry) -> EnvSymState:
    things = {
        name
        for name in frame_objects
        if registry.type_of(name) in (CUBE, TABLE)
    }
    in_touch = frozenset(
        pair for pair in contacts if all(member in things for member in pair)
    )
    on_top = set()
    for pair in in_touch:
        a, b = sorted(pair)
        za, zb = frame_objects[a][2], frame_objects[b][2]
        if za > zb:
            on_top.add((a, b))
        elif zb > za:
            on_top.add((b, a))
    return EnvSymState(in_touch, frozenset(on_top))


def ground_frame(frames, registry, index: int, config: GroundingConfig | None = None):
    config = config or GroundingConfig()
    if index < 1 or index >= len(frames):
        raise ValueError(f"frame index {index} cannot be grounded")
    frame = frames[index]

    cube_pos = {
        name: np.asarray(pos)
        for name, pos in frame.objects.items()
        if registry.type_of(name) == CUBE
    }

    hands = {}
    for hand, sample in frame.hands.items():
        velocity = hand_velocity(frames, hand, index)
        speed = float(np.linalg.norm(velocity))
        moving = speed > config.move_speed
        hand_pos = np.asarray(sample.pos)

        acted_on = None
        if moving:
            approached = {}
            for name, pos in cube_pos.items():
                if name == sample.held:
                    continue
                offset = pos - hand_pos
                d = float(np.linalg.norm(offset))
                if d >= config.acted_on_dist:
                    continue
                if d < _ZERO_DIST:
                    approached[name] = pos
                    continue
                cosine = float(np.dot(velocity, offset) / (speed * d))
                if cosine > config.approach_cosine:
                    approached[name] = pos
            found = _nearest_cube(hand_pos, approached, config.acted_on_dist)
            acted_on = found[0] if found else None

        found = _nearest_cube(hand_pos, cube_pos, config.graspable_dist)
        graspable = found[0] if found else None

        hands[hand] = HandSymState(
            handMove=moving,
            handOpen=sample.open,
            inHand=sample.held,
            actedOn=acted_on,
            graspable=graspable,
        )

    env = ground_env(frame.objects, frame.contacts, registry)
    return SymbolicState(frame.t, hands, env)


def ground_frames(frames, registry, config: GroundingConfig | None = None):
    return [ground_frame(frames, registry, i, config) for i in range(1, len(frames))]
