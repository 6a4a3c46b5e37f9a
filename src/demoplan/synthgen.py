"""Synthetic tabletop demonstrations with ground-truth activity labels.

A script drives one hand through reach, grasp, carry, and stack cycles
over a cube scene at 30 Hz. Trajectories are piecewise straight lines at
constant speed: horizontal transits at a fixed cruise height, vertical
descents onto targets. Ground-truth labels are evaluated on the clean
trajectory with the same threshold rules the grounding stage uses, so
they act as an independent oracle for the segmentation pipeline.

Optional positional jitter emulates human hand variability. Offsets are
drawn per axis at one-second knots and interpolated in between, which
keeps the spurious velocity far below the motion threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grounding import GroundingConfig, runs
from .ontology import EnvironmentRegistry
from .trace import DemoTrace, write_trace

DT = 1.0 / 30.0
CUBE_SIZE = 0.05
TABLE_BODY_Z = 0.37
CUBE_REST_Z = 0.775
CRUISE_CLEARANCE = 0.15
FALSE_START_DIST = 0.11
FALSE_START_PAUSE = 6
IDLE_LEAD = 15
RELEASE_FRAMES = 6
TAIL_FRAMES = 12
NOISE_KNOT_FRAMES = 30

DEFAULT_CORPUS_SEED = 7


@dataclass(frozen=True)
class DemoScript:
    """One scripted demonstration for a single hand."""

    seed: int
    hand: str
    cubes_to_stack: tuple[str, ...]
    approach_speed: float = 0.25
    noise_sigma: float = 0.002
    false_starts: int = 0
    hover_frames: int = 4
    take_frames: int = 8

    def __post_init__(self) -> None:
        if not self.cubes_to_stack:
            raise ValueError("script must stack at least one cube")
        if len(set(self.cubes_to_stack)) != len(self.cubes_to_stack):
            raise ValueError("cubes_to_stack contains duplicates")
        if self.approach_speed <= 0.1:
            raise ValueError("approach_speed must exceed 0.1 m/s")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        for name in ("false_starts", "hover_frames", "take_frames"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass
class GeneratedDemo:
    script: DemoScript
    trace: DemoTrace
    labels: list[dict]


@dataclass(frozen=True)
class _Frame:
    hand_pos: tuple[float, float, float]
    open: bool
    held: str | None
    cube_pos: dict[str, tuple[float, float, float]]
    contacts: frozenset[frozenset[str]]


class _Timeline:
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
        self.frames: list[_Frame] = []

    def hold(self, n_frames: int = 1) -> None:
        snapshot = _Frame(
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


def _hand_homes(registry: EnvironmentRegistry) -> dict[str, np.ndarray]:
    cruise = CUBE_REST_Z + CRUISE_CLEARANCE
    return {
        hand: np.array([0.35 + 0.3 * i, 0.75, cruise])
        for i, hand in enumerate(registry.hands)
    }


def _cube_slots(registry: EnvironmentRegistry) -> dict[str, tuple[float, float, float]]:
    slots = {}
    for j, cube in enumerate(registry.cubes):
        slots[cube] = (0.2 + 0.2 * (j % 4), 0.25 + 0.2 * (j // 4), CUBE_REST_Z)
    return slots


def _above(point, z: float) -> np.ndarray:
    return np.array([point[0], point[1], z])


def _evaluate_labels(timeline: list[_Frame], config: GroundingConfig) -> list[str]:
    """Per-frame activity of the scripted hand on the clean trajectory.

    Mirrors the grounding thresholds analytically; serves as the oracle
    the segmentation pipeline is checked against.
    """
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


def _noise_offsets(n_frames: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    n_knots = n_frames // NOISE_KNOT_FRAMES + 2
    # sigma 0 draws exact zeros; as the script's last draw it shifts no other.
    knots = rng.normal(0.0, sigma, size=(n_knots, 3))
    knot_x = np.arange(n_knots) * NOISE_KNOT_FRAMES
    frames = np.arange(n_frames)
    return np.stack(
        [np.interp(frames, knot_x, knots[:, axis]) for axis in range(3)], axis=1
    )


def generate(script: DemoScript, registry: EnvironmentRegistry) -> GeneratedDemo:
    """Run one script into a trace plus ground-truth label rows."""
    unplaced = sorted(registry.non_hands.difference(registry.cubes, [registry.table]))
    if unplaced:
        raise ValueError(f"cannot place {', '.join(unplaced)}: only cubes and tables are placed")
    if script.hand not in registry.hands:
        raise ValueError(f"unknown hand {script.hand!r}")
    for cube in script.cubes_to_stack:
        if cube not in registry.cubes:
            raise ValueError(f"unknown cube {cube!r}")

    rng = np.random.default_rng(script.seed)
    slots = _cube_slots(registry)
    homes = _hand_homes(registry)
    table = registry.table
    cruise = CUBE_REST_Z + CRUISE_CLEARANCE
    speed = script.approach_speed

    spare = [c for c in registry.cubes if c not in script.cubes_to_stack]
    if not spare:
        raise ValueError("no spare cube left to serve as the stack base")
    base = spare[int(rng.integers(len(spare)))]
    decoys = [c for c in spare if c != base]

    tl = _Timeline(homes[script.hand], slots, table)
    tl.hold(IDLE_LEAD)

    for k, cube in enumerate(script.cubes_to_stack):
        target = base if k == 0 else script.cubes_to_stack[k - 1]

        if k == 0 and script.false_starts > 0:
            if not decoys:
                raise ValueError("no cube available for a false start")
            decoy = decoys[int(rng.integers(len(decoys)))]
            tl.move_to(_above(slots[decoy], cruise), speed)
            tl.hold(script.hover_frames)
            tl.move_to(_above(slots[decoy], CUBE_REST_Z + FALSE_START_DIST), speed)
            tl.hold(FALSE_START_PAUSE)
            tl.move_to(_above(slots[decoy], cruise), speed)

        grasp_point = np.asarray(tl.cube_pos[cube])
        tl.move_to(_above(grasp_point, cruise), speed)
        tl.hold(script.hover_frames)
        if k == 0 and script.false_starts > 1:
            tl.move_to(_above(grasp_point, CUBE_REST_Z + FALSE_START_DIST), speed)
            tl.hold(FALSE_START_PAUSE)
        tl.move_to(grasp_point, speed)

        # Without a pause the fingers close on the arrival frame itself.
        tl.open, tl.held = False, cube
        if script.take_frames:
            tl.hold(script.take_frames)
        else:
            tl.redo_last()

        tl.contacts.discard(frozenset((cube, table)))
        tl.move_to(_above(grasp_point, cruise), speed)
        placement = np.asarray(tl.cube_pos[target]) + np.array([0, 0, CUBE_SIZE])
        tl.move_to(_above(placement, cruise), speed)
        tl.move_to(placement, speed)
        tl.contacts.add(frozenset((cube, target)))
        tl.redo_last()

        tl.open, tl.held = True, None
        tl.hold(RELEASE_FRAMES)
        tl.move_to(_above(placement, cruise), speed)

    tl.move_to(homes[script.hand], speed)
    tl.hold(TAIL_FRAMES)

    clean = tl.frames
    labels = _evaluate_labels(clean, GroundingConfig())
    rows = [
        {"hand": script.hand, "label": label, "start_frame": start, "end_frame": end}
        for label, start, end in runs(labels)
    ] + [
        {"hand": other, "label": "IdleMotion", "start_frame": 0, "end_frame": len(clean) - 1}
        for other in registry.hands
        if other != script.hand
    ]
    rows.sort(key=lambda r: (r["hand"], r["start_frame"]))

    # The scripted hand and the cube it holds follow the noisy path; the
    # other hands rest open at home.
    offsets = _noise_offsets(len(clean), script.noise_sigma, rng)
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


_STYLES: list[dict] = [
    dict(approach_speed=0.25, noise_sigma=0.0, false_starts=0, hover_frames=4, take_frames=8),
    dict(approach_speed=0.25, noise_sigma=0.001, false_starts=2, hover_frames=5, take_frames=6),
    dict(approach_speed=0.5, noise_sigma=0.002, false_starts=0, hover_frames=0, take_frames=0),
]


def corpus_scripts(seed: int, registry: EnvironmentRegistry) -> list[DemoScript]:
    """Twelve scripts: three movement styles by four stacking tasks."""
    hands = registry.hands
    if not hands:
        raise ValueError(f"the {registry.role} registry has no Hand instances to demonstrate with")
    tasks = [(1, hands[-1]), (1, hands[0]), (2, hands[-1]), (2, hands[0])]
    scripts = []
    for s, style in enumerate(_STYLES):
        for t, (n_cubes, hand) in enumerate(tasks):
            idx = s * len(tasks) + t
            rng = np.random.default_rng([seed, idx])
            movers = tuple(str(c) for c in rng.permutation(registry.cubes)[:n_cubes])
            scripts.append(
                DemoScript(
                    seed=int(rng.integers(0, 2**31)),
                    hand=hand,
                    cubes_to_stack=movers,
                    **style,
                )
            )
    return scripts


def generate_corpus(seed: int, registry: EnvironmentRegistry) -> list[GeneratedDemo]:
    return [generate(script, registry) for script in corpus_scripts(seed, registry)]


def write_corpus(demos: list[GeneratedDemo], out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, demo in enumerate(demos):
        trace_path = out / f"trace_{i:02d}.jsonl"
        write_trace(demo.trace, trace_path)
        (out / f"trace_{i:02d}.labels.json").write_text(json.dumps(demo.labels, indent=2) + "\n")
        paths.append(trace_path)
    return paths
