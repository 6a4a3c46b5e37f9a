"""Synthetic tabletop demonstrations with ground-truth activity labels.

A script drives one hand through reach, grasp, carry, and stack cycles
over a cube scene at 30 Hz. Trajectories are piecewise straight lines at
constant speed: horizontal transits at a cruise height that clears the
script's tallest stack, vertical descents onto targets. The timeline
keeps the motion as runs of frames, one per straight leg or pause, each
leg filled as one array, and the trace and the labels are computed on
columns over all frames.
The ground-truth labels are the grounding rule (``grounding.approach``)
and the activity table (``segmentation.ACTIVITY``) applied to the clean
trajectory, before noise is added; this one place could later label
each frame by the script's own intent instead. The independent
references for the rule are the frame-by-frame oracles under ``tests``.

Optional positional jitter emulates human hand variability. Offsets are
drawn per axis at one-second knots and interpolated in between, which
keeps the spurious velocity far below the motion threshold.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grounding import GroundingConfig, approach, runs
from .ontology import EnvironmentRegistry
from .segmentation import ACTIVITY
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
        speed, sigma = self.approach_speed, self.noise_sigma
        if not (_is_real(speed) and speed > 0.1):
            message = f"approach_speed must be a finite number exceeding 0.1 m/s, got {speed!r}"
            raise ValueError(message)
        if not (_is_real(sigma) and sigma >= 0):
            raise ValueError(f"noise_sigma must be a finite non-negative number, got {sigma!r}")
        for name in ("seed", "false_starts", "hover_frames", "take_frames"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


def _is_real(value) -> bool:
    """A finite real number, numpy scalars included; booleans are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class GeneratedDemo:
    script: DemoScript
    trace: DemoTrace
    labels: list[dict]


class _Timeline:
    """The clean motion of one scene as the scripted hand moves through
    it, kept as runs of frames that share one state: a straight leg or a
    pause. The script reads ``cube_pos`` and edits ``open``, ``held`` and
    ``contacts`` in between."""

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
        # Per run: the hand's positions (frames, 3), then the open flag,
        # held cube, cube positions (cubes in name order, 3) and contacts
        # of all its frames.
        self._runs: list[tuple] = []

    def _add(self, hand_pos: np.ndarray) -> None:
        cubes = np.array([self.cube_pos[cube] for cube in sorted(self.cube_pos)])
        self._runs.append((hand_pos, self.open, self.held, cubes, frozenset(self.contacts)))

    def hold(self, n_frames: int = 1) -> None:
        if n_frames:
            self._add(np.tile(self.pos, (n_frames, 1)))

    def redo_last(self) -> None:
        """Retake the last frame, so it shows the edits made since."""
        hand_pos, *state = self._runs.pop()
        if len(hand_pos) > 1:
            self._runs.append((hand_pos[:-1], *state))
        self.hold()

    def move_to(self, target, speed: float) -> None:
        """Straight leg at constant speed; the final step absorbs the
        division remainder so no frame moves slower than requested.

        A held cube travels with the hand, but the leg's frames keep its
        position from before the leg: the labels skip a held cube and the
        trace places it at the hand.
        """
        target = np.asarray(target, dtype=float)
        start = self.pos
        dist = float(np.linalg.norm(target - start))
        step = speed * DT
        n_full = math.floor(dist / step)
        if n_full < 1:
            raise ValueError(f"leg of {dist:.4f} m is shorter than one step")
        direction = (target - start) / dist
        # Step i is start + (direction * step) * i, as a scalar loop adds it.
        hand_pos = start + (direction * step) * np.arange(1, n_full + 1)[:, None]
        hand_pos[-1] = target
        self._add(hand_pos)
        self.pos = target
        if self.held is not None:
            self.cube_pos[self.held] = tuple(target)

    def columns(self) -> tuple[np.ndarray, list[bool], list[str | None], np.ndarray, list]:
        """Per frame: the hand's position, open flag and held cube, the cube
        positions (frames, cubes in name order, 3) and the contacts."""
        hand_pos, opens, helds, cubes, contacts = zip(*self._runs)
        counts = [len(pos) for pos in hand_pos]

        def per_frame(values: tuple) -> list:
            return [value for value, count in zip(values, counts) for _ in range(count)]

        return (
            np.concatenate(hand_pos),
            per_frame(opens),
            per_frame(helds),
            np.repeat(np.stack(cubes), counts, axis=0),
            per_frame(contacts),
        )


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


def _evaluate_labels(
    hand_pos: np.ndarray,
    helds: list[str | None],
    cube_pos: np.ndarray,
    cubes: list[str],
    config: GroundingConfig,
) -> list[str]:
    """Per-frame activity of the scripted hand on the clean trajectory,
    from its positions and held cubes and the positions (frames, cubes, 3)
    of ``cubes`` at every frame: the grounding rule and the activity
    table, with frame 0 idle."""
    dt = np.full(len(hand_pos) - 1, DT)
    moving, approached, _ = approach(hand_pos, helds, dt, cubes, cube_pos[1:], config)
    holding = [cube is not None for cube in helds[1:]]
    keys = zip(approached.any(axis=1).tolist(), holding, moving.tolist())
    return ["IdleMotion"] + [ACTIVITY[key].value for key in keys]


def _noise_offsets(n_frames: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    n_knots = n_frames // NOISE_KNOT_FRAMES + 2
    # sigma 0 draws exact zeros; as the script's last draw it shifts no other.
    knots = rng.normal(0.0, sigma, size=(n_knots, 3))
    knot_x = np.arange(n_knots) * NOISE_KNOT_FRAMES
    frames = np.arange(n_frames)
    return np.stack(
        [np.interp(frames, knot_x, knots[:, axis]) for axis in range(3)], axis=1
    )


def _demonstrate(
    tl: _Timeline, script: DemoScript, registry: EnvironmentRegistry, rng: np.random.Generator
) -> None:
    """Drive ``tl`` through the script's stacking cycles, from its hand's
    home and back, drawing the stack base and false-start decoy from
    ``rng``."""
    slots = _cube_slots(registry)
    home = _hand_homes(registry)[script.hand]
    table = registry.table
    # At CRUISE_CLEARANCE the hand cruises one cube above the second
    # placement; each cube stacked beyond two raises it by one cube, so
    # that no placement lies at the cruise height with an empty leg up.
    extra = max(0, len(script.cubes_to_stack) - 2)
    cruise = CUBE_REST_Z + CRUISE_CLEARANCE + extra * CUBE_SIZE
    speed = script.approach_speed

    spare = [c for c in registry.cubes if c not in script.cubes_to_stack]
    if not spare:
        raise ValueError("no spare cube left to serve as the stack base")
    base = spare[int(rng.integers(len(spare)))]
    decoys = [c for c in spare if c != base]

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

    tl.move_to(home, speed)
    tl.hold(TAIL_FRAMES)


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
    homes = _hand_homes(registry)
    table = registry.table
    tl = _Timeline(homes[script.hand], _cube_slots(registry), table)
    _demonstrate(tl, script, registry, rng)
    clean, opens, helds, cube_pos, contacts = tl.columns()
    n = len(clean)

    cubes = sorted(registry.cubes)
    labels = _evaluate_labels(clean, helds, cube_pos, cubes, GroundingConfig())
    rows = [
        {"hand": script.hand, "label": label, "start_frame": start, "end_frame": end}
        for label, start, end in runs(labels)
    ] + [
        {"hand": other, "label": "IdleMotion", "start_frame": 0, "end_frame": n - 1}
        for other in registry.hands
        if other != script.hand
    ]
    rows.sort(key=lambda r: (r["hand"], r["start_frame"]))

    # The scripted hand and the cube it holds follow the noisy path; the
    # other hands rest open at home.
    hand_pos = clean + _noise_offsets(n, script.noise_sigma, rng)
    names = sorted([*cubes, table])
    positions = np.empty((n, len(names), 3))
    positions[:, [names.index(cube) for cube in cubes]] = cube_pos
    positions[:, names.index(table)] = (0.5, 0.35, TABLE_BODY_Z)
    held = [i for i, cube in enumerate(helds) if cube is not None]
    positions[held, [names.index(helds[i]) for i in held]] = hand_pos[held]
    hands = {
        hand: (hand_pos, tuple(opens), tuple(helds))
        if hand == script.hand
        else (np.tile(homes[hand], (n, 1)), (True,) * n, (None,) * n)
        for hand in registry.hands
    }
    trace = DemoTrace(registry, np.arange(n) * DT, hands, positions, contacts)
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
