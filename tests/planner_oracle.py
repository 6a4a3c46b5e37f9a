"""Full-scan search, kept as the oracle for ``planner.solve``.

This is the original successor loop: every expansion tests every ground
action's bitmask preconditions in ``(name, args)`` order, and the
optimal modes are uniform-cost search, which is A* with a heuristic of
0. ``solve`` generates the same successors in the same order from its
per-hand index. In greedy mode the tests expect identical plans,
``None`` results and expansion-budget failures from both; in the
optimal modes, where ``solve`` runs A* with h_max, the same optimal cost
or length, the same ``None`` results, and no more expansions.

``h_max`` is the reference for the heuristic of ``solve``'s optimal
modes: a plain fixpoint over atom sets and every relaxed action.

``ground`` is the reference for ``planner.ground``: it binds each
operator literal by literal through a fresh dict per binding into atom
sets, where ``planner.ground`` fills a slot template once per operator
straight into bitmasks. ``action`` builds a ``GroundAction`` from atom
sets, for the oracle and for tests that build actions by hand.

``validate`` is the reference for ``planner.validate``: it replays a
plan on frozensets of atoms through ``applicable``, ``apply_action`` and
``satisfied``, where ``planner.validate`` replays it on bitmasks.
"""

from __future__ import annotations

import heapq
import itertools
import math

from demoplan.model import (
    NEQ,
    SINGLE_VALUED,
    Atom,
    AtomIndex,
    GroundAction,
    Literal,
    ModelError,
    OperatorLibrary,
    PlanningProblem,
    WorldState,
    mask_of,
)
from demoplan.ontology import EnvironmentRegistry
from demoplan.planner import MODES, Plan, PlannerError, ValidationReport
from demoplan.segmentation import ActivityLabel


def action(
    name: str,
    args: tuple[str, ...],
    pre_pos=(),
    pre_neg=(),
    add=(),
    delete=(),
    cost: int = 1,
    activity: ActivityLabel = ActivityLabel.IDLE,
    index: AtomIndex | None = None,
) -> GroundAction:
    """The ground action with these atom sets, encoded through ``index``
    (a new one if none is given)."""
    index = {} if index is None else index
    masks = tuple(mask_of(index, atoms) for atoms in (pre_pos, pre_neg, add, delete))
    return GroundAction(name, activity, args, cost, masks, index)


class _Masks:
    """Bitmask compilation of atoms shared by one solve call; each new
    atom takes the next free bit."""

    def __init__(self) -> None:
        self.bits: dict[Atom, int] = {}

    def mask(self, atoms) -> int:
        bits = self.bits
        m = 0
        for atom in atoms:
            bit = bits.get(atom)
            if bit is None:
                bit = bits[atom] = 1 << len(bits)
            m |= bit
        return m


def _bind(literal: Literal, binding: dict[str, str]) -> Atom:
    """The literal's atom under the binding; unbound terms stay as they are."""
    return (literal.pred, tuple(map(binding.get, literal.args, literal.args)))


def ground(library: OperatorLibrary, registry: EnvironmentRegistry) -> list[GroundAction]:
    """Every type- and neq-respecting binding of every operator, with
    universal revocations expanded over the registry's cubes, over one
    shared index."""
    cubes = registry.cubes
    index: AtomIndex = {}
    actions: list[GroundAction] = []
    for op in library:
        if op.cost is None:
            raise ModelError(f"operator {op.name} has no cost; assign costs first")
        domains = [registry.of_type(type_name) for _, type_name in op.params]
        names = [name for name, _ in op.params]
        for combo in itertools.product(*domains):
            binding = dict(zip(names, combo))
            if any(
                binding.get(l.args[0], l.args[0]) == binding.get(l.args[1], l.args[1])
                for l in op.preconditions
                if l.pred == NEQ
            ):
                continue
            pre_pos = frozenset(
                _bind(l, binding) for l in op.preconditions if l.positive and l.pred != NEQ
            )
            pre_neg = frozenset(_bind(l, binding) for l in op.preconditions if not l.positive)
            add = frozenset(_bind(l, binding) for l in op.effects if l.positive)
            delete = {_bind(l, binding) for l in op.effects if not l.positive}
            for rev in op.revokes:
                hand = binding.get(rev.hand, rev.hand)
                keep = binding.get(rev.keep, rev.keep)
                for cube in cubes:
                    if cube != keep:
                        delete.add((rev.pred, (hand, cube)))
            atom_sets = pre_pos, pre_neg, add, delete
            actions.append(action(op.name, tuple(combo), *atom_sets, op.cost, op.activity, index))
    actions.sort(key=lambda a: (a.name, a.args))
    return actions


def solve(
    problem: PlanningProblem,
    actions: list[GroundAction],
    mode: str = "min_cost",
    max_expansions: int | None = None,
) -> Plan | None:
    if mode not in MODES:
        raise PlannerError(f"unknown mode {mode!r}, expected one of {MODES}")
    actions = sorted(actions, key=lambda a: (a.name, a.args))

    masks = _Masks()
    init = masks.mask(problem.init)
    goal_pos = masks.mask(l.atom for l in problem.goal if l.positive)
    goal_neg = masks.mask(l.atom for l in problem.goal if not l.positive)
    compiled = [
        (masks.mask(a.pre_pos), masks.mask(a.pre_neg), masks.mask(a.add), masks.mask(a.delete))
        for a in actions
    ]
    weights = [1 if mode == "min_length" else a.cost for a in actions]

    def reached(state: int) -> bool:
        return state & goal_pos == goal_pos and not state & goal_neg

    def rebuild(state: int) -> Plan:
        indices: list[int] = []
        while True:
            prev = parent[state]
            if prev is None:
                break
            state, action_index = prev
            indices.append(action_index)
        return Plan(tuple(actions[i] for i in reversed(indices)))

    def unsatisfied(state: int) -> int:
        return bin(goal_pos & ~state).count("1") + bin(goal_neg & state).count("1")

    parent: dict[int, tuple[int, int] | None] = {init: None}
    best_g = {init: 0}
    counter = itertools.count()
    priority = unsatisfied(init) if mode == "greedy" else 0
    heap = [(priority, next(counter), 0, init)]
    expansions = 0
    while heap:
        _, _, g, state = heapq.heappop(heap)
        if g > best_g.get(state, g):
            continue
        if reached(state):
            return rebuild(state)
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            raise PlannerError(f"gave up after {max_expansions} expansions")
        for i, (pp, pn, add, dl) in enumerate(compiled):
            if state & pp != pp or state & pn:
                continue
            nxt = (state & ~dl) | add
            ng = g + weights[i]
            if mode == "greedy":
                if nxt in parent:
                    continue
                parent[nxt] = (state, i)
                best_g[nxt] = ng
                heapq.heappush(heap, (unsatisfied(nxt), next(counter), ng, nxt))
            elif ng < best_g.get(nxt, ng + 1):
                best_g[nxt] = ng
                parent[nxt] = (state, i)
                heapq.heappush(heap, (ng, next(counter), ng, nxt))
    return None


def h_max(
    problem: PlanningProblem, actions: list[GroundAction], mode: str, state: frozenset[Atom]
) -> float:
    """h_max (Bonet & Geffner 2001) of ``state`` for the positive goal
    atoms, on the pattern of atoms that name a hand or are goal atoms:
    atoms outside the pattern count as true, deletes and negative
    preconditions are dropped. Every action relaxes every round until no
    atom's cost falls."""
    hands = set(problem.registry.hands)
    goal = [l.atom for l in problem.goal if l.positive]

    def in_pattern(atom: Atom) -> bool:
        return atom in goal or any(arg in hands for arg in atom[1])

    cost: dict[Atom, float] = {}

    def cost_of(atom: Atom) -> float:
        if atom in state or not in_pattern(atom):
            return 0
        return cost.get(atom, math.inf)

    changed = True
    while changed:
        changed = False
        for action in actions:
            reach = max((cost_of(atom) for atom in action.pre_pos), default=0)
            if reach == math.inf:
                continue
            reach += 1 if mode == "min_length" else action.cost
            for atom in action.add:
                if reach < cost_of(atom):
                    cost[atom] = reach
                    changed = True
    return max((cost_of(atom) for atom in goal), default=0)


def applicable(state: WorldState, action: GroundAction) -> bool:
    return action.pre_pos <= state and not (action.pre_neg & state)


def apply_action(state: WorldState, action: GroundAction) -> WorldState:
    """Successor state; deletes are applied before adds."""
    if not applicable(state, action):
        raise ModelError(f"action {action} is not applicable")
    return frozenset((state - action.delete) | action.add)


def satisfied(problem: PlanningProblem, state: WorldState) -> bool:
    return all((lit.atom in state) == lit.positive for lit in problem.goal)


def validate(problem: PlanningProblem, plan: Plan, mutex: bool = False) -> ValidationReport:
    """Replay a plan on frozensets from the problem's initial state; under
    ``mutex`` a newly acquired single-valued atom displaces the hand's
    previous one."""
    registry = problem.registry
    for step in plan.steps:
        for arg in step.args:
            if arg not in registry:
                raise PlannerError(f"plan step {step} names unknown instance {arg!r}")

    state: WorldState = frozenset(problem.init)
    for i, step in enumerate(plan.steps):
        if not applicable(state, step):
            missing = sorted(f"{p}{list(a)}" for p, a in step.pre_pos - state)
            blocking = sorted(f"{p}{list(a)}" for p, a in step.pre_neg & state)
            detail = "; ".join(
                f"{label} {', '.join(atoms)}"
                for label, atoms in (("missing", missing), ("blocked by", blocking))
                if atoms
            )
            return ValidationReport(False, i, f"step {i} ({step}): {detail}")
        before = state
        state = apply_action(state, step)
        if mutex:
            acquired = [(p, a) for p, a in step.add - before if p in SINGLE_VALUED]
            for pred, (hand, kept) in acquired:
                state = frozenset(
                    (p, a) for p, a in state if (p, a[0]) != (pred, hand) or a[1] == kept
                )
    if satisfied(problem, state):
        return ValidationReport(True, None, "ok")
    unmet = [str(l) for l in problem.goal if (l.atom in state) != l.positive]
    return ValidationReport(False, None, f"goal not reached: {', '.join(unmet)}")
