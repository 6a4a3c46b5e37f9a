"""Grounding, optimal search, and plan validation.

Operators are grounded over a registry, each through a slot template
that every binding fills from a row of its values, straight into
bitmasks over one atom index that the grounding's actions share; the
search reads those masks, and its states are bitmasks over a copy of
the index. min_cost mode is A* with an admissible and consistent
heuristic, h_max on the atoms that name a hand and the goal's, computed
over independent parts of those atoms with one memo per part, and
provably optimal; min_length is the same search with unit weights;
greedy orders the frontier by unsatisfied goal literals and trades
optimality for speed. An expansion looks only at the actions whose hand
preconditions hold: each hand's candidates are cached under the hand's
part of the state and come out in (name, args) order, so every mode
generates exactly the successors a scan over all actions would.
Validation replays a plan step by step on masks, optionally under mutex
world semantics where a newly acquired single-valued atom
(``SINGLE_VALUED``) displaces the hand's previous one.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import InitVar, dataclass
from operator import attrgetter, itemgetter

from .model import (
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
    bits_of,
    mask_of,
)
from .ontology import EnvironmentRegistry

MODES = ("min_cost", "min_length", "greedy")
_KEY = attrgetter("name", "args")  # the order of ground actions


class PlannerError(Exception):
    """Invalid planning input or an exhausted expansion budget."""


@dataclass(frozen=True)
class Plan:
    """Ground actions in order; the totals are sums over the steps, and
    ``Plan(steps, total_cost, total_length)`` is refused if they differ."""

    steps: tuple[GroundAction, ...]
    cost: InitVar[int | None] = None
    length: InitVar[int | None] = None

    def __post_init__(self, *totals) -> None:
        if totals != (None, None) and totals != (self.total_cost, self.total_length):
            raise PlannerError(f"plan totals {totals} are not the sums over its steps")

    total_cost = property(lambda self: sum(step.cost for step in self.steps))
    total_length = property(lambda self: len(self.steps))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failing_step: int | None
    reason: str


def _getters(slots: dict[str, int], literals) -> list[tuple]:
    """Per ``(k, literal)`` the entry ``(k, pred, getter of its args from a
    row)``; a unary literal's getter takes a slice, to give a tuple too."""
    entries = []
    for k, l in literals:
        at = [slots[term] for term in l.args]
        get = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
        entries.append((k, l.pred, get))
    return entries


def naming(index: AtomIndex, name: str) -> int:
    """The atoms of ``index`` that name the instance ``name``."""
    return sum(bit for (_, args), bit in index.items() if name in args)


def ground(library: OperatorLibrary, registry: EnvironmentRegistry) -> list[GroundAction]:
    """Every type- and neq-respecting binding of every operator.

    Each operator is compiled once into a slot template. A binding's row
    is its parameter values followed by the operator's constants, the
    terms that name no parameter, a revocation's hand and keep included.
    An atom is then a literal's predicate and the row's values at the
    literal's slots, and a ``neq`` holds when its two slots differ.
    Universal revocations are expanded over the registry's cubes into
    plain deletes; deleting an absent atom is a no-op, so the expansion
    is equivalent to the conditional form. The atom sets go straight
    into bitmasks over one ``AtomIndex`` the actions share.
    """
    cubes = registry.cubes
    index: AtomIndex = {}
    lookup, put = index.get, index.setdefault
    revoked: dict[tuple[str, str, str], int] = {}  # (pred, hand, keep) → its deletes

    actions: list[GroundAction] = []
    for op in library:
        if op.cost is None:
            raise ModelError(f"operator {op.name} has no cost; assign costs first")
        domains = [registry.of_type(type_name) for _, type_name in op.params]
        slots = {name: i for i, (name, _) in enumerate(op.params)}
        pre, eff = op.preconditions, op.effects
        terms = [t for l in (*pre, *eff) for t in l.args]
        terms += [t for rev in op.revokes for t in (rev.hand, rev.keep)]
        constants = tuple(dict.fromkeys(t for t in terms if t not in slots))
        slots.update((t, len(op.params) + i) for i, t in enumerate(constants))
        rows = [combo + constants for combo in itertools.product(*domains)]
        for l in pre:
            if l.pred == NEQ:
                i, j = slots[l.args[0]], slots[l.args[1]]
                rows = [row for row in rows if row[i] != row[j]]
        # k is the mask a literal's atom goes into: pre_pos, pre_neg, add, delete
        getters = _getters(slots, [(0 if l.positive else 1, l) for l in pre if l.pred != NEQ])
        getters += _getters(slots, [(2 if l.positive else 3, l) for l in eff])
        revokes = [(rev.pred, slots[rev.hand], slots[rev.keep]) for rev in op.revokes]
        name, activity, cost, arity = op.name, op.activity, op.cost, len(op.params)
        for row in rows:
            masks = [0, 0, 0, 0]
            for k, pred, get in getters:
                atom = pred, get(row)
                masks[k] |= lookup(atom) or put(atom, 1 << len(index))
            for pred, hand, keep in revokes:
                hand, keep = row[hand], row[keep]
                if (pred, hand, keep) not in revoked:
                    others = [(pred, (hand, c)) for c in cubes if c != keep]
                    revoked[pred, hand, keep] = mask_of(index, others)
                masks[3] |= revoked[pred, hand, keep]
            actions.append(GroundAction(name, activity, row[:arity], cost, tuple(masks), index))
    actions.sort(key=_KEY)
    return actions


class _Successors:
    """Successor index of one solve call.

    Each hand gets a bitmask of the atoms that name it. An action whose
    preconditions mention exactly one hand belongs to that hand; the
    others, mentioning no hand or several, are tested on every
    expansion. A hand's cache maps the hand's part of a state to the
    hand's actions whose hand preconditions hold there; each entry keeps
    only the rest of the preconditions to test against the full state.
    Entries are ``(index, pre_pos, pre_neg, add, delete, weight)`` and
    come out in index order, which is the order of a scan over all
    actions.
    """

    def __init__(self, hand_masks: list[int], compiled, weights) -> None:
        groups = [(m, ~m, [], {}) for m in hand_masks]
        # an atom names at most one hand unless it is in ``shared``
        owner = {bit: group for group in groups for bit in bits_of(group[0])}
        hands = shared = 0
        for m in hand_masks:
            shared |= hands & m
            hands |= m
        self.always: list[tuple] = []
        for i, ((pp, pn, add, dl), weight) in enumerate(zip(compiled, weights)):
            named = (pp | pn) & hands
            m, rest, members, _ = owner.get(named & -named, (0, 0, None, None))
            if named and not named & (shared | rest):
                members.append((pp & m, pn & m, (i, pp & rest, pn & rest, add, dl, weight)))
            else:
                self.always.append((i, pp, pn, add, dl, weight))
        self.hands = [(m, members, cache) for m, _, members, cache in groups if members]

    @staticmethod
    def _of_hand(state: int, mask: int, members: list, cache: dict) -> list[tuple]:
        key = state & mask
        entries = cache.get(key)
        if entries is None:
            entries = cache[key] = [
                entry for pp, pn, entry in members if key & pp == pp and not key & pn
            ]
        return entries

    def candidates(self, state: int) -> list[tuple]:
        """Actions that may apply in ``state``, in index order."""
        if len(self.hands) == 1 and not self.always:
            return self._of_hand(state, *self.hands[0])
        merged = list(self.always)
        for mask, members, cache in self.hands:
            merged += self._of_hand(state, mask, members, cache)
        merged.sort()
        return merged


class _HMax:
    """The A* heuristic of the optimal modes for one solve call.

    H(s) is h_max(s & P), where the pattern P holds every atom that
    names a hand and the positive goal atoms. Atoms outside P count as
    true and deletes and negative preconditions are dropped, so H is the
    h_max (Bonet & Geffner 2001) of a relaxation of the task: it never
    overestimates the cost to go and never drops by more than an
    action's weight along it, so A* with H returns optimal plans. With
    every hand's atoms in the one pattern, a hand's ``Stack`` must pay
    for that hand's ``Take``.

    h_max is computed part by part. A sink is a goal atom that no
    relaxed action needs. Every other atom of P that a relaxed action
    names, among its preconditions or its added atoms that are not
    sinks, joins a part with every atom that action names; an action
    that names only sinks goes into a part with no atoms. An atom of a
    part is then added only by the part's actions, which need only the
    part's atoms, so one Dijkstra from s & part gives the exact h_max
    costs of the part's atoms. A sink is needed by no action, so its
    cost is that of its cheapest achiever over all parts. H(s) is the
    largest of the parts' goal atom costs and of the costs of the sinks
    outside s. Each part memoizes its Dijkstra under s & part, so a
    state that differs from one seen before only in another part's atoms
    reruns nothing for this one; with one gripper there is one part,
    with two one per hand unless an action names both. H is memoized
    under s & P; ``math.inf`` marks a state from which the goal is
    unreachable.
    """

    def __init__(self, hand_masks: list[int], compiled, weights, goal: int) -> None:
        self.pattern = self.goal = goal
        for mask in hand_masks:
            self.pattern |= mask
        self.memo: dict[int, float] = {}
        self.sinks, self.parts = self._parts(self.pattern, goal, compiled, weights)

    @staticmethod
    def _parts(pattern: int, goal: int, compiled, weights) -> tuple:
        """The sinks, lowest bit first, and per part its atom mask, its
        memo and its relaxed table: per atom the actions it triggers,
        per action its precondition count, weight and added atoms, the
        actions with no precondition, the part's goal atoms and the
        atoms a Dijkstra waits for. Atoms are numbered by bit within the
        part and the sinks after them. A part with neither goal atoms
        nor sinks to reach bounds nothing and is left out.

        An action that needs no fewer atoms than another, adds no more
        and weighs no less can never lower an atom's cost, so it is left
        out; its dominators are among the actions that add its lowest
        atom. Dominance between distinct actions is a strict order, so a
        dropped action always has a kept dominator."""
        cheapest: dict[tuple[int, int], int] = {}
        for (pp, _, add, _), weight in zip(compiled, weights):
            new = add & pattern & ~pp
            if new:
                key = (pp & pattern, new)
                if weight < cheapest.get(key, weight + 1):
                    cheapest[key] = weight
        adders: dict[int, list[tuple[tuple[int, int], int]]] = {}
        for key, weight in cheapest.items():
            for bit in bits_of(key[1]):
                adders.setdefault(bit, []).append((key, weight))
        kept = []
        needed = 0
        for (pre, new), weight in cheapest.items():
            for (p, n), w in adders[new & -new]:
                if w <= weight and not p & ~pre and not new & ~n and (p != pre or n != new):
                    break
            else:
                kept.append((pre, new, weight))
                needed |= pre
        sinks = goal & ~needed
        # merge the atoms each action names into disjoint part masks; the
        # actions that name only sinks share the part whose mask is 0
        members: dict[int, list[tuple[int, int, int]]] = {}
        for action in kept:
            touch = action[0] | action[1] & ~sinks
            joined = [action]
            for mask in [m for m in members if m & touch or m == touch]:
                joined += members.pop(mask)
                touch |= mask
            members[touch] = joined
        sink_bits = bits_of(sinks)
        parts = []
        for mask, actions in members.items():
            atoms = bits_of(mask)
            index = {bit: i for i, bit in enumerate(atoms + sink_bits)}
            known: dict[int, list[int]] = {}

            def numbered(mask: int) -> list[int]:
                return known.get(mask) or known.setdefault(mask, [index[b] for b in bits_of(mask)])

            triggers: list[list[int]] = [[] for _ in index]
            counts, effects, free = [], [], []
            reached = 0
            for k, (pre, new, weight) in enumerate(actions):
                pre_atoms = numbered(pre)
                for i in pre_atoms:
                    triggers[i].append(k)
                counts.append(len(pre_atoms))
                effects.append((weight, numbered(new)))
                if not pre_atoms:
                    free.append(k)
                reached |= new & sinks
            goals = numbered(goal & mask)
            waits = set(goals + numbered(reached))
            if waits:
                table = (atoms, triggers, counts, effects, free, goals, waits)
                parts.append((mask, {}, table))
        return sink_bits, parts

    @staticmethod
    def _h_max(key: int, table: tuple) -> tuple[float, tuple[float, ...]]:
        """Counter-based Dijkstra from the atoms of ``key`` over one
        part: an action fires when its last precondition is settled, at
        that atom's cost plus its weight. It stops once the part's goal
        atoms and every sink it can add are settled, and gives the
        largest cost of the part's goal atoms and the cost of each sink."""
        atoms, triggers, counts, effects, free, goals, waits = table
        cost = [math.inf] * len(triggers)
        heap = []
        for i, bit in enumerate(atoms):
            if key & bit:
                cost[i] = 0
                heap.append((0, i))
        for k in free:
            weight, new = effects[k]
            for j in new:
                if weight < cost[j]:
                    cost[j] = weight
                    heap.append((weight, j))
        heapq.heapify(heap)
        left = list(counts)
        unsettled = len(waits)
        while heap:
            c, i = heapq.heappop(heap)
            if c > cost[i]:
                continue
            if i in waits:
                unsettled -= 1
                if not unsettled:
                    break
            for k in triggers[i]:
                left[k] -= 1
                if not left[k]:
                    weight, new = effects[k]
                    reach = c + weight
                    for j in new:
                        if reach < cost[j]:
                            cost[j] = reach
                            heapq.heappush(heap, (reach, j))
        return max([cost[i] for i in goals], default=0), tuple(cost[len(atoms):])

    def __call__(self, state: int) -> float:
        key = state & self.pattern
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = self._combine(key)
        return value

    def _combine(self, key: int) -> float:
        """The largest goal atom cost of any part, or of a sink outside
        ``key`` at its cheapest over the parts."""
        if key & self.goal == self.goal:
            return 0
        h = 0
        sink_costs = [math.inf] * len(self.sinks)
        for mask, memo, table in self.parts:
            part_key = key & mask
            found = memo.get(part_key)
            if found is None:
                found = memo[part_key] = self._h_max(part_key, table)
            top, costs = found
            if top > h:
                h = top
            sink_costs = list(map(min, sink_costs, costs))
        for bit, c in zip(self.sinks, sink_costs):
            if c > h and not key & bit:
                h = c
        return h


def _encoded(problem: PlanningProblem, actions) -> tuple[AtomIndex, AtomIndex, int]:
    """The atom index ``actions`` share, a copy of it that can also number
    atoms no action names, and the initial state's mask over the copy."""
    index: AtomIndex = actions[0].index if actions else {}
    if any(a.index is not index for a in actions):
        raise PlannerError("the actions come from more than one grounding")
    bits = dict(index)
    return index, bits, mask_of(bits, problem.init)


def solve(
    problem: PlanningProblem,
    actions: list[GroundAction],
    mode: str = "min_cost",
    max_expansions: int | None = None,
) -> Plan | None:
    """Search for a plan; None means the goal is unreachable."""
    if mode not in MODES:
        raise PlannerError(f"unknown mode {mode!r}, expected one of {MODES}")
    if max_expansions is not None and max_expansions < 0:
        raise PlannerError(f"expansion budget must not be negative, got {max_expansions}")
    actions = sorted(actions, key=_KEY)
    index, bits, init = _encoded(problem, actions)
    goal_pos = mask_of(bits, [l.atom for l in problem.goal if l.positive])
    goal_neg = mask_of(bits, [l.atom for l in problem.goal if not l.positive])
    compiled = [a.masks for a in actions]
    weights = [1 if mode == "min_length" else a.cost for a in actions]
    hand_masks = [naming(index, hand) for hand in problem.registry.hands]
    successors = _Successors(hand_masks, compiled, weights)
    greedy = mode == "greedy"
    heuristic = None if greedy or not goal_pos else _HMax(hand_masks, compiled, weights, goal_pos)

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
        return (goal_pos & ~state).bit_count() + (goal_neg & state).bit_count()

    # The optimal modes order the open list by a lower bound on f = g + H,
    # the deeper state first among equal bounds: a state's H is looked up
    # only when it is popped, and a state whose f exceeds the bound it was
    # pushed with goes back with its f. greedy keeps its push order.
    parent: dict[int, tuple[int, int] | None] = {init: None}
    best_g = {init: 0}
    counter = itertools.count()
    priority = unsatisfied(init) if greedy else 0
    heap = [(priority, 0, next(counter), 0, init)]
    expansions = 0
    while heap:
        bound, _, _, g, state = heapq.heappop(heap)
        if g > best_g.get(state, g):
            continue
        f = g
        if heuristic is not None:
            f += heuristic(state)
            if f > bound:
                if f != math.inf:
                    heapq.heappush(heap, (f, -g, next(counter), g, state))
                continue
        if reached(state):
            return rebuild(state)
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            raise PlannerError(f"gave up after {max_expansions} expansions")
        for i, pp, pn, add, dl, weight in successors.candidates(state):
            if state & pp != pp or state & pn:
                continue
            nxt = (state & ~dl) | add
            ng = g + weight
            if greedy:
                if nxt in parent:
                    continue
                parent[nxt] = (state, i)
                heapq.heappush(heap, (unsatisfied(nxt), 0, next(counter), ng, nxt))
            elif ng < best_g.get(nxt, ng + 1):
                best_g[nxt] = ng
                parent[nxt] = (state, i)
                heapq.heappush(heap, (max(f, ng), -ng, next(counter), ng, nxt))
    return None


def validate(
    problem: PlanningProblem, plan: Plan, mutex: bool = False
) -> ValidationReport:
    """Replay a plan from the problem's initial state, on bitmasks over a
    copy of the steps' atom index; atoms are decoded only to word a failure."""
    registry = problem.registry
    for step in plan.steps:
        for arg in step.args:
            if arg not in registry:
                raise PlannerError(f"plan step {step} names unknown instance {arg!r}")
    _, bits, state = _encoded(problem, plan.steps)
    goal = [(lit, mask_of(bits, [lit.atom])) for lit in problem.goal]
    atoms = list(bits)  # the atom of bit 1 << i is atoms[i]

    def named(mask: int) -> list[str]:
        decoded = [atoms[bit.bit_length() - 1] for bit in bits_of(mask)]
        return sorted(f"{p}{list(a)}" for p, a in decoded)

    groups: dict[tuple[str, str], int] = {}  # (pred, hand) → its single-valued atoms
    for (pred, args), bit in bits.items() if mutex else ():
        if pred in SINGLE_VALUED:
            groups[pred, args[0]] = groups.get((pred, args[0]), 0) | bit
    single = sum(groups.values())
    for i, step in enumerate(plan.steps):
        pre_pos, pre_neg, add, delete = step.masks
        if state & pre_pos != pre_pos or state & pre_neg:
            found = (("missing", pre_pos & ~state), ("blocked by", pre_neg & state))
            detail = "; ".join(f"{label} {', '.join(named(m))}" for label, m in found if m)
            return ValidationReport(False, i, f"step {i} ({step}): {detail}")
        acquired = add & ~state & single
        state = state & ~delete | add
        for bit in bits_of(acquired):
            pred, (hand, _) = atoms[bit.bit_length() - 1]
            state &= ~(groups[pred, hand] ^ bit)
    unmet = [str(lit) for lit, bit in goal if bool(state & bit) != lit.positive]
    if not unmet:
        return ValidationReport(True, None, "ok")
    return ValidationReport(False, None, f"goal not reached: {', '.join(unmet)}")


def tabletop_init(registry: EnvironmentRegistry) -> WorldState:
    """All cubes flat on the table, hands open, still, and empty."""
    table = registry.table
    atoms: set[Atom] = {("handOpen", (hand,)) for hand in registry.hands}
    for cube in registry.cubes:
        atoms.add(("inTouch", (cube, table)))
        atoms.add(("inTouch", (table, cube)))
        atoms.add(("onTop", (cube, table)))
    return frozenset(atoms)


def standard_goals(registry: EnvironmentRegistry) -> dict[str, tuple[Literal, ...]]:
    """The four benchmark stacking goals over the registry's first four
    cubes in name order: single stack, 2-tower, 4-tower, two 2-towers."""
    cubes = registry.cubes
    if len(cubes) < 4:
        raise PlannerError(f"benchmark goals need four cubes, registry has {len(cubes)}")
    c0, c1, c2, c3 = cubes[:4]

    def on(above: str, below: str) -> Literal:
        return Literal("onTop", (above, below))

    return {
        "goal1": (on(c1, c0),),
        "goal2": (on(c1, c0), on(c2, c1)),
        "goal3": (on(c1, c0), on(c2, c1), on(c3, c2)),
        "goal4": (on(c1, c0), on(c3, c2)),
    }


def plan_to_json(plan: Plan, report: ValidationReport | None = None) -> dict:
    doc: dict = {
        "steps": [
            {"name": s.name, "args": list(s.args), "cost": s.cost} for s in plan.steps
        ],
        "total_cost": plan.total_cost,
        "total_length": plan.total_length,
    }
    if report is not None:
        doc["validation"] = report_to_json(report)
    return doc


def plan_from_json(doc, actions: list[GroundAction]) -> Plan:
    """The plan a ``plan_to_json`` document names, built from ``actions``.

    ``doc`` must be an object with a list of ``steps``, each an object
    with a string ``name`` and a list of string ``args``, or ValueError
    says which is not. A step's ``cost`` and the totals are not read:
    they come from the actions.
    """
    steps = doc.get("steps") if isinstance(doc, dict) else None
    if not isinstance(steps, list):
        raise ValueError(f"a plan must be a JSON object with a list of steps, got {doc!r}")
    by_key = {(a.name, a.args): a for a in actions}
    plan = []
    for step in steps:
        named = isinstance(step, dict) and isinstance(step.get("name"), str)
        args = step.get("args") if named else None
        if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
            raise ValueError(f"a plan step needs a string name and a list of string args: {step!r}")
        key = (step["name"], tuple(args))
        if key not in by_key:
            raise ValueError(f"plan step {key} does not exist in the grounded library")
        plan.append(by_key[key])
    return Plan(tuple(plan))


def report_to_json(report: ValidationReport) -> dict:
    return {"valid": report.valid, "failing_step": report.failing_step, "reason": report.reason}
