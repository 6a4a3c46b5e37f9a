"""Learn lifted operators from segmented demonstrations.

Every transition between two activity segments opens a draft for the new
segment: the precondition snapshot is the hand state just before the
transition, the effect snapshot is the hand state at the segment's last
frame. Environment-relation changes are attributed to the responsible
hand's open draft as (value before, value after) pairs.

Drafts are reduced to relevant literals, generalised over typed
variables, and merged into a library keyed by the exact lifted
precondition and effect sets. Observation counts drive the cost model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .grounding import EnvSymState, GroundedTrace, HandSymState
from .model import (
    NEQ,
    SINGLE_VALUED,
    ActivityLabel,
    Atom,
    Literal,
    OperatorLibrary,
    Revocation,
)
from .ontology import CUBE, EnvironmentRegistry
from .segmentation import ActivitySegment
from .trace import DemoTrace


class AttributionError(Exception):
    """An environment change that cannot be assigned to a single hand."""

    def __init__(self, frame: int, message: str) -> None:
        super().__init__(f"frame {frame}: {message}")
        self.frame = frame


@dataclass
class OperatorDraft:
    """Ground evidence for one activity segment."""

    segment: ActivitySegment
    pre_state: HandSymState
    final_state: HandSymState
    const_true: frozenset[Atom]
    env_pairs: dict[Atom, tuple[bool, bool]] = field(default_factory=dict)


def _env_atom_changes(
    before: EnvSymState, after: EnvSymState
) -> list[tuple[Atom, bool, bool, tuple[str, ...]]]:
    """Atoms whose value flips between two environment states, each with
    its pair: a contact's in name order, a support's as (above, below)."""
    now = after.atoms()
    changes = []
    for atom in before.atoms() ^ now:
        pred, args = atom
        pair = tuple(sorted(args)) if pred == "inTouch" else args
        changes.append((atom, atom not in now, atom in now, pair))
    return sorted(changes)


def extract(
    states: GroundedTrace,
    segments: list[ActivitySegment],
    registry: EnvironmentRegistry,
    trace: DemoTrace,
) -> list[OperatorDraft]:
    """Build one draft per non-initial segment and attribute environment
    changes, reading each hand's column and the environment column.

    The candidates for a change are the hands holding or acting on an
    involved cube or, when there are none, the hands that are not idle.
    A single candidate gets the change; among several, the one nearest
    the involved cube in ``trace`` does. Anything else raises
    AttributionError.
    """
    n = len(states)
    # Each hand's lane holds the (label, draft) of the segment at every state.
    lanes: dict[str, list[tuple[ActivityLabel, OperatorDraft | None]]] = {}
    drafts: list[OperatorDraft] = []
    for seg in sorted(segments, key=lambda s: (s.hand, s.start)):
        hand, lane = seg.hand, lanes.setdefault(seg.hand, [])
        if seg.start != len(lane) or seg.end >= n:
            raise ValueError(f"segments for {hand} do not cover each of the {n} states once")
        draft = None
        if lane:
            column = states.hands[hand]
            pre_state = column[seg.start - 1]
            seen = set(column[seg.start : seg.end + 1])
            const_true = pre_state.atoms(hand).intersection(*(h.atoms(hand) for h in seen))
            draft = OperatorDraft(seg, pre_state, column[seg.end], const_true)
            drafts.append(draft)
        lane += [(seg.label, draft)] * (seg.end - seg.start + 1)
    for hand, lane in lanes.items():
        if len(lane) != n:
            raise ValueError(f"segments for {hand} do not cover each of the {n} states once")

    hands = sorted(lanes)
    env = states.env
    for k in range(1, n):
        if env[k] is env[k - 1]:
            continue
        for atom, val_before, val_after, pair in _env_atom_changes(env[k - 1], env[k]):
            involved = [x for x in pair if registry.type_of(x) == CUBE]
            candidates = [
                h
                for h in hands
                if states.hands[h][k].inHand in involved or states.hands[h][k].actedOn in involved
            ] or [h for h in hands if lanes[h][k][0] is not ActivityLabel.IDLE]
            if len(candidates) == 1:
                hand = candidates[0]
            elif candidates and involved:
                anchor = trace.positions[k + 1, trace.names.index(involved[0])]
                hand = min(
                    candidates,
                    key=lambda h: (
                        float(np.linalg.norm(trace.hands[h][0][k + 1] - anchor)),
                        h,
                    ),
                )
            else:
                raise AttributionError(
                    k + 1,
                    f"cannot attribute {atom[0]}{atom[1]} change to one hand",
                )
            draft = lanes[hand][k][1]
            if draft is None:
                raise AttributionError(
                    k + 1,
                    f"{atom[0]}{atom[1]} changed during the opening segment of {hand}",
                )
            draft.env_pairs[atom] = (draft.env_pairs.get(atom, (val_before,))[0], val_after)

    drafts.sort(key=lambda d: (d.segment.start, d.segment.hand))
    return drafts


def filter_relevant(draft: OperatorDraft) -> tuple[list[Literal], list[Literal]]:
    """Relevant ground literals of a draft.

    Hand atoms that changed keep their opening sign in the precondition
    and closing sign in the effects; atoms constantly true through the
    activity appear positively on both sides; constantly false atoms are
    dropped. Environment atoms appear only when they changed.
    """
    pre_true = draft.pre_state.atoms(draft.segment.hand)
    eff_true = draft.final_state.atoms(draft.segment.hand)
    pre: list[Literal] = []
    eff: list[Literal] = []
    for pred, args in sorted(pre_true | eff_true):
        before, after = (pred, args) in pre_true, (pred, args) in eff_true
        if before != after:
            pre.append(Literal(pred, args, before))
            eff.append(Literal(pred, args, after))
        elif (pred, args) in draft.const_true:
            pre.append(Literal(pred, args, True))
            eff.append(Literal(pred, args, True))
    for (pred, args), (first, last) in sorted(draft.env_pairs.items()):
        if first != last:
            pre.append(Literal(pred, args, first))
            eff.append(Literal(pred, args, last))
    return pre, eff


def _variable_assignments(by_type: dict[str, list[str]]):
    """All bijections from instances to type-indexed variables."""
    groups = []
    for type_name in sorted(by_type):
        instances = by_type[type_name]
        variables = [f"?{type_name}{i + 1}" for i in range(len(instances))]
        groups.append(
            [dict(zip(instances, perm)) for perm in itertools.permutations(variables)]
        )
    for combo in itertools.product(*groups):
        binding: dict[str, str] = {}
        for part in combo:
            binding.update(part)
        yield binding


def generalize(
    pre: list[Literal],
    eff: list[Literal],
    registry: EnvironmentRegistry,
) -> tuple[tuple[tuple[str, str], ...], frozenset[Literal], frozenset[Literal]]:
    """Replace instances by typed variables, one variable per instance.

    Distinct instances of the same type gain pairwise neq preconditions.
    Among all ways to number variables within a type the lexicographically
    smallest rendering is chosen, so renaming the scene's instances
    cannot change the lifted operator.
    """
    instances = sorted({term for lit in (*pre, *eff) for term in lit.args})
    by_type: dict[str, list[str]] = {}
    for inst in instances:
        by_type.setdefault(registry.type_of(inst), []).append(inst)

    neq: list[Literal] = []
    for group in by_type.values():
        for a, b in itertools.permutations(group, 2):
            neq.append(Literal(NEQ, (a, b)))

    best: tuple | None = None
    for binding in _variable_assignments(by_type):
        bound_pre = frozenset(lit.substitute(binding) for lit in (*pre, *neq))
        bound_eff = frozenset(lit.substitute(binding) for lit in eff)
        key = (
            tuple(sorted(str(l) for l in bound_pre)),
            tuple(sorted(str(l) for l in bound_eff)),
        )
        if best is None or key < best[0]:
            best = (key, bound_pre, bound_eff)
    assert best is not None
    params = tuple(
        (f"?{type_name}{i + 1}", type_name)
        for type_name in sorted(by_type)
        for i in range(len(by_type[type_name]))
    )
    return params, best[1], best[2]


def learn_from_demo(
    states: GroundedTrace,
    segments: list[ActivitySegment],
    library: OperatorLibrary,
    registry: EnvironmentRegistry,
    trace: DemoTrace,
) -> list:
    """Extract, filter, generalise, and merge one demonstration."""
    learned = []
    for draft in extract(states, segments, registry, trace):
        pre, eff = filter_relevant(draft)
        params, pre_l, eff_l = generalize(pre, eff, registry)
        learned.append(library.observe(draft.segment.label, params, pre_l, eff_l))
    return learned


def operator_cost(count: int, type_total: int) -> int:
    """Rarely observed configurations cost close to 100, dominant ones
    close to 1. Integer ceiling, never below 1."""
    if count < 1 or type_total < count:
        raise ValueError(f"bad observation counts: {count}/{type_total}")
    return max(1, -(-100 * (type_total - count) // type_total))


def assign_costs(library: OperatorLibrary) -> OperatorLibrary:
    totals = {
        activity: library.type_count(activity)
        for activity in {op.activity for op in library}
    }
    library.operators = [
        replace(op, cost=operator_cost(op.count, totals[op.activity]))
        for op in library.operators
    ]
    return library


def repair_exclusivity(library: OperatorLibrary) -> OperatorLibrary:
    """Make single-valued predicates safe under replay.

    An operator that newly asserts a single-valued predicate for a hand
    also revokes every other cube bound to that hand through it.
    """
    repaired = []
    for op in library.operators:
        pre_signs = {lit.atom: lit.positive for lit in op.preconditions}
        revokes = []
        for lit in sorted(op.effects):
            if (
                lit.positive
                and lit.pred in SINGLE_VALUED
                and pre_signs.get(lit.atom) is False
            ):
                revokes.append(Revocation(lit.pred, lit.args[0], lit.args[1]))
        repaired.append(replace(op, revokes=tuple(revokes)))
    return OperatorLibrary(repaired)
