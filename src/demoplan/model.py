"""Planning model: the world vocabulary, operators, states, ground actions.

Activities and typed predicates are the one world vocabulary that
grounding, learning and planning share. World states are closed-world
sets of ground atoms, which the planner searches and replays as
bitmasks over an atom index. Operators are lifted, typed, and carry an
observation count from learning plus an assigned non-negative integer
cost. Applying a ground action deletes before it adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .ontology import BUILTIN_TYPES, CUBE, HAND, THING, EnvironmentRegistry

NEQ = "neq"


class ActivityLabel(str, Enum):
    IDLE = "IdleMotion"
    REACH = "Reach"
    PUT = "Put"
    TAKE = "Take"
    STACK = "Stack"


# Each predicate with the types of its arguments.
SCHEMAS: dict[str, tuple[str, ...]] = {
    "handMove": (HAND,),
    "handOpen": (HAND,),
    "inHand": (HAND, CUBE),
    "actedOn": (HAND, CUBE),
    "graspable": (HAND, CUBE),
    "inTouch": (THING, THING),
    "onTop": (THING, THING),
    NEQ: (THING, THING),
}

# A hand acts on, and can grasp, at most one cube at a time. Repair,
# mutex validation and the PDDL revocations all follow this declaration.
SINGLE_VALUED = frozenset({"actedOn", "graspable"})


class ModelError(Exception):
    """Structurally invalid literal, operator, or action."""


@dataclass(frozen=True, order=True)
class Literal:
    """A possibly negated predicate over terms.

    Terms are instance names or ``?``-prefixed typed variables. The field
    order makes the natural sort order (predicate, args, sign).
    """

    pred: str
    args: tuple[str, ...]
    positive: bool = True

    def __post_init__(self) -> None:
        arg_types = SCHEMAS.get(self.pred)
        if arg_types is None:
            raise ModelError(f"unknown predicate: {self.pred}")
        if len(self.args) != len(arg_types):
            raise ModelError(f"{self.pred} takes {len(arg_types)} arguments, got {self.args!r}")
        if self.pred == NEQ and not self.positive:
            raise ModelError(f"{NEQ} is never negated, got {self}")

    @property
    def atom(self) -> "Atom":
        return (self.pred, self.args)

    def substitute(self, binding: dict[str, str]) -> "Literal":
        return Literal(self.pred, tuple(binding.get(a, a) for a in self.args), self.positive)

    def __str__(self) -> str:
        inner = f"{self.pred}({', '.join(self.args)})"
        return inner if self.positive else f"not {inner}"


Atom = tuple[str, tuple[str, ...]]
WorldState = frozenset  # of Atom


def is_variable(term: str) -> bool:
    return term.startswith("?")


@dataclass(frozen=True)
class Revocation:
    """Universally quantified delete: all ``pred(hand, x)`` with x != keep."""

    pred: str
    hand: str
    keep: str

    def __post_init__(self) -> None:
        if self.pred not in SINGLE_VALUED:
            raise ModelError(f"only single-valued predicates can be revoked, not {self.pred!r}")


@dataclass(frozen=True)
class LearnedOperator:
    activity: ActivityLabel
    config_index: int
    params: tuple[tuple[str, str], ...]
    preconditions: frozenset[Literal]
    effects: frozenset[Literal]
    count: int | None = None
    cost: int | None = None
    revokes: tuple[Revocation, ...] = ()

    def __post_init__(self) -> None:
        if self.config_index < 1:
            raise ModelError("config_index starts at 1")
        if self.count is not None and self.count < 1:
            raise ModelError("observation count must be positive")
        if self.cost is not None and self.cost < 0:
            raise ModelError(f"{self.name}: cost must not be negative, got {self.cost}")
        declared = dict(self.params)  # name → type
        if len(declared) < len(self.params):
            names = [name for name, _ in self.params]
            twice = min(name for name in declared if names.count(name) > 1)
            raise ModelError(f"{self.name}: parameter {twice} is declared twice")
        unknown = set(declared.values()).difference(BUILTIN_TYPES)
        if unknown:
            raise ModelError(f"{self.name}: unknown parameter type {min(unknown)}")
        for rev in self.revokes:
            for term in (rev.hand, rev.keep):
                if term not in declared and is_variable(term):
                    raise ModelError(f"{self.name}: revocation variable {term} not in parameters")
        for lits, where in ((self.preconditions, "precondition"), (self.effects, "effect")):
            atoms = set()  # the literals are distinct, so an atom seen twice has both signs
            for lit in lits:
                pred, args = atom = lit.pred, lit.args
                if atom in atoms:
                    raise ModelError(f"{self.name}: {where}s contain {pred}{args} with both signs")
                atoms.add(atom)
                for term in args:
                    if term not in declared and is_variable(term):
                        raise ModelError(f"{self.name}: variable {term} not in parameters")
        if any(lit.pred == NEQ for lit in self.effects):
            raise ModelError(f"{self.name}: {NEQ} may only appear in preconditions")

    @property
    def name(self) -> str:
        base = self.activity.value
        return base if self.config_index == 1 else f"{base}{self.config_index}"

    def signature(self) -> tuple:
        """Identity for merging: activity plus canonical literal sets."""
        return (self.activity, self.preconditions, self.effects)


def bits_of(mask: int) -> tuple[int, ...]:
    """The one-bit masks of ``mask``, lowest first."""
    bits = []
    while mask:
        bit = mask & -mask
        bits.append(bit)
        mask ^= bit
    return tuple(bits)


# An atom index maps ground atoms to one-bit masks: the i-th atom put in
# takes ``1 << i``, so ``list(index)[i]`` is the atom of that bit. Atoms
# are never removed from it.
AtomIndex = dict[Atom, int]


def mask_of(index: AtomIndex, atoms) -> int:
    """The atoms' mask; an atom not yet in ``index`` takes the next bit."""
    return sum({index.setdefault(atom, 1 << len(index)) for atom in atoms})


@dataclass(eq=False, slots=True)
class GroundAction:
    """A fully bound operator: ``masks`` are its ``(pre_pos, pre_neg, add,
    delete)`` atom sets over ``index``, which one grounding's actions
    share; the frozenset views are decoded on first use and then kept."""

    name: str
    activity: ActivityLabel
    args: tuple[str, ...]
    cost: int
    masks: tuple[int, int, int, int]
    index: AtomIndex
    _views: tuple | None = field(default=None, init=False, repr=False)

    def _decoded(self) -> tuple:
        if self._views is None:
            atoms = list(self.index)
            self._views = tuple(
                frozenset([atoms[bit.bit_length() - 1] for bit in bits_of(mask)])
                for mask in self.masks
            )
        return self._views

    pre_pos = property(lambda self: self._decoded()[0])
    pre_neg = property(lambda self: self._decoded()[1])
    add = property(lambda self: self._decoded()[2])
    delete = property(lambda self: self._decoded()[3])

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.args)})"


@dataclass(frozen=True)
class PlanningProblem:
    registry: EnvironmentRegistry
    init: WorldState
    goal: tuple[Literal, ...]

    def __post_init__(self) -> None:
        for lit in self.goal:
            for term in lit.args:
                if is_variable(term):
                    raise ModelError(f"goal literal {lit} is not ground")
                if term not in self.registry:
                    raise ModelError(f"goal names unknown instance {term}")
        unknown = {term for _, args in self.init for term in args if term not in self.registry}
        if unknown:
            raise ModelError(f"init names unknown instance {min(unknown)}")
        atoms = sorted(Literal(*atom) for atom in self.init)
        atoms += [Literal(*lit.atom) for lit in self.goal]
        twice = [lit for lit in atoms if len(set(lit.args)) < len(lit.args)]
        if twice:
            raise ModelError(f"{min(twice)} names one instance twice")
        for lit in atoms:
            if lit.pred == NEQ:
                raise ModelError(f"{lit}: {NEQ} may not appear in an init or goal")
            for term, type_name in zip(lit.args, SCHEMAS[lit.pred]):
                if type_name not in (THING, self.registry.type_of(term)):
                    raise ModelError(f"{lit}: {term} is not a {type_name}")


@dataclass
class OperatorLibrary:
    """Ordered collection of learned operators with observation counts;
    no two operators share a name."""

    operators: list[LearnedOperator] = field(default_factory=list)

    def __post_init__(self) -> None:
        names: set[str] = set()
        for op in self.operators:
            if op.name in names:
                raise ModelError(f"two operators are named {op.name}")
            names.add(op.name)

    @property
    def repaired(self) -> bool:
        """Whether some operator carries exclusivity revocations."""
        return any(op.revokes for op in self.operators)

    def __iter__(self):
        return iter(self.operators)

    def __len__(self) -> int:
        return len(self.operators)

    def of_activity(self, activity: ActivityLabel) -> list[LearnedOperator]:
        return [op for op in self.operators if op.activity == activity]

    def type_count(self, activity: ActivityLabel) -> int:
        counts = [op.count for op in self.of_activity(activity)]
        if any(c is None for c in counts):
            raise ModelError(f"{activity.value} has operators without counts")
        return sum(counts)  # type: ignore[arg-type]

    def observe(
        self,
        activity: ActivityLabel,
        params: tuple[tuple[str, str], ...],
        preconditions: frozenset[Literal],
        effects: frozenset[Literal],
    ) -> LearnedOperator:
        """Merge one observed configuration, or append it as a new one."""
        signature = (activity, preconditions, effects)
        for i, op in enumerate(self.operators):
            if op.signature() == signature:
                merged = replace(op, count=(op.count or 0) + 1)
                self.operators[i] = merged
                return merged
        op = LearnedOperator(
            activity=activity,
            config_index=len(self.of_activity(activity)) + 1,
            params=params,
            preconditions=preconditions,
            effects=effects,
            count=1,
        )
        self.operators.append(op)
        return op

    def to_json(self) -> dict:
        return {
            "repaired": self.repaired,
            "operators": [
                {
                    "activity": op.activity.value,
                    "config_index": op.config_index,
                    "params": [list(p) for p in op.params],
                    "preconditions": [literal_to_json(l) for l in sorted(op.preconditions)],
                    "effects": [literal_to_json(l) for l in sorted(op.effects)],
                    "count": op.count,
                    "cost": op.cost,
                    "revokes": [
                        {"pred": r.pred, "hand": r.hand, "keep": r.keep}
                        for r in op.revokes
                    ],
                }
                for op in self.operators
            ],
        }

    @staticmethod
    def from_json(doc) -> "OperatorLibrary":
        """The library of a ``library.json`` document; a field of the wrong
        JSON type raises ModelError. ``repaired`` is checked for type
        only: the revocations decide it."""
        operators = doc.get("operators", []) if isinstance(doc, dict) else None
        if not isinstance(operators, list):
            raise ModelError("a library must be a JSON object with a list of operators")
        repaired = doc.get("repaired", False)
        if not isinstance(repaired, bool):
            raise ModelError(f"repaired must be true or false, got {repaired!r}")
        known: dict[tuple, Literal] = {}  # each distinct literal is built once
        return OperatorLibrary([_operator_from_json(item, known) for item in operators])


def _is_int(value) -> bool:
    return type(value) is int  # a JSON boolean is not


def _operator_from_json(item, known: dict[tuple, Literal]) -> LearnedOperator:
    if not isinstance(item, dict):
        raise ModelError(f"an operator must be a JSON object, got {item!r}")
    get = item.get
    if not _is_int(get("config_index")):
        raise ModelError(f"config_index must be an integer, got {get('config_index')!r}")
    for key in ("count", "cost"):
        if get(key) is not None and not _is_int(get(key)):
            raise ModelError(f"{key} must be an integer or null, got {get(key)!r}")
    params, revokes = get("params"), get("revokes", [])
    if not isinstance(params, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p) for p in params
    ):
        raise ModelError(f"params must be a list of [name, type] string pairs, got {params!r}")
    if not isinstance(revokes, list) or not all(
        isinstance(r, dict) and all(isinstance(r.get(k), str) for k in ("pred", "hand", "keep"))
        for r in revokes
    ):
        raise ModelError(f"revokes must be a list of pred/hand/keep strings, got {revokes!r}")
    for key in ("preconditions", "effects"):
        if not isinstance(get(key), list):
            raise ModelError(f"{key} must be a list of literals, got {get(key)!r}")
    try:
        activity = ActivityLabel(get("activity"))
    except ValueError as exc:
        raise ModelError(str(exc)) from None
    return LearnedOperator(
        activity=activity,
        config_index=get("config_index"),
        params=tuple(map(tuple, params)),
        preconditions=_literals(get("preconditions"), known),
        effects=_literals(get("effects"), known),
        count=get("count"),
        cost=get("cost"),
        revokes=tuple(Revocation(r["pred"], r["hand"], r["keep"]) for r in revokes),
    )


def literal_to_json(lit: Literal) -> dict:
    return {"pred": lit.pred, "args": list(lit.args), "positive": lit.positive}


def literal_from_json(doc) -> Literal:
    """The literal of a JSON object; ``positive`` defaults to true.

    ``pred`` must be a string, ``args`` a list of strings and
    ``positive`` a JSON boolean, or ModelError says which is not.
    """
    return Literal(*_literal_fields(doc))


def _literals(docs: list, known: dict[tuple, Literal]) -> frozenset[Literal]:
    """The literals of JSON objects, each built once per ``known``."""
    fields = map(_literal_fields, docs)
    return frozenset([known.get(f) or known.setdefault(f, Literal(*f)) for f in fields])


def _literal_fields(doc) -> tuple[str, tuple[str, ...], bool]:
    """The checked ``Literal`` fields of a literal's JSON object."""
    if not isinstance(doc, dict):
        raise ModelError(f"a literal must be a JSON object, got {doc!r}")
    pred, args, positive = doc.get("pred"), doc.get("args"), doc.get("positive", True)
    if not isinstance(pred, str):
        raise ModelError(f"literal pred must be a string, got {pred!r}")
    if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
        raise ModelError(f"{pred}: args must be a list of strings, got {args!r}")
    if not isinstance(positive, bool):
        raise ModelError(f"{pred}{tuple(args)}: positive must be true or false, got {positive!r}")
    return pred, tuple(args), positive
