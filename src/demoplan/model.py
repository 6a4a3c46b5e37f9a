"""Planning model: predicates, learned operators, world states, ground actions.

World states are closed-world sets of ground atoms. Operators are lifted,
typed, and carry an observation count from learning plus an assigned
integer cost. Applying a ground action deletes before it adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .ontology import CUBE, HAND, THING, EnvironmentRegistry
from .segmentation import ActivityLabel

NEQ = "neq"


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    arg_types: tuple[str, ...]


SCHEMAS: dict[str, PredicateSchema] = {
    s.name: s
    for s in (
        PredicateSchema("handMove", (HAND,)),
        PredicateSchema("handOpen", (HAND,)),
        PredicateSchema("inHand", (HAND, CUBE)),
        PredicateSchema("actedOn", (HAND, CUBE)),
        PredicateSchema("graspable", (HAND, CUBE)),
        PredicateSchema("inTouch", (THING, THING)),
        PredicateSchema("onTop", (THING, THING)),
        PredicateSchema(NEQ, (THING, THING)),
    )
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
        schema = SCHEMAS.get(self.pred)
        if schema is None:
            raise ModelError(f"unknown predicate: {self.pred}")
        if len(self.args) != len(schema.arg_types):
            raise ModelError(
                f"{self.pred} takes {len(schema.arg_types)} arguments, got {self.args!r}"
            )

    @property
    def atom(self) -> "Atom":
        return (self.pred, self.args)

    def substitute(self, binding: dict[str, str]) -> "Literal":
        return replace(self, args=tuple(binding.get(a, a) for a in self.args))

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
        declared = {name for name, _ in self.params}
        for lits, where in ((self.preconditions, "precondition"), (self.effects, "effect")):
            atoms = {}
            for lit in lits:
                if atoms.get(lit.atom, lit.positive) != lit.positive:
                    raise ModelError(
                        f"{self.name}: {where}s contain {lit.pred}{lit.args} with both signs"
                    )
                atoms[lit.atom] = lit.positive
                for term in lit.args:
                    if is_variable(term) and term not in declared:
                        raise ModelError(f"{self.name}: variable {term} not in parameters")
        for lit in self.effects:
            if lit.pred == NEQ:
                raise ModelError(f"{self.name}: {NEQ} may only appear in preconditions")

    @property
    def name(self) -> str:
        base = self.activity.value
        return base if self.config_index == 1 else f"{base}{self.config_index}"

    def signature(self) -> tuple:
        """Identity for merging: activity plus canonical literal sets."""
        return (self.activity, self.preconditions, self.effects)


@dataclass(frozen=True)
class GroundAction:
    """A fully bound operator with precompiled atom sets."""

    name: str
    activity: ActivityLabel
    args: tuple[str, ...]
    pre_pos: frozenset
    pre_neg: frozenset
    add: frozenset
    delete: frozenset
    cost: int

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ModelError(f"{self.name}: negative cost")

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.args)})"


def applicable(state: WorldState, action: GroundAction) -> bool:
    return action.pre_pos <= state and not (action.pre_neg & state)


def apply_action(state: WorldState, action: GroundAction) -> WorldState:
    """Successor state; deletes are applied before adds."""
    if not applicable(state, action):
        raise ModelError(f"action {action} is not applicable")
    return frozenset((state - action.delete) | action.add)


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

    def satisfied(self, state: WorldState) -> bool:
        return all(
            (lit.atom in state) == lit.positive for lit in self.goal
        )


@dataclass
class OperatorLibrary:
    """Ordered collection of learned operators with observation counts."""

    operators: list[LearnedOperator] = field(default_factory=list)
    repaired: bool = False

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
        JSON type raises ModelError."""
        operators = doc.get("operators", []) if isinstance(doc, dict) else None
        if not isinstance(operators, list):
            raise ModelError("a library must be a JSON object with a list of operators")
        repaired = doc.get("repaired", False)
        if not isinstance(repaired, bool):
            raise ModelError(f"repaired must be true or false, got {repaired!r}")
        return OperatorLibrary([_operator_from_json(item) for item in operators], repaired)


def _is_int(value) -> bool:
    return type(value) is int  # a JSON boolean is not


def _operator_from_json(item) -> LearnedOperator:
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
        preconditions=frozenset(map(literal_from_json, get("preconditions"))),
        effects=frozenset(map(literal_from_json, get("effects"))),
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
    if not isinstance(doc, dict):
        raise ModelError(f"a literal must be a JSON object, got {doc!r}")
    pred, args, positive = doc.get("pred"), doc.get("args"), doc.get("positive", True)
    if not isinstance(pred, str):
        raise ModelError(f"literal pred must be a string, got {pred!r}")
    if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
        raise ModelError(f"{pred}: args must be a list of strings, got {args!r}")
    if not isinstance(positive, bool):
        raise ModelError(f"{pred}{tuple(args)}: positive must be true or false, got {positive!r}")
    return Literal(pred, tuple(args), positive)
