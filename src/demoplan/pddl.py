"""Canonical PDDL 3.1 serialization and a parser for the emitted subset.

Emission is deterministic: fixed header blocks, literals sorted by
predicate then arguments, one literal per line. Parsing the emitted text
reconstructs the in-memory structures exactly (observation counts are
not representable in PDDL and come back absent), and re-emission is
byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .model import (
    NEQ,
    SCHEMAS,
    ActivityLabel,
    LearnedOperator,
    Literal,
    ModelError,
    OperatorLibrary,
    PlanningProblem,
    Revocation,
)
from .ontology import (
    BUILTIN_TYPES,
    CUBE,
    EnvironmentRegistry,
    ObjectInstance,
    OntologyError,
)

BASE_REQUIREMENTS = (":strips", ":typing", ":negative-preconditions", ":action-costs")
REPAIR_REQUIREMENTS = (":universal-preconditions", ":conditional-effects")

_HEADER = (
    "  (:types Wooden_cube - Thing Hand - Thing Table - Thing)\n"
    "  (:predicates\n"
    "    (inHand ?Hand1 - Hand ?Wooden_cube1 - Wooden_cube)\n"
    "    (actedOn ?Hand1 - Hand ?Wooden_cube1 - Wooden_cube)\n"
    "    (handOpen ?Hand1 - Hand)\n"
    "    (handMove ?Hand1 - Hand)\n"
    "    (onTop ?Thing1 - Thing ?Thing2 - Thing)\n"
    "    (inTouch ?Thing1 - Thing ?Thing2 - Thing)\n"
    "    (graspable ?Hand1 - Hand ?Thing1 - Thing))\n"
    "  (:functions (total-cost))\n"
)


class PddlError(Exception):
    """Problem with PDDL text or an unserializable structure."""


class PddlSyntaxError(PddlError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class PddlDocument:
    kind: str
    text: str


def _literal_str(lit: Literal) -> str:
    if lit.pred == NEQ:
        return f"(not (= {lit.args[0]} {lit.args[1]}))"
    inner = f"({lit.pred}{''.join(' ' + a for a in lit.args)})"
    return inner if lit.positive else f"(not {inner})"


def _revocation_str(rev: Revocation) -> str:
    return (
        f"(forall (?x - {CUBE}) (when (not (= ?x {rev.keep})) "
        f"(not ({rev.pred} {rev.hand} ?x))))"
    )


def emit_domain(library: OperatorLibrary) -> PddlDocument:
    requirements = BASE_REQUIREMENTS
    if library.repaired:
        requirements = BASE_REQUIREMENTS[:3] + REPAIR_REQUIREMENTS + BASE_REQUIREMENTS[3:]
    out = ["(define (domain stacking)"]
    out.append(f"  (:requirements {' '.join(requirements)})")
    out.append(_HEADER.rstrip("\n"))
    for op in library:
        out.append(_emit_action(op))
    out.append(")")
    return PddlDocument("domain", "\n".join(out) + "\n")


def _block(head: str, items: list[str], indent: str, close: str) -> list[str]:
    """``head`` and then one item per line at ``indent``; ``close`` ends
    the last item, or the head itself when there are no items."""
    if not items:
        return [head + close]
    return [head, *(indent + s for s in items[:-1]), indent + items[-1] + close]


def _emit_action(op: LearnedOperator) -> str:
    if op.cost is None:
        raise PddlError(f"operator {op.name} has no cost assigned")
    params = " ".join(f"{name} - {type_name}" for name, type_name in op.params)
    pre = [_literal_str(l) for l in sorted(op.preconditions)]
    eff = [_literal_str(l) for l in sorted(op.effects)]
    eff.extend(_revocation_str(r) for r in sorted(op.revokes, key=lambda r: (r.pred, r.keep)))
    eff.append(f"(increase (total-cost) {op.cost})")
    return "\n".join(
        [
            f"  (:action {op.name}",
            f"    :parameters ({params})",
            *_block("    :precondition (and", pre, "      ", ")"),
            *_block("    :effect (and", eff, "      ", "))"),
        ]
    )


def emit_problem(problem: PlanningProblem) -> PddlDocument:
    if not problem.goal:
        raise PddlError("a problem needs at least one goal literal")
    registry = problem.registry
    typed = sorted((registry.type_of(inst.name), inst.name) for inst in registry.instances)
    objects = [f"{obj} - {type_name}" for type_name, obj in typed]
    init = [_literal_str(Literal(pred, args)) for pred, args in sorted(problem.init)]
    goal = [_literal_str(l) for l in sorted(problem.goal)]
    out = [
        "(define (problem stacking-task)",
        "  (:domain stacking)",
        *_block("  (:objects", objects, "    ", ")"),
        *_block("  (:init", ["(= (total-cost) 0)", *init], "    ", ")"),
        *_block("  (:goal (and", goal, "    ", "))"),
        "  (:metric minimize (total-cost)))",
    ]
    return PddlDocument("problem", "\n".join(out) + "\n")


# --- parsing ---------------------------------------------------------------

# A line break, a comment, a parenthesis or a word; other whitespace
# separates tokens and matches nothing.
_TOKEN = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


class _Word(str):
    """A word of the text with the 1-based line and column it starts at."""

    def __new__(cls, text: str, line: int, col: int) -> "_Word":
        word = super().__new__(cls, text)
        word.line, word.col = line, col
        return word


class _List(list):
    """A parenthesised list with the 1-based line and column of its '('."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        super().__init__()
        self.line, self.col = line, col


def _error(node: _Word | _List, message: str) -> NoReturn:
    raise PddlSyntaxError(message, node.line, node.col)


def _make(node: _Word | _List, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a model, registry or number error
    raised as a syntax error at ``node``."""
    try:
        return make(*args, **kwargs)
    except (ModelError, OntologyError, ValueError) as exc:
        _error(node, str(exc))


def _read(text: str) -> _Word | _List:
    """The one expression that makes up ``text``."""
    root = _List(1, 1)
    stack = [root]
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if tok == "\n":
            line, line_start = line + 1, match.end()
            continue
        if tok[0] == ";":
            continue
        word = _Word(tok, line, match.start() - line_start + 1)
        if root and len(stack) == 1:
            _error(word, "trailing text after document")
        if tok == "(":
            node = _List(word.line, word.col)
            stack[-1].append(node)
            stack.append(node)
        elif tok == ")":
            if len(stack) == 1:
                _error(word, "unexpected ')'")
            stack.pop()
        else:
            stack[-1].append(word)
    if len(stack) > 1:
        _error(stack[-1], "unclosed '('")
    if not root:
        _error(root, "unexpected end of input")
    return root[0]


def _head(node: _Word | _List) -> str:
    """The lower-cased keyword a list starts with."""
    if not isinstance(node, _List) or not node or not isinstance(node[0], _Word):
        _error(node, "expected a keyword list")
    return node[0].lower()


def _text(node: _Word | _List) -> str:
    """``node`` as one line of lower-case text, to match a fixed form.

    Built from a stack, not by recursion, so that no depth of nesting
    overflows; ``")"`` on the stack closes a list, as no word is ``")"``.
    """
    parts, stack = [], [node]
    while stack:
        item = stack.pop()
        if parts and parts[-1] != "(" and item != ")":
            parts.append(" ")
        if isinstance(item, _List):
            parts.append("(")
            stack.append(")")
            stack.extend(reversed(item))
        else:
            parts.append(item.lower())
    return "".join(parts)


def _words(items: list) -> list[_Word]:
    for item in items:
        if isinstance(item, _List):
            _error(item, "expected a flat list")
    return items


def _typed_pairs(items: list) -> list[tuple[_Word, str]]:
    """A PDDL typed list ``a b - T c - U`` as (name, type) pairs."""
    pairs: list[tuple[_Word, str]] = []
    pending: list[_Word] = []
    words = iter(_words(items))
    for word in words:
        if word != "-":
            pending.append(word)
            continue
        type_name = next(words, None)
        if not pending or type_name is None:
            _error(word, "dangling '-' in typed list")
        pairs.extend((p, str(type_name)) for p in pending)
        pending = []
    if pending:
        _error(pending[0], f"object {pending[0]!r} has no type")
    return pairs


_CANONICAL_PRED = {name.lower(): name for name in SCHEMAS if name != NEQ}


def _literal(node: _Word | _List) -> Literal:
    if not isinstance(node, _List):
        _error(node, "expected a literal")
    head = _head(node)
    positive = True
    if head == "not":
        if len(node) != 2 or not isinstance(node[1], _List):
            _error(node, "malformed (not ...)")
        positive = False
        node = node[1]
        head = _head(node)
    args = tuple(map(str, _words(node[1:])))
    if head == "=":
        if positive:
            _error(node, "bare equality is not supported")
        return _make(node, Literal, NEQ, args)
    pred = _CANONICAL_PRED.get(head)
    if pred is None:
        _error(node, f"unknown predicate {head!r}")
    return _make(node, Literal, pred, args, positive)


def _conjuncts(node: _Word | _List) -> list:
    """The items of an ``(and ...)``; any other node is a conjunction of one."""
    if isinstance(node, _List) and node and isinstance(node[0], _Word):
        if node[0].lower() == "and":
            return node[1:]
    return [node]


_LABELS = sorted(ActivityLabel, key=lambda l: -len(l.value))


def _action_identity(name: _Word) -> tuple[ActivityLabel, int]:
    for label in _LABELS:
        if name.lower().startswith(label.value.lower()):
            rest = name[len(label.value):]
            if rest == "":
                return label, 1
            if rest.isdecimal():
                return label, _make(name, int, rest)
    _error(name, f"action name {name!r} matches no activity")


def _revocation(node: _List) -> Revocation:
    bad = "unsupported quantified effect"
    if len(node) != 3 or not isinstance(node[1], _List) or not isinstance(node[2], _List):
        _error(node, bad)
    var_pairs = _typed_pairs(node[1])
    when = node[2]
    if len(var_pairs) != 1 or var_pairs[0][1] != CUBE or _head(when) != "when" or len(when) != 3:
        _error(node, bad)
    var = var_pairs[0][0]
    guard, body = _literal(when[1]), _literal(when[2])
    if guard.pred != NEQ or guard.args[0] != var or body.positive or body.args[-1] != var:
        _error(node, bad)
    return _make(when[2], Revocation, body.pred, body.args[0], guard.args[1])


def _action(node: _List) -> LearnedOperator:
    if len(node) < 2 or not isinstance(node[1], _Word):
        _error(node, "action name expected")
    activity, config_index = _action_identity(node[1])
    sections: dict[str, _Word | _List] = {}
    for i in range(2, len(node), 2):
        key = node[i]
        if not isinstance(key, _Word) or not key.startswith(":") or i + 1 >= len(node):
            _error(key, "malformed action body")
        sections[key.lower()] = node[i + 1]

    params_node = sections.get(":parameters")
    if not isinstance(params_node, _List):
        _error(node, "action needs :parameters")
    params = tuple((str(name), type_name) for name, type_name in _typed_pairs(params_node))

    preconditions = []
    if ":precondition" in sections:
        preconditions = [_literal(n) for n in _conjuncts(sections[":precondition"])]

    effects: list[Literal] = []
    revokes: list[Revocation] = []
    cost = None
    for eff in _conjuncts(sections[":effect"]) if ":effect" in sections else ():
        head = _head(eff) if isinstance(eff, _List) else ""
        if head == "increase":
            if (
                len(eff) != 3
                or _text(eff[1]) != "(total-cost)"
                or not isinstance(eff[2], _Word)
                or not eff[2].isdecimal()
            ):
                _error(eff, "malformed cost increase: expected (increase (total-cost) N)")
            cost = _make(eff, int, eff[2])
        elif head == "forall":
            revokes.append(_revocation(eff))
        else:
            effects.append(_literal(eff))

    return _make(
        node,
        LearnedOperator,
        activity=activity,
        config_index=config_index,
        params=params,
        preconditions=frozenset(preconditions),
        effects=frozenset(effects),
        cost=cost,
        revokes=tuple(revokes),
    )


SUPPORTED_REQUIREMENTS = set(BASE_REQUIREMENTS) | set(REPAIR_REQUIREMENTS)


def parse(doc: PddlDocument | str):
    """Parse emitted PDDL text back into a library or a problem.

    Malformed text raises PddlSyntaxError, and nothing else.
    """
    root = _read(doc.text if isinstance(doc, PddlDocument) else doc)
    if not isinstance(root, _List) or _head(root) != "define":
        _error(root, "expected (define ...)")
    if len(root) < 2:
        _error(root, "expected (define (domain ...) ...) or (define (problem ...) ...)")
    kind = _head(root[1])
    if kind == "domain":
        return _parse_domain(root)
    if kind == "problem":
        return _parse_problem(root)
    _error(root[1], f"unknown document kind {kind!r}")


def _parse_domain(root: _List) -> OperatorLibrary:
    operators = []
    for section in root[2:]:
        head = _head(section)
        if head == ":requirements":
            for req in _words(section[1:]):
                if req.lower() not in SUPPORTED_REQUIREMENTS:
                    _error(req, f"unsupported requirement {req}")
        elif head == ":action":
            operators.append(_action(section))
        elif head not in (":types", ":predicates", ":functions", ":constants"):
            _error(section, f"unsupported section {head!r}")
    return _make(root, OperatorLibrary, operators)


def _parse_problem(root: _List) -> PlanningProblem:
    objects: list[ObjectInstance] = []
    init: set = set()
    goal: list[Literal] = []
    for section in root[2:]:
        head = _head(section)
        if head == ":objects":
            for name, type_name in _typed_pairs(section[1:]):
                if type_name not in BUILTIN_TYPES:
                    _error(name, f"object {name!r} has undeclared type {type_name!r}")
                objects.append(ObjectInstance(str(name), type_name))
        elif head == ":init":
            for item in section[1:]:
                if isinstance(item, _List) and _head(item) == "=":
                    if _text(item) != "(= (total-cost) 0)":
                        _error(item, "malformed cost init: expected (= (total-cost) 0)")
                    continue
                lit = _literal(item)
                if not lit.positive:
                    _error(item, "negative init atoms are not supported")
                init.add(lit.atom)
        elif head == ":goal":
            if len(section) != 2:
                _error(section, "malformed :goal")
            goal = [_literal(n) for n in _conjuncts(section[1])]
        elif head == ":metric":
            if _text(section) != "(:metric minimize (total-cost))":
                _error(section, "unsupported metric: expected (:metric minimize (total-cost))")
        elif head != ":domain":
            _error(section, f"unsupported section {head!r}")
    registry = _make(root, EnvironmentRegistry, "execution", objects)
    return _make(root, PlanningProblem, registry, frozenset(init), tuple(goal))
