"""Canonical PDDL 3.1 serialization and a parser for the emitted subset.

Emission is deterministic: fixed header blocks, literals sorted by
predicate then arguments, one literal per line. Parsing the emitted text
reconstructs the in-memory structures exactly (observation counts are
not representable in PDDL and come back absent), and re-emission is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    NEQ,
    SCHEMAS,
    LearnedOperator,
    Literal,
    ModelError,
    OperatorLibrary,
    PlanningProblem,
    Revocation,
    WorldState,
)
from .ontology import (
    BUILTIN_TYPES,
    CUBE,
    EnvironmentRegistry,
    ObjectInstance,
)
from .segmentation import ActivityLabel

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


def emit_domain(library: OperatorLibrary, name: str = "stacking") -> PddlDocument:
    requirements = BASE_REQUIREMENTS
    if library.repaired:
        requirements = BASE_REQUIREMENTS[:3] + REPAIR_REQUIREMENTS + BASE_REQUIREMENTS[3:]
    out = [f"(define (domain {name})"]
    out.append(f"  (:requirements {' '.join(requirements)})")
    out.append(_HEADER.rstrip("\n"))
    for op in library:
        out.append(_emit_action(op))
    out.append(")")
    return PddlDocument("domain", "\n".join(out) + "\n")


def _emit_action(op: LearnedOperator) -> str:
    if op.cost is None:
        raise PddlError(f"operator {op.name} has no cost assigned")
    params = " ".join(f"{name} - {type_name}" for name, type_name in op.params)
    lines = [f"  (:action {op.name}", f"    :parameters ({params})"]

    pre = [_literal_str(l) for l in sorted(op.preconditions)]
    if pre:
        lines.append("    :precondition (and")
        lines.extend(f"      {s}" for s in pre[:-1])
        lines.append(f"      {pre[-1]})")
    else:
        lines.append("    :precondition (and)")

    eff = [_literal_str(l) for l in sorted(op.effects)]
    eff.extend(_revocation_str(r) for r in sorted(op.revokes, key=lambda r: (r.pred, r.keep)))
    eff.append(f"(increase (total-cost) {op.cost})")
    lines.append("    :effect (and")
    lines.extend(f"      {s}" for s in eff[:-1])
    lines.append(f"      {eff[-1]}))")
    return "\n".join(lines)


def emit_problem(
    problem: PlanningProblem,
    goal_literals: tuple[Literal, ...] | None = None,
    name: str = "stacking-task",
    domain: str = "stacking",
) -> PddlDocument:
    goals = goal_literals if goal_literals is not None else problem.goal
    if not goals:
        raise PddlError("a problem needs at least one goal literal")
    registry = problem.registry
    out = [f"(define (problem {name})", f"  (:domain {domain})"]

    out.append("  (:objects")
    objects = sorted(
        ((registry.type_of(inst.name), inst.name) for inst in registry.instances)
    )
    for i, (type_name, obj) in enumerate(objects):
        close = ")" if i == len(objects) - 1 else ""
        out.append(f"    {obj} - {type_name}{close}")

    out.append("  (:init")
    out.append("    (= (total-cost) 0)")
    atoms = sorted(Literal(pred, args) for pred, args in problem.init)
    for i, lit in enumerate(atoms):
        close = ")" if i == len(atoms) - 1 else ""
        out.append(f"    {_literal_str(lit)}{close}")
    if not atoms:
        out[-1] += ")"

    out.append("  (:goal (and")
    goal_strs = [_literal_str(l) for l in sorted(goals)]
    out.extend(f"    {s}" for s in goal_strs[:-1])
    out.append(f"    {goal_strs[-1]}))")
    out.append("  (:metric minimize (total-cost)))")
    return PddlDocument("problem", "\n".join(out) + "\n")


# --- parsing ---------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < len(text) and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col))
    return tokens


def _read_sexpr(tokens: list[_Token], pos: int):
    if pos >= len(tokens):
        last = tokens[-1] if tokens else _Token("", 1, 1)
        raise PddlSyntaxError("unexpected end of input", last.line, last.col)
    tok = tokens[pos]
    if tok.text == ")":
        raise PddlSyntaxError("unexpected ')'", tok.line, tok.col)
    if tok.text != "(":
        return tok, pos + 1
    items = []
    pos += 1
    while True:
        if pos >= len(tokens):
            raise PddlSyntaxError("unclosed '('", tok.line, tok.col)
        if tokens[pos].text == ")":
            return (tok, items), pos + 1
        item, pos = _read_sexpr(tokens, pos)
        items.append(item)


def _is_list(expr) -> bool:
    return isinstance(expr, tuple) and isinstance(expr[1], list)


def _head(expr) -> str:
    if not _is_list(expr) or not expr[1] or _is_list(expr[1][0]):
        tok = expr[0] if isinstance(expr, tuple) else expr
        raise PddlSyntaxError("expected a keyword list", tok.line, tok.col)
    return expr[1][0].text.lower()


def _atoms(expr) -> list[_Token]:
    out = []
    for item in expr[1]:
        if _is_list(item):
            raise PddlSyntaxError("expected a flat list", item[0].line, item[0].col)
        out.append(item)
    return out


def _typed_pairs(tokens: list[_Token]) -> list[tuple[_Token, str]]:
    """A PDDL typed list ``a b - T c - U`` as (name token, type) pairs."""
    pairs: list[tuple[_Token, str]] = []
    pending: list[_Token] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.text == "-":
            if not pending or i + 1 >= len(tokens):
                raise PddlSyntaxError("dangling '-' in typed list", tok.line, tok.col)
            type_name = tokens[i + 1].text
            pairs.extend((p, type_name) for p in pending)
            pending = []
            i += 2
        else:
            pending.append(tok)
            i += 1
    if pending:
        tok = pending[0]
        raise PddlSyntaxError(f"object {tok.text!r} has no type", tok.line, tok.col)
    return pairs


_CANONICAL_PRED = {name.lower(): name for name in SCHEMAS if name != NEQ}


def _parse_literal(expr) -> Literal:
    if not _is_list(expr):
        raise PddlSyntaxError("expected a literal", expr.line, expr.col)
    head = _head(expr)
    positive = True
    if head == "not":
        if len(expr[1]) != 2 or not _is_list(expr[1][1]):
            raise PddlSyntaxError("malformed (not ...)", expr[0].line, expr[0].col)
        positive = False
        expr = expr[1][1]
        head = _head(expr)
    args = [t.text for t in _atoms(expr)[1:]]
    if head == "=":
        if positive:
            raise PddlSyntaxError(
                "bare equality is not supported", expr[0].line, expr[0].col
            )
        return Literal(NEQ, tuple(args))
    pred = _CANONICAL_PRED.get(head)
    if pred is None:
        raise PddlSyntaxError(f"unknown predicate {head!r}", expr[0].line, expr[0].col)
    try:
        return Literal(pred, tuple(args), positive)
    except Exception as exc:
        raise PddlSyntaxError(str(exc), expr[0].line, expr[0].col) from exc


def _parse_conjunction(expr) -> list:
    if _is_list(expr) and expr[1] and not _is_list(expr[1][0]) and _head(expr) == "and":
        return expr[1][1:]
    return [expr]


_LABELS = sorted(ActivityLabel, key=lambda l: -len(l.value))


def _action_identity(name: str, line: int, col: int) -> tuple[ActivityLabel, int]:
    for label in _LABELS:
        if name.lower().startswith(label.value.lower()):
            rest = name[len(label.value):]
            if rest == "":
                return label, 1
            if rest.isdigit():
                return label, int(rest)
    raise PddlSyntaxError(f"action name {name!r} matches no activity", line, col)


def _parse_revocation(expr) -> Revocation:
    bad = PddlSyntaxError(
        "unsupported quantified effect", expr[0].line, expr[0].col
    )
    items = expr[1]
    if len(items) != 3 or not _is_list(items[1]) or not _is_list(items[2]):
        raise bad
    var_pairs = _typed_pairs(_atoms(items[1]))
    when = items[2]
    if len(var_pairs) != 1 or var_pairs[0][1] != CUBE or _head(when) != "when":
        raise bad
    var = var_pairs[0][0].text
    if len(when[1]) != 3:
        raise bad
    guard = _parse_literal(when[1][1])
    body = _parse_literal(when[1][2])
    if guard.pred != NEQ or guard.args[0] != var or body.positive or body.args[-1] != var:
        raise bad
    try:
        return Revocation(body.pred, body.args[0], guard.args[1])
    except ModelError as exc:
        tok = when[1][2][0]
        raise PddlSyntaxError(str(exc), tok.line, tok.col) from exc


def _parse_action(expr) -> LearnedOperator:
    items = expr[1]
    name_tok = items[1]
    if _is_list(name_tok):
        raise PddlSyntaxError("action name expected", expr[0].line, expr[0].col)
    activity, config_index = _action_identity(
        name_tok.text, name_tok.line, name_tok.col
    )
    sections: dict[str, object] = {}
    i = 2
    while i < len(items):
        key = items[i]
        if _is_list(key) or not key.text.startswith(":") or i + 1 >= len(items):
            tok = key[0] if _is_list(key) else key
            raise PddlSyntaxError("malformed action body", tok.line, tok.col)
        sections[key.text.lower()] = items[i + 1]
        i += 2

    params_expr = sections.get(":parameters")
    if params_expr is None or not _is_list(params_expr):
        raise PddlSyntaxError("action needs :parameters", expr[0].line, expr[0].col)
    params = tuple((tok.text, type_name) for tok, type_name in _typed_pairs(_atoms(params_expr)))

    preconditions = []
    if ":precondition" in sections:
        for lit_expr in _parse_conjunction(sections[":precondition"]):
            preconditions.append(_parse_literal(lit_expr))

    effects: list[Literal] = []
    revokes: list[Revocation] = []
    cost = None
    if ":effect" in sections:
        for eff_expr in _parse_conjunction(sections[":effect"]):
            head = _head(eff_expr) if _is_list(eff_expr) else ""
            if head == "increase":
                cost_tok = eff_expr[1][2]
                if _is_list(cost_tok) or not cost_tok.text.isdigit():
                    tok = eff_expr[0]
                    raise PddlSyntaxError("malformed cost increase", tok.line, tok.col)
                cost = int(cost_tok.text)
            elif head == "forall":
                revokes.append(_parse_revocation(eff_expr))
            else:
                effects.append(_parse_literal(eff_expr))

    try:
        return LearnedOperator(
            activity=activity,
            config_index=config_index,
            params=params,
            preconditions=frozenset(preconditions),
            effects=frozenset(effects),
            cost=cost,
            revokes=tuple(revokes),
        )
    except Exception as exc:
        raise PddlSyntaxError(str(exc), expr[0].line, expr[0].col) from exc


SUPPORTED_REQUIREMENTS = set(BASE_REQUIREMENTS) | set(REPAIR_REQUIREMENTS)


def parse(doc: PddlDocument | str):
    """Parse emitted PDDL text back into a library or a problem."""
    text = doc.text if isinstance(doc, PddlDocument) else doc
    tokens = _tokenize(text)
    expr, pos = _read_sexpr(tokens, 0)
    if pos < len(tokens):
        tok = tokens[pos]
        raise PddlSyntaxError("trailing text after document", tok.line, tok.col)
    if not _is_list(expr) or _head(expr) != "define":
        tok = expr[0] if _is_list(expr) else expr
        raise PddlSyntaxError("expected (define ...)", tok.line, tok.col)
    kind_expr = expr[1][1]
    kind = _head(kind_expr)
    if kind == "domain":
        return _parse_domain(expr)
    if kind == "problem":
        return _parse_problem(expr)
    raise PddlSyntaxError(
        f"unknown document kind {kind!r}", kind_expr[0].line, kind_expr[0].col
    )


def _parse_domain(expr) -> OperatorLibrary:
    operators = []
    repaired = False
    for section in expr[1][2:]:
        head = _head(section)
        if head == ":requirements":
            for req in _atoms(section)[1:]:
                if req.text.lower() not in SUPPORTED_REQUIREMENTS:
                    raise PddlSyntaxError(
                        f"unsupported requirement {req.text}", req.line, req.col
                    )
                if req.text.lower() == ":conditional-effects":
                    repaired = True
        elif head == ":action":
            operators.append(_parse_action(section))
        elif head in (":types", ":predicates", ":functions", ":constants"):
            continue
        else:
            tok = section[0]
            raise PddlSyntaxError(f"unsupported section {head!r}", tok.line, tok.col)
    return OperatorLibrary(operators, repaired=repaired)


def _parse_problem(expr) -> PlanningProblem:
    objects: list[ObjectInstance] = []
    init: set = set()
    goal: list[Literal] = []
    for section in expr[1][2:]:
        head = _head(section)
        if head == ":objects":
            for tok, type_name in _typed_pairs(_atoms(section)[1:]):
                if type_name not in BUILTIN_TYPES:
                    raise PddlSyntaxError(
                        f"object {tok.text!r} has undeclared type {type_name!r}",
                        tok.line,
                        tok.col,
                    )
                objects.append(ObjectInstance(tok.text, type_name))
        elif head == ":init":
            for item in section[1][1:]:
                if _is_list(item) and _head(item) == "=":
                    continue
                lit = _parse_literal(item)
                if not lit.positive:
                    raise PddlSyntaxError(
                        "negative init atoms are not supported",
                        item[0].line,
                        item[0].col,
                    )
                init.add(lit.atom)
        elif head == ":goal":
            if len(section[1]) != 2:
                tok = section[0]
                raise PddlSyntaxError("malformed :goal", tok.line, tok.col)
            goal = [_parse_literal(e) for e in _parse_conjunction(section[1][1])]
        elif head in (":domain", ":metric"):
            continue
        else:
            tok = section[0]
            raise PddlSyntaxError(f"unsupported section {head!r}", tok.line, tok.col)
    try:
        registry = EnvironmentRegistry("execution", objects)
        return PlanningProblem(registry, frozenset(init), tuple(goal))
    except Exception as exc:
        tok = expr[0]
        raise PddlSyntaxError(str(exc), tok.line, tok.col) from exc
