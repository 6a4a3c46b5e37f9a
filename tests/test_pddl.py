"""Tests for pddl.py."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoplan.model import (
    LearnedOperator,
    Literal,
    OperatorLibrary,
    PlanningProblem,
)
from demoplan.oplearn import repair_exclusivity
from demoplan.pddl import (
    REPAIR_REQUIREMENTS,
    PddlError,
    PddlSyntaxError,
    emit_domain,
    emit_problem,
    parse,
)
from demoplan.planner import standard_goals, tabletop_init
from demoplan.segmentation import ActivityLabel

H = "?Hand1"
C = "?Wooden_cube1"

# Hand-written domain text in the loose formatting a human author would
# produce: requirements split over two lines, ragged parameter columns,
# and (not( without a space before the inner atom.
HAND_WRITTEN_DOMAIN = """(define (domain
    learningFromDemonstrationAllOperators)
(:requirements :strips :typing
    :negative-preconditions :action-costs)
(:types Wooden_cube - Thing Hand - Thing
        Table - Thing)
(:predicates
   (inHand ?Hand1 - Hand
           ?Wooden_cube1 - Wooden_cube)
   (actedOn ?Hand1 - Hand
                ?Wooden_cube1 - Wooden_cube)
   (handOpen ?Hand1 - Hand)
   (handMove ?Hand1 - Hand)
   (onTop ?Thing1 - Thing ?Thing2 - Thing)
   (inTouch ?Thing1 - Thing ?Thing2 - Thing)
   (graspable ?Hand1 - Hand ?Thing1 - Thing)
  )

(:functions (total-cost))

(:action Stack
  :parameters (?Hand1 - Hand
               ?Wooden_cube1 - Wooden_cube
               ?Wooden_cube2 - Wooden_cube)
  :precondition (and
   (not(inTouch ?Wooden_cube1 ?Wooden_cube2))
   (not(inTouch ?Wooden_cube2 ?Wooden_cube1))
   (not(onTop ?Wooden_cube2 ?Wooden_cube1))
   (inHand ?Hand1 ?Wooden_cube2)
   (not(actedOn ?Hand1 ?Wooden_cube1))
   (not(handOpen ?Hand1))
   (handMove ?Hand1)
   (not(graspable ?Hand1 ?Wooden_cube1))
   (not(= ?Wooden_cube1 ?Wooden_cube2))
   (not(= ?Wooden_cube2 ?Wooden_cube1)))
  :effect (and
   (inTouch ?Wooden_cube1 ?Wooden_cube2)
   (inTouch ?Wooden_cube2 ?Wooden_cube1)
   (onTop ?Wooden_cube2 ?Wooden_cube1)
   (inHand ?Hand1 ?Wooden_cube2)
   (actedOn ?Hand1 ?Wooden_cube1)
   (not(handOpen ?Hand1))
   (handMove ?Hand1)
   (graspable ?Hand1 ?Wooden_cube1)
   (increase (total-cost) 31))
 )
(:action Put
  :parameters (?Hand1 - Hand
               ?Table1 - Table
               ?Wooden_cube1 - Wooden_cube )
  :precondition (and
   (inTouch ?Wooden_cube1 ?Table1)
   (onTop ?Wooden_cube1 ?Table1)
   (inHand ?Hand1 ?Wooden_cube1)
   (not(handOpen ?Hand1))
   (not(handMove ?Hand1)))
  :effect (and
   (not(inTouch ?Wooden_cube1 ?Table1))
   (not(onTop ?Wooden_cube1 ?Table1))
   (inHand ?Hand1 ?Wooden_cube1)
   (not(handOpen ?Hand1))
   (handMove ?Hand1)
   (increase (total-cost) 45))
 )
)
"""


def mini_reach() -> LearnedOperator:
    return LearnedOperator(
        activity=ActivityLabel.REACH,
        config_index=1,
        params=((H, "Hand"), (C, "Wooden_cube")),
        preconditions=frozenset(
            {
                Literal("handOpen", (H,)),
                Literal("actedOn", (H, C), positive=False),
                Literal("graspable", (H, C), positive=False),
                Literal("handMove", (H,), positive=False),
            }
        ),
        effects=frozenset(
            {
                Literal("actedOn", (H, C)),
                Literal("graspable", (H, C)),
                Literal("handMove", (H,)),
                Literal("handOpen", (H,)),
            }
        ),
        count=4,
        cost=20,
    )


def test_parse_hand_written_domain():
    """Loosely formatted text parses into the expected operator shapes."""
    lib = parse(HAND_WRITTEN_DOMAIN)
    assert not lib.repaired
    assert [op.name for op in lib] == ["Stack", "Put"]

    stack = lib.of_activity("Stack")[0]
    assert stack.config_index == 1
    assert len(stack.params) == 3
    assert len(stack.preconditions) == 10
    assert len(stack.effects) == 8
    assert stack.cost == 31
    neq = {lit.args for lit in stack.preconditions if lit.pred == "neq"}
    assert neq == {
        ("?Wooden_cube1", "?Wooden_cube2"),
        ("?Wooden_cube2", "?Wooden_cube1"),
    }
    assert Literal("graspable", (H, C), positive=False) in stack.preconditions

    put = lib.of_activity("Put")[0]
    assert put.params == ((H, "Hand"), ("?Table1", "Table"), (C, "Wooden_cube"))
    assert len(put.preconditions) == 5
    assert len(put.effects) == 5
    assert put.cost == 45
    assert Literal("handMove", (H,), positive=False) in put.preconditions
    assert Literal("handMove", (H,)) in put.effects


def test_emit_mini_domain_golden():
    """The emitted text for a one-operator library is stable byte for byte."""
    doc = emit_domain(OperatorLibrary([mini_reach()]))
    assert doc.kind == "domain"
    assert doc.text == """(define (domain stacking)
  (:requirements :strips :typing :negative-preconditions :action-costs)
  (:types Wooden_cube - Thing Hand - Thing Table - Thing)
  (:predicates
    (inHand ?Hand1 - Hand ?Wooden_cube1 - Wooden_cube)
    (actedOn ?Hand1 - Hand ?Wooden_cube1 - Wooden_cube)
    (handOpen ?Hand1 - Hand)
    (handMove ?Hand1 - Hand)
    (onTop ?Thing1 - Thing ?Thing2 - Thing)
    (inTouch ?Thing1 - Thing ?Thing2 - Thing)
    (graspable ?Hand1 - Hand ?Thing1 - Thing))
  (:functions (total-cost))
  (:action Reach
    :parameters (?Hand1 - Hand ?Wooden_cube1 - Wooden_cube)
    :precondition (and
      (not (actedOn ?Hand1 ?Wooden_cube1))
      (not (graspable ?Hand1 ?Wooden_cube1))
      (not (handMove ?Hand1))
      (handOpen ?Hand1))
    :effect (and
      (actedOn ?Hand1 ?Wooden_cube1)
      (graspable ?Hand1 ?Wooden_cube1)
      (handMove ?Hand1)
      (handOpen ?Hand1)
      (increase (total-cost) 20)))
)
"""


def test_emit_repaired_requirements_and_revocations():
    """Repair adds two requirements and a forall/when guard per revocation."""
    repaired = repair_exclusivity(OperatorLibrary([mini_reach()]))
    doc = emit_domain(repaired)
    lines = doc.text.splitlines()
    assert lines[1] == (
        "  (:requirements :strips :typing :negative-preconditions"
        " :universal-preconditions :conditional-effects :action-costs)"
    )
    assert (
        "      (forall (?x - Wooden_cube) (when (not (= ?x ?Wooden_cube1))"
        " (not (actedOn ?Hand1 ?x))))"
    ) in lines
    assert (
        "      (forall (?x - Wooden_cube) (when (not (= ?x ?Wooden_cube1))"
        " (not (graspable ?Hand1 ?x))))"
    ) in lines

    back = parse(doc)
    assert back.repaired
    op = back.of_activity("Reach")[0]
    assert {(r.pred, r.hand, r.keep) for r in op.revokes} == {
        ("actedOn", "?Hand1", "?Wooden_cube1"),
        ("graspable", "?Hand1", "?Wooden_cube1"),
    }
    assert emit_domain(back).text == doc.text


def test_revocations_decide_the_repair_requirements():
    """A library is repaired exactly when an operator revokes, whatever
    its ``repaired`` key says."""
    doc = repair_exclusivity(OperatorLibrary([mini_reach()])).to_json()
    doc["repaired"] = False
    library = OperatorLibrary.from_json(doc)
    assert library.repaired
    assert " ".join(REPAIR_REQUIREMENTS) in emit_domain(library).text.splitlines()[1]

    doc = OperatorLibrary([mini_reach()]).to_json()
    doc["repaired"] = True
    library = OperatorLibrary.from_json(doc)
    assert not library.repaired
    assert not any(req in emit_domain(library).text for req in REPAIR_REQUIREMENTS)


def test_emit_problem_golden(exec_registry):
    problem = PlanningProblem(
        exec_registry,
        tabletop_init(exec_registry),
        standard_goals(exec_registry)["goal1"],
    )
    doc = emit_problem(problem)
    assert doc.kind == "problem"
    assert doc.text == """(define (problem stacking-task)
  (:domain stacking)
  (:objects
    Robot_gripper - Hand
    high_table - Table
    Cube_blue3 - Wooden_cube
    Cube_green3 - Wooden_cube
    Cube_red3 - Wooden_cube
    Cube_yellow3 - Wooden_cube)
  (:init
    (= (total-cost) 0)
    (handOpen Robot_gripper)
    (inTouch Cube_blue3 high_table)
    (inTouch Cube_green3 high_table)
    (inTouch Cube_red3 high_table)
    (inTouch Cube_yellow3 high_table)
    (inTouch high_table Cube_blue3)
    (inTouch high_table Cube_green3)
    (inTouch high_table Cube_red3)
    (inTouch high_table Cube_yellow3)
    (onTop Cube_blue3 high_table)
    (onTop Cube_green3 high_table)
    (onTop Cube_red3 high_table)
    (onTop Cube_yellow3 high_table))
  (:goal (and
    (onTop Cube_green3 Cube_blue3)))
  (:metric minimize (total-cost)))
"""


def test_problem_round_trip(exec_registry):
    """emit -> parse -> emit is byte identical and preserves init and goal."""
    problem = PlanningProblem(
        exec_registry,
        tabletop_init(exec_registry),
        standard_goals(exec_registry)["goal2"],
    )
    doc = emit_problem(problem)
    back = parse(doc)
    assert back.init == problem.init
    assert back.goal == problem.goal
    assert back.registry.role == "execution"
    assert back.registry.cubes == exec_registry.cubes
    assert emit_problem(back).text == doc.text


def test_learned_library_round_trip(combined_library, repaired_library):
    """Full learned libraries survive emit -> parse -> emit byte for byte."""
    for lib in (combined_library, repaired_library):
        doc = emit_domain(lib)
        back = parse(doc)
        assert back.repaired == lib.repaired
        assert [op.name for op in back] == [op.name for op in lib]
        for got, want in zip(back, lib):
            assert got.params == want.params
            assert got.preconditions == want.preconditions
            assert got.effects == want.effects
            assert got.revokes == want.revokes
            assert got.cost == want.cost
        assert emit_domain(back).text == doc.text


def test_emit_is_deterministic(combined_library):
    assert emit_domain(combined_library).text == emit_domain(combined_library).text


def test_counts_do_not_survive_round_trip(combined_library):
    """Observation counts are not representable in PDDL and come back absent."""
    back = parse(emit_domain(combined_library))
    assert all(op.count is None for op in back)


def test_emit_rejects_costless_operator():
    op = mini_reach()
    costless = LearnedOperator(
        activity=op.activity,
        config_index=op.config_index,
        params=op.params,
        preconditions=op.preconditions,
        effects=op.effects,
        count=op.count,
    )
    with pytest.raises(PddlError, match="has no cost assigned"):
        emit_domain(OperatorLibrary([costless]))


def test_emit_problem_rejects_empty_goal(exec_registry):
    problem = PlanningProblem(exec_registry, tabletop_init(exec_registry), ())
    with pytest.raises(PddlError, match="at least one goal literal"):
        emit_problem(problem)


def test_comments_are_skipped():
    text = HAND_WRITTEN_DOMAIN.replace(
        "(:functions (total-cost))",
        "; generated by hand\n(:functions (total-cost)) ; cost bookkeeping",
    )
    lib = parse(text)
    assert [op.name for op in lib] == ["Stack", "Put"]


def test_syntax_error_positions():
    """Errors carry one-based line and column of the offending token."""
    with pytest.raises(PddlSyntaxError, match=r"unclosed '\('") as info:
        parse("(define (domain d)\n  (:requirements :strips)")
    assert (info.value.line, info.value.col) == (1, 1)

    with pytest.raises(PddlSyntaxError, match="trailing text after document"):
        parse("(define (domain d) (:requirements :strips)) extra")

    with pytest.raises(PddlSyntaxError, match=r"expected \(define"):
        parse("(domain d)")

    with pytest.raises(PddlSyntaxError, match="unknown document kind 'poem'"):
        parse("(define (poem d))")


def test_domain_error_messages():
    with pytest.raises(PddlSyntaxError, match="unsupported requirement :adl"):
        parse("(define (domain d) (:requirements :strips :adl))")

    with pytest.raises(PddlSyntaxError, match="unsupported section ':axioms'"):
        parse("(define (domain d) (:axioms x))")

    with pytest.raises(PddlSyntaxError, match="action needs :parameters"):
        parse(
            "(define (domain d) (:action Reach"
            " :precondition (and) :effect (and (increase (total-cost) 1))))"
        )

    with pytest.raises(PddlSyntaxError, match="'Wiggle' matches no activity"):
        parse(
            "(define (domain d) (:action Wiggle :parameters (?Hand1 - Hand)"
            " :precondition (and) :effect (and (increase (total-cost) 1))))"
        )

    with pytest.raises(PddlSyntaxError, match="bare equality is not supported"):
        parse(
            "(define (domain d) (:action Reach :parameters (?Hand1 - Hand)"
            " :precondition (and (= ?Hand1 ?Hand1))"
            " :effect (and (increase (total-cost) 1))))"
        )

    with pytest.raises(PddlSyntaxError, match="unknown predicate 'flies'"):
        parse(
            "(define (domain d) (:action Reach :parameters (?Hand1 - Hand)"
            " :precondition (and (flies ?Hand1))"
            " :effect (and (increase (total-cost) 1))))"
        )

    with pytest.raises(PddlSyntaxError, match="unsupported quantified effect"):
        parse(
            "(define (domain d) (:action Reach :parameters (?Hand1 - Hand)"
            " :precondition (and)"
            " :effect (and (forall (?x - Wooden_cube) (handOpen ?Hand1))"
            " (increase (total-cost) 1))))"
        )


def test_problem_error_messages():
    with pytest.raises(PddlSyntaxError, match="negative init atoms"):
        parse(
            "(define (problem p) (:domain d) (:objects h - Hand t - Table)"
            " (:init (not (handOpen h))) (:goal (and (handOpen h))))"
        )

    with pytest.raises(PddlSyntaxError, match=r"dangling '-' in typed list"):
        parse(
            "(define (problem p) (:domain d) (:objects h - )"
            " (:init) (:goal (and (handOpen h))))"
        )

    with pytest.raises(PddlSyntaxError, match="object 'h' has no type"):
        parse(
            "(define (problem p) (:domain d) (:objects h)"
            " (:init) (:goal (and (handOpen h))))"
        )

    with pytest.raises(PddlSyntaxError, match="exactly one Table"):
        parse(
            "(define (problem p) (:domain d) (:objects h - Hand)"
            " (:init) (:goal (and (handOpen h))))"
        )

    with pytest.raises(PddlSyntaxError, match="init names unknown instance nobody"):
        parse(
            "(define (problem p) (:domain d) (:objects h - Hand t - Table)"
            " (:init (handOpen nobody)) (:goal (and (handOpen h))))"
        )


COST_1 = "(and (increase (total-cost) 1))"


def _reach(effect: str, precondition: str = "(and)") -> str:
    return (
        "(define (domain d) (:action Reach :parameters (?Hand1 - Hand)"
        f" :precondition {precondition} :effect {effect}))"
    )


def _problem(init: str, metric: str = "") -> str:
    return (
        "(define (problem p) (:domain d) (:objects h - Hand t - Table)"
        f" (:init {init}) (:goal (and (handOpen h))) {metric})"
    )


@pytest.mark.parametrize(
    "text, message, at",
    [
        ("(define)", "expected (define (domain", "(define"),
        ("(define (domain x) (:action))", "action name expected", "(:action"),
        (_reach("(and (increase (total-cost)))"), "malformed cost increase", "(increase"),
        (_reach("(and (increase (total-cost) ²))"), "malformed cost increase", "(increase"),
        (_reach("(and (increase (foo bar) 5 junk))"), "malformed cost increase", "(increase"),
        (_reach("(and (increase (foo) 5))"), "malformed cost increase", "(increase"),
        (_reach("(and (increase (total-cost) 5 junk))"), "malformed cost increase", "(increase"),
        (_reach("(and (increase total-cost 5))"), "malformed cost increase", "(increase"),
        (_reach("(and (increase (total-cost x) 5))"), "malformed cost increase", "(increase"),
        (_reach(COST_1, "(and (not (= ?a)))"), "neq takes 2 arguments", "(= ?a"),
        (_reach(COST_1).replace("Reach", "Reach²"), "matches no activity", "Reach²"),
        (_reach(COST_1).replace("?Hand1 - Hand", "?Hand1 - Gripper"),
         "Reach: unknown parameter type Gripper", "(:action"),
        (_reach(COST_1).replace("?Hand1 - Hand", "?Hand1 - Hand ?Hand1 - Hand"),
         "Reach: parameter ?Hand1 is declared twice", "(:action"),
        (_reach("(and (forall (?x - Wooden_cube) (when (not (= ?x Cube_red3))"
                " (not (actedOn ?Hand9 ?x)))) (increase (total-cost) 1))"),
         "Reach: revocation variable ?Hand9 not in parameters", "(:action"),
        ("(define (domain d) (:action Reach :parameters ()) (:action Reach :parameters ()))",
         "two operators are named Reach", "(define"),
        (_problem("(= (foo bar) 7) (handOpen h)"), "malformed cost init", "(= (foo"),
        (_problem("(= (total-cost) 5)"), "malformed cost init", "(= (total"),
        (_problem("", "(:metric maximize (nothing))"), "unsupported metric", "(:metric"),
        (_problem("", "(:metric minimize (total-cost) 1)"), "unsupported metric", "(:metric"),
        (_problem("", "(:metric " + "(" * 5000 + ")" * 5000 + ")"),
         "unsupported metric", "(:metric"),
        (_problem("(= " + "(" * 5000 + ")" * 5000 + " 0)"), "malformed cost init", "(= (("),
        (_reach("(and (increase " + "(" * 5000 + ")" * 5000 + " 5))"),
         "malformed cost increase", "(increase"),
        (_problem("(onTop h h)"), "onTop(h, h) names one instance twice", "(define"),
        (_problem("(inHand t h)"), "inHand(t, h): t is not a Hand", "(define"),
        (_problem("(not (= h t))"), "neq(h, t): neq may not appear", "(define"),
        (
            "(define (problem p) (:domain d) (:objects h - Hand a - Small_cube t - Table)"
            " (:init) (:goal (and (handOpen h))))",
            "object 'a' has undeclared type 'Small_cube'",
            "a - Small_cube",
        ),
    ],
)
def test_malformed_text_raises_a_positioned_syntax_error(text, message, at):
    """Inputs that used to escape as IndexError, ModelError or ValueError,
    cost effects, cost inits, metrics, atoms naming one instance twice,
    mistyped atoms and neq atoms that used to parse, an object of a
    type outside the header's, and actions the library refuses: a
    parameter of an unknown type or declared twice, a revocation on an
    undeclared variable, and a second action of one name. A fixed form
    nested 5,000 deep is refused where it stands, not by RecursionError."""
    with pytest.raises(PddlSyntaxError, match=re.escape(message)) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (1, text.index(at) + 1)


_FUZZ_WORDS = [
    "define", "domain", "problem", ":requirements", ":conditional-effects", ":action",
    "Reach", "Put2", "Reach0", "Reach²", ":parameters", "?Hand1", "?x", "-", "Hand",
    "Wooden_cube", ":precondition", ":effect", "and", "not", "=", "increase", "(total-cost)",
    "forall", "when", "handOpen", "actedOn", "1", "²", ":objects", ":init", ":goal", "h", "t",
]
# Random expressions, alone and in the slots of a domain and a problem.
_SEXPR = st.recursive(
    st.sampled_from(_FUZZ_WORDS),
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: f"({' '.join(xs)})"),
    max_leaves=10,
)
_FUZZ_TEXT = (
    _SEXPR
    | st.builds(
        "(define (domain d) (:requirements :strips {}) (:action {} :parameters {}"
        " :precondition {} :effect {}))".format,
        _SEXPR, _SEXPR, _SEXPR | st.just("(?Hand1 - Hand ?x - Wooden_cube)"), _SEXPR, _SEXPR,
    )
    | st.builds(
        "(define (problem p) (:domain d) (:objects h - Hand t - Table {})"
        " (:init {}) (:goal {}))".format,
        _SEXPR, _SEXPR, _SEXPR,
    )
    | st.builds(
        lambda at, cut, insert: HAND_WRITTEN_DOMAIN[:at] + insert + HAND_WRITTEN_DOMAIN[at + cut:],
        st.integers(0, len(HAND_WRITTEN_DOMAIN)),
        st.integers(0, 40),
        st.text(alphabet="()-=;?:² \nab1", max_size=8),
    )
)


@settings(max_examples=400)
@given(_FUZZ_TEXT)
def test_parse_raises_only_syntax_errors(text):
    try:
        parse(text)
    except PddlSyntaxError as exc:
        assert exc.line >= 1 and exc.col >= 1
