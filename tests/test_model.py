"""Tests for model.py."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demoplan import pddl, planner
from demoplan.model import (
    NEQ,
    SCHEMAS,
    GroundAction,
    LearnedOperator,
    Literal,
    ModelError,
    OperatorLibrary,
    PlanningProblem,
    Revocation,
    applicable,
    apply_action,
    literal_from_json,
)
from demoplan.ontology import CUBE, HAND, execution_registry
from demoplan.oplearn import repair_exclusivity
from demoplan.segmentation import ActivityLabel


def lit(pred, *args, positive=True):
    return Literal(pred, tuple(args), positive)


def reach_operator(**overrides):
    fields = dict(
        activity=ActivityLabel.REACH,
        config_index=1,
        params=(("?Hand1", HAND), ("?Wooden_cube1", CUBE)),
        preconditions=frozenset(
            {
                lit("handOpen", "?Hand1"),
                lit("handMove", "?Hand1", positive=False),
                lit("actedOn", "?Hand1", "?Wooden_cube1", positive=False),
            }
        ),
        effects=frozenset(
            {
                lit("handMove", "?Hand1"),
                lit("actedOn", "?Hand1", "?Wooden_cube1"),
            }
        ),
    )
    fields.update(overrides)
    return LearnedOperator(**fields)


def test_literal_validation():
    with pytest.raises(ModelError, match="unknown predicate"):
        lit("holding", "h")
    with pytest.raises(ModelError, match="arguments"):
        lit("inHand", "h")
    assert str(lit("inHand", "h", "c")) == "inHand(h, c)"
    assert str(lit("inHand", "h", "c", positive=False)) == "not inHand(h, c)"


def test_literal_sort_order_is_pred_args_sign():
    a = lit("actedOn", "h", "c")
    b = lit("handMove", "h")
    c = lit("handMove", "h", positive=False)
    assert sorted([c, b, a]) == [a, c, b]


def test_literal_substitute():
    ground = lit("inHand", "?Hand1", "?Wooden_cube1").substitute(
        {"?Hand1": "g", "?Wooden_cube1": "c"}
    )
    assert ground == lit("inHand", "g", "c")


def test_operator_name_from_config_index():
    assert reach_operator().name == "Reach"
    assert reach_operator(config_index=3).name == "Reach3"
    with pytest.raises(ModelError):
        reach_operator(config_index=0)


def test_operator_rejects_contradictions():
    both = frozenset({lit("handMove", "?Hand1"), lit("handMove", "?Hand1", positive=False)})
    with pytest.raises(ModelError, match="both signs"):
        reach_operator(preconditions=both)


def test_operator_rejects_undeclared_variables():
    with pytest.raises(ModelError, match="not in parameters"):
        reach_operator(effects=frozenset({lit("handMove", "?Hand2")}))


def test_operator_rejects_neq_effects():
    with pytest.raises(ModelError, match="preconditions"):
        reach_operator(
            effects=frozenset({lit("neq", "?Wooden_cube1", "?Wooden_cube1")})
        )


def test_observe_merges_on_identical_signature():
    library = OperatorLibrary()
    op = reach_operator()
    first = library.observe(op.activity, op.params, op.preconditions, op.effects)
    assert (first.name, first.count) == ("Reach", 1)
    second = library.observe(op.activity, op.params, op.preconditions, op.effects)
    assert (second.name, second.count) == ("Reach", 2)
    assert len(library) == 1

    variant = reach_operator(
        preconditions=frozenset({lit("handOpen", "?Hand1")})
    )
    third = library.observe(
        variant.activity, variant.params, variant.preconditions, variant.effects
    )
    assert (third.name, third.count) == ("Reach2", 1)
    assert library.type_count(ActivityLabel.REACH) == 3


def test_type_count_requires_counts():
    library = OperatorLibrary([reach_operator()])
    with pytest.raises(ModelError, match="without counts"):
        library.type_count(ActivityLabel.REACH)


def test_apply_deletes_before_adding():
    toggle = GroundAction(
        name="Toggle",
        activity=ActivityLabel.IDLE,
        args=("g",),
        pre_pos=frozenset({("handOpen", ("g",))}),
        pre_neg=frozenset(),
        add=frozenset({("handOpen", ("g",))}),
        delete=frozenset({("handOpen", ("g",))}),
        cost=1,
    )
    state = frozenset({("handOpen", ("g",))})
    assert apply_action(state, toggle) == state


def test_apply_requires_applicability():
    action = GroundAction(
        name="Go",
        activity=ActivityLabel.IDLE,
        args=("g",),
        pre_pos=frozenset({("handMove", ("g",))}),
        pre_neg=frozenset(),
        add=frozenset(),
        delete=frozenset(),
        cost=1,
    )
    assert not applicable(frozenset(), action)
    with pytest.raises(ModelError, match="not applicable"):
        apply_action(frozenset(), action)


def test_negative_preconditions_block():
    action = GroundAction(
        name="Go",
        activity=ActivityLabel.IDLE,
        args=("g",),
        pre_pos=frozenset(),
        pre_neg=frozenset({("handMove", ("g",))}),
        add=frozenset(),
        delete=frozenset(),
        cost=1,
    )
    assert applicable(frozenset(), action)
    assert not applicable(frozenset({("handMove", ("g",))}), action)


def test_problem_goals_must_be_ground_and_known():
    reg = execution_registry()
    with pytest.raises(ModelError, match="not ground"):
        PlanningProblem(reg, frozenset(), (lit("handOpen", "?Hand1"),))
    with pytest.raises(ModelError, match="unknown instance"):
        PlanningProblem(reg, frozenset(), (lit("handOpen", "Left_claw"),))


def test_problem_satisfaction_honours_negative_goals():
    reg = execution_registry()
    goal = (
        lit("handOpen", "Robot_gripper"),
        lit("handMove", "Robot_gripper", positive=False),
    )
    problem = PlanningProblem(reg, frozenset(), goal)
    assert problem.satisfied(frozenset({("handOpen", ("Robot_gripper",))}))
    assert not problem.satisfied(
        frozenset(
            {("handOpen", ("Robot_gripper",)), ("handMove", ("Robot_gripper",))}
        )
    )
    assert not problem.satisfied(frozenset())


def test_library_json_round_trip():
    library = OperatorLibrary()
    op = reach_operator()
    library.observe(op.activity, op.params, op.preconditions, op.effects)
    library.observe(op.activity, op.params, op.preconditions, op.effects)

    doc = json.loads(json.dumps(library.to_json()))
    again = OperatorLibrary.from_json(doc)
    assert not again.repaired
    assert len(again) == 1
    assert again.operators[0].signature() == library.operators[0].signature()
    assert again.operators[0].count == 2
    assert again.to_json() == library.to_json()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"pred": "onTop", "args": ["a", "b"], "positive": "false"}, "positive must be true or false"),
        ({"pred": "onTop", "args": ["a", "b"], "positive": 0}, "positive must be true or false"),
        ({"pred": "onTop", "args": ["a", "b"], "positive": None}, "positive must be true or false"),
        ({"pred": "onTop", "args": [1, 2]}, "args must be a list of strings"),
        ({"pred": "onTop", "args": "ab"}, "args must be a list of strings"),
        ({"pred": "onTop"}, "args must be a list of strings"),
        ({"args": ["a", "b"]}, "pred must be a string"),
        ({"pred": ["onTop"], "args": ["a", "b"]}, "pred must be a string"),
        (["onTop", "a", "b"], "must be a JSON object"),
    ],
)
def test_literal_codec_rejects_malformed_documents(doc, message):
    with pytest.raises(ModelError, match=message):
        literal_from_json(doc)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_LITERAL_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "pred": st.sampled_from(sorted(SCHEMAS)) | _JSON,
        "args": st.lists(st.text(max_size=4), max_size=3) | _JSON,
        "positive": st.booleans() | _JSON,
    },
)


@given(_LITERAL_DOCS | _JSON)
def test_literal_from_json_raises_only_model_errors(doc):
    try:
        literal = literal_from_json(doc)
    except ModelError:
        return
    assert literal.pred == doc["pred"]
    assert literal.args == tuple(doc["args"])
    assert literal.positive is doc.get("positive", True)


def _operator_doc(**overrides) -> dict:
    doc = OperatorLibrary([reach_operator(count=2, cost=5)]).to_json()["operators"][0]
    return {**doc, **overrides}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"config_index": "1"}, "config_index must be an integer"),
        ({"config_index": True}, "config_index must be an integer"),
        ({"config_index": 1.0}, "config_index must be an integer"),
        ({"cost": "5"}, "cost must be an integer or null"),
        ({"cost": False}, "cost must be an integer or null"),
        ({"count": "2"}, "count must be an integer or null"),
        ({"count": True}, "count must be an integer or null"),
        ({"params": [["?Hand1", HAND, "extra"]]}, "params must be a list of"),
        ({"params": [["?Hand1", 1]]}, "params must be a list of"),
        ({"params": "?Hand1"}, "params must be a list of"),
        ({"revokes": [{"pred": ["actedOn"], "hand": "?Hand1", "keep": "?Hand1"}]}, "revokes must be"),
        ({"revokes": [{"pred": "actedOn", "hand": "?Hand1"}]}, "revokes must be"),
        ({"preconditions": {}}, "preconditions must be a list"),
        ({"activity": "Juggle"}, "not a valid ActivityLabel"),
    ],
)
def test_library_loader_rejects_mistyped_operator_fields(overrides, message):
    with pytest.raises(ModelError, match=message):
        OperatorLibrary.from_json({"operators": [_operator_doc(**overrides)]})


@pytest.mark.parametrize("doc", [{"repaired": "no"}, {"repaired": 0}, {"operators": {}}, []])
def test_library_loader_rejects_mistyped_documents(doc):
    with pytest.raises(ModelError, match="repaired must be|a library must be"):
        OperatorLibrary.from_json(doc)


_OPERATOR_DOCS = st.builds(
    lambda overrides: _operator_doc(**overrides),
    st.dictionaries(
        st.sampled_from(sorted(_operator_doc())),
        _JSON,
        max_size=2,
    ),
)


@given(
    st.fixed_dictionaries(
        {}, optional={"operators": st.lists(_OPERATOR_DOCS | _JSON, max_size=2) | _JSON}
    )
    | _JSON
)
def test_library_from_json_raises_only_model_errors(doc):
    try:
        library = OperatorLibrary.from_json(doc)
    except ModelError:
        return
    assert OperatorLibrary.from_json(library.to_json()).to_json() == library.to_json()


# A hand acts on and can grasp one cube at a time; nothing else is single-valued.
SINGLE_VALUED_CASES = [(pred, pred in {"actedOn", "graspable"}) for pred in sorted(SCHEMAS)]
BINARY = {pred for pred, schema in SCHEMAS.items() if len(schema.arg_types) == 2 and pred != NEQ}


def _library_doc(pred: str) -> dict:
    return {
        "repaired": True,
        "operators": [
            {
                "activity": "Reach",
                "config_index": 1,
                "params": [["?Hand1", HAND], ["?Wooden_cube1", CUBE]],
                "preconditions": [],
                "effects": [],
                "cost": 1,
                "revokes": [{"pred": pred, "hand": "?Hand1", "keep": "?Wooden_cube1"}],
            }
        ],
    }


_REVOKING_DOMAIN = """(define (domain d)
  (:requirements :strips :typing :conditional-effects)
  (:action Reach
    :parameters (?Hand1 - Hand ?Wooden_cube1 - Wooden_cube)
    :precondition (and)
    :effect (and
      (forall (?x - Wooden_cube) (when (not (= ?x ?Wooden_cube1)) (not ({pred} ?Hand1 ?x))))
      (increase (total-cost) 1))))
"""


@pytest.mark.parametrize("pred, single_valued", SINGLE_VALUED_CASES)
def test_revocations_follow_the_single_valued_declaration(pred, single_valued):
    """Code, library.json and PDDL accept a revocation exactly for the
    single-valued predicates."""
    pddl_text = _REVOKING_DOMAIN.format(pred=pred)
    if single_valued:
        rev = Revocation(pred, "?Hand1", "?Wooden_cube1")
        assert OperatorLibrary.from_json(_library_doc(pred)).operators[0].revokes == (rev,)
        assert pddl.parse(pddl_text).operators[0].revokes == (rev,)
    else:
        with pytest.raises(ModelError, match="single-valued"):
            Revocation(pred, "?Hand1", "?Wooden_cube1")
        with pytest.raises(ModelError, match="single-valued"):
            OperatorLibrary.from_json(_library_doc(pred))
        with pytest.raises(pddl.PddlSyntaxError) as info:
            pddl.parse(pddl_text)
        assert info.value.line == 7
        if pred in BINARY:  # the others already fail as literals
            assert "single-valued" in str(info.value)
            assert info.value.col == pddl_text.splitlines()[6].rindex("(not (") + 1


@pytest.mark.parametrize("pred, single_valued", [c for c in SINGLE_VALUED_CASES if c[0] in BINARY])
def test_acquiring_a_single_valued_atom_displaces_the_previous_one(pred, single_valued):
    """Repair revokes, and mutex validation displaces, the hand's other
    atom of the predicate exactly when the predicate is single-valued."""
    op = LearnedOperator(
        activity=ActivityLabel.REACH,
        config_index=1,
        params=(("?Hand1", HAND), ("?Wooden_cube1", CUBE)),
        preconditions=frozenset({lit(pred, "?Hand1", "?Wooden_cube1", positive=False)}),
        effects=frozenset({lit(pred, "?Hand1", "?Wooden_cube1")}),
        count=1,
        cost=1,
    )
    repaired = repair_exclusivity(OperatorLibrary([op])).operators[0]
    assert bool(repaired.revokes) == single_valued

    registry = execution_registry()
    hand, (old, new) = "Robot_gripper", registry.cubes[:2]
    step = GroundAction(
        "Reach", ActivityLabel.REACH, (hand, new),
        pre_pos=frozenset(), pre_neg=frozenset({(pred, (hand, new))}),
        add=frozenset({(pred, (hand, new))}), delete=frozenset(), cost=1,
    )
    plan = planner.Plan((step,), 1, 1)
    kept = (lit(pred, hand, old), lit(pred, hand, new))
    problem = PlanningProblem(registry, frozenset({(pred, (hand, old))}), kept)
    assert planner.validate(problem, plan, mutex=False).valid
    assert planner.validate(problem, plan, mutex=True).valid != single_valued
