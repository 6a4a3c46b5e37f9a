"""Tests for ontology.py."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demoplan.ontology import (
    OntologyError,
    CUBE,
    HAND,
    TABLE,
    THING,
    EnvironmentRegistry,
    ObjectInstance,
    RegistryError,
    UnknownTypeError,
    demonstration_registry,
    execution_registry,
    load_registry,
    registry_from_json,
    save_registry,
)


def test_types_are_the_four_builtins():
    """of_type matches exactly, Thing lists every instance, and any other
    type name is unknown."""
    table = ObjectInstance("t", TABLE)
    reg = EnvironmentRegistry(
        "execution",
        [table, ObjectInstance("h", HAND), ObjectInstance("b", CUBE),
         ObjectInstance("a", CUBE), ObjectInstance("x", THING)],
    )
    assert reg.of_type(CUBE) == ["a", "b"]
    assert reg.of_type(HAND) == ["h"]
    assert reg.of_type(TABLE) == ["t"]
    assert reg.of_type(THING) == ["a", "b", "h", "t", "x"]
    with pytest.raises(UnknownTypeError, match="unknown type: Heavy_cube"):
        reg.of_type("Heavy_cube")
    with pytest.raises(UnknownTypeError, match="instance c has unknown type Heavy_cube"):
        EnvironmentRegistry("execution", [table, ObjectInstance("c", "Heavy_cube")])


def test_registry_validation():
    table = ObjectInstance("t", TABLE)
    hand = ObjectInstance("h", HAND)
    with pytest.raises(RegistryError, match="role"):
        EnvironmentRegistry("simulation", [table, hand])
    with pytest.raises(RegistryError, match="duplicate"):
        EnvironmentRegistry("execution", [table, hand, ObjectInstance("h", HAND)])
    with pytest.raises(UnknownTypeError):
        EnvironmentRegistry("execution", [table, ObjectInstance("x", "Block")])
    with pytest.raises(RegistryError, match="exactly one Table"):
        EnvironmentRegistry("execution", [hand])
    with pytest.raises(RegistryError, match="exactly one Table"):
        EnvironmentRegistry("execution", [table, ObjectInstance("t2", TABLE)])


def test_registry_accessors():
    reg = execution_registry()
    assert reg.role == "execution"
    assert reg.hands == ["Robot_gripper"]
    assert reg.cubes == ["Cube_blue3", "Cube_green3", "Cube_red3", "Cube_yellow3"]
    assert reg.table == "high_table"
    assert reg.type_of("Cube_red3") == CUBE
    assert "Cube_red3" in reg
    assert "Cube_red9" not in reg
    with pytest.raises(RegistryError):
        reg.type_of("Cube_red9")
    assert len(reg.of_type(THING)) == 6


def test_demonstration_registry_shape():
    reg = demonstration_registry()
    assert reg.role == "demonstration"
    assert reg.hands == ["Left_hand", "Right_hand"]
    assert len(reg.cubes) == 8
    assert all(c.startswith("Cube_") for c in reg.cubes)
    assert reg.table == "table1"


def test_json_round_trip(tmp_path):
    reg = EnvironmentRegistry(
        "execution",
        [
            ObjectInstance("g", HAND),
            ObjectInstance("b", CUBE),
            ObjectInstance("t", TABLE),
        ],
    )
    again = registry_from_json(reg.to_json())
    assert again.role == reg.role
    assert again.cubes == ["b"]

    path = tmp_path / "registry.json"
    save_registry(reg, path)
    loaded = load_registry(path)
    assert loaded.to_json() == reg.to_json()


def test_load_rejects_malformed_documents(tmp_path):
    with pytest.raises(RegistryError, match="missing"):
        registry_from_json({"role": "execution"})
    with pytest.raises(RegistryError, match="JSON object"):
        registry_from_json([1, 2])
    with pytest.raises(RegistryError, match="malformed instance"):
        registry_from_json({"role": "execution", "instances": [{"name": "x"}]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(RegistryError, match="not valid JSON"):
        load_registry(bad)


_REGISTRY_DOC = {
    "role": "execution",
    "instances": [
        {"name": "g", "type": HAND},
        {"name": "b", "type": CUBE},
        {"name": "t", "type": TABLE},
    ],
}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"instances": 5}, "'instances' must be a JSON list"),
        ({"instances": [{"name": ["g"], "type": HAND}]}, "malformed instance entry"),
        ({"instances": [{"name": "g", "type": [HAND]}]}, "malformed instance entry"),
    ],
)
def test_loader_rejects_mistyped_fields(overrides, message):
    with pytest.raises(RegistryError, match=message):
        registry_from_json({**_REGISTRY_DOC, **overrides})


@pytest.mark.parametrize(
    "instance_type", [CUBE, "Heavy_cube"], ids=["builtin-instances", "subtype-instance"]
)
def test_loader_rejects_the_removed_types_field(instance_type):
    """A registry file that still declares its own types is refused by the
    key, whatever its instances are, rather than loaded without it."""
    doc = {
        **_REGISTRY_DOC,
        "instances": [{"name": "b", "type": instance_type}, {"name": "t", "type": TABLE}],
        "types": [{"name": "Heavy_cube", "parent": CUBE}],
    }
    with pytest.raises(RegistryError, match=re.escape("unknown keys ['types']")):
        registry_from_json(doc)


def test_loader_rejects_an_instance_type_outside_the_builtins(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(
        {**_REGISTRY_DOC, "instances": [*_REGISTRY_DOC["instances"], {"name": "s", "type": "Sphere"}]}
    ))
    with pytest.raises(UnknownTypeError, match="instance s has unknown type Sphere"):
        load_registry(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([HAND, CUBE, TABLE, THING, "Heavy_cube", "execution"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_ENTRIES = st.fixed_dictionaries(
    {}, optional={"name": _JSON, "type": _JSON}
) | _JSON


@given(
    st.fixed_dictionaries(
        {},
        optional={
            "role": st.sampled_from(["execution", "demonstration"]) | _JSON,
            "instances": st.lists(_ENTRIES, max_size=4) | _JSON,
            "types": st.lists(_ENTRIES, max_size=2) | _JSON,
        },
    )
    | _JSON
)
def test_registry_from_json_raises_only_ontology_errors(doc):
    try:
        registry = registry_from_json(doc)
    except OntologyError:
        return
    assert registry_from_json(registry.to_json()).to_json() == registry.to_json()
