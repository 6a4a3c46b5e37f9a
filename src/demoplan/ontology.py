"""Object type hierarchy and environment registries.

The tabletop world is described by a small type tree rooted at ``Thing``
(hands, wooden cubes, tables) plus a registry of named object instances
for one environment, either the demonstration side or the execution side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

THING = "Thing"
HAND = "Hand"
CUBE = "Wooden_cube"
TABLE = "Table"

BUILTIN_TYPES: dict[str, str | None] = {
    THING: None,
    HAND: THING,
    CUBE: THING,
    TABLE: THING,
}

ROLES = ("demonstration", "execution")


class OntologyError(Exception):
    """Base error for type hierarchy and registry problems."""


class UnknownTypeError(OntologyError):
    """A type name that is not declared in the hierarchy."""


class RegistryError(OntologyError):
    """A structurally invalid environment registry."""


@dataclass(frozen=True)
class ObjectType:
    name: str
    parent: str | None


@dataclass(frozen=True)
class ObjectInstance:
    name: str
    type_name: str


class TypeHierarchy:
    """Tree of object types rooted at ``Thing``.

    User-declared types may extend the tree anywhere under the root, the
    four built-in types are always present.
    """

    def __init__(self, extra_types: list[ObjectType] | None = None) -> None:
        self._parent: dict[str, str | None] = dict(BUILTIN_TYPES)
        for t in extra_types or []:
            if t.name in self._parent:
                raise RegistryError(f"duplicate type declaration: {t.name}")
            if t.parent is None or t.parent not in self._parent:
                raise UnknownTypeError(
                    f"type {t.name} declares unknown parent {t.parent!r}"
                )
            self._parent[t.name] = t.parent

    def __contains__(self, name: str) -> bool:
        return name in self._parent

    def is_subtype(self, a: str, b: str) -> bool:
        """True iff ``a`` equals ``b`` or ``b`` is an ancestor of ``a``."""
        for name in (a, b):
            if name not in self._parent:
                raise UnknownTypeError(f"unknown type: {name}")
        cur: str | None = a
        while cur is not None:
            if cur == b:
                return True
            cur = self._parent[cur]
        return False


@dataclass
class EnvironmentRegistry:
    """Named instances of one environment plus its type hierarchy."""

    role: str
    instances: list[ObjectInstance]
    types: TypeHierarchy = field(default_factory=TypeHierarchy)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise RegistryError(f"unknown registry role: {self.role!r}")
        # Lookups read these tables, so the instance list is not to be
        # changed after construction.
        self._type_of: dict[str, str] = {}
        self._of_type: dict[str, list[str]] = {}
        for inst in self.instances:
            if inst.name in self._type_of:
                raise RegistryError(f"duplicate instance name: {inst.name}")
            if inst.type_name not in self.types:
                raise UnknownTypeError(
                    f"instance {inst.name} has unknown type {inst.type_name}"
                )
            self._type_of[inst.name] = inst.type_name
        tables = self.of_type(TABLE)
        if len(tables) != 1:
            raise RegistryError(
                f"registry must contain exactly one Table instance, found {len(tables)}"
            )
        # What every trace frame gives a position for.
        self.non_hands = frozenset(self._type_of).difference(self.of_type(HAND))

    def __contains__(self, name: str) -> bool:
        try:
            return name in self._type_of
        except TypeError:  # unhashable, so not a name
            return False

    def type_of(self, name: str) -> str:
        try:
            return self._type_of[name]
        except (KeyError, TypeError):
            raise RegistryError(f"unknown instance: {name}") from None

    def of_type(self, type_name: str) -> list[str]:
        """Instance names whose type is a subtype of ``type_name``, sorted."""
        names = self._of_type.get(type_name)
        if names is None:
            names = self._of_type[type_name] = sorted(
                name
                for name, inst_type in self._type_of.items()
                if self.types.is_subtype(inst_type, type_name)
            )
        return list(names)

    @property
    def hands(self) -> list[str]:
        return self.of_type(HAND)

    @property
    def cubes(self) -> list[str]:
        return self.of_type(CUBE)

    @property
    def table(self) -> str:
        return self.of_type(TABLE)[0]

    def to_json(self) -> dict:
        doc: dict = {
            "role": self.role,
            "instances": [
                {"name": i.name, "type": i.type_name} for i in self.instances
            ],
        }
        extra = [
            {"name": n, "parent": p}
            for n, p in sorted(self.types._parent.items())
            if n not in BUILTIN_TYPES
        ]
        if extra:
            doc["types"] = extra
        return doc


def load_registry(path: str | Path) -> EnvironmentRegistry:
    """Load a registry from a JSON file, validating structure and types."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise RegistryError(f"registry {path} is not valid JSON: {exc}") from exc
    return registry_from_json(doc)


def registry_from_json(doc: dict) -> EnvironmentRegistry:
    if not isinstance(doc, dict):
        raise RegistryError("registry document must be a JSON object")
    for key in ("role", "instances"):
        if key not in doc:
            raise RegistryError(f"registry document missing {key!r}")
    types = doc.get("types", [])
    if not isinstance(types, list):
        raise RegistryError(f"registry 'types' must be a JSON list, got {types!r}")
    if not isinstance(doc["instances"], list):
        raise RegistryError(f"registry 'instances' must be a JSON list, got {doc['instances']!r}")
    extra = [ObjectType(*_strings(t, "name", "parent", "type")) for t in types]
    instances = [ObjectInstance(*_strings(i, "name", "type", "instance")) for i in doc["instances"]]
    return EnvironmentRegistry(doc["role"], instances, TypeHierarchy(extra))


def _strings(item, first: str, second: str, what: str) -> tuple[str, str]:
    """The two string fields of a type or instance entry."""
    if isinstance(item, dict):
        a, b = item.get(first), item.get(second)
        if isinstance(a, str) and isinstance(b, str):
            return a, b
    raise RegistryError(f"malformed {what} entry: {item!r}")


def save_registry(registry: EnvironmentRegistry, path: str | Path) -> None:
    Path(path).write_text(json.dumps(registry.to_json(), indent=2, sort_keys=True) + "\n")


def demonstration_registry() -> EnvironmentRegistry:
    """The recording setup: two tracked hands, eight cubes, one table."""
    cubes = [
        f"Cube_{color}{i}" for i in (1, 2) for color in ("red", "green", "yellow", "blue")
    ]
    instances = [
        ObjectInstance("Right_hand", HAND),
        ObjectInstance("Left_hand", HAND),
        *[ObjectInstance(c, CUBE) for c in cubes],
        ObjectInstance("table1", TABLE),
    ]
    return EnvironmentRegistry("demonstration", instances)


def execution_registry() -> EnvironmentRegistry:
    """The robot setup: one gripper, four cubes, one table."""
    instances = [
        ObjectInstance("Robot_gripper", HAND),
        *[
            ObjectInstance(f"Cube_{color}3", CUBE)
            for color in ("green", "yellow", "blue", "red")
        ],
        ObjectInstance("high_table", TABLE),
    ]
    return EnvironmentRegistry("execution", instances)
