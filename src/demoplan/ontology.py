"""Object types and environment registries.

The tabletop world has one fixed set of types: hands, wooden cubes and
tables, all under ``Thing``. A registry names the object instances of one
environment, either the demonstration side or the execution side.
``parse_json`` decodes the JSON inputs the package reads, reporting what
the decoder cannot hold as invalid JSON, and ``load_json`` reads a JSON
file, naming the file when it is not UTF-8 JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

THING = "Thing"
HAND = "Hand"
CUBE = "Wooden_cube"
TABLE = "Table"

BUILTIN_TYPES = (THING, HAND, CUBE, TABLE)

ROLES = ("demonstration", "execution")


class OntologyError(Exception):
    """Base error for type and registry problems."""


class UnknownTypeError(OntologyError):
    """A type name that is not one of ``BUILTIN_TYPES``."""


class RegistryError(OntologyError):
    """A structurally invalid environment registry."""


@dataclass(frozen=True)
class ObjectInstance:
    name: str
    type_name: str


@dataclass
class EnvironmentRegistry:
    """Named instances of one environment, each of a built-in type."""

    role: str
    instances: list[ObjectInstance]

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise RegistryError(f"unknown registry role: {self.role!r}")
        # Lookups read these tables, so the instance list is not to be
        # changed after construction.
        self._type_of: dict[str, str] = {}
        for inst in self.instances:
            if inst.name in self._type_of:
                raise RegistryError(f"duplicate instance name: {inst.name}")
            if inst.type_name not in BUILTIN_TYPES:
                raise UnknownTypeError(
                    f"instance {inst.name} has unknown type {inst.type_name}"
                )
            self._type_of[inst.name] = inst.type_name
        names = sorted(self._type_of)
        self._of_type = {t: [n for n in names if self._type_of[n] == t] for t in BUILTIN_TYPES}
        self._of_type[THING] = names
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
        """Instance names of type ``type_name``, sorted; ``Thing`` names all."""
        try:
            return list(self._of_type[type_name])
        except KeyError:
            raise UnknownTypeError(f"unknown type: {type_name}") from None

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
        return {
            "role": self.role,
            "instances": [
                {"name": i.name, "type": i.type_name} for i in self.instances
            ],
        }


def parse_json(text: str):
    """``json.loads(text)``, where a document the decoder cannot hold, one
    nested too deeply or an integer of too many digits, raises
    ``json.JSONDecodeError`` like any other invalid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply to decode", text, 0) from None
    except ValueError as exc:
        raise json.JSONDecodeError(str(exc), text, 0) from None


def load_json(path: str | Path, what: str):
    """The JSON document in the file at ``path``, read as UTF-8. A file
    that is not UTF-8 or not JSON raises ``ValueError`` naming ``what``
    and ``path``: ``library lib.json is not valid JSON: …``."""
    try:
        return parse_json(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 at byte {exc.start + 1}: {exc.reason}"
    except json.JSONDecodeError as exc:
        reason = str(exc)
    raise ValueError(f"{what} {path} is not valid JSON: {reason}")


def load_registry(path: str | Path) -> EnvironmentRegistry:
    """Load a registry from a JSON file, validating structure and types."""
    try:
        doc = load_json(path, "registry")
    except ValueError as exc:
        raise RegistryError(str(exc)) from exc
    return registry_from_json(doc)


def registry_from_json(doc: dict) -> EnvironmentRegistry:
    if not isinstance(doc, dict):
        raise RegistryError("registry document must be a JSON object")
    for key in ("role", "instances"):
        if key not in doc:
            raise RegistryError(f"registry document missing {key!r}")
    extra = sorted(set(doc) - {"role", "instances"})
    if extra:
        raise RegistryError(f"registry document has unknown keys {extra}")
    if not isinstance(doc["instances"], list):
        raise RegistryError(f"registry 'instances' must be a JSON list, got {doc['instances']!r}")
    return EnvironmentRegistry(doc["role"], [_instance(i) for i in doc["instances"]])


def _instance(item) -> ObjectInstance:
    """An instance entry: an object whose name and type are strings."""
    if isinstance(item, dict):
        name, type_name = item.get("name"), item.get("type")
        if isinstance(name, str) and isinstance(type_name, str):
            return ObjectInstance(name, type_name)
    raise RegistryError(f"malformed instance entry: {item!r}")


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
