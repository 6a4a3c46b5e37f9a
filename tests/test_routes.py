"""Every function in ``src/demoplan`` is reached by a CLI route.

The test runs the CLI routes in process through ``cli.main`` under
``sys.setprofile`` and collects the code objects that get called. The
functions it counts are found by walking the live modules: module
functions, class dicts (a ``staticmethod``'s or ``classmethod``'s
function, a ``property``'s getter, setter and deleter included) and the
function code objects nested in their constants, lambdas included. Class
bodies, module bodies and comprehensions do not count. Functions are
matched by code object identity, since a profile reports a
``staticmethod`` at its decorator's line.

A function that no route calls fails the test unless ``UNROUTED`` names
it, with who still calls it outside the tests and the ROADMAP item that
removes it. A listed function that a route does call fails the test too,
so the list only shrinks.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import types
from pathlib import Path

from trace_oracle import DemoFrame, HandSample, trace_of

import demoplan
from demoplan.cli import main
from demoplan.ontology import demonstration_registry
from demoplan.trace import write_trace

GOALS = Path(__file__).parent.parent / "goals"
SRC = Path(demoplan.__file__).parent

_PDDL_READER = "perfbench/workloads.py parses the emitted domain; item O"
_VIEWS = "perfbench/make_reference.py reads the frozenset views; item J"
_GOALS = "perfbench/workloads.py builds its goals from it; item J"

# Functions that no CLI route calls, each with who still calls it outside
# the tests and the ROADMAP item that removes it. This list only shrinks.
UNROUTED = {
    "pddl.PddlSyntaxError.__init__": _PDDL_READER,
    "pddl._Word.__new__": _PDDL_READER,
    "pddl._List.__init__": _PDDL_READER,
    "pddl._error": _PDDL_READER,
    "pddl._make": _PDDL_READER,
    "pddl._read": _PDDL_READER,
    "pddl._head": _PDDL_READER,
    "pddl._matches": _PDDL_READER,
    "pddl._words": _PDDL_READER,
    "pddl._typed_pairs": _PDDL_READER,
    "pddl._literal": _PDDL_READER,
    "pddl._conjuncts": _PDDL_READER,
    "pddl._action_identity": _PDDL_READER,
    "pddl._revocation": _PDDL_READER,
    "pddl._action": _PDDL_READER,
    "pddl._sections": _PDDL_READER,
    "pddl.parse": _PDDL_READER,
    "pddl._parse_problem": _PDDL_READER,
    "model.GroundAction._decoded": _VIEWS,
    "model.GroundAction.pre_pos": _VIEWS,
    "model.GroundAction.pre_neg": _VIEWS,
    "model.GroundAction.add": _VIEWS,
    "model.GroundAction.delete": _VIEWS,
    "planner.standard_goals": _GOALS,
    "planner.standard_goals.<locals>.on": _GOALS,
}

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _nested(code: types.CodeType, name: str, found: dict) -> None:
    """Add ``code`` under ``name``, and the function code objects in its
    constants under ``name.<locals>.…``, to ``found``, keyed by identity."""
    found[id(code)] = (name, code)
    for const in code.co_consts:
        if (
            isinstance(const, types.CodeType)
            and const.co_flags & inspect.CO_OPTIMIZED  # not a class body
            and const.co_name not in _COMPREHENSIONS
        ):
            _nested(const, f"{name}.<locals>.{const.co_name}", found)


def _members(owner, module: types.ModuleType, qualname: str, found: dict) -> None:
    """The functions of a module's or class's dict, named ``module.qualname``,
    and of the classes it defines."""
    for attr, value in vars(owner).items():
        path = f"{qualname}{attr}"
        name = f"{module.__name__.rpartition('.')[2]}.{path}"
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            for accessor in (value.fget, value.fset, value.fdel):
                if isinstance(accessor, types.FunctionType):
                    _add(accessor, name, found)
        elif isinstance(value, types.FunctionType):
            _add(value, name, found)
        elif isinstance(value, type) and (value.__module__, value.__qualname__) == (module.__name__, path):
            _members(value, module, f"{path}.", found)


def _add(function: types.FunctionType, name: str, found: dict) -> None:
    """Add a function defined in ``src/demoplan``, not one imported into it
    nor one that ``dataclass`` made."""
    code = function.__code__
    if Path(code.co_filename).parent == SRC:
        _nested(code, name, found)


def src_functions() -> dict[int, tuple[str, types.CodeType]]:
    """Every counted function of ``src/demoplan``, by ``id`` of its code:
    its name, as ``module.qualname``, and its code object."""
    found: dict = {}
    for info in pkgutil.iter_modules(demoplan.__path__):
        module = importlib.import_module(f"demoplan.{info.name}")
        _members(module, module, "", found)
    return found


def _hand_built_trace(path: Path, hands, contacts) -> Path:
    """A trace of the demonstration registry over 12 frames at 10 Hz:
    in frame i, the open, empty hands are at ``hands(i)`` and the
    contacts are ``contacts(i)``; two cubes stand side by side on the
    table and the rest stand far away."""
    registry = demonstration_registry()
    objects = {name: (10.0 + j, 10.0, 0.775) for j, name in enumerate(registry.cubes)}
    objects.update(
        {"Cube_red1": (0.5, 0.5, 0.775), "Cube_green1": (0.45, 0.5, 0.775), "table1": (0.5, 0.5, 0.37)}
    )
    frames = [
        DemoFrame(
            i / 10,
            {hand: HandSample(pos, True, None) for hand, pos in hands(i).items()},
            objects,
            contacts(i),
        )
        for i in range(12)
    ]
    write_trace(trace_of(frames, registry), path)
    return path


_ON_TABLE = frozenset({frozenset(("Cube_red1", "table1")), frozenset(("Cube_green1", "table1"))})


def _still(i: int) -> dict:
    return {"Right_hand": (0.9, 0.2, 1.2), "Left_hand": (0.1, 0.2, 1.2)}


def _both_reach(i: int) -> dict:
    """After five still frames, both hands reach for Cube_red1 from
    either side at 0.2 m/s, Left_hand 1 cm nearer."""
    d = 0.02 * max(i - 4, 0)
    return {"Right_hand": (0.5, 0.7 - d, 0.8), "Left_hand": (0.5, 0.31 + d, 0.8)}


def _routes(tmp: Path):
    """Each route's arguments and exit code, in the order they run: the
    stages, the pipeline, and the input paths the happy routes miss.
    Between routes it writes the inputs that later routes make from the
    outputs of earlier ones."""
    corpus, lib = tmp / "corpus", str(tmp / "library.json")
    traces = [str(corpus / f"trace_{i:02d}.jsonl") for i in (0, 1)]
    goal1, goal2 = str(GOALS / "goal1.json"), str(GOALS / "goal2.json")
    config = tmp / "grounding.json"
    config.write_text(json.dumps({"move_speed": 0.1}))

    yield ["gen", "--out", str(corpus), "--seed", "7"], 0
    yield ["ground", traces[0], "--registry", str(corpus / "registry.json"),
           "--out", str(tmp / "states.json")], 0
    yield ["segment", traces[0], "--grounding-config", str(config),
           "--out", str(tmp / "segments.json")], 0
    yield ["learn", *traces, "--library", lib], 0
    yield ["emit", "--library", lib, "--goal", goal1, "--out", str(tmp / "domain.pddl"),
           "--problem-out", str(tmp / "problem.pddl")], 0
    for mode in ("cost", "length", "greedy"):
        yield ["plan", "--library", lib, "--goal", goal2, "--mode", mode,
               "--out", str(tmp / f"plan-{mode}.json")], 0
    plan = tmp / "plan-cost.json"
    yield ["validate", "--library", lib, "--plan", str(plan), "--goal", goal2], 0
    yield ["pipeline", "--out", str(tmp / "run"), "--goal", goal1, "--traces", *traces], 0

    # A plan without its first step fails replay.
    doc = json.loads(plan.read_text())
    del doc["steps"][0]
    broken = tmp / "broken.json"
    broken.write_text(json.dumps(doc))
    yield ["validate", "--library", lib, "--plan", str(broken), "--goal", goal2], 4
    # A malformed trace: its hand samples lack the held key.
    held = tmp / "held.jsonl"
    held.write_text(Path(traces[0]).read_text().replace('"held"', '"hold"'))
    yield ["ground", str(held), "--out", str(tmp / "held.json")], 2
    # Both hands stay still while the cubes come into contact: no hand explains it.
    touching = _ON_TABLE | {frozenset(("Cube_red1", "Cube_green1"))}
    idle = _hand_built_trace(tmp / "idle.jsonl", _still, lambda i: touching if i >= 8 else _ON_TABLE)
    yield ["learn", str(idle), "--library", str(tmp / "idle-library.json")], 2
    # Both hands act on Cube_red1 as it leaves the table: the nearer is blamed.
    lifted = frozenset({frozenset(("Cube_green1", "table1"))})
    tie = _hand_built_trace(tmp / "tie.jsonl", _both_reach, lambda i: lifted if i >= 9 else _ON_TABLE)
    yield ["learn", str(tie), "--library", str(tmp / "tie-library.json")], 0


def test_every_src_function_is_reached_by_a_cli_route(tmp_path):
    functions = src_functions()
    called: dict[int, types.CodeType] = {}

    def profile(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    for argv, code in _routes(tmp_path):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            exit_code = main(argv)
        finally:
            sys.setprofile(previous)
        assert exit_code == code, argv

    unknown = sorted(UNROUTED.keys() - {name for name, _ in functions.values()})
    assert not unknown, f"UNROUTED names functions that do not exist: {unknown}"
    missed = sorted(
        f"{name} ({Path(code.co_filename).name}:{code.co_firstlineno})"
        for key, (name, code) in functions.items()
        if key not in called and name not in UNROUTED
    )
    assert not missed, f"no CLI route calls these src functions: {missed}"
    stale = sorted({name for key, (name, _) in functions.items() if key in called and name in UNROUTED})
    assert not stale, f"a CLI route calls these UNROUTED functions; remove them from it: {stale}"
