"""Tests for cli.py.

All tests drive main() directly with argument lists; nothing here shells
out. Exit codes are the contract: 0 success, 2 bad input, 3 unsolvable,
4 failed validation.
"""

import argparse
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest
from trace_oracle import DemoFrame, HandSample, trace_of

from demoplan import grounding, planner, segmentation, synthgen
from demoplan.cli import build_parser, main
from demoplan.model import OperatorLibrary, literal_from_json
from demoplan.ontology import (
    EnvironmentRegistry,
    ObjectInstance,
    demonstration_registry,
    execution_registry,
    save_registry,
)
from demoplan.trace import read_trace, write_trace

GOAL1 = [{"pred": "onTop", "args": ["Cube_green3", "Cube_blue3"], "positive": True}]
ROOT = Path(__file__).parent.parent
GOALS = ROOT / "goals"
# sha256 over the seed-7 pipeline's traces directory, file by file in name
# order: the name, a NUL byte, then the bytes.
SEED7_CORPUS_DIGEST = "ea9c80c265be18c309216d4c93ee8bc85946cd4f206fb8196f3530c6b08af000"
# The same digest over the tree `gen --seed 11` writes: traces, labels and
# the registry.
SEED11_GEN_DIGEST = "7c1b816c3cfaf8eb25960c37b4df23101801eac66b7386eb95c888b62db797a1"
# sha256 of what `ground` and `segment` write for the seed-7 trace_00.jsonl.
SEED7_GROUND_DIGEST = "5e7f35752b46b180c41377106046200c1318529cf53fab7b776488e428d10969"
SEED7_SEGMENT_DIGEST = "697f5ce6ad48c3128a811736a02196c24a49e5adf98eefad13cdcfc9c44cf8f0"


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory, corpus):
    """The two careful demos written out as trace files."""
    out = tmp_path_factory.mktemp("traces")
    synthgen.write_corpus([corpus[0], corpus[2]], out)
    return out


@pytest.fixture(scope="module")
def goal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("goals") / "goal1.json"
    path.write_text(json.dumps(GOAL1))
    return path


@pytest.fixture(scope="module")
def seed7_run(tmp_path_factory):
    """The one-shot experiment on the 2-tower goal: its output directory
    and exit code."""
    out = tmp_path_factory.mktemp("seed7") / "run"
    code = main(
        ["pipeline", "--out", str(out), "--goal", str(GOALS / "goal2.json"),
         "--synth-corpus", "--seed", "7"]
    )
    return out, code


@pytest.fixture(scope="module")
def library_file(tmp_path_factory, trace_dir):
    """Library learned, and by default repaired, from the two-cube careful
    demo via the CLI."""
    path = tmp_path_factory.mktemp("lib") / "library.json"
    code = main(["learn", str(trace_dir / "trace_01.jsonl"), "--library", str(path)])
    assert code == 0
    return path


def test_gen_writes_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--out", str(out), "--seed", "7"]) == 0
    traces = sorted(out.glob("trace_*.jsonl"))
    labels = sorted(out.glob("trace_*.labels.json"))
    assert len(traces) == 12
    assert len(labels) == 12
    assert (out / "registry.json").exists()
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(p) for p in traces]


def _tree_digest(directory: Path) -> str:
    """sha256 over the files of ``directory`` in name order: each name,
    a NUL byte, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_gen_is_reproducible(tmp_path):
    """Same seed, byte-identical artifact tree, and the seed-11 tree is
    pinned."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--out", str(a), "--seed", "11"]) == 0
    assert main(["gen", "--out", str(b), "--seed", "11"]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()
    assert len(list(a.iterdir())) == 25
    assert _tree_digest(a) == SEED11_GEN_DIGEST


def test_ground_writes_states(tmp_path, trace_dir, corpus):
    out = tmp_path / "states.json"
    trace = trace_dir / "trace_00.jsonl"
    assert main(["ground", str(trace), "--out", str(out)]) == 0
    states = json.loads(out.read_text())
    assert len(states) == len(corpus[0].trace) - 1
    assert states[0]["frame"] == 1
    assert set(states[0]["hands"]) == {"Left_hand", "Right_hand"}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED7_GROUND_DIGEST


def test_segment_bytes_are_pinned(tmp_path, trace_dir):
    out = tmp_path / "segments.json"
    assert main(["segment", str(trace_dir / "trace_00.jsonl"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED7_SEGMENT_DIGEST


def test_trace_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\xff\xfe{\x00")
    assert main(["ground", str(path), "--out", str(tmp_path / "states.json")]) == 2
    message = f"error: trace {path}: line 1: not UTF-8 at byte 1: invalid start byte\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda lines: [*lines[:6], lines[6][:lines[6].index('"Right_hand"') + 3]],
         "line 7: invalid JSON: Unterminated string starting at"),
        (lambda lines: lines[:1], "trace has 1 frames, need at least 2"),
    ],
    ids=["truncated", "one-frame"],
)
def test_learn_names_the_trace_it_could_not_read(tmp_path, trace_dir, capsys, cut, message):
    """Of several traces, the error names the one that failed."""
    good = trace_dir / "trace_00.jsonl"
    bad = tmp_path / "b.jsonl"
    bad.write_text("\n".join(cut(good.read_text().splitlines())))
    library = tmp_path / "library.json"
    assert main(["learn", str(good), str(bad), "--library", str(library)]) == 2
    assert capsys.readouterr().err.startswith(f"error: trace {bad}: {message}")
    assert not library.exists()


def test_grounding_config_file(tmp_path, trace_dir):
    """An absurd movement threshold from the config file freezes every hand."""
    config = tmp_path / "grounding.json"
    config.write_text(json.dumps({"move_speed": 99.0}))
    out = tmp_path / "states.json"
    trace = str(trace_dir / "trace_00.jsonl")
    assert main(["ground", trace, "--grounding-config", str(config), "--out", str(out)]) == 0
    states = json.loads(out.read_text())
    assert not any(
        hand["handMove"] for state in states for hand in state["hands"].values()
    )


def test_segment_writes_segments(tmp_path, trace_dir, demo_registry):
    out = tmp_path / "new" / "segments.json"
    trace = trace_dir / "trace_01.jsonl"
    assert main(["segment", str(trace), "--out", str(out)]) == 0
    segments = segmentation.segment(grounding.ground_trace(read_trace(trace, demo_registry)))
    assert json.loads(out.read_text()) == segmentation.segments_to_json(segments)
    assert {s.hand for s in segments} == {"Left_hand", "Right_hand"}


def test_learn_matches_direct_api(tmp_path, trace_dir, library_file, corpus, demo_registry):
    """`learn` writes the repaired library, `learn --no-repair` the raw one."""
    from demoplan import oplearn

    states = grounding.ground_trace(corpus[2].trace)
    segments = segmentation.segment(states)
    library = OperatorLibrary()
    oplearn.learn_from_demo(states, segments, library, demo_registry, corpus[2].trace)
    oplearn.assign_costs(library)
    repaired = oplearn.repair_exclusivity(library)
    assert repaired.to_json() != library.to_json()
    assert json.loads(library_file.read_text()) == repaired.to_json()
    raw = tmp_path / "raw.json"
    trace = str(trace_dir / "trace_01.jsonl")
    assert main(["learn", trace, "--library", str(raw), "--no-repair"]) == 0
    assert json.loads(raw.read_text()) == library.to_json()


def test_emit_is_deterministic(tmp_path, library_file, goal_file):
    args = [
        "emit",
        "--library", str(library_file),
        "--out", str(tmp_path / "domain.pddl"),
        "--goal", str(goal_file),
        "--problem-out", str(tmp_path / "problem.pddl"),
    ]
    assert main(args) == 0
    first = (tmp_path / "domain.pddl").read_bytes()
    problem_first = (tmp_path / "problem.pddl").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "domain.pddl").read_bytes() == first
    assert (tmp_path / "problem.pddl").read_bytes() == problem_first
    assert first.startswith(b"(define (domain stacking)")


def test_emit_creates_output_directories(tmp_path, library_file, goal_file):
    domain, problem = tmp_path / "new" / "dir" / "domain.pddl", tmp_path / "p" / "problem.pddl"
    args = ["emit", "--library", str(library_file), "--out", str(domain),
            "--goal", str(goal_file), "--problem-out", str(problem)]
    assert main(args) == 0
    assert domain.read_text().startswith("(define (domain stacking)")
    assert problem.read_text().startswith("(define (problem stacking-task)")


@pytest.mark.parametrize(
    "field, value",
    [("config_index", "1"), ("config_index", True), ("cost", "5"), ("count", "2")],
)
def test_mistyped_library_field_is_bad_input(
    tmp_path, library_file, goal_file, field, value, capsys
):
    doc = json.loads(library_file.read_text())
    doc["operators"][0][field] = value
    library = tmp_path / "library.json"
    library.write_text(json.dumps(doc))
    out = tmp_path / "plan.json"
    code = main(["plan", "--library", str(library), "--goal", str(goal_file), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be an integer")
    assert not out.exists()


@pytest.mark.parametrize("edit", ["copy", "type", "twice", "revoke", "misspelt"])
def test_malformed_operator_is_bad_input(tmp_path, library_file, goal_file, capsys, edit):
    """Operators that would emit invalid PDDL: a second operator of one
    name, a parameter of an unknown type or declared twice, and a
    revocation on an undeclared variable; and a misspelt key, which
    would drop the operator's revocations."""
    doc = json.loads(library_file.read_text())
    op = doc["operators"][0]
    name = OperatorLibrary.from_json(doc).operators[0].name
    param, type_name = op["params"][0]
    if edit == "copy":
        doc["operators"].append(op)
        message = f"two operators are named {name}"
    elif edit == "type":
        op["params"][0] = [param, "Gripper"]
        message = f"{name}: unknown parameter type Gripper"
    elif edit == "twice":
        op["params"].append([param, type_name])
        message = f"{name}: parameter {param} is declared twice"
    elif edit == "revoke":
        op["revokes"] = [{"pred": "actedOn", "hand": "?Hand9", "keep": "Cube_blue3"}]
        message = f"{name}: revocation variable ?Hand9 not in parameters"
    else:
        op["revoke"] = op.pop("revokes")
        message = "an operator has unknown keys ['revoke']"
    library = tmp_path / "library.json"
    library.write_text(json.dumps(doc))
    out = tmp_path / "plan.json"
    code = main(["plan", "--library", str(library), "--goal", str(goal_file), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_plan_writes_a_validated_plan(tmp_path, library_file, goal_file, capsys):
    out = tmp_path / "plan.json"
    code = main(["plan", "--library", str(library_file), "--goal", str(goal_file), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["total_length"] >= 3
    assert doc["total_cost"] == sum(step["cost"] for step in doc["steps"])
    assert doc["validation"]["valid"] is True
    printed = f"plan: {doc['total_length']} steps, cost {doc['total_cost']}"
    assert capsys.readouterr().out.splitlines() == [printed]


def test_plan_mode_length(tmp_path, library_file, goal_file):
    out = tmp_path / "plan.json"
    args = [
        "plan",
        "--library", str(library_file),
        "--goal", str(goal_file),
        "--out", str(out),
        "--mode", "length",
    ]
    assert main(args) == 0
    assert json.loads(out.read_text())["total_length"] >= 3


def test_plan_unsolvable_writes_nothing(tmp_path, library_file, capsys):
    """Two cubes each on top of the other can never hold."""
    registry = tmp_path / "registry.json"
    save_registry(
        EnvironmentRegistry(
            "execution",
            [
                ObjectInstance("Robot_gripper", "Hand"),
                ObjectInstance("Cube_blue3", "Wooden_cube"),
                ObjectInstance("Cube_green3", "Wooden_cube"),
                ObjectInstance("high_table", "Table"),
            ],
        ),
        registry,
    )
    goal = tmp_path / "impossible.json"
    goal.write_text(
        json.dumps(
            [
                {"pred": "onTop", "args": ["Cube_blue3", "Cube_green3"]},
                {"pred": "onTop", "args": ["Cube_green3", "Cube_blue3"]},
            ]
        )
    )
    out = tmp_path / "plan.json"
    code = main(
        [
            "plan",
            "--library", str(library_file),
            "--goal", str(goal),
            "--registry", str(registry),
            "--out", str(out),
        ]
    )
    assert code == 3
    assert not out.exists()
    assert "unsolvable" in capsys.readouterr().out


def test_validate_round_trip(tmp_path, library_file, goal_file, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(
        ["plan", "--library", str(library_file), "--goal", str(goal_file),
         "--out", str(plan_path)]
    ) == 0

    code = main(
        ["validate", "--library", str(library_file), "--plan", str(plan_path),
         "--goal", str(goal_file)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report == {"valid": True, "failing_step": None, "reason": "ok"}
    assert report == json.loads(plan_path.read_text())["validation"]

    # same plan against the mirrored goal replays fine but misses the goal
    wrong_goal = tmp_path / "mirror.json"
    wrong_goal.write_text(
        json.dumps([{"pred": "onTop", "args": ["Cube_blue3", "Cube_green3"]}])
    )
    code = main(
        ["validate", "--library", str(library_file), "--plan", str(plan_path),
         "--goal", str(wrong_goal)]
    )
    assert code == 4
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["valid"] is False
    assert "goal not reached" in report["reason"]


def test_validate_mutex_flags_double_reach(tmp_path, combined_library, capsys):
    """A hand-written plan that reaches elsewhere before taking fails
    replay: the second reach displaces the first under mutex semantics.
    `--mutex` is no option of validate, since replay is always mutex."""
    lib_path = tmp_path / "library.json"
    lib_path.write_text(json.dumps(combined_library.to_json()))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "steps": [
                    {"name": "Reach", "args": ["Robot_gripper", "Cube_blue3"]},
                    {"name": "Reach4", "args": ["Robot_gripper", "Cube_green3"]},
                    {"name": "Take", "args": ["Robot_gripper", "Cube_blue3"]},
                ]
            }
        )
    )
    goal = tmp_path / "hold.json"
    goal.write_text(
        json.dumps([{"pred": "inHand", "args": ["Robot_gripper", "Cube_blue3"]}])
    )
    argv = ["validate", "--library", str(lib_path), "--plan", str(plan_path),
            "--goal", str(goal)]
    assert main(argv) == 4
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["valid"] is False
    assert report["failing_step"] == 2
    with pytest.raises(SystemExit) as refused:
        main([*argv, "--mutex"])
    assert refused.value.code == 2


@pytest.mark.parametrize(
    "literal",
    [
        {"pred": "onTop", "args": ["Cube_green3", "Cube_blue3"], "positive": "false"},
        {"pred": "onTop", "args": [1, 2]},
        {"pred": "onTop", "args": "ab"},
        {"pred": "onTop", "args": ["Cube_blue3", "Cube_blue3"]},
        {"pred": "inHand", "args": ["Cube_blue3", "Robot_gripper"]},
        {"pred": "neq", "args": ["Cube_green3", "Cube_blue3"]},
        {"pred": "onTop", "args": ["Cube_green3", "Cube_blue3"], "postive": False},
    ],
    ids=[
        "string-positive", "number-args", "string-args", "one-cube-twice", "mistyped", "neq",
        "misspelt-positive",
    ],
)
def test_malformed_goal_literal_is_bad_input(tmp_path, library_file, literal, capsys):
    goal = tmp_path / "goal.json"
    goal.write_text(json.dumps([literal]))
    out = tmp_path / "plan.json"
    code = main(["plan", "--library", str(library_file), "--goal", str(goal), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {literal['pred']}")
    assert not out.exists()


def test_missing_goal_file_is_config_error(tmp_path, library_file, capsys):
    code = main(
        ["plan", "--library", str(library_file),
         "--goal", str(tmp_path / "absent.json"),
         "--out", str(tmp_path / "plan.json")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unattributable_change_is_bad_input(tmp_path, capsys):
    """Both hands rest for the whole trace while two cubes come into
    contact; no hand's activity can have caused it."""
    registry = demonstration_registry()
    rest = {
        "Right_hand": HandSample((0.9, 0.2, 1.2), True, None),
        "Left_hand": HandSample((0.1, 0.2, 1.2), True, None),
    }
    # Every cube is positioned; those not in the scene stand far away.
    objects = {name: (10.0 + j, 10.0, 0.775) for j, name in enumerate(registry.cubes)}
    objects.update(
        {"Cube_red1": (0.45, 0.5, 0.775), "Cube_green1": (0.5, 0.5, 0.775), "table1": (0.5, 0.5, 0.37)}
    )
    on_table = {frozenset(("Cube_red1", "table1")), frozenset(("Cube_green1", "table1"))}
    touching = on_table | {frozenset(("Cube_red1", "Cube_green1"))}
    frames = [
        DemoFrame(i / 10, rest, objects, frozenset(touching if i >= 10 else on_table))
        for i in range(20)
    ]
    path = tmp_path / "trace.jsonl"
    write_trace(trace_of(frames, registry), path)
    code = main(["learn", str(path), "--library", str(tmp_path / "library.json")])
    assert code == 2
    assert "frame 10: cannot attribute" in capsys.readouterr().err
    assert not (tmp_path / "library.json").exists()


def _edited_trace(src: Path, dst: Path, line: int, edit) -> Path:
    """``src`` with every frame from ``line`` on passed through ``edit``."""
    frames = [json.loads(raw) for raw in src.read_text().splitlines()]
    for doc in frames[line - 1:]:
        edit(doc)
    dst.write_text("".join(json.dumps(doc) + "\n" for doc in frames))
    return dst


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["hands"].pop("Left_hand"), "line 7: frame tracks hands ['Right_hand']"),
        (lambda doc: doc["objects"].pop("Cube_blue2"), "line 7: objects lacks a position for Cube_blue2"),
    ],
    ids=["hand-leaves", "cube-missing"],
)
def test_incomplete_frames_fail_at_the_reader(tmp_path, trace_dir, goal_file, capsys, edit, message):
    """Every stage that reads the trace exits 2 naming the line."""
    trace = str(_edited_trace(trace_dir / "trace_00.jsonl", tmp_path / "trace.jsonl", 7, edit))
    for argv in (
        ["ground", trace, "--out", str(tmp_path / "states.json")],
        ["segment", trace, "--out", str(tmp_path / "segments.json")],
        ["learn", trace, "--library", str(tmp_path / "library.json")],
        ["pipeline", "--out", str(tmp_path / "run"), "--goal", str(goal_file), "--traces", trace],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: trace {trace}: {message}"), argv
    assert not (tmp_path / "library.json").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"move_speed": "fast"}', "move_speed"),
        ('{"move_speed": NaN}', "move_speed"),
        ("5", ""),
        ('"abc"', ""),
        ('{"move_speed": -1}', "move_speed"),
        ('{"graspable_dist": -0.5}', "graspable_dist"),
        ('{"acted_on_dist": -0.1}', "acted_on_dist"),
        ('{"approach_cosine": 3}', "approach_cosine"),
    ],
    ids=["string-value", "nan-value", "number", "string", "negative-speed",
         "negative-grasp-distance", "negative-contact-distance", "cosine-above-one"],
)
def test_malformed_grounding_config_is_bad_input(tmp_path, trace_dir, capsys, text, key):
    config = tmp_path / "grounding.json"
    config.write_text(text)
    trace = str(trace_dir / "trace_00.jsonl")
    code = main(["ground", trace, "--grounding-config", str(config), "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: grounding config {key}")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "a plan must be a JSON object with a list of steps"),
        ({"total_cost": 0}, "a plan must be a JSON object with a list of steps"),
        ({"steps": [3]}, "a plan step needs a string name and a list of string args"),
        ({"steps": [{"name": "Reach", "args": 5}]}, "a plan step needs a string name"),
        (
            {"steps": [{"name": "Reach", "args": ["Nobody"]}]},
            "plan step ('Reach', ('Nobody',)) does not exist",
        ),
    ],
    ids=["list", "no-steps", "number-step", "number-args", "unknown-step"],
)
def test_malformed_plan_file_is_bad_input(tmp_path, library_file, goal_file, capsys, doc, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    code = main(
        ["validate", "--library", str(library_file), "--plan", str(plan), "--goal", str(goal_file)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


NOT_JSON = {
    "nested-too-deeply": (
        ("[" * 100_000 + "]" * 100_000).encode(),
        "nested too deeply to decode: line 1 column 1 (char 0)",
    ),
    "not-utf8": (b"\xff[]", "not UTF-8 at byte 1: invalid start byte"),
    "truncated": (b'{"steps": [', "Expecting value: line 1 column 12 (char 11)"),
}


@pytest.mark.parametrize("text", NOT_JSON)
@pytest.mark.parametrize(
    "kind, option",
    [("trace", None), ("grounding config", "--grounding-config"), ("goal file", "--goal"),
     ("library", "--library"), ("plan", "--plan"), ("registry", "--registry")],
)
def test_input_that_is_not_json_is_bad_input(
    tmp_path, library_file, goal_file, trace_dir, capsys, kind, option, text
):
    """A file that is not UTF-8, is cut short or is nested deeper than the
    decoder can go is invalid JSON: every input file reports it with exit
    2, not a traceback, and names itself; a trace names the line too."""
    data, reason = NOT_JSON[text]
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    if kind in ("trace", "grounding config"):
        trace = bad if kind == "trace" else trace_dir / "trace_00.jsonl"
        argv = ["ground", str(trace), "--out", str(tmp_path / "states.json")]
    else:
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"steps": []}))
        inputs = {"--library": library_file, "--goal": goal_file, "--plan": plan}
        argv = ["validate", *(f"{flag}={path}" for flag, path in inputs.items() if flag != option)]
    if option is not None:
        argv.append(f"{option}={bad}")
    assert main(argv) == 2
    err = capsys.readouterr().err
    if kind == "trace":
        assert err.startswith(f"error: trace {bad}: line 1: ") and reason.split(":")[0] in err
    else:
        assert err == f"error: {kind} {bad} is not valid JSON: {reason}\n"


def test_library_without_costs_is_bad_input(tmp_path, library_file, goal_file, capsys):
    """Every command that grounds or emits the library exits 2 the same way."""
    doc = json.loads(library_file.read_text())
    doc["operators"][0]["cost"] = None
    library = tmp_path / "library.json"
    library.write_text(json.dumps(doc))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"steps": []}))
    common = ["--library", str(library), "--goal", str(goal_file)]
    for argv in (
        ["emit", *common, "--out", str(tmp_path / "d.pddl"),
         "--problem-out", str(tmp_path / "p.pddl")],
        ["plan", *common, "--out", str(tmp_path / "out.json")],
        ["validate", *common, "--plan", str(plan)],
    ):
        assert main(argv) == 2, argv
        assert "has no cost" in capsys.readouterr().err, argv
    assert not (tmp_path / "out.json").exists()


def test_gen_needs_a_registry_with_hands(tmp_path, capsys):
    registry = EnvironmentRegistry(
        "demonstration",
        [ObjectInstance("table1", "Table"), ObjectInstance("a", "Wooden_cube"),
         ObjectInstance("b", "Wooden_cube")],
    )
    save_registry(registry, tmp_path / "registry.json")
    argv = ["gen", "--out", str(tmp_path / "corpus"), "--registry", str(tmp_path / "registry.json")]
    code = main(argv)
    assert code == 2
    assert "error: the demonstration registry has no Hand instances" in capsys.readouterr().err


def test_gen_refuses_an_instance_it_cannot_place(tmp_path, capsys):
    registry = EnvironmentRegistry(
        "demonstration", [*demonstration_registry().instances, ObjectInstance("lamp1", "Thing")]
    )
    save_registry(registry, tmp_path / "registry.json")
    argv = ["gen", "--out", str(tmp_path / "corpus"), "--registry", str(tmp_path / "registry.json")]
    assert main(argv) == 2
    assert "error: cannot place lamp1" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


def test_gen_rejects_a_type_outside_the_builtins(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"role": "demonstration", "instances": [
        {"name": "Right_hand", "type": "Hand"},
        {"name": "Cube_small1", "type": "Small_cube"},
        {"name": "table1", "type": "Table"},
    ]}))
    code = main(["gen", "--out", str(tmp_path / "corpus"), "--registry", str(registry)])
    assert code == 2
    assert "error: instance Cube_small1 has unknown type Small_cube" in capsys.readouterr().err


# Every option of every subcommand. A new knob shows up here as a test change.
CLI_SURFACE = {
    "": ["--help", "--verbose", "-h", "-v"],
    "gen": ["--help", "--out", "--registry", "--seed", "-h"],
    "ground": ["--grounding-config", "--help", "--out", "--registry", "-h"],
    "segment": ["--grounding-config", "--help", "--out", "--registry", "-h"],
    "learn": [
        "--grounding-config", "--help", "--library", "--no-repair", "--registry", "--repair", "-h",
    ],
    "emit": ["--goal", "--help", "--library", "--out", "--problem-out", "--registry", "-h"],
    "plan": [
        "--goal", "--help", "--library", "--max-expansions", "--mode", "--out", "--registry", "-h",
    ],
    "validate": ["--goal", "--help", "--library", "--plan", "--registry", "-h"],
    "pipeline": [
        "--demo-registry", "--exec-registry", "--goal", "--grounding-config",
        "--help", "--max-expansions", "--mode", "--no-repair", "--out", "--repair", "--seed",
        "--synth-corpus", "--traces", "-h",
    ],
}


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(opt for action in parser._actions for opt in action.option_strings)


def test_cli_surface_is_pinned():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {"": _options(parser)}
    surface.update({name: _options(sub) for name, sub in commands.choices.items()})
    assert surface == CLI_SURFACE


def _readme_commands() -> list[str]:
    """Every `demoplan` command in README's sh blocks, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("demoplan ")]


def test_readme_commands_parse(capsys):
    """The documented commands name only options the CLI has."""
    commands = _readme_commands()
    assert len(commands) == 8
    parser = build_parser()
    refused = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            refused.append(command)
    assert refused == [], capsys.readouterr().err


def test_src_reads_no_environment():
    """Files and flags are the only inputs: no module reads environment variables."""
    for path in sorted((ROOT / "src" / "demoplan").glob("*.py")):
        text = path.read_text()
        assert "os.environ" not in text and "getenv" not in text, path


def test_pipeline_from_traces(tmp_path, trace_dir, goal_file):
    out = tmp_path / "run"
    code = main(
        [
            "pipeline",
            "--out", str(out),
            "--goal", str(goal_file),
            "--traces", str(trace_dir / "trace_01.jsonl"),
        ]
    )
    assert code == 0
    assert (out / "segments" / "trace_01.segments.json").exists()
    assert (out / "library.json").exists()
    assert (out / "domain.pddl").exists()
    assert (out / "problem.pddl").exists()
    plan = json.loads((out / "plan.json").read_text())
    assert plan["validation"]["valid"] is True
    # default pipeline repairs, so the domain carries conditional effects
    assert ":conditional-effects" in (out / "domain.pddl").read_text()


def test_pipeline_synth_corpus(seed7_run):
    """The one-shot experiment: synthesize, learn, plan the 2-tower goal."""
    out, code = seed7_run
    assert code == 0
    assert len(list((out / "traces").glob("trace_*.jsonl"))) == 12
    assert len(list((out / "segments").glob("*.segments.json"))) == 12
    plan = json.loads((out / "plan.json").read_text())
    assert plan["validation"]["valid"] is True
    assert plan["total_length"] == 7


def test_pipeline_validates_under_mutex_semantics(tmp_path, capsys):
    """Without repair, the seed-7 library's plan acts on two cubes with
    one hand, and mutex replay lets the second displace the first; the
    plan is written with its failed validation. `--no-mutex-validate` is
    no option of pipeline."""
    goal = tmp_path / "goal.json"
    goal.write_text(json.dumps([
        {"pred": "actedOn", "args": ["Robot_gripper", "Cube_blue3"], "positive": True},
        {"pred": "actedOn", "args": ["Robot_gripper", "Cube_green3"], "positive": True},
    ]))
    out = tmp_path / "run"
    argv = ["pipeline", "--out", str(out), "--goal", str(goal), "--synth-corpus", "--seed", "7"]
    assert main([*argv, "--no-repair"]) == 4
    assert "validation failed: goal not reached" in capsys.readouterr().err
    validation = json.loads((out / "plan.json").read_text())["validation"]
    assert validation["valid"] is False
    with pytest.raises(SystemExit) as refused:
        main([*argv, "--no-mutex-validate"])
    assert refused.value.code == 2


@pytest.mark.parametrize(
    "corpus, message",
    [
        ([], "one of the arguments --synth-corpus --traces is required"),
        (["--synth-corpus", "--traces", "a.jsonl"], "argument --traces: not allowed with argument"),
    ],
    ids=["none", "both"],
)
def test_pipeline_needs_input(tmp_path, goal_file, capsys, corpus, message):
    """pipeline takes exactly one corpus and refuses before writing anything."""
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as refused:
        main(["pipeline", "--out", str(out), "--goal", str(goal_file), *corpus])
    assert refused.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_refuses_a_seed_for_given_traces(tmp_path, trace_dir, goal_file, capsys):
    """--seed only picks the synthesized corpus; with --traces it would
    change nothing, so pipeline refuses it before writing anything."""
    out = tmp_path / "run"
    argv = ["pipeline", "--out", str(out), "--goal", str(goal_file),
            "--traces", str(trace_dir / "trace_01.jsonl"), "--seed", "99"]
    assert main(argv) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_synthesizes_the_default_seed(tmp_path, goal_file, monkeypatch):
    """Without --seed, --synth-corpus draws the default corpus."""
    seeds = []

    def stop(seed, registry):
        seeds.append(seed)
        raise ValueError("stop")

    monkeypatch.setattr(synthgen, "generate_corpus", stop)
    argv = ["pipeline", "--out", str(tmp_path / "run"), "--goal", str(goal_file), "--synth-corpus"]
    assert main(argv) == 2
    assert seeds == [synthgen.DEFAULT_CORPUS_SEED]


@pytest.mark.parametrize(
    "option, value", [("--registry", "/nonexistent/reg.json"), ("--problem-out", "p.pddl")]
)
def test_emit_refuses_problem_options_without_a_goal(
    tmp_path, library_file, capsys, option, value
):
    """--registry and --problem-out shape only the problem file of --goal."""
    domain = tmp_path / "domain.pddl"
    assert main(["emit", "--library", str(library_file), "--out", str(domain), option, value]) == 2
    assert "--goal" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_emit_reads_the_goal_before_writing(tmp_path, library_file, capsys):
    """A goal file that cannot be read leaves no domain file behind."""
    out = tmp_path / "emitted"
    argv = ["emit", "--library", str(library_file), "--out", str(out / "domain.pddl"),
            "--goal", "/nonexistent/goal.json"]
    assert main(argv) == 2
    assert "/nonexistent/goal.json" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["--synth-corpus", "--traces"])
def test_pipeline_reads_the_goal_before_writing(tmp_path, trace_dir, capsys, source):
    """A goal file that cannot be read leaves the output directory empty:
    no traces, segments or library are written first."""
    out = tmp_path / "run"
    traces = [str(trace_dir / "trace_00.jsonl")] if source == "--traces" else []
    argv = ["pipeline", "--out", str(out), "--goal", "/nonexistent/goal.json", source, *traces]
    assert main(argv) == 2
    assert "/nonexistent/goal.json" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_seed7_artifacts_are_pinned(seed7_run, tmp_path):
    """library.json and domain.pddl hash to the benchmark's reference,
    the 25 files of the traces directory to their pinned digest, the goal
    files are the standard goals, and cost mode finds the reference
    optimum for each of them."""
    out, code = seed7_run
    assert code == 0
    reference = json.loads((ROOT / "perfbench" / "reference_seed7.json").read_text())
    for name, digest in reference["digests"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert _tree_digest(out / "traces") == SEED7_CORPUS_DIGEST

    costs = []
    for name, goal in planner.standard_goals(execution_registry()).items():
        goal_file = GOALS / f"{name}.json"
        assert tuple(map(literal_from_json, json.loads(goal_file.read_text()))) == goal
        plan = tmp_path / f"{name}.json"
        args = ["plan", "--library", str(out / "library.json"), "--goal", str(goal_file)]
        assert main(args + ["--mode", "cost", "--out", str(plan)]) == 0
        cost = json.loads(plan.read_text())["total_cost"]
        assert cost == reference["optimal"][f"repaired/exec4/{name}"]["min_cost"]
        costs.append(cost)
    assert costs == [180, 399, 618, 399]


@pytest.mark.parametrize(
    "budget, message",
    [("-3", "expansion budget must not be negative, got -3"), ("5", "gave up after 5 expansions")],
    ids=["negative", "exhausted"],
)
def test_search_budget_is_bad_input(seed7_run, tmp_path, capsys, budget, message):
    out, code = seed7_run
    assert code == 0
    plan = tmp_path / "plan.json"
    code = main(
        ["plan", "--library", str(out / "library.json"), "--goal", str(GOALS / "goal3.json"),
         "--max-expansions", budget, "--out", str(plan)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not plan.exists()


def test_stages_equal_the_pipeline(seed7_run, tmp_path):
    """gen, learn and plan with no flags write the bytes pipeline writes."""
    out, code = seed7_run
    assert code == 0
    corpus = tmp_path / "corpus"
    assert main(["gen", "--out", str(corpus), "--seed", "7"]) == 0
    traces = sorted(corpus.glob("trace_*.jsonl"))
    for trace in traces:
        assert trace.read_bytes() == (out / "traces" / trace.name).read_bytes()
    library = tmp_path / "library.json"
    assert main(["learn", *map(str, traces), "--library", str(library)]) == 0
    assert library.read_bytes() == (out / "library.json").read_bytes()
    plan = tmp_path / "plan.json"
    assert main(
        ["plan", "--library", str(library), "--goal", str(GOALS / "goal2.json"), "--out", str(plan)]
    ) == 0
    assert plan.read_bytes() == (out / "plan.json").read_bytes()


def test_plan_rejects_what_mutex_replay_rejects(seed7_run, tmp_path, capsys):
    """The raw seed-7 library's fewest-step plan for the 2-tower goal
    uses one hand on two cubes at once: `plan` writes it with its failed
    validation and exits 4."""
    out, code = seed7_run
    assert code == 0
    library = tmp_path / "library.json"
    traces = sorted(map(str, (out / "traces").glob("trace_*.jsonl")))
    assert main(["learn", *traces, "--library", str(library), "--no-repair"]) == 0
    plan = tmp_path / "plan.json"
    argv = ["plan", "--library", str(library), "--goal", str(GOALS / "goal2.json"),
            "--mode", "length", "--out", str(plan)]
    assert main(argv) == 4
    assert "validation failed:" in capsys.readouterr().err
    assert json.loads(plan.read_text())["validation"]["valid"] is False
