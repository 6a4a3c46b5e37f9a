"""Tests for cli.py.

All tests drive main() directly with argument lists; nothing here shells
out. Exit codes are the contract: 0 success, 2 bad input, 3 unsolvable,
4 failed validation.
"""

import hashlib
import json
from pathlib import Path

import pytest

from demoplan import planner, segmentation, synthgen
from demoplan.cli import main
from demoplan.model import OperatorLibrary, literal_from_json
from demoplan.ontology import (
    EnvironmentRegistry,
    ObjectInstance,
    demonstration_registry,
    execution_registry,
    save_registry,
)
from demoplan.trace import DemoFrame, DemoTrace, HandSample, write_trace

GOAL1 = [{"pred": "onTop", "args": ["Cube_green3", "Cube_blue3"], "positive": True}]
ROOT = Path(__file__).parent.parent
GOALS = ROOT / "goals"


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
    """Library learned from the two-cube careful demo via the CLI."""
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


def test_gen_is_reproducible(tmp_path):
    """Same seed, byte-identical artifact tree."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--out", str(a), "--seed", "11"]) == 0
    assert main(["gen", "--out", str(b), "--seed", "11"]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_ground_writes_states(tmp_path, trace_dir, corpus):
    out = tmp_path / "states.json"
    trace = trace_dir / "trace_00.jsonl"
    assert main(["ground", str(trace), "--out", str(out)]) == 0
    states = json.loads(out.read_text())
    assert len(states) == len(corpus[0].trace) - 1
    assert states[0]["frame"] == 1
    assert set(states[0]["hands"]) == {"Left_hand", "Right_hand"}


def test_grounding_config_env_var(tmp_path, trace_dir, monkeypatch):
    """An absurd movement threshold from the env config freezes every hand."""
    config = tmp_path / "grounding.json"
    config.write_text(json.dumps({"move_speed": 99.0}))
    monkeypatch.setenv("DEMOPLAN_GROUNDING", str(config))
    out = tmp_path / "states.json"
    trace = str(trace_dir / "trace_00.jsonl")
    assert main(["ground", trace, "--out", str(out)]) == 0
    states = json.loads(out.read_text())
    assert not any(
        hand["handMove"] for state in states for hand in state["hands"].values()
    )

    # an explicit flag beats the env config
    assert main(["ground", trace, "--out", str(out), "--move-speed", "0.1"]) == 0
    states = json.loads(out.read_text())
    assert any(
        hand["handMove"] for state in states for hand in state["hands"].values()
    )


def test_segment_writes_segments(tmp_path, trace_dir):
    out = tmp_path / "segments.json"
    assert main(["segment", str(trace_dir / "trace_01.jsonl"), "--out", str(out)]) == 0
    segments = segmentation.read_segments(out)
    assert segments
    assert {s.hand for s in segments} == {"Left_hand", "Right_hand"}


def test_learn_matches_direct_api(trace_dir, library_file, corpus, demo_registry):
    from demoplan import grounding, oplearn

    states = grounding.ground_trace(corpus[2].trace)
    segments = segmentation.segment(states)
    library = OperatorLibrary()
    oplearn.learn_from_demo(states, segments, library, demo_registry, corpus[2].trace)
    oplearn.assign_costs(library)
    assert json.loads(library_file.read_text()) == library.to_json()


def test_learn_append_equals_single_call(tmp_path, trace_dir):
    """Learning incrementally must land on the same library file."""
    t0, t1 = str(trace_dir / "trace_00.jsonl"), str(trace_dir / "trace_01.jsonl")
    stepwise = tmp_path / "stepwise.json"
    assert main(["learn", t0, "--library", str(stepwise)]) == 0
    assert main(["learn", t1, "--library", str(stepwise), "--append"]) == 0
    oneshot = tmp_path / "oneshot.json"
    assert main(["learn", t0, t1, "--library", str(oneshot)]) == 0
    assert stepwise.read_bytes() == oneshot.read_bytes()


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


def test_plan_writes_plan_and_pddl(tmp_path, library_file, goal_file):
    out = tmp_path / "plan.json"
    export = tmp_path / "pddl"
    code = main(
        [
            "plan",
            "--library", str(library_file),
            "--goal", str(goal_file),
            "--out", str(out),
            "--mutex-validate",
            "--export-pddl", str(export),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["total_length"] >= 3
    assert doc["total_cost"] == sum(step["cost"] for step in doc["steps"])
    assert doc["validation"]["valid"] is True
    assert (export / "domain.pddl").exists()
    assert (export / "problem.pddl").exists()


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
    """A cube stacked on itself can never hold."""
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
        json.dumps([{"pred": "onTop", "args": ["Cube_blue3", "Cube_blue3"]}])
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
         "--goal", str(goal_file), "--mutex"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report == {"valid": True, "failing_step": None, "reason": "ok"}

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
    """A hand-written plan that reaches elsewhere before taking replays
    under closed-world validation but must fail the mutex check."""
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
    base = ["validate", "--library", str(lib_path), "--plan", str(plan_path),
            "--goal", str(goal)]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--mutex"]) == 4
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["valid"] is False
    assert report["failing_step"] == 2


@pytest.mark.parametrize(
    "literal",
    [
        {"pred": "onTop", "args": ["Cube_green3", "Cube_blue3"], "positive": "false"},
        {"pred": "onTop", "args": [1, 2]},
        {"pred": "onTop", "args": "ab"},
    ],
    ids=["string-positive", "number-args", "string-args"],
)
def test_malformed_goal_literal_is_bad_input(tmp_path, library_file, literal, capsys):
    goal = tmp_path / "goal.json"
    goal.write_text(json.dumps([literal]))
    out = tmp_path / "plan.json"
    code = main(["plan", "--library", str(library_file), "--goal", str(goal), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: onTop")
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
    objects = {
        "Cube_red1": (0.45, 0.5, 0.775),
        "Cube_green1": (0.5, 0.5, 0.775),
        "table1": (0.5, 0.5, 0.37),
    }
    on_table = {frozenset(("Cube_red1", "table1")), frozenset(("Cube_green1", "table1"))}
    touching = on_table | {frozenset(("Cube_red1", "Cube_green1"))}
    frames = [
        DemoFrame(i / 10, rest, objects, frozenset(touching if i >= 10 else on_table))
        for i in range(20)
    ]
    path = tmp_path / "trace.jsonl"
    write_trace(DemoTrace(frames, registry, 10.0), path)
    code = main(["learn", str(path), "--library", str(tmp_path / "library.json")])
    assert code == 2
    assert "frame 10: cannot attribute" in capsys.readouterr().err
    assert not (tmp_path / "library.json").exists()


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
    validation = json.loads((out / "validation.json").read_text())
    assert validation["valid"] is True
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


def test_pipeline_needs_input(tmp_path, goal_file, capsys):
    code = main(["pipeline", "--out", str(tmp_path / "run"), "--goal", str(goal_file)])
    assert code == 2
    assert "needs --synth-corpus or --traces" in capsys.readouterr().err


def test_seed7_artifacts_are_pinned(seed7_run, tmp_path):
    """library.json and domain.pddl hash to the benchmark's reference,
    the goal files are the standard goals, and cost mode finds the
    reference optimum for each of them."""
    out, code = seed7_run
    assert code == 0
    reference = json.loads((ROOT / "perfbench" / "reference_seed7.json").read_text())
    for name, digest in reference["digests"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

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


def test_stages_equal_the_pipeline(seed7_run, tmp_path):
    """gen, learn --repair and plan --mutex-validate write the bytes
    pipeline writes."""
    out, code = seed7_run
    assert code == 0
    corpus = tmp_path / "corpus"
    assert main(["gen", "--out", str(corpus), "--seed", "7"]) == 0
    traces = sorted(corpus.glob("trace_*.jsonl"))
    for trace in traces:
        assert trace.read_bytes() == (out / "traces" / trace.name).read_bytes()
    library = tmp_path / "library.json"
    assert main(["learn", *map(str, traces), "--library", str(library), "--repair"]) == 0
    assert library.read_bytes() == (out / "library.json").read_bytes()
    plan = tmp_path / "plan.json"
    assert main(
        ["plan", "--library", str(library), "--goal", str(GOALS / "goal2.json"),
         "--mutex-validate", "--out", str(plan)]
    ) == 0
    assert plan.read_bytes() == (out / "plan.json").read_bytes()
