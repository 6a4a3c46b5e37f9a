"""Command line entry point wiring the pipeline stages together.

Each stage is independently invokable on the previous stage's files, and
``pipeline`` runs the whole chain through the same helpers: synthesize or
ingest traces, ground, segment, learn, emit PDDL, plan, validate. Exit codes: 0 success, 1
unexpected failure, 2 bad input or configuration, 3 unsolvable goal, 4
failed plan validation.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import grounding, oplearn, pddl, planner, segmentation, synthgen
from .model import Literal, ModelError, OperatorLibrary, PlanningProblem, literal_from_json
from .ontology import (
    OntologyError,
    demonstration_registry,
    execution_registry,
    load_registry,
    save_registry,
)
from .trace import TraceError, read_trace

GROUNDING_ENV = "DEMOPLAN_GROUNDING"

PLANNER_MODES = {"cost": "min_cost", "length": "min_length", "greedy": "greedy"}

log = logging.getLogger("demoplan")


def _registry(spec: str):
    if spec == "demo":
        return demonstration_registry()
    if spec == "exec":
        return execution_registry()
    return load_registry(spec)


def _grounding_config(args) -> grounding.GroundingConfig:
    path = getattr(args, "grounding_config", None) or os.environ.get(GROUNDING_ENV)
    config = grounding.GroundingConfig.from_file(path) if path else grounding.GroundingConfig()
    overrides = {
        name: value
        for name in ("acted_on_dist", "graspable_dist", "move_speed", "approach_cosine")
        if (value := getattr(args, name, None)) is not None
    }
    if overrides:
        config = grounding.GroundingConfig(
            **{**config.__dict__, **overrides}
        )
    return config


def _add_grounding_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grounding-config", help="JSON file with threshold overrides")
    p.add_argument("--acted-on-dist", type=float, dest="acted_on_dist")
    p.add_argument("--graspable-dist", type=float, dest="graspable_dist")
    p.add_argument("--move-speed", type=float, dest="move_speed")
    p.add_argument("--approach-cosine", type=float, dest="approach_cosine")


def _load_goal(path: str | Path) -> tuple[Literal, ...]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"goal file {path} must be a non-empty JSON list of literals")
    return tuple(map(literal_from_json, doc))


def _load_library(path: str | Path) -> OperatorLibrary:
    return OperatorLibrary.from_json(json.loads(Path(path).read_text()))


def _problem(registry, goal: tuple[Literal, ...]) -> PlanningProblem:
    """The goal on the registry's table with every cube flat on it."""
    return PlanningProblem(registry, planner.tabletop_init(registry), goal)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _segments_for(trace, config, debounce):
    states = grounding.ground_trace(trace, config)
    return states, segmentation.segment(states, debounce)


def _learn(library, trace_paths, registry, config, args, segment_dir=None) -> OperatorLibrary:
    """Learn every trace into ``library``, assign costs and, with
    ``args.repair``, repair it. Each trace's segments are also written
    to ``segment_dir`` when one is given."""
    for path in trace_paths:
        trace = read_trace(path, registry)
        states, segments = _segments_for(trace, config, args.debounce)
        if segment_dir is not None:
            segmentation.write_segments(segments, segment_dir / f"{Path(path).stem}.segments.json")
        oplearn.learn_from_demo(states, segments, library, registry, trace)
        log.info("learned %s: %d operators so far", path, len(library))
    oplearn.assign_costs(library)
    return oplearn.repair_exclusivity(library) if args.repair else library


def _export_pddl(library, problem, directory: Path) -> None:
    _write_text(directory / "domain.pddl", pddl.emit_domain(library).text)
    _write_text(directory / "problem.pddl", pddl.emit_problem(problem).text)


def _solve(library, problem, args) -> planner.Plan | None:
    actions = planner.ground(library, problem.registry)
    return planner.solve(problem, actions, PLANNER_MODES[args.mode], args.max_expansions)


def cmd_gen(args) -> int:
    registry = _registry(args.registry)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.script:
        doc = json.loads(Path(args.script).read_text())
        script = synthgen.DemoScript(
            seed=doc["seed"],
            hand=doc["hand"],
            cubes_to_stack=tuple(doc["cubes_to_stack"]),
            **{
                k: doc[k]
                for k in (
                    "pause_at_take",
                    "approach_speed",
                    "noise_sigma",
                    "false_starts",
                    "hover_frames",
                    "take_frames",
                )
                if k in doc
            },
        )
        demos = [synthgen.generate(script, registry)]
    else:
        demos = synthgen.generate_corpus(args.seed, registry)
    paths = synthgen.write_corpus(demos, out)
    save_registry(registry, out / "registry.json")
    for path in paths:
        print(path)
    return 0


def cmd_ground(args) -> int:
    registry = _registry(args.registry)
    trace = read_trace(args.trace, registry)
    states = grounding.ground_trace(trace, _grounding_config(args))
    _write_json(Path(args.out), grounding.states_to_json(states))
    print(args.out)
    return 0


def cmd_segment(args) -> int:
    registry = _registry(args.registry)
    trace = read_trace(args.trace, registry)
    _, segments = _segments_for(trace, _grounding_config(args), args.debounce)
    segmentation.write_segments(segments, args.out)
    print(args.out)
    return 0


def cmd_learn(args) -> int:
    registry = _registry(args.registry)
    lib_path = Path(args.library)
    library = _load_library(lib_path) if args.append and lib_path.exists() else OperatorLibrary()
    library = _learn(library, args.traces, registry, _grounding_config(args), args)
    _write_json(lib_path, library.to_json())
    print(lib_path)
    return 0


def cmd_emit(args) -> int:
    library = _load_library(args.library)
    domain = pddl.emit_domain(library, args.name)
    _write_text(Path(args.out), domain.text)
    print(args.out)
    if args.goal:
        problem = _problem(_registry(args.registry), _load_goal(args.goal))
        doc = pddl.emit_problem(problem, name=args.problem_name, domain=args.name)
        _write_text(Path(args.problem_out), doc.text)
        print(args.problem_out)
    return 0


def cmd_plan(args) -> int:
    library = _load_library(args.library)
    problem = _problem(_registry(args.registry), _load_goal(args.goal))
    plan = _solve(library, problem, args)
    if args.export_pddl:
        _export_pddl(library, problem, Path(args.export_pddl))
    if plan is None:
        print("unsolvable")
        return 3
    report = planner.validate(problem, plan, mutex=True) if args.mutex_validate else None
    _write_json(Path(args.out), planner.plan_to_json(plan, report))
    print(args.out)
    if report is not None and not report.valid:
        print(f"validation failed: {report.reason}", file=sys.stderr)
        return 4
    return 0


def _rebuild_plan(plan_doc: dict, actions) -> planner.Plan:
    by_key = {(a.name, tuple(a.args)): a for a in actions}
    steps = []
    for step in plan_doc["steps"]:
        key = (step["name"], tuple(step["args"]))
        if key not in by_key:
            raise ValueError(f"plan step {key} does not exist in the grounded library")
        steps.append(by_key[key])
    return planner.Plan(tuple(steps), sum(s.cost for s in steps), len(steps))


def cmd_validate(args) -> int:
    library = _load_library(args.library)
    problem = _problem(_registry(args.registry), _load_goal(args.goal))
    actions = planner.ground(library, problem.registry)
    plan = _rebuild_plan(json.loads(Path(args.plan).read_text()), actions)
    report = planner.validate(problem, plan, mutex=args.mutex)
    print(json.dumps(planner.report_to_json(report)))
    return 0 if report.valid else 4


def cmd_pipeline(args) -> int:
    out = Path(args.out)
    demo_registry = _registry(args.demo_registry)
    exec_registry = _registry(args.exec_registry)
    config = _grounding_config(args)

    trace_dir = out / "traces"
    if args.synth_corpus:
        demos = synthgen.generate_corpus(args.seed, demo_registry)
        trace_paths = synthgen.write_corpus(demos, trace_dir)
        save_registry(demo_registry, trace_dir / "registry.json")
    else:
        if not args.traces:
            raise ValueError("pipeline needs --synth-corpus or --traces")
        trace_paths = [Path(p) for p in args.traces]
    print(f"traces: {len(trace_paths)}")

    segment_dir = out / "segments"
    segment_dir.mkdir(parents=True, exist_ok=True)
    library = _learn(OperatorLibrary(), trace_paths, demo_registry, config, args, segment_dir)
    _write_json(out / "library.json", library.to_json())
    print(f"library: {len(library)} operators")

    problem = _problem(exec_registry, _load_goal(args.goal))
    _export_pddl(library, problem, out)
    plan = _solve(library, problem, args)
    if plan is None:
        print("unsolvable")
        return 3
    report = planner.validate(problem, plan, mutex=args.mutex_validate)
    _write_json(out / "plan.json", planner.plan_to_json(plan, report))
    _write_json(out / "validation.json", planner.report_to_json(report))
    print(f"plan: {plan.total_length} steps, cost {plan.total_cost}")
    if not report.valid:
        print(f"validation failed: {report.reason}", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demoplan",
        description="Learn stacking operators from hand demonstrations and plan with them.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize demonstration traces")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=synthgen.DEFAULT_CORPUS_SEED)
    p.add_argument("--registry", default="demo")
    p.add_argument("--script", help="single script JSON instead of the full corpus")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ground", help="ground a trace into symbolic states")
    p.add_argument("trace")
    p.add_argument("--registry", default="demo")
    p.add_argument("--out", required=True)
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("segment", help="segment a trace into activities")
    p.add_argument("trace")
    p.add_argument("--registry", default="demo")
    p.add_argument("--out", required=True)
    p.add_argument("--debounce", type=int, default=segmentation.DEFAULT_DEBOUNCE)
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("learn", help="learn operators from traces")
    p.add_argument("traces", nargs="+")
    p.add_argument("--library", required=True)
    p.add_argument("--append", action="store_true", help="extend an existing library file")
    p.add_argument("--registry", default="demo")
    p.add_argument("--debounce", type=int, default=segmentation.DEFAULT_DEBOUNCE)
    p.add_argument("--repair", action="store_true", help="add exclusivity revocations")
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("emit", help="serialize a library to PDDL")
    p.add_argument("--library", required=True)
    p.add_argument("--out", default="domain.pddl")
    p.add_argument("--name", default="stacking")
    p.add_argument("--goal", help="also emit a problem file for this goal")
    p.add_argument("--registry", default="exec")
    p.add_argument("--problem-out", default="problem.pddl")
    p.add_argument("--problem-name", default="stacking-task")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("plan", help="solve a goal with a learned library")
    p.add_argument("--library", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--registry", default="exec")
    p.add_argument("--mode", choices=PLANNER_MODES, default="cost")
    p.add_argument("--mutex-validate", action="store_true")
    p.add_argument("--export-pddl", help="directory for domain.pddl/problem.pddl")
    p.add_argument("--max-expansions", type=int)
    p.add_argument("--out", default="plan.json")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="replay a plan file")
    p.add_argument("--library", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--registry", default="exec")
    p.add_argument("--mutex", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="run the full chain into one directory")
    p.add_argument("--out", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--synth-corpus", action="store_true")
    p.add_argument("--seed", type=int, default=synthgen.DEFAULT_CORPUS_SEED)
    p.add_argument("--traces", nargs="*")
    p.add_argument("--demo-registry", default="demo")
    p.add_argument("--exec-registry", default="exec")
    p.add_argument("--debounce", type=int, default=segmentation.DEFAULT_DEBOUNCE)
    p.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--mode", choices=PLANNER_MODES, default="cost")
    p.add_argument("--mutex-validate", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--max-expansions", type=int)
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (
        OntologyError,
        TraceError,
        ModelError,
        pddl.PddlError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        KeyError,
        oplearn.AttributionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except planner.PlannerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
