"""Command line entry point wiring the pipeline stages together.

Each stage is independently invokable on the previous stage's files, and
``pipeline`` runs the whole chain through the same helpers: synthesize or
ingest traces, ground, segment, learn and repair, emit PDDL, plan, and
validate. ``plan``, ``pipeline`` and ``validate`` all replay under mutex
semantics. Exit codes: 0 success, 1 unexpected failure, 2 bad input or
configuration, 3 unsolvable goal, 4 failed plan validation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import grounding, oplearn, pddl, planner, segmentation, synthgen
from .model import Literal, ModelError, OperatorLibrary, PlanningProblem, literal_from_json
from .ontology import (
    OntologyError,
    demonstration_registry,
    execution_registry,
    load_json,
    load_registry,
    save_registry,
)
from .trace import DemoTrace, TraceError, read_trace

PLANNER_MODES = {"cost": "min_cost", "length": "min_length", "greedy": "greedy"}

log = logging.getLogger("demoplan")


def _registry(spec: str):
    if spec == "demo":
        return demonstration_registry()
    if spec == "exec":
        return execution_registry()
    return load_registry(spec)


def _grounding_config(args) -> grounding.GroundingConfig:
    """The thresholds of ``--grounding-config`` when given, else the defaults."""
    path = args.grounding_config
    return grounding.GroundingConfig.from_file(path) if path else grounding.GroundingConfig()


def _add_grounding_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grounding-config", help="JSON file of grounding thresholds")


def _load_goal(path: str | Path) -> tuple[Literal, ...]:
    doc = load_json(path, "goal file")
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"goal file {path} must be a non-empty JSON list of literals")
    return tuple(map(literal_from_json, doc))


def _load_library(path: str | Path) -> OperatorLibrary:
    return OperatorLibrary.from_json(load_json(path, "library"))


def _problem(registry, goal: tuple[Literal, ...]) -> PlanningProblem:
    """The goal on the registry's table with every cube flat on it."""
    return PlanningProblem(registry, planner.tabletop_init(registry), goal)


def _read_trace(path: str | Path, registry) -> DemoTrace:
    """``read_trace`` of ``path``, whose errors name the trace:
    ``trace b.jsonl: line 7: invalid JSON: …``."""
    try:
        return read_trace(path, registry)
    except TraceError as exc:
        raise TraceError(f"trace {path}: {exc}") from None


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _learn(trace_paths, registry, config, args, segment_dir=None) -> OperatorLibrary:
    """The library learned from every trace, with costs assigned and,
    unless ``--no-repair``, repaired. Each trace's segments are also
    written to ``segment_dir`` when one is given."""
    library = OperatorLibrary()
    for path in trace_paths:
        trace = _read_trace(path, registry)
        states = grounding.ground_trace(trace, config)
        segments = segmentation.segment(states)
        if segment_dir is not None:
            sidecar = segment_dir / f"{Path(path).stem}.segments.json"
            _write_json(sidecar, segmentation.segments_to_json(segments))
        oplearn.learn_from_demo(states, segments, library, registry, trace)
        log.info("learned %s: %d operators so far", path, len(library))
    oplearn.assign_costs(library)
    return oplearn.repair_exclusivity(library) if args.repair else library


def _plan(library, problem, args, out: Path) -> int:
    """Solve, validate under mutex semantics and write the plan with its
    report: exit 3 when no plan exists, 4 when the plan fails replay."""
    actions = planner.ground(library, problem.registry)
    plan = planner.solve(problem, actions, PLANNER_MODES[args.mode], args.max_expansions)
    if plan is None:
        print("unsolvable")
        return 3
    report = planner.validate(problem, plan, mutex=True)
    _write_json(out, planner.plan_to_json(plan, report))
    print(f"plan: {plan.total_length} steps, cost {plan.total_cost}")
    if not report.valid:
        print(f"validation failed: {report.reason}", file=sys.stderr)
        return 4
    return 0


def cmd_gen(args) -> int:
    registry = _registry(args.registry)
    out = Path(args.out)
    paths = synthgen.write_corpus(synthgen.generate_corpus(args.seed, registry), out)
    save_registry(registry, out / "registry.json")
    for path in paths:
        print(path)
    return 0


def cmd_ground(args) -> int:
    registry = _registry(args.registry)
    trace = _read_trace(args.trace, registry)
    states = grounding.ground_trace(trace, _grounding_config(args))
    _write_json(Path(args.out), grounding.states_to_json(states))
    print(args.out)
    return 0


def cmd_segment(args) -> int:
    registry = _registry(args.registry)
    trace = _read_trace(args.trace, registry)
    segments = segmentation.segment(grounding.ground_trace(trace, _grounding_config(args)))
    _write_json(Path(args.out), segmentation.segments_to_json(segments))
    print(args.out)
    return 0


def cmd_learn(args) -> int:
    registry = _registry(args.registry)
    lib_path = Path(args.library)
    library = _learn(args.traces, registry, _grounding_config(args), args)
    _write_json(lib_path, library.to_json())
    print(lib_path)
    return 0


def cmd_emit(args) -> int:
    if not args.goal and (args.registry or args.problem_out):
        raise ValueError("--registry and --problem-out only shape the problem file of --goal")
    library = _load_library(args.library)
    problem = None
    if args.goal:
        problem = _problem(_registry(args.registry or "exec"), _load_goal(args.goal))
    _write_text(Path(args.out), pddl.emit_domain(library).text)
    print(args.out)
    if problem is not None:
        problem_out = args.problem_out or "problem.pddl"
        _write_text(Path(problem_out), pddl.emit_problem(problem).text)
        print(problem_out)
    return 0


def cmd_plan(args) -> int:
    library = _load_library(args.library)
    problem = _problem(_registry(args.registry), _load_goal(args.goal))
    return _plan(library, problem, args, Path(args.out))


def cmd_validate(args) -> int:
    library = _load_library(args.library)
    problem = _problem(_registry(args.registry), _load_goal(args.goal))
    actions = planner.ground(library, problem.registry)
    plan = planner.plan_from_json(load_json(args.plan, "plan"), actions)
    report = planner.validate(problem, plan, mutex=True)
    print(json.dumps(planner.report_to_json(report)))
    return 0 if report.valid else 4


def cmd_pipeline(args) -> int:
    if args.traces and args.seed is not None:
        raise ValueError("--seed picks the --synth-corpus demos and means nothing with --traces")
    out = Path(args.out)
    demo_registry = _registry(args.demo_registry)
    problem = _problem(_registry(args.exec_registry), _load_goal(args.goal))
    config = _grounding_config(args)

    trace_dir = out / "traces"
    if args.synth_corpus:
        seed = synthgen.DEFAULT_CORPUS_SEED if args.seed is None else args.seed
        demos = synthgen.generate_corpus(seed, demo_registry)
        trace_paths = synthgen.write_corpus(demos, trace_dir)
        save_registry(demo_registry, trace_dir / "registry.json")
    else:
        trace_paths = [Path(p) for p in args.traces]
    print(f"traces: {len(trace_paths)}")

    library = _learn(trace_paths, demo_registry, config, args, out / "segments")
    _write_json(out / "library.json", library.to_json())
    print(f"library: {len(library)} operators")

    _write_text(out / "domain.pddl", pddl.emit_domain(library).text)
    _write_text(out / "problem.pddl", pddl.emit_problem(problem).text)
    return _plan(library, problem, args, out / "plan.json")


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
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ground", help="ground a trace into symbolic states")
    p.add_argument("trace")
    p.add_argument("--registry", default="demo")
    p.add_argument("--out", required=True)
    _add_grounding_config(p)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("segment", help="segment a trace into activities")
    p.add_argument("trace")
    p.add_argument("--registry", default="demo")
    p.add_argument("--out", required=True)
    _add_grounding_config(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("learn", help="learn operators from traces")
    p.add_argument("traces", nargs="+")
    p.add_argument("--library", required=True)
    p.add_argument("--registry", default="demo")
    p.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True)
    _add_grounding_config(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("emit", help="serialize a library to PDDL")
    p.add_argument("--library", required=True)
    p.add_argument("--out", default="domain.pddl")
    p.add_argument("--goal", help="also emit a problem file for this goal")
    p.add_argument("--registry", help="the problem's registry with --goal (default: exec)")
    p.add_argument("--problem-out", help="the problem file of --goal (default: problem.pddl)")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("plan", help="solve a goal with a learned library")
    p.add_argument("--library", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--registry", default="exec")
    p.add_argument("--mode", choices=PLANNER_MODES, default="cost")
    p.add_argument("--max-expansions", type=int)
    p.add_argument("--out", default="plan.json")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="replay a plan file")
    p.add_argument("--library", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--registry", default="exec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="run the full chain into one directory")
    p.add_argument("--out", required=True)
    p.add_argument("--goal", required=True)
    corpus = p.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--synth-corpus", action="store_true")
    corpus.add_argument("--traces", nargs="+")
    p.add_argument(
        "--seed", type=int, help=f"with --synth-corpus (default: {synthgen.DEFAULT_CORPUS_SEED})"
    )
    p.add_argument("--demo-registry", default="demo")
    p.add_argument("--exec-registry", default="exec")
    p.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--mode", choices=PLANNER_MODES, default="cost")
    p.add_argument("--max-expansions", type=int)
    _add_grounding_config(p)
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
        oplearn.AttributionError,
        planner.PlannerError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
