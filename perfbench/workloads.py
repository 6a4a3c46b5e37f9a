"""The three benchmark workloads: set-up, one timed pass, output checks.

Every input is generated from the run's seed. Each workload runs the
program through its public functions, the way the CLI composes them,
and opens a span around every call so a traced run can split the time
by layer. An operation is one trace (``learn_corpus``) or one planning
query (``plan_deep``, ``plan_many``); checks mark the operations whose
outputs are wrong as failed.

The planning workloads always plan a fixed set of goals with the
library learned from the default corpus, the one `demoplan pipeline`
learns, so its digests and the optimal cost of every query are checked
at every seed. Their seed only orders the queries of each pass: the
cubes of a goal are never relabelled, because `planner.solve` breaks
ties by action name and push order, so a relabelled goal, though it
has the same optimal cost and length, takes a different search and a
different greedy plan. learn_corpus generates fresh corpora from the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from demoplan import grounding, oplearn, pddl, planner, segmentation, synthgen
from demoplan.model import Literal, OperatorLibrary, PlanningProblem
from demoplan.ontology import (
    EnvironmentRegistry,
    ObjectInstance,
    demonstration_registry,
    execution_registry,
)
from demoplan.trace import read_trace, write_trace

from pace import Pacer
from tracer import Tracer

# Fixed expansion budget for every query; a query that needs more fails.
MAX_EXPANSIONS = 200_000

# Within a pass a query is repeated until its runs add up to this many
# seconds, so a short query is timed many times in a run, not once per
# pass; queries longer than this run once.
MIN_QUERY_SECONDS = 0.05

# learn_corpus corpus k is generated from seed + k * CORPUS_STRIDE, so
# corpus 0 is exactly what `demoplan pipeline --seed <seed>` learns from.
CORPUS_STRIDE = 1_000_003

CUBE_COLORS = ("green", "yellow", "blue", "red", "white", "black", "orange", "purple")


@dataclass(frozen=True)
class Size:
    """How much work one workload does.

    ``FULL`` is what the benchmark runs; its own tests swap in ``TINY``.
    """

    setups: int
    corpora: int
    demos_per_corpus: int | None
    deep_shapes: tuple[str, ...] | None
    many_pairs: int | None


FULL = Size(setups=5, corpora=6, demos_per_corpus=None, deep_shapes=None, many_pairs=None)
TINY = Size(
    setups=1,
    corpora=1,
    demos_per_corpus=4,
    deep_shapes=("repaired/exec4/goal1", "repaired/exec4/goal2", "repaired/cubes5/tower5"),
    many_pairs=2,
)


@dataclass
class Record:
    """One operation of one pass.

    ``instance`` names the (library, registry, goal) a query plans for;
    ``shape`` names its goal up to relabelling of cubes, which is what
    the reference file is keyed by.
    """

    instance: str
    mode: str = ""
    shape: str | None = None
    seconds: float = 0.0
    result: dict | None = None
    error: str | None = None
    paced: float = 0.0  # ``seconds`` at the reference pace (pace.py)

    @property
    def key(self) -> str:
        return f"{self.instance}/{self.mode}" if self.mode else self.instance


@dataclass(frozen=True)
class Query:
    """One planning query.

    ``plan_deep`` queries carry a problem and its ground actions;
    ``plan_many`` queries carry the library.json text to start from.
    """

    instance: str
    shape: str | None
    mode: str
    registry: EnvironmentRegistry
    goal: tuple[Literal, ...]
    problem: PlanningProblem | None = None
    actions: tuple | None = None
    library_json: str | None = None


# --- inputs -----------------------------------------------------------------


def tabletop_registry(n_cubes: int, hands: tuple[str, ...] = ("Robot_gripper",)) -> EnvironmentRegistry:
    instances = [ObjectInstance(hand, "Hand") for hand in hands]
    instances += [ObjectInstance(f"Cube_{c}3", "Wooden_cube") for c in CUBE_COLORS[:n_cubes]]
    instances.append(ObjectInstance("high_table", "Table"))
    return EnvironmentRegistry("execution", instances)


def tower_goal(registry: EnvironmentRegistry) -> tuple[Literal, ...]:
    cubes = registry.cubes
    return tuple(Literal("onTop", (above, below)) for below, above in zip(cubes, cubes[1:]))


def library_text(library: OperatorLibrary, tr: Tracer) -> str:
    """The bytes `demoplan learn` writes to library.json."""
    with tr.span("model.library_to_json"):
        doc = library.to_json()
    return json.dumps(doc, indent=2) + "\n"


def load_library(text: str, tr: Tracer) -> OperatorLibrary:
    doc = json.loads(text)
    with tr.span("model.library_from_json"):
        return OperatorLibrary.from_json(doc)


def write_corpus(seed: int, out_dir: Path, tr: Tracer, demos: int | None = None) -> list[Path]:
    """Generate one 12-demo corpus from ``seed`` into JSONL trace files."""
    registry = demonstration_registry()
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, script in enumerate(synthgen.corpus_scripts(seed, registry)[:demos]):
        with tr.span("synthgen.generate"):
            demo = synthgen.generate(script, registry)
        path = out_dir / f"trace_{i:02d}.jsonl"
        with tr.span("trace.write"):
            write_trace(demo.trace, path)
        paths.append(path)
    return paths


def learn_trace(path: Path, library: OperatorLibrary, registry, tr: Tracer) -> dict:
    """What `demoplan learn` does for one trace file."""
    with tr.span("trace.read"):
        trace = read_trace(path, registry)
    with tr.span("grounding.ground_trace"):
        states = grounding.ground_trace(trace)
    with tr.span("segmentation.segment"):
        segments = segmentation.segment(states)
    with tr.span("oplearn.learn_from_demo"):
        learned = oplearn.learn_from_demo(states, segments, library, registry, trace)
    tr.count("trace.frames", len(trace))
    tr.count("grounding.frames", len(states))
    tr.count("segmentation.segments", len(segments))
    tr.count("oplearn.observations", len(learned))
    return {"frames": len(trace), "states": len(states), "segments": segments}


def finish_library(library: OperatorLibrary, tr: Tracer) -> OperatorLibrary:
    """Costs and exclusivity repair, as `demoplan learn --repair` ends."""
    with tr.span("oplearn.assign_costs"):
        oplearn.assign_costs(library)
    with tr.span("oplearn.repair_exclusivity"):
        repaired = oplearn.repair_exclusivity(library)
    tr.count("oplearn.configurations", len(repaired))
    return repaired


def learn_default_libraries(workdir: Path, tr: Tracer, pacer: Pacer) -> tuple[str, str]:
    """library.json text of the raw and the repaired library learned from
    the default corpus; ``pacer`` times each step."""
    registry = pacer.timed(demonstration_registry)
    library = OperatorLibrary()
    for path in pacer.timed(write_corpus, synthgen.DEFAULT_CORPUS_SEED, workdir, tr):
        pacer.timed(learn_trace, path, library, registry, tr)
    repaired = pacer.timed(finish_library, library, tr)
    return pacer.timed(lambda: (library_text(library, tr), library_text(repaired, tr)))


def goal3_problem() -> PlanningProblem:
    """The standard goal3 on the execution table."""
    registry = execution_registry()
    return PlanningProblem(registry, planner.tabletop_init(registry), planner.standard_goals(registry)["goal3"])


def segments_tile(segments, n_states: int) -> bool:
    """Every hand's segments cover states 0..n_states-1 without gaps."""
    by_hand: dict[str, list] = {}
    for seg in segments:
        by_hand.setdefault(seg.hand, []).append(seg)
    for lane in by_hand.values():
        lane.sort(key=lambda s: s.start)
        if lane[0].start != 0 or lane[-1].end != n_states - 1:
            return False
        if any(a.end + 1 != b.start for a, b in zip(lane, lane[1:])):
            return False
    return bool(by_hand)


# --- planning ---------------------------------------------------------------


def solve_query(problem: PlanningProblem, actions, mode: str, tr: Tracer) -> dict:
    """solve → validate(mutex=True) → plan_to_json."""
    with tr.span(f"planner.solve_{mode}"):
        plan = planner.solve(problem, actions, mode, MAX_EXPANSIONS)
    if plan is None:
        raise planner.PlannerError("unsolvable")
    with tr.span("planner.validate"):
        report = planner.validate(problem, plan, mutex=True)
    with tr.span("planner.plan_to_json"):
        return planner.plan_to_json(plan, report)


def solve_prepared(query: Query, tr: Tracer) -> dict:
    return solve_query(query.problem, query.actions, query.mode, tr)


def plan_once(query: Query, tr: Tracer) -> dict:
    """Everything one `demoplan plan --mutex-validate` call does in-process."""
    library = load_library(query.library_json, tr)
    with tr.span("planner.ground"):
        actions = planner.ground(library, query.registry)
    tr.count("planner.ground_actions", len(actions))
    problem = PlanningProblem(query.registry, planner.tabletop_init(query.registry), query.goal)
    doc = solve_query(problem, actions, query.mode, tr)
    json.dumps(doc, indent=2)
    return doc


def run_queries(
    queries: list[Query], run, tr: Tracer, pacer: Pacer | None = None, min_seconds: float = 0.0
) -> list[Record]:
    """One record per run of a query; each query runs until its runs
    add up to ``min_seconds``, and at least once. ``pacer`` paces every
    run."""
    records = []
    for query in queries:
        spent = 0.0
        while True:
            record = Record(query.instance, query.mode, query.shape)
            start = time.perf_counter()
            try:
                with tr.span("bench.query"):
                    record.result = run(query, tr)
            except Exception as exc:  # a failing query is counted, not fatal
                record.error = f"{type(exc).__name__}: {exc}"
            record.seconds = time.perf_counter() - start
            record.paced = pacer.pace(record.seconds) if pacer is not None else record.seconds
            records.append(record)
            spent += record.seconds
            if spent >= min_seconds:
                break
    return records


def check_plans(records: list[Record], optimal: dict) -> dict[str, str]:
    """Failed record keys with reasons.

    Every plan must replay under mutex semantics and add up; per
    instance, min_cost is no dearer and min_length no longer than any
    other mode, and both equal the reference for the record's shape.
    """
    failed: dict[str, str] = {}
    by_instance: dict[str, dict[str, Record]] = {}
    for record in records:
        doc = record.result
        if record.error is not None:
            failed[record.key] = record.error
        elif not doc["validation"]["valid"]:
            failed[record.key] = f"does not replay: {doc['validation']['reason']}"
        elif doc["total_cost"] != sum(s["cost"] for s in doc["steps"]) or doc[
            "total_length"
        ] != len(doc["steps"]):
            failed[record.key] = "plan totals do not match its steps"
        else:
            by_instance.setdefault(record.instance, {})[record.mode] = record
    for by_mode in by_instance.values():
        for mode, total in (("min_cost", "total_cost"), ("min_length", "total_length")):
            if mode not in by_mode:
                continue
            record = by_mode[mode]
            best = record.result[total]
            beaten = [m for m, r in by_mode.items() if r.result[total] < best]
            if beaten:
                failed[record.key] = f"{total} {best} beaten by {beaten}"
            expected = optimal.get(record.shape, {}).get(mode)
            if expected is not None and best != expected:
                failed[record.key] = f"{total} {best} != reference {expected}"
    return failed


def greedy_gaps(records: list[Record]) -> list[float]:
    """Percent excess of greedy cost over min_cost, per instance with both."""
    costs: dict[str, dict[str, int]] = {}
    for record in records:
        if record.result is not None:
            costs.setdefault(record.instance, {})[record.mode] = record.result["total_cost"]
    return [
        100.0 * (c["greedy"] - c["min_cost"]) / c["min_cost"]
        for c in costs.values()
        if "greedy" in c and "min_cost" in c
    ]


def reemit_errors(pairs, tr: Tracer) -> list[str]:
    """Emitting each parsed PDDL document again gives back its bytes."""
    errors = []
    for doc, parsed in pairs:
        emit = pddl.emit_domain if doc.kind == "domain" else pddl.emit_problem
        with tr.span(f"pddl.{emit.__name__}"):
            if emit(parsed).text != doc.text:
                errors.append(f"{doc.kind} PDDL changes under emit-parse-emit")
    return errors


def pddl_round_trip(library: OperatorLibrary, problems: list[PlanningProblem], tr: Tracer) -> list[str]:
    """emit → parse → emit of the domain and each problem is byte-identical."""
    with tr.span("pddl.emit_domain"):
        docs = [pddl.emit_domain(library)]
    for problem in problems:
        with tr.span("pddl.emit_problem"):
            docs.append(pddl.emit_problem(problem))
    parsed = []
    for doc in docs:
        with tr.span("pddl.parse"):
            parsed.append(pddl.parse(doc))
    return reemit_errors(zip(docs, parsed), tr)


def digest_errors(library_json: str, library: OperatorLibrary, reference: dict, tr: Tracer) -> list[str]:
    """library.json and domain.pddl of the default corpus are the bytes
    `demoplan pipeline` wrote when the reference was made."""
    with tr.span("pddl.emit_domain"):
        domain = pddl.emit_domain(library).text
    errors = []
    for name, text in (("library.json", library_json), ("domain.pddl", domain)):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != reference["digests"][name]:
            errors.append(f"{name} sha256 {digest[:12]} differs from the reference")
    return errors


# --- workloads --------------------------------------------------------------


@dataclass
class Workload:
    """Inputs of one workload and the checks on its outputs."""

    seed: int
    size: Size
    workdir: Path
    reference: dict
    setup_errors: list[str] = field(default_factory=list)

    def setup(self, tr: Tracer, pacer: Pacer) -> None:
        """Make the inputs; ``pacer`` times each step that calls the program."""
        raise NotImplementedError

    def check_setup(self, tr: Tracer) -> None:
        """Checks on set-up outputs; run once, after set-up is timed."""

    def run_pass(self, tr: Tracer, pacer: Pacer) -> list[Record]:
        """Every operation once (queries: see run_queries), each paced
        by ``pacer``. Each pass runs the operations in a new order drawn
        from the seed, so that no operation always follows the same
        ones: what runs before an operation moves its time (the garbage
        collector and allocator are in the state the earlier ones left),
        and a fixed order would bake one such state into a run."""
        raise NotImplementedError

    def check(self, records: list[Record], tr: Tracer) -> dict[str, str]:
        """Failed operations of one pass, with reasons."""
        raise NotImplementedError

    def final_check(self, records: list[Record], tr: Tracer) -> dict[str, str]:
        """Checks on the last pass that are too slow to repeat every pass."""
        return {}

    def gaps(self) -> list[float]:
        raise NotImplementedError


class LearnCorpus(Workload):
    """read → ground → segment → learn per trace, then costs, repair,
    library.json, and PDDL emit and parse per corpus."""

    def setup(self, tr: Tracer, pacer: Pacer) -> None:
        self.corpora = [
            pacer.timed(
                write_corpus,
                self.seed + k * CORPUS_STRIDE,
                self.workdir / f"corpus_{k}",
                tr,
                self.size.demos_per_corpus,
            )
            for k in range(self.size.corpora)
        ]
        self.registry = pacer.timed(demonstration_registry)
        self.problem = pacer.timed(goal3_problem)
        self._gaps: list[float] = []
        self.rng = random.Random(self.seed)

    def matches_reference(self, k: int) -> bool:
        """Corpus k is the reference's default corpus, whole."""
        return k == 0 and self.seed == self.reference["seed"] and self.size.demos_per_corpus is None

    def run_pass(self, tr: Tracer, pacer: Pacer) -> list[Record]:
        records = []
        self.outputs: list = [None] * len(self.corpora)
        # Corpora in a new order each pass; each corpus's traces in
        # corpus order, which the library it learns depends on.
        for k in self.rng.sample(range(len(self.corpora)), len(self.corpora)):
            paths = self.corpora[k]
            library = OperatorLibrary()
            for path in paths:
                record = Record(f"corpus_{k}/{path.name}")
                start = time.perf_counter()
                try:
                    with tr.span("bench.trace"):
                        record.result = learn_trace(path, library, self.registry, tr)
                except Exception as exc:  # a failing trace is counted, not fatal
                    record.error = f"{type(exc).__name__}: {exc}"
                record.seconds = time.perf_counter() - start
                record.paced = pacer.pace(record.seconds)
                records.append(record)
            start = time.perf_counter()
            try:
                with tr.span("bench.corpus"):
                    repaired = finish_library(library, tr)
                    text = library_text(repaired, tr)
                    with tr.span("pddl.emit_domain"):
                        domain = pddl.emit_domain(repaired)
                    with tr.span("pddl.emit_problem"):
                        problem = pddl.emit_problem(self.problem)
                    with tr.span("pddl.parse"):
                        parsed = (pddl.parse(domain), pddl.parse(problem))
                self.outputs[k] = (repaired, text, domain, problem, parsed)
            except Exception as exc:  # fails every trace of the corpus
                self.outputs[k] = f"{type(exc).__name__}: {exc}"
            # Each trace's latency includes its share of the corpus steps.
            seconds = time.perf_counter() - start
            paced = pacer.pace(seconds)
            for record in records[-len(paths):]:
                record.seconds += seconds / len(paths)
                record.paced += paced / len(paths)
        return records

    @staticmethod
    def fail_corpus(records: list[Record], k: int, reason: str, failed: dict) -> None:
        for record in records:
            if record.instance.startswith(f"corpus_{k}/"):
                failed.setdefault(record.key, reason)

    def check(self, records: list[Record], tr: Tracer) -> dict[str, str]:
        failed = {}
        for record in records:
            if record.error is not None:
                failed[record.key] = record.error
            elif record.result["states"] != record.result["frames"] - 1:
                failed[record.key] = "grounding skipped frames"
            elif not segments_tile(record.result["segments"], record.result["states"]):
                failed[record.key] = "segments do not tile the trace"
        for k, output in enumerate(self.outputs):
            if isinstance(output, str):
                self.fail_corpus(records, k, output, failed)
                continue
            repaired, text, domain, problem, parsed = output
            errors = reemit_errors(zip((domain, problem), parsed), tr)
            if library_text(load_library(text, tr), tr) != text:
                errors.append("library.json changes under load and save")
            if self.matches_reference(k):
                errors += digest_errors(text, repaired, self.reference, tr)
            if errors:
                self.fail_corpus(records, k, "; ".join(errors), failed)
        return failed

    def final_check(self, records: list[Record], tr: Tracer) -> dict[str, str]:
        """Each learned library plans the four standard goals."""
        failed: dict[str, str] = {}
        registry = execution_registry()
        for k, output in enumerate(self.outputs):
            if isinstance(output, str):
                continue
            queries = [
                Query(
                    f"corpus_{k}/exec4/{name}",
                    f"repaired/exec4/{name}" if self.matches_reference(k) else None,
                    mode,
                    registry,
                    goal,
                    library_json=output[1],
                )
                for name, goal in planner.standard_goals(registry).items()
                for mode in planner.MODES
            ]
            plan_records = run_queries(queries, plan_once, tr)
            bad = check_plans(plan_records, self.reference["optimal"])
            if bad:
                reason = "; ".join(f"{key}: {why}" for key, why in sorted(bad.items()))
                self.fail_corpus(records, k, reason, failed)
            self._gaps += greedy_gaps(plan_records)
        return failed

    def gaps(self) -> list[float]:
        return self._gaps


class PlanWorkload(Workload):
    """Learns the default corpus's libraries in set-up; passes run queries."""

    def learn(self, tr: Tracer, pacer: Pacer) -> None:
        self.raw_json, self.repaired_json = learn_default_libraries(self.workdir / "corpus", tr, pacer)
        self.rng = random.Random(self.seed)

    def check_learned(self, problems: list[PlanningProblem], tr: Tracer) -> None:
        repaired = load_library(self.repaired_json, tr)
        self.setup_errors += digest_errors(self.repaired_json, repaired, self.reference, tr)
        self.setup_errors += pddl_round_trip(repaired, problems, tr)

    def shuffled(self) -> list[Query]:
        """The queries in a new order from the seed; see Workload.run_pass."""
        return self.rng.sample(self.queries, len(self.queries))

    def check(self, records: list[Record], tr: Tracer) -> dict[str, str]:
        self.last_records = records
        return check_plans(records, self.reference["optimal"])

    def gaps(self) -> list[float]:
        return greedy_gaps(self.last_records)


def deep_shapes() -> dict[str, tuple[EnvironmentRegistry, tuple[Literal, ...], tuple[str, ...]]]:
    """plan_deep's goals: shape → (registry, goal, modes)."""
    exec4 = execution_registry()
    cubes6 = tabletop_registry(6)
    hands2 = tabletop_registry(4, hands=("Left_gripper", "Right_gripper"))
    out = {}
    for name, goal in planner.standard_goals(exec4).items():
        out[f"repaired/exec4/{name}"] = (exec4, goal, planner.MODES)
    for reg_name, registry in (("cubes6", cubes6), ("hands2", hands2)):
        goals = planner.standard_goals(registry)
        for name in ("goal2", "goal4"):
            out[f"repaired/{reg_name}/{name}"] = (registry, goals[name], planner.MODES)
    for n in (5, 6, 7, 8):
        registry = cubes6 if n == 6 else tabletop_registry(n)
        out[f"repaired/cubes{n}/tower{n}"] = (registry, tower_goal(registry), ("greedy",))
    return out


def many_shapes(raw_json: str, repaired_json: str) -> dict[str, str]:
    """plan_many's libraries: shape of onTop(a, b) → library.json text."""
    return {"raw/exec4/onTop": raw_json, "repaired/exec4/onTop": repaired_json}


class PlanDeep(PlanWorkload):
    """Deep goals on one learned library; actions are grounded once per
    registry in set-up, so a pass is search, validation and plan output."""

    def setup(self, tr: Tracer, pacer: Pacer) -> None:
        self.learn(tr, pacer)
        library = pacer.timed(load_library, self.repaired_json, tr)
        actions: dict[int, tuple] = {}

        def prepare(registry: EnvironmentRegistry, goal) -> PlanningProblem:
            if id(registry) not in actions:
                with tr.span("planner.ground"):
                    actions[id(registry)] = tuple(planner.ground(library, registry))
                tr.count("planner.ground_actions", len(actions[id(registry)]))
            return PlanningProblem(registry, planner.tabletop_init(registry), goal)

        self.queries = []
        for shape, (registry, goal, modes) in pacer.timed(deep_shapes).items():
            if self.size.deep_shapes is not None and shape not in self.size.deep_shapes:
                continue
            problem = pacer.timed(prepare, registry, goal)
            for mode in modes:
                self.queries.append(
                    Query(shape, shape, mode, registry, goal, problem, actions[id(registry)])
                )

    def check_setup(self, tr: Tracer) -> None:
        problems = {q.instance: q.problem for q in self.queries}
        self.check_learned(list(problems.values()), tr)

    def run_pass(self, tr: Tracer, pacer: Pacer) -> list[Record]:
        return run_queries(self.shuffled(), solve_prepared, tr, pacer, MIN_QUERY_SECONDS)


class PlanMany(PlanWorkload):
    """onTop(a, b) for every ordered pair of execution cubes, every mode,
    raw and repaired library; each query loads, grounds and solves anew."""

    def setup(self, tr: Tracer, pacer: Pacer) -> None:
        self.learn(tr, pacer)
        registry = pacer.timed(execution_registry)
        pairs = list(itertools.permutations(registry.cubes, 2))[: self.size.many_pairs]
        self.queries = [
            Query(f"{shape}-{a}-{b}", shape, mode, registry, (Literal("onTop", (a, b)),), library_json=text)
            for shape, text in many_shapes(self.raw_json, self.repaired_json).items()
            for a, b in pairs
            for mode in planner.MODES
        ]

    def check_setup(self, tr: Tracer) -> None:
        registry = execution_registry()
        init = planner.tabletop_init(registry)
        goals = sorted({q.goal for q in self.queries})
        self.check_learned([PlanningProblem(registry, init, goal) for goal in goals], tr)

    def run_pass(self, tr: Tracer, pacer: Pacer) -> list[Record]:
        return run_queries(self.shuffled(), plan_once, tr, pacer, MIN_QUERY_SECONDS)


WORKLOADS = {"learn_corpus": LearnCorpus, "plan_deep": PlanDeep, "plan_many": PlanMany}
