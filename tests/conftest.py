"""Shared fixtures.

The seed-7 corpus and the library learned from it are expensive enough
to build once per session; everything downstream treats them as
immutable.

Hypothesis runs under the ``derandomized`` profile: every run draws the
same examples for a test, and a failure prints the blob that replays it.
A test's own ``@settings`` (``max_examples``, ``deadline``) still apply.
"""

import pytest
from hypothesis import settings

from demoplan import grounding, oplearn, planner, segmentation, synthgen
from demoplan.model import OperatorLibrary
from demoplan.ontology import demonstration_registry, execution_registry

CORPUS_SEED = 7

settings.register_profile("derandomized", derandomize=True, print_blob=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def demo_registry():
    return demonstration_registry()


@pytest.fixture(scope="session")
def exec_registry():
    return execution_registry()


@pytest.fixture(scope="session")
def corpus(demo_registry):
    return synthgen.generate_corpus(CORPUS_SEED, demo_registry)


@pytest.fixture(scope="session")
def combined_library(corpus, demo_registry):
    library = OperatorLibrary()
    for demo in corpus:
        states = grounding.ground_trace(demo.trace)
        segments = segmentation.segment(states)
        oplearn.learn_from_demo(states, segments, library, demo_registry, demo.trace)
    oplearn.assign_costs(library)
    return library


@pytest.fixture(scope="session")
def repaired_library(combined_library):
    return oplearn.repair_exclusivity(combined_library)


@pytest.fixture(scope="session")
def exec_actions(combined_library, exec_registry):
    return planner.ground(combined_library, exec_registry)


@pytest.fixture(scope="session")
def single_careful_library(corpus, demo_registry):
    """Operators learned from the first careful demo alone."""
    demo = corpus[0]
    states = grounding.ground_trace(demo.trace)
    segments = segmentation.segment(states)
    library = OperatorLibrary()
    oplearn.learn_from_demo(states, segments, library, demo_registry, demo.trace)
    oplearn.assign_costs(library)
    return library
