"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import contextlib
import math
import os

import pytest

try:
    from hypothesis import HealthCheck, settings

    # "ci" (the default) is fully reproducible: derandomize=True makes
    # hypothesis derive its examples from the test function itself, so a
    # CI failure replays locally without a shared example database.
    # HYPOTHESIS_PROFILE=dev restores randomized exploration.
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "dev",
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    pass

from repro.core.state import root_state
from repro.model import (
    Channel,
    Platform,
    SharedBus,
    Task,
    TaskGraph,
    compile_problem,
    shared_bus_platform,
)


# ---------------------------------------------------------------------------
# Canonical small graphs
# ---------------------------------------------------------------------------


def make_chain(n: int = 4, wcet: float = 10.0, msg: float = 5.0) -> TaskGraph:
    """a -> b -> c -> ... with uniform weights and generous deadlines."""
    g = TaskGraph(name=f"chain{n}")
    for i in range(n):
        g.add_task(
            Task(name=f"c{i}", wcet=wcet, relative_deadline=wcet * n * 3)
        )
    for i in range(n - 1):
        g.add_edge(f"c{i}", f"c{i+1}", message_size=msg)
    return g


def make_diamond(msg: float = 4.0) -> TaskGraph:
    """The classic fork-join: src -> {left, right} -> sink."""
    g = TaskGraph(name="diamond")
    g.add_task(Task(name="src", wcet=2.0, relative_deadline=100.0))
    g.add_task(Task(name="left", wcet=5.0, relative_deadline=100.0))
    g.add_task(Task(name="right", wcet=7.0, relative_deadline=100.0))
    g.add_task(Task(name="sink", wcet=3.0, relative_deadline=100.0))
    g.add_edge("src", "left", message_size=msg)
    g.add_edge("src", "right", message_size=msg)
    g.add_edge("left", "sink", message_size=msg)
    g.add_edge("right", "sink", message_size=msg)
    return g


def make_forkjoin(width: int = 3, msg: float = 3.0) -> TaskGraph:
    """src feeding `width` parallel tasks feeding sink."""
    g = TaskGraph(name=f"forkjoin{width}")
    g.add_task(Task(name="src", wcet=4.0, relative_deadline=300.0))
    for i in range(width):
        g.add_task(Task(name=f"mid{i}", wcet=6.0 + i, relative_deadline=300.0))
    g.add_task(Task(name="sink", wcet=5.0, relative_deadline=300.0))
    for i in range(width):
        g.add_edge("src", f"mid{i}", message_size=msg)
        g.add_edge(f"mid{i}", "sink", message_size=msg)
    return g


def make_independent(n: int = 3) -> TaskGraph:
    """n independent tasks with staggered deadlines (no arcs)."""
    g = TaskGraph(name=f"indep{n}")
    for i in range(n):
        g.add_task(
            Task(name=f"i{i}", wcet=4.0 + i, relative_deadline=20.0 + 10.0 * i)
        )
    return g


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def chain():
    return make_chain()


@pytest.fixture
def diamond():
    return make_diamond()


@pytest.fixture
def forkjoin():
    return make_forkjoin()


@pytest.fixture
def independent():
    return make_independent()


@pytest.fixture
def bus2():
    return shared_bus_platform(2)


@pytest.fixture
def bus3():
    return shared_bus_platform(3)


@pytest.fixture
def diamond_problem(diamond, bus2):
    return compile_problem(diamond, bus2)


@contextlib.contextmanager
def native_disabled():
    """Run ``engine='array'`` without the C driver: it falls back to fused."""
    from repro.core import _native

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_LIB", None)
        mp.setattr(_native, "_LIB_TRIED", True)
        yield


# ---------------------------------------------------------------------------
# Independent optimality oracle
# ---------------------------------------------------------------------------


def brute_force_optimum(problem) -> float:
    """Exhaustive minimum max-lateness over all orders and assignments.

    A direct recursive enumeration of every (ready task, processor)
    sequence under the append-only scheduling operation — written
    independently of the engine so it can serve as an oracle.
    """
    best = math.inf

    def recurse(state):
        nonlocal best
        if state.is_goal:
            lat = max(
                state.finish[i] - problem.deadline[i] for i in range(problem.n)
            )
            best = min(best, lat)
            return
        for task in state.ready_tasks():
            for proc in range(problem.m):
                recurse(state.child(task, proc))

    recurse(root_state(problem))
    return best
