"""Micro-benchmarks of the search hot path.

Classic pytest-benchmark timing (many rounds) of the operations the
engine performs millions of times: child-state creation, lower-bound
evaluation, and the polynomial substrates (EDF, list scheduling).  These
are the numbers to watch when optimizing the engine.
"""

import pytest

from repro.core import LB0, LB1, LB2, BnBParameters, BranchAndBound, root_state
from repro.core.resources import ResourceBounds
from repro.model import compile_problem, shared_bus_platform
from repro.scheduling import edf_schedule, hlfet_schedule
from repro.workload import generate_task_graph, paper_spec


@pytest.fixture(scope="module")
def prob():
    graph = generate_task_graph(paper_spec(), seed=1)
    return compile_problem(graph, shared_bus_platform(3))


@pytest.fixture(scope="module")
def midstate(prob):
    st = root_state(prob)
    while st.level < prob.n // 2:
        st = st.child(st.ready_tasks()[0], st.level % prob.m)
    return st


@pytest.mark.benchmark(group="micro")
def test_child_state_creation(benchmark, prob, midstate):
    task = midstate.ready_tasks()[0]
    benchmark(midstate.child, task, 0)


@pytest.mark.benchmark(group="micro")
def test_lb0_evaluation(benchmark, midstate):
    benchmark(LB0().evaluate, midstate)


@pytest.mark.benchmark(group="micro")
def test_lb1_evaluation(benchmark, midstate):
    benchmark(LB1().evaluate, midstate)


@pytest.mark.benchmark(group="micro")
def test_lb2_evaluation(benchmark, midstate):
    benchmark(LB2().evaluate, midstate)


@pytest.mark.benchmark(group="micro")
def test_signature_incremental(benchmark, prob, midstate):
    """Placement + O(1) signature update — the transposition hot path."""
    task = midstate.ready_tasks()[0]

    def place_and_sign():
        return midstate.child(task, 0).signature()

    benchmark(place_and_sign)


@pytest.mark.benchmark(group="micro")
def test_signature_probe_without_child(benchmark, prob, midstate):
    """The fused path's child-free probe arithmetic alone."""
    from repro.core.transposition import child_signature

    task = midstate.ready_tasks()[0]
    child = midstate.child(task, 0)
    start = child.start[task]
    benchmark(child_signature, midstate, task, 0, start)


@pytest.mark.benchmark(group="micro")
def test_signature_from_scratch(benchmark, prob, midstate):
    """Full accumulator rebuild — what every placement would cost
    without the incremental update."""
    child = midstate.child(midstate.ready_tasks()[0], 0)
    benchmark(child.signature_from_scratch)


@pytest.mark.benchmark(group="micro")
def test_edf_schedule(benchmark, prob):
    benchmark(edf_schedule, prob)


@pytest.mark.benchmark(group="micro")
def test_hlfet_schedule(benchmark, prob):
    benchmark(hlfet_schedule, prob)


@pytest.mark.benchmark(group="micro")
def test_compile_problem(benchmark):
    graph = generate_task_graph(paper_spec(), seed=2)
    plat = shared_bus_platform(3)
    benchmark(compile_problem, graph, plat)


# ---------------------------------------------------------------------------
# Batch kernels (array engine hot path)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_inputs(prob, midstate):
    """One realistic expansion batch: every ready task x every proc."""
    import numpy as np

    from repro.core.arena import ArenaProblem

    ap = ArenaProblem(prob)
    tasks = np.asarray(midstate.ready_tasks(), dtype=np.int64)
    procs = np.arange(prob.m, dtype=np.int64)
    proc_row = np.asarray(midstate.proc_of, dtype=np.int8)
    finish_row = np.asarray(midstate.finish, dtype=np.float64)
    avail_row = np.asarray(midstate.avail, dtype=np.float64)
    return ap, proc_row, finish_row, avail_row, tasks, procs


@pytest.mark.benchmark(group="micro-batch")
def test_batch_earliest_starts(benchmark, batch_inputs):
    from repro.core.expand import batch_earliest_starts

    ap, proc_row, finish_row, avail_row, tasks, procs = batch_inputs
    S, F = benchmark(
        batch_earliest_starts, ap, proc_row, finish_row, avail_row,
        tasks, procs,
    )
    assert S.shape == (len(tasks), len(procs))
    assert (F >= S).all()


@pytest.mark.benchmark(group="micro-batch")
def test_batch_admission(benchmark, batch_inputs):
    import math

    from repro.core.expand import batch_admission, batch_earliest_starts

    ap, proc_row, finish_row, avail_row, tasks, procs = batch_inputs
    S, F = batch_earliest_starts(
        ap, proc_row, finish_row, avail_row, tasks, procs
    )
    skip, floor = benchmark(
        batch_admission, ap, S, F, tasks, -math.inf, math.inf, True,
        ap.domain.exact,
    )
    assert skip.shape == floor.shape == S.shape


@pytest.mark.benchmark(group="micro-batch")
def test_batch_bound_repair(benchmark, batch_inputs):
    """lmin update + LB1 fast-path classification for one batch."""
    import numpy as np

    from repro.core.expand import batch_lb_fast, batch_lmin

    ap, proc_row, finish_row, avail_row, tasks, procs = batch_inputs
    est_tasks = avail_row.min() + ap.wcet[tasks] * 0.0
    F = (avail_row.min() + ap.wcet[tasks])[:, None].repeat(
        len(procs), axis=1
    )
    floor = F - 1.0
    parent_lmin = float(avail_row.min())
    nmin = int(np.count_nonzero(avail_row == parent_lmin))
    lmin2 = float(np.partition(avail_row, 1)[1]) if len(avail_row) > 1 \
        else parent_lmin

    def repair():
        lmin, changed = batch_lmin(avail_row, parent_lmin, nmin, lmin2, F)
        return batch_lb_fast(
            est_tasks, F, floor.copy(), True, changed, F, lmin
        )

    fast, _ = benchmark(repair)
    assert fast.shape == F.shape


@pytest.mark.benchmark(group="micro")
def test_full_solve_small_instance(benchmark):
    """End-to-end solve of one fixed moderately hard instance."""
    from repro.workload import scaled_spec

    # Seed 11 is a genuinely hard instance (~2k generated vertices).
    graph = generate_task_graph(scaled_spec(), seed=11)
    prob = compile_problem(graph, shared_bus_platform(2))
    params = BnBParameters.paper_default(
        resources=ResourceBounds(max_vertices=100_000)
    )

    def solve_once():
        return BranchAndBound(params).solve(prob)

    result = benchmark(solve_once)
    assert result.found_solution


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize(
    "native", [True, False], ids=["array", "array-no-native"]
)
def test_full_solve_small_instance_array(benchmark, monkeypatch, native):
    """The same instance through the array engine's two tiers (compare groups)."""
    from repro.core import _native
    from repro.workload import scaled_spec

    if not native:
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_LIB_TRIED", True)
    graph = generate_task_graph(scaled_spec(), seed=11)
    prob = compile_problem(graph, shared_bus_platform(2))
    params = BnBParameters.paper_default(
        resources=ResourceBounds(max_vertices=100_000), engine="array"
    )

    def solve_once():
        return BranchAndBound(params).solve(prob)

    result = benchmark(solve_once)
    assert result.found_solution
