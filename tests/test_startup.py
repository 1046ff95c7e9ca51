"""Start-up: ``repro solve`` imports only the tier and observers it runs.

Most of a root-closed solve's wall time is interpreter start and
imports, so the heavy modules -- numpy and the native kernel, the HTTP
monitor, the process pool, the experiment harness and the cluster --
are imported by the tier or flag that uses them.  Each footprint test
runs one CLI solve in a fresh interpreter and reads its
``sys.modules``.  The package re-exports resolve on first access, to
the very objects their submodules define.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

from faultlib import _cli_env
from repro.io import save_graph
from repro.workload import generate_task_graph
from repro.workload.suites import spec_for_profile

#: Modules a solve that never searches has no use for.
HEAVY = (
    "numpy",
    "ctypes",
    "http.server",
    "multiprocessing",
    "concurrent.futures",
    "repro.core._native",
    "repro.experiments",
    "repro.cluster",
)

_SOLVE_AND_LIST_MODULES = """
import json, sys
from repro.cli import main

code = main(sys.argv[2:])
print(json.dumps({"code": code, "loaded": sorted(
    name for name in json.loads(sys.argv[1]) if name in sys.modules
)}))
"""


def _solve(graph, *flags, watch=HEAVY):
    """Run ``repro solve GRAPH -m 2 FLAGS`` in a fresh interpreter.

    Returns its stdout lines, whose last is the subset of ``watch``
    left in ``sys.modules``.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVE_AND_LIST_MODULES, json.dumps(watch),
         "solve", str(graph), "-m", "2", *flags],
        capture_output=True, text=True, timeout=120, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    report = json.loads(last)
    assert report["code"] == 0
    return lines, set(report["loaded"])


def _paper_graph(tmp_path, seed: int):
    path = tmp_path / f"paper-s{seed}.json"
    save_graph(generate_task_graph(spec_for_profile("paper"), seed=seed), path)
    return path


def test_root_closed_solve_imports_nothing_heavy(tmp_path):
    # Paper seed 0 at m=2: the EDF bound closes the root.
    lines, loaded = _solve(_paper_graph(tmp_path, 0))
    assert "engine: fused (fallback: root closed by the initial upper bound)" in lines
    assert loaded == set()


def test_searching_solve_loads_the_kernel_only(tmp_path):
    # Paper seed 13 at m=2: the root survives EDF, so the native tier
    # is chosen (or refused by the kernel's own availability).
    lines, loaded = _solve(_paper_graph(tmp_path, 13))
    assert any(line.startswith("engine: native") or "kernel unavailable" in line
               for line in lines), lines
    assert "repro.core._native" in loaded
    assert not loaded & {"http.server", "multiprocessing", "repro.experiments"}


def test_serve_status_loads_the_http_server(tmp_path):
    _, loaded = _solve(
        _paper_graph(tmp_path, 0), "--serve-status", "0",
        watch=("http.server",),
    )
    assert loaded == {"http.server"}


# ---------------------------------------------------------------------------
# Lazy package exports
# ---------------------------------------------------------------------------

LAZY_PACKAGES = ("repro", "repro.core", "repro.obs", "repro.io")


def _submodules(package):
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        yield importlib.import_module(info.name)


_IMPORT_PACKAGES = """
import json, sys

packages = [__import__(name, fromlist=["_"]) for name in sys.argv[1:]]
print(json.dumps({
    "undir": [n for p in packages for n in p.__all__ if n not in dir(p)],
    "loaded": sorted(
        m for m in sys.modules
        if m.startswith("repro.") and m not in sys.argv
        and m not in ("repro._lazy", "repro.obs.events")
    ),
}))
"""


def test_importing_the_packages_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PACKAGES, *LAZY_PACKAGES],
        capture_output=True, text=True, timeout=60, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # Every lazy name is listed before anything resolved it.
    assert json.loads(proc.stdout) == {"undir": [], "loaded": []}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_its_submodules_object(name):
    package = importlib.import_module(name)
    modules = list(_submodules(package))
    listed = set(dir(package))
    for export in package.__all__:
        assert export in listed, export
        obj = getattr(package, export)
        home = getattr(obj, "__module__", None)
        if export == "__version__" or home == name:
            continue  # defined in the package itself
        binders = {m.__name__ for m in modules if vars(m).get(export) is obj}
        assert binders, f"{name}.{export} is no submodule's object"
        if isinstance(home, str) and home.startswith("repro."):
            assert home in binders, (export, home, binders)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_expand_forwards_the_batch_expander():
    import repro.core.batch as batch
    import repro.core.expand as expand
    from repro.core.params import BnBParameters
    from repro.model import compile_problem, shared_bus_platform

    params = BnBParameters()
    problem = compile_problem(
        generate_task_graph(spec_for_profile("tiny"), seed=1),
        shared_bus_platform(2),
    )
    built = expand.make_batch_expander(
        problem, params.branching.prepare(problem), params.lower_bound,
        params.characteristic, params.dominance.fresh(), params.elimination,
        params.break_symmetry,
    )
    assert type(built) is expand.BatchExpander is batch.BatchExpander
    assert expand.make_batch_expander is batch.make_batch_expander
    assert "BatchExpander" in dir(expand)
