"""Seeded inputs, the pinned corpus of hard cells, and answer checking.

Two generator specs feed the benchmark: *paper* (profile ``paper``,
Section 4.1) and *hard* (the same profile with ``laxity_ratio=1.05``,
which leaves the EDF bound loose so the search has work to do).

* The *paper-stream* draws depend on the workload seed S: generator
  seeds ``1000*S + j`` for j = 0, 1, ..., the k-th kept draw solved on
  m = 2 + k mod 3 processors.  A draw is kept when its in-process
  reference solve (object engine, LIFO) is optimal within
  ``PAPER_CAP`` generated vertices, so one rare exploding draw cannot
  swing a run.  Seed 0's draws are pinned; other seeds' references are
  computed once and cached under ``perf/out/refs``.
* The *hard* sets are a corpus selected once by :func:`select` and
  pinned in ``perf/expected/seed-0.json``: scanning generator seeds
  ``1000*C + k`` over m in {2, 3, 4} and S in {LIFO, LLB}, a cell joins
  a set when its generated count falls inside the set's window, until
  the set's LIFO/LLB quotas are filled (one cell per graph per set).
  A fixed corpus keeps the per-run work of the hard workloads equal
  across workload seeds, which only reorder it.

Every graph reaches the program as a file whose SHA-256 is pinned; a
mismatch is reported as "inputs changed", never as a pass.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from perf import EXPECTED, OUT

__all__ = [
    "Cell",
    "Window",
    "SETS",
    "select",
    "draw_paper_stream",
    "load_expected",
    "write_expected",
    "paper_stream",
    "probe",
    "materialize",
    "parse_result",
    "check_answer",
]

HARD_LAXITY = 1.05
PAPER_CAP = 10_000
PAPER_DRAWS = 16
L_MAX_TOL = 1e-9
PINNED = EXPECTED / "seed-0.json"
FORMAT = "perf/expected-v1"


@dataclass(frozen=True)
class Window:
    """Generated-count window ``[lo, hi]`` and LIFO/LLB quotas of a set."""

    lo: int
    hi: int
    lifo: int
    llb: int

    def quota(self, selection: str) -> int:
        return self.lifo if selection == "LIFO" else self.llb


#: The hard sets: small cells for the slow numpy tier, mid-size cells
#: for the default engine, big cells sized for the native driver.
SETS = {
    "hard-small": Window(7_500, 15_000, 2, 2),
    "hard-mid": Window(100_000, 200_000, 3, 3),
    "hard-big": Window(800_000, 12_000_000, 3, 3),
}


@dataclass(frozen=True)
class Cell:
    """One solve input and its reference answer."""

    name: str
    spec: str
    gen_seed: int
    m: int
    selection: str
    sha256: str
    l_max: float
    generated: int

    @property
    def path(self) -> Path:
        return OUT / "inputs" / f"{self.name}.json"


def _graph(spec: str, gen_seed: int):
    from repro.workload.generator import generate_task_graph
    from repro.workload.suites import spec_for_profile

    if spec == "paper":
        workload = spec_for_profile("paper")
    elif spec == "hard":
        workload = spec_for_profile("paper", laxity_ratio=HARD_LAXITY)
    else:
        raise ValueError(f"unknown spec {spec!r}")
    return generate_task_graph(workload, seed=gen_seed)


def _graph_bytes(graph) -> bytes:
    from repro.io.json_io import graph_to_dict

    return (json.dumps(graph_to_dict(graph), sort_keys=True, indent=1) + "\n").encode()


def _reference(graph, m: int, selection: str, cap: int, engine: str = "object"):
    """In-process solve capped at ``cap`` generated vertices."""
    from repro.core.engine import BranchAndBound
    from repro.core.params import BnBParameters
    from repro.core.resources import ResourceBounds
    from repro.core.selection import SELECTION_RULES
    from repro.model.compile import compile_problem
    from repro.model.platform import shared_bus_platform

    params = BnBParameters(
        selection=SELECTION_RULES[selection](),
        resources=ResourceBounds(max_vertices=cap),
        engine=engine,
    )
    result = BranchAndBound(params).solve(
        compile_problem(graph, shared_bus_platform(m))
    )
    return result.status.value, result.best_cost, result.stats.generated


def _cell(spec, gen_seed, m, selection, data: bytes, l_max, generated) -> Cell:
    if spec == "paper":
        name = f"paper-s{gen_seed}m{m}"
    else:
        name = f"{spec}-s{gen_seed}m{m}-{selection}"
    return Cell(
        name=name,
        spec=spec,
        gen_seed=gen_seed,
        m=m,
        selection=selection,
        sha256=hashlib.sha256(data).hexdigest(),
        l_max=l_max,
        generated=generated,
    )


def select(
    corpus_seed: int,
    windows: dict[str, Window] = SETS,
    *,
    screen_engine: str = "array",
    log=None,
) -> dict[str, list[Cell]]:
    """Fill every window's quotas by scanning hard generator seeds.

    Each candidate is first counted on ``screen_engine`` (the native
    tier makes the 12M-vertex window affordable), capped at the largest
    open window; a candidate inside a window is then solved on the
    object engine, capped at that window's upper edge, and kept only if
    it is optimal with the same count.
    """
    picked: dict[str, list[Cell]] = {name: [] for name in windows}

    def open_sets(selection: str, gen_seed: int) -> list[str]:
        return [
            name
            for name, w in windows.items()
            if sum(c.selection == selection for c in picked[name]) < w.quota(selection)
            and all(c.gen_seed != gen_seed for c in picked[name])
        ]

    for k in range(1000):
        if all(len(picked[n]) == w.lifo + w.llb for n, w in windows.items()):
            return picked
        gen_seed = 1000 * corpus_seed + k
        graph = _graph("hard", gen_seed)
        data = _graph_bytes(graph)
        for m in (2, 3, 4):
            for selection in ("LIFO", "LLB"):
                names = open_sets(selection, gen_seed)
                if not names:
                    continue
                cap = max(windows[n].hi for n in names)
                status, l_max, generated = _reference(
                    graph, m, selection, cap, screen_engine
                )
                hit = [
                    n for n in names
                    if windows[n].lo <= generated <= windows[n].hi
                ]
                if status != "optimal" or not hit:
                    continue
                if screen_engine != "object":
                    status, l_max, ref_gen = _reference(
                        graph, m, selection, windows[hit[0]].hi
                    )
                    if status != "optimal" or ref_gen != generated:
                        raise RuntimeError(
                            f"hard seed {gen_seed} m={m} {selection}: "
                            f"{screen_engine} counted {generated}, the object "
                            f"engine {ref_gen} ({status})"
                        )
                cell = _cell("hard", gen_seed, m, selection, data, l_max, generated)
                picked[hit[0]].append(cell)
                if log is not None:
                    log(f"{hit[0]}: {cell.name} generated={generated}")
    raise RuntimeError(f"corpus seed {corpus_seed}: 1000 graphs did not fill the quotas")


def draw_paper_stream(
    seed: int, n: int = PAPER_DRAWS, cap: int = PAPER_CAP
) -> list[Cell]:
    """The paper-stream draws of workload seed ``seed`` with references."""
    cells: list[Cell] = []
    j = 0
    while len(cells) < n:
        m = 2 + len(cells) % 3
        gen_seed = 1000 * seed + j
        j += 1
        graph = _graph("paper", gen_seed)
        status, l_max, generated = _reference(graph, m, "LIFO", cap)
        if status == "optimal":
            cells.append(
                _cell("paper", gen_seed, m, "LIFO", _graph_bytes(graph), l_max, generated)
            )
    return cells


def _cells(rows) -> list[Cell]:
    return [Cell(**row) for row in rows]


def load_expected(path: Path = PINNED) -> dict:
    """The pinned corpus: ``{"sets": {name: [Cell]}, "paper_stream": ...}``."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != FORMAT:
        raise ValueError(f"{path}: expected format {FORMAT!r}")
    return {
        "corpus_seed": data["corpus_seed"],
        "sets": {name: _cells(rows) for name, rows in data["sets"].items()},
        "paper_stream": {
            "seed": data["paper_stream"]["seed"],
            "cells": _cells(data["paper_stream"]["cells"]),
        },
    }


def write_expected(path: Path, corpus_seed: int, sets, stream) -> None:
    """Pin ``sets`` and the paper-stream draws of seed ``corpus_seed``."""
    data = {
        "format": FORMAT,
        "corpus_seed": corpus_seed,
        "hard_laxity": HARD_LAXITY,
        "windows": {name: asdict(w) for name, w in SETS.items()},
        "sets": {name: [asdict(c) for c in cells] for name, cells in sets.items()},
        "paper_stream": {
            "seed": corpus_seed,
            "cap": PAPER_CAP,
            "cells": [asdict(c) for c in stream],
        },
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def paper_stream(seed: int, expected: dict) -> list[Cell]:
    """Pinned draws for the pinned seed, else cached or freshly drawn."""
    pinned = expected["paper_stream"]
    if seed == pinned["seed"]:
        return pinned["cells"]
    cache = OUT / "refs" / f"paper-stream-{seed}.json"
    if cache.exists():
        return _cells(json.loads(cache.read_text()))
    cells = draw_paper_stream(seed)
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps([asdict(c) for c in cells], indent=1) + "\n")
    return cells


def probe(expected: dict) -> Cell:
    """The instance every set-up measurement solves: the first pinned
    paper draw (generator seed 0, m = 2), whose root the EDF bound closes."""
    cell = expected["paper_stream"]["cells"][0]
    if cell.generated != 1:
        raise ValueError(f"probe {cell.name} is not closed at the root")
    return cell


def materialize(cell: Cell) -> str | None:
    """Write the cell's graph file; returns an error when inputs changed."""
    data = _graph_bytes(_graph(cell.spec, cell.gen_seed))
    cell.path.parent.mkdir(parents=True, exist_ok=True)
    cell.path.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    if digest != cell.sha256:
        return f"inputs changed: {cell.name} sha256 {digest[:12]} != pinned {cell.sha256[:12]}"
    return None


_RESULT = re.compile(
    r"^(?P<status>[a-z-]+): L_max=(?P<l_max>\S+) .*?generated=(?P<generated>\d+)",
    re.M,
)


def parse_result(stdout: str) -> dict | None:
    """The status, L_max and generated count of a ``repro solve`` output."""
    match = _RESULT.search(stdout)
    if match is None:
        return None
    l_max = match["l_max"]
    return {
        "status": match["status"],
        "l_max": None if l_max == "-" else float(l_max),
        "generated": int(match["generated"]),
    }


def check_answer(
    cell: Cell, got: dict | None, *, exact_count: bool, printed: bool
) -> str | None:
    """None when ``got`` matches the reference, else the reason it fails.

    ``printed`` answers went through the CLI's ``%g`` formatting, so
    they are compared with the reference formatted the same way.
    """
    if got is None:
        return "no result line"
    if got["status"] != "optimal":
        return f"status {got['status']}"
    want = float(format(cell.l_max, "g")) if printed else cell.l_max
    if got["l_max"] is None or abs(got["l_max"] - want) > L_MAX_TOL:
        return f"L_max {got['l_max']} != {want}"
    if exact_count and got["generated"] != cell.generated:
        return f"generated {got['generated']} != {cell.generated}"
    return None
