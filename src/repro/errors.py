"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "CycleError",
    "UnknownTaskError",
    "UnknownChannelError",
    "InvalidScheduleError",
    "WorkloadError",
    "SpecificationError",
    "GenerationError",
    "DeadlineAssignmentError",
    "ConfigurationError",
    "SerializationError",
    "ProblemFormatError",
    "CheckpointError",
    "ClusterError",
    "TransportClosed",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


# ---------------------------------------------------------------------------
# Model layer
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """A task-system or platform model is malformed."""


class CycleError(ModelError):
    """The precedence relation is not an irreflexive partial order.

    Raised when a task graph contains a directed cycle (including
    self-loops), which would make the partial order ``<`` reflexive or
    non-antisymmetric.
    """

    def __init__(self, cycle: list[str] | None = None) -> None:
        self.cycle = list(cycle) if cycle else []
        if self.cycle:
            msg = "task graph contains a cycle: " + " -> ".join(self.cycle)
        else:
            msg = "task graph contains a cycle"
        super().__init__(msg)


class UnknownTaskError(ModelError, KeyError):
    """A task name was referenced that is not part of the graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown task: {name!r}")

    def __str__(self) -> str:  # KeyError quotes its args; keep it readable.
        return f"unknown task: {self.name!r}"


class UnknownChannelError(ModelError, KeyError):
    """A communication channel was referenced that does not exist."""

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        super().__init__(f"unknown channel: {src!r} -> {dst!r}")

    def __str__(self) -> str:
        return f"unknown channel: {self.src!r} -> {self.dst!r}"


class InvalidScheduleError(ModelError):
    """A schedule violates a validity condition.

    Carries the list of human-readable violations so that callers (and
    tests) can assert on the precise failure mode.
    """

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__(
            "invalid schedule: " + "; ".join(self.violations)
            if self.violations
            else "invalid schedule"
        )


# ---------------------------------------------------------------------------
# Workload layer
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """Workload specification or generation failed."""


class SpecificationError(WorkloadError, ValueError):
    """A workload specification is self-contradictory or out of range."""


class GenerationError(WorkloadError):
    """The random generator could not realize the requested specification."""


class DeadlineAssignmentError(WorkloadError):
    """Deadline slicing failed (e.g. end-to-end deadline below workload)."""


# ---------------------------------------------------------------------------
# Configuration, I/O and distribution
# ---------------------------------------------------------------------------


class ConfigurationError(ReproError, ValueError):
    """A parameter combination is invalid (e.g. BR < 0)."""


class SerializationError(ReproError):
    """Serialized data could not be parsed or written."""


class ProblemFormatError(SerializationError):
    """A problem-input file (STG, JSON graph, …) is malformed.

    Subclasses :class:`SerializationError`, so existing handlers keep
    working, and adds structured ``path``/``line`` context so tooling
    (and humans) can locate the defect without re-parsing the file.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        line: int | None = None,
    ) -> None:
        self.path = path
        self.line = line
        self.reason = message
        where = path or "<input>"
        if line is not None:
            where += f", line {line}"
        super().__init__(f"{where}: {message}")


class CheckpointError(ReproError):
    """A search checkpoint could not be written, read, or applied.

    Raised on corrupt/truncated snapshot files, unsupported format
    versions, and fingerprint mismatches (resuming against a different
    problem or parametrization).
    """


class ClusterError(ReproError):
    """The distributed coordinator/worker layer hit a fatal condition.

    Covers protocol violations (version or fingerprint mismatch at
    handshake), a coordinator that never sees a worker join, and
    malformed frames.  *Transient* failures — dead workers, dropped
    frames, partitions — are handled by lease expiry and shard
    re-queuing, never raised.
    """


class TransportClosed(ClusterError):
    """The peer closed the connection (EOF or broken pipe).

    The cluster layer's normal worker-death signal: callers treat it as
    a membership event, not a crash.
    """
