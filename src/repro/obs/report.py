"""Offline analysis of JSONL trace files (the ``repro report`` command).

:func:`load_trace` parses a file written by
:class:`~repro.obs.events.JsonlSink` into a :class:`TraceReport`;
:func:`render_trace_report` turns it into the text the CLI prints:
event inventory, the anytime (incumbent-convergence) profile, the
per-phase time table when the run was profiled, and the final search
statistics.  Parsing is line-tolerant — blank and malformed lines are
counted and skipped, so a trace truncated by a crash still reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any

from ..core.stats import describe_engine
from .profile import PhaseBreakdown

__all__ = ["TraceReport", "load_trace", "render_trace_report"]


@dataclass
class TraceReport:
    """Everything ``repro report`` needs from one JSONL trace."""

    path: str
    #: Events per kind (post-sampling — what is actually in the file).
    counts: dict[str, int] = field(default_factory=dict)
    #: The ``start`` event payload, if present.
    start: dict[str, Any] | None = None
    #: The final ``summary`` event payload, if present.
    summary: dict[str, Any] | None = None
    #: (generated, cost) incumbent improvements, in file order.
    incumbents: list[tuple[int, float]] = field(default_factory=list)
    #: (elapsed, generated, cost) for incumbent events carrying a
    #: timestamp — the improvement timeline.
    incumbent_timeline: list[tuple[float, int, float]] = field(
        default_factory=list
    )
    #: (cause, level, count) from sampled prune events; ``level`` is
    #: None for events that span depths (active-sweep).
    prunes: list[tuple[str, int | None, int]] = field(default_factory=list)
    #: (t, generated, level, lower_bound, active) sampled explore events.
    explores: list[tuple[float, int, int, float, int]] = field(
        default_factory=list
    )
    #: Resource events (TIMELIMIT / MAXSZAS / MAXSZDB / MAXVERT).
    resources: list[dict[str, Any]] = field(default_factory=list)
    #: The post-solve transposition-table telemetry event, if present.
    tt: dict[str, Any] | None = None
    #: Checkpoint-written events, in file order.
    checkpoints: list[dict[str, Any]] = field(default_factory=list)
    #: The resume event, if this run restarted from a snapshot.
    resume: dict[str, Any] | None = None
    #: Worker-restart events from the parallel supervisor.
    worker_restarts: list[dict[str, Any]] = field(default_factory=list)
    #: Shard-retry events (requeues after a worker death).
    shard_retries: list[dict[str, Any]] = field(default_factory=list)
    #: Quarantine events (shards abandoned after repeated failures).
    quarantines: list[dict[str, Any]] = field(default_factory=list)
    #: Cluster membership events from the distributed coordinator.
    worker_joins: list[dict[str, Any]] = field(default_factory=list)
    worker_leaves: list[dict[str, Any]] = field(default_factory=list)
    #: Lease expiries (silent workers whose shards were re-queued).
    lease_expiries: list[dict[str, Any]] = field(default_factory=list)
    #: Work-steal events (backlog shards revoked and reassigned).
    steals: list[dict[str, Any]] = field(default_factory=list)
    #: Wall-clock seconds from solve start to the first incumbent.
    first_incumbent_elapsed: float | None = None
    #: Lines that failed to parse as JSON objects.
    malformed_lines: int = 0

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    def anytime_profile(self) -> list[tuple[int, float]]:
        """(generated, best cost) steps, starting at the initial bound."""
        profile: list[tuple[int, float]] = []
        if self.start is not None and self.start.get("initial_bound") is not None:
            profile.append((0, float(self.start["initial_bound"])))
        profile.extend(self.incumbents)
        return profile

    def pruning_by_depth(self) -> dict[str, dict[int, int]]:
        """``cause -> {level: count}`` from the sampled prune events.

        Counts are post-sampling (what the trace actually holds), so
        with ``--trace-sample > 1`` they attribute *where* pruning
        happens rather than totalling it — the summary's exact counters
        remain the totals of record.
        """
        out: dict[str, dict[int, int]] = {}
        for cause, level, count in self.prunes:
            if level is None:
                continue
            per_level = out.setdefault(cause, {})
            per_level[level] = per_level.get(level, 0) + count
        return out

    def explored_by_level(self) -> dict[int, int]:
        """``level -> sampled explore-event count`` (branching shape)."""
        out: dict[int, int] = {}
        for _t, _generated, level, _lb, _active in self.explores:
            out[level] = out.get(level, 0) + 1
        return out

    def branching_decay(self) -> list[tuple[int, int, float | None]]:
        """(level, sampled explores, growth vs previous level).

        The growth column is the per-level ratio of sampled explore
        counts — a proxy for how fast pruning collapses the effective
        branching factor as the search deepens.
        """
        by_level = self.explored_by_level()
        rows: list[tuple[int, int, float | None]] = []
        prev: int | None = None
        for level in sorted(by_level):
            count = by_level[level]
            growth = count / prev if prev else None
            rows.append((level, count, growth))
            prev = count
        return rows

    def phase_breakdown(self) -> PhaseBreakdown | None:
        if self.summary is None or not self.summary.get("profile"):
            return None
        prof = self.summary["profile"]
        return PhaseBreakdown(
            phases=tuple((name, float(s), 0) for name, s in prof.items())
        )


def load_trace(path_or_file: str | IO[str]) -> TraceReport:
    """Parse a JSONL trace file into a :class:`TraceReport`."""
    if hasattr(path_or_file, "read"):
        return _parse(path_or_file, getattr(path_or_file, "name", "<stream>"))
    with open(path_or_file) as fh:
        return _parse(fh, str(path_or_file))


def _parse(fh: IO[str], path: str) -> TraceReport:
    report = TraceReport(path=path)
    for line in fh:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            kind = record["ev"]
        except (ValueError, KeyError, TypeError):
            report.malformed_lines += 1
            continue
        report.counts[kind] = report.counts.get(kind, 0) + 1
        if kind == "start":
            report.start = record
        elif kind == "summary":
            report.summary = record
        elif kind == "incumbent":
            generated = int(record.get("generated", 0))
            cost = float(record["cost"])
            report.incumbents.append((generated, cost))
            if record.get("elapsed") is not None:
                elapsed = float(record["elapsed"])
                report.incumbent_timeline.append(
                    (elapsed, generated, cost)
                )
                if report.first_incumbent_elapsed is None:
                    report.first_incumbent_elapsed = elapsed
        elif kind == "prune":
            level = record.get("level")
            report.prunes.append(
                (
                    str(record.get("cause", "?")),
                    int(level) if level is not None else None,
                    int(record.get("count", 1)),
                )
            )
        elif kind == "explore":
            report.explores.append(
                (
                    float(record.get("t", 0.0)),
                    int(record.get("generated", 0)),
                    int(record.get("level", 0)),
                    float(record.get("lb", 0.0)),
                    int(record.get("active", 0)),
                )
            )
        elif kind == "resource":
            report.resources.append(record)
        elif kind == "tt":
            report.tt = record
        elif kind == "checkpoint":
            report.checkpoints.append(record)
        elif kind == "resume":
            report.resume = record
        elif kind == "worker_restart":
            report.worker_restarts.append(record)
        elif kind == "shard_retry":
            report.shard_retries.append(record)
        elif kind == "quarantine":
            report.quarantines.append(record)
        elif kind == "worker_join":
            report.worker_joins.append(record)
        elif kind == "worker_leave":
            report.worker_leaves.append(record)
        elif kind == "lease_expired":
            report.lease_expiries.append(record)
        elif kind == "steal":
            report.steals.append(record)
    return report


#: Per-rule attribution of the engine's pruning counters: the stats key
#: and which of the 9-tuple's knobs (or engine mechanism) discarded the
#: vertex.
_PRUNE_RULES = (
    ("pruned_children", "elimination E (bound vs threshold)"),
    ("pruned_active", "incumbent sweep (U/DBAS)"),
    ("pruned_dominated", "dominance D"),
    ("pruned_duplicate", "transposition (duplicate state)"),
    ("pruned_infeasible", "characteristic F"),
)


def _simple_table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _render_robustness(report: TraceReport) -> list[str]:
    """The fault-tolerance section: empty when the run had none of it."""
    any_fault = (
        report.checkpoints
        or report.resume is not None
        or report.worker_restarts
        or report.shard_retries
        or report.quarantines
        or report.worker_joins
        or report.worker_leaves
        or report.lease_expiries
        or report.steals
    )
    if not any_fault and report.first_incumbent_elapsed is None:
        return []
    out = ["robustness:"]
    if report.first_incumbent_elapsed is not None:
        out.append(
            "  time to first incumbent: "
            f"{report.first_incumbent_elapsed:.3f}s"
        )
    if report.checkpoints:
        last = report.checkpoints[-1]
        out.append(
            f"  checkpoints written: {len(report.checkpoints)} "
            f"(last: version {last.get('version', '?')} at "
            f"{last.get('explored', '?')} explored)"
        )
    if report.resume is not None:
        res = report.resume
        out.append(
            f"  resumed from: version {res.get('version', '?')} "
            f"({res.get('explored', '?')} explored / "
            f"{res.get('generated', '?')} generated before the restart)"
        )
    if report.worker_restarts:
        causes = sorted(
            {str(r.get("cause", "?")) for r in report.worker_restarts}
        )
        out.append(
            f"  worker restarts: {len(report.worker_restarts)} "
            f"({', '.join(causes)})"
        )
    if report.worker_joins or report.worker_leaves:
        names = sorted(
            {str(j.get("worker", "?")) for j in report.worker_joins}
        )
        shown = ", ".join(names[:8]) + ("…" if len(names) > 8 else "")
        out.append(
            f"  cluster membership: {len(report.worker_joins)} join(s), "
            f"{len(report.worker_leaves)} leave(s) ({shown})"
        )
    if report.lease_expiries:
        workers = sorted(
            {str(e.get("worker", "?")) for e in report.lease_expiries}
        )
        out.append(
            f"  lease expiries: {len(report.lease_expiries)} "
            f"({', '.join(workers)}) — in-flight shards re-queued"
        )
    if report.steals:
        out.append(
            f"  work steals: {len(report.steals)} "
            "(idle workers re-balanced the prefetch backlog)"
        )
    if report.shard_retries:
        out.append(f"  shard retries: {len(report.shard_retries)}")
    if report.quarantines:
        shards = ", ".join(
            str(q.get("shard", "?")) for q in report.quarantines
        )
        out.append(
            f"  quarantined shards: {len(report.quarantines)} "
            f"({shards}) — result is a bound, not proven optimal"
        )
    return out


def _render_analytics(report: TraceReport, max_rows: int = 20) -> list[str]:
    """Search-tree analytics: where vertices went, rule by depth band."""
    out: list[str] = []

    timeline = report.incumbent_timeline
    if timeline:
        out.append("")
        out.append("incumbent timeline:")
        rows = [("elapsed", "generated", "cost")]
        shown = timeline
        omitted = 0
        if len(shown) > max_rows:
            shown = timeline[: max_rows - 1] + [timeline[-1]]
            omitted = len(timeline) - len(shown)
        rows += [
            (f"{t:.3f}s", f"{g:,}", f"{c:g}") for t, g, c in shown
        ]
        out.append(_simple_table(rows))
        if omitted:
            out.append(f"(… {omitted} intermediate improvements omitted)")

    by_depth = report.pruning_by_depth()
    if by_depth:
        levels = [
            level for per in by_depth.values() for level in per
        ]
        max_level = max(levels)
        band = max(1, -(-(max_level + 1) // 6))  # ceil: at most 6 bands
        causes = sorted(
            by_depth, key=lambda c: -sum(by_depth[c].values())
        )
        out.append("")
        out.append("pruning by depth band (sampled events):")
        rows = [("levels",) + tuple(causes)]
        for lo in range(0, max_level + 1, band):
            hi = min(lo + band - 1, max_level)
            label = f"{lo}" if lo == hi else f"{lo}-{hi}"
            cells = []
            for cause in causes:
                per = by_depth[cause]
                total = sum(
                    count
                    for level, count in per.items()
                    if lo <= level <= hi
                )
                cells.append(f"{total:,}" if total else "-")
            rows.append((label,) + tuple(cells))
        out.append(_simple_table(rows))

    decay = report.branching_decay()
    if len(decay) > 1:
        out.append("")
        out.append("branching-factor decay (sampled explores per level):")
        rows = [("level", "explored", "growth")]
        for level, count, growth in decay:
            rows.append(
                (
                    str(level),
                    f"{count:,}",
                    "-" if growth is None else f"{growth:.2f}x",
                )
            )
        out.append(_simple_table(rows))

    return out


def render_trace_report(report: TraceReport, max_profile_rows: int = 20) -> str:
    """Human-readable rendering of one trace (anytime + phases + stats)."""
    out: list[str] = [f"trace: {report.path}"]

    if report.start is not None:
        bits = []
        if report.start.get("n") is not None:
            bits.append(f"{report.start['n']} tasks")
        if report.start.get("m") is not None:
            bits.append(f"{report.start['m']} processors")
        if report.start.get("initial_bound") is not None:
            bits.append(f"U={report.start['initial_bound']:g}")
        if bits:
            out.append("run: " + ", ".join(bits))
        if report.start.get("params"):
            out.append(f"parameters: {report.start['params']}")

    kinds = ", ".join(
        f"{k}={report.counts[k]}" for k in sorted(report.counts)
    )
    out.append(f"events: {report.total_events} ({kinds})")
    if report.malformed_lines:
        out.append(f"warning: skipped {report.malformed_lines} malformed lines")

    profile = report.anytime_profile()
    if profile:
        out.append("")
        out.append("anytime profile (incumbent cost by generated vertices):")
        rows = [("generated", "cost")]
        shown = profile
        if len(shown) > max_profile_rows:
            head = shown[: max_profile_rows - 1]
            rows_src = head + [shown[-1]]
            omitted = len(shown) - len(rows_src)
        else:
            rows_src = shown
            omitted = 0
        rows += [(f"{g:,}", f"{c:g}") for g, c in rows_src]
        out.append(_simple_table(rows))
        if omitted:
            out.append(f"(… {omitted} intermediate improvements omitted)")

    breakdown = report.phase_breakdown()
    if breakdown is not None:
        elapsed = None
        if report.summary is not None:
            elapsed = (report.summary.get("stats") or {}).get("elapsed")
        out.append("")
        out.append("phase profile:")
        out.append(breakdown.as_table(elapsed))

    if report.resources:
        out.append("")
        out.append("resource events:")
        for rec in report.resources:
            kind = rec.get("kind", "?")
            detail = rec.get("detail", "")
            out.append(f"  {kind} {detail}".rstrip())

    robustness = _render_robustness(report)
    if robustness:
        out.append("")
        out.extend(robustness)

    stats_for_pruning = (report.summary or {}).get("stats") or {}
    pruned_total = sum(
        int(stats_for_pruning.get(key, 0)) for key, _ in _PRUNE_RULES
    )
    if pruned_total:
        out.append("")
        out.append("pruning breakdown by rule:")
        rows = [("rule", "pruned", "share")]
        for key, label in _PRUNE_RULES:
            count = int(stats_for_pruning.get(key, 0))
            if count:
                rows.append(
                    (label, f"{count:,}", f"{count / pruned_total:.1%}")
                )
        out.append(_simple_table(rows))

    out.extend(_render_analytics(report, max_rows=max_profile_rows))

    if report.tt is not None:
        tt = report.tt
        probes = int(tt.get("tt_hits", 0)) + int(tt.get("tt_misses", 0))
        hit_rate = (
            f" ({tt.get('tt_hits', 0) / probes:.1%} hit rate)"
            if probes else ""
        )
        out.append("")
        out.append("transposition table:")
        out.append(
            f"  duplicates pruned: {tt.get('duplicate_pruned', 0):,}"
            f"{hit_rate}"
        )
        out.append(
            f"  probes: {probes:,} "
            f"(hits={tt.get('tt_hits', 0):,} "
            f"misses={tt.get('tt_misses', 0):,} "
            f"collisions={tt.get('tt_collisions', 0):,})"
        )
        out.append(
            f"  store: {tt.get('tt_filled', 0):,}/"
            f"{tt.get('tt_capacity', 0):,} entries "
            f"(inserts={tt.get('tt_inserts', 0):,} "
            f"evictions={tt.get('tt_evictions', 0):,} "
            f"rejects={tt.get('tt_rejects', 0):,})"
        )

    if report.summary is not None:
        out.append("")
        status = report.summary.get("status", "?")
        cost = report.summary.get("best_cost")
        cost_s = "-" if cost is None else f"{cost:g}"
        out.append(f"result: {status} L_max={cost_s}")
        if report.summary.get("engine_path"):
            out.append(
                "engine: "
                + describe_engine(
                    report.summary["engine_path"],
                    report.summary.get("engine_fallback"),
                )
            )
        stats = report.summary.get("stats") or {}
        if stats:
            pairs = " ".join(
                f"{k}={stats[k]}" for k in sorted(stats) if k != "elapsed"
            )
            if stats.get("elapsed") is not None:
                pairs += f" elapsed={stats['elapsed']:.3f}s"
            out.append(f"stats: {pairs}")

    return "\n".join(out)
