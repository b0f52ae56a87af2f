"""Performance metrics derived from round traces, aggregated across seeds.

Stability period runs until the first node death, network lifetime until
the last; the instability period is the gap between them. Runs that hit
the round cap with survivors are censored: their lifetime reads as the cap
and comparisons should usually exclude them.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, fields
from typing import Iterable, TextIO

from .engine import RoundMetrics, SimulationResult, death_round


def _rounds_before(trace: list[RoundMetrics], dead: int) -> int:
    """Index of the first round with `dead` nodes dead; trace length if none."""
    if not trace:
        raise ValueError("empty trace")
    found = death_round(trace, dead)
    return len(trace) if found is None else found


def stability_period(trace: list[RoundMetrics]) -> int:
    """Rounds before the first death: index of the first round with dead > 0."""
    return _rounds_before(trace, 1)


def network_lifetime(trace: list[RoundMetrics], n_nodes: int) -> int:
    """Round index at which the last node died; trace length if censored."""
    return _rounds_before(trace, n_nodes)


def instability_period(trace: list[RoundMetrics], n_nodes: int) -> int:
    """Rounds between the first and the last death."""
    return network_lifetime(trace, n_nodes) - stability_period(trace)


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class SummaryStats:
    """Seed-aggregated metrics for one protocol (sample stddev; 0 for one run)."""

    protocol: str
    n_runs: int
    n_censored: int
    stability_period: MeanStd
    instability_period: MeanStd
    network_lifetime: MeanStd
    total_packets_to_bs: MeanStd
    mean_ch_count: MeanStd
    ch_count_stddev: MeanStd


def _mean_std(values: list[float]) -> MeanStd:
    if len(values) == 1:
        return MeanStd(mean=float(values[0]), std=0.0)
    return MeanStd(mean=statistics.fmean(values), std=statistics.stdev(values))


def run_metrics(result: SimulationResult) -> dict[str, str | bool | float]:
    """One run's row for `aggregate`: its protocol, whether it was censored,
    and its scalar metrics."""
    trace = result.trace
    ch_counts = [m.ch_count for m in trace]
    return {
        "protocol": result.protocol,
        "censored": result.censored,
        "stability_period": stability_period(trace),
        "instability_period": instability_period(trace, result.n_nodes),
        "network_lifetime": network_lifetime(trace, result.n_nodes),
        "total_packets_to_bs": result.total_packets_to_bs,
        "mean_ch_count": statistics.fmean(ch_counts) if ch_counts else 0.0,
        "ch_count_stddev": statistics.stdev(ch_counts) if len(ch_counts) > 1 else 0.0,
    }


_METRIC_FIELDS = tuple(f.name for f in fields(SummaryStats) if f.type == "MeanStd")


def aggregate(rows: Iterable[dict]) -> list[SummaryStats]:
    """Per-protocol run count, censored count, and mean and sample stddev of
    each metric, over `run_metrics` rows in protocol order of first appearance."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["protocol"], []).append(row)
    if not groups:
        raise ValueError("no runs to aggregate")
    out = []
    for protocol, group in groups.items():
        stats = {name: _mean_std([row[name] for row in group])
                 for name in _METRIC_FIELDS}
        out.append(SummaryStats(
            protocol=protocol,
            n_runs=len(group),
            n_censored=sum(1 for row in group if row["censored"]),
            **stats,
        ))
    return out


def write_summary_stats_csv(stats: list[SummaryStats], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    header = ["protocol", "n_runs", "n_censored"]
    for name in _METRIC_FIELDS:
        header += [f"{name}_mean", f"{name}_std"]
    writer.writerow(header)
    for s in stats:
        row = [s.protocol, s.n_runs, s.n_censored]
        for name in _METRIC_FIELDS:
            ms: MeanStd = getattr(s, name)
            row += [repr(ms.mean), repr(ms.std)]
        writer.writerow(row)
