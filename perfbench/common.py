"""The record a workload's measure() returns, and the process's peak memory."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Outcome:
    """What one measured pass of a workload produced."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    # printed on the first stdout line, before the metrics
    notes: Dict[str, object] = field(default_factory=dict)
    # workload-specific inputs of the per-layer metrics
    raw: Dict[str, object] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MiB.

    Not ``ru_maxrss``: Linux carries that across exec, so a process
    started from a larger one would report the larger one's peak.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")
