"""Resource meters read from ``/proc`` (Linux)."""

from __future__ import annotations

import os

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time the process has used, in seconds."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        raw = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set size (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
