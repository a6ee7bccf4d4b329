"""Process-tree helpers over ``/proc`` for orphan checks (Linux only).

A process is recorded as ``(pid, start time)``: the kernel's start time
tells a reused pid apart from the process that was recorded.  Shared by
``tests/test_resilience_e2e.py`` and ``scripts/chaos_smoke.py``.
"""

import os


def proc_stat(pid):
    """``(state, ppid, start time)`` of ``pid``, ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), fields[19]


def descendants(root):
    """``(pid, start time)`` of every current descendant of pid ``root``."""
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and (stat := proc_stat(int(entry))) is not None:
            children.setdefault(stat[1], []).append((int(entry), stat[2]))
    found, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found += kids
        frontier += [pid for pid, _ in kids]
    return found


def alive(process):
    """Whether a recorded ``(pid, start time)`` still runs (not a zombie)."""
    pid, start = process
    stat = proc_stat(pid)
    return stat is not None and stat[2] == start and stat[0] != "Z"
