"""Timings at a reference host speed, in CPU time.

The benchmark's host is a virtual machine on a shared machine.  Two
things stretch an operation's wall time there without any change to the
code it runs:

* the hypervisor gives the vCPU to other guests for a while (steal
  time), and other processes of the guest may share the CPU;
* each vCPU switches between a fast state and states up to about twice
  as slow (other tenants on the same core), mostly every few seconds to
  minutes but also for tens of milliseconds, and the vCPUs switch
  independently.

The first stretches wall time but not CPU time: the guest kernel takes
steal time out of its tasks' CPU clocks (paravirtual time accounting),
and another process's time is its own.  So every operation is timed in
the CPU time of the processes doing it: a CLI invocation's own (from
``wait4``), a batch round's (``time.process_time()`` in the workload
process), a serve request's (the CPU clocks of the server and its
isolation workers, :class:`TreeCpu`, read when the request is due and
when its answer is in).  On a quiet CPU these equal the wall times; with
another busy process on the CPU, wall-clock latencies doubled while the
CPU times held.

The second slows CPU time as much as wall time.  So every workload
process runs on one pinned CPU, and beside it, on the same CPU at the
lowest priority (nice 19), a probe process runs a fixed pure-Python task
(:func:`reference_task`, no ``repro`` code) over and over and logs the
CPU time of each.  The scheduler gives the probe a small, steady share
of the CPU while the workload runs (about 1.5% against one busy nice-0
thread) and all of it while the workload idles, so the probe sees the
CPU in the same states as the workload, during the operation itself.
An operation that used ``C`` CPU seconds while its probe tasks averaged
``d`` seconds takes ``C * REFERENCE_TASK_S / d`` at the reference
speed; the mean (not the median) of the task times is the right
average, as the tasks sample the operation's time evenly.  Raw
wall-clock and CPU-time medians are kept in every run's ``details``.

Run as a script, this module is the probe: ``python hostspeed.py LOG
PID`` appends ``<time.monotonic() at the task's end> <task CPU seconds>``
lines to LOG until it is killed or its parent, process PID, ends.
"""

from __future__ import annotations

import bisect
import gc
import os
import sys
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: What the reference task takes on the reference machine in its fast
#: state (2 vCPUs, Intel Xeon, Python 3.11).
REFERENCE_TASK_S = 0.0036

#: Fewest probe tasks behind one operation's scale; an operation with
#: fewer tasks in its own interval takes the nearest ones.
MIN_TASKS = 9

PROBE_NICENESS = 19


def reference_task(nodes: int = 80) -> int:
    """Transitive closure of a fixed pseudo-random graph with three
    out-edges per node: set, dict and tuple work like the interpreter-bound
    engine's, about 4 ms on the reference machine."""
    edges = {}
    state = 1
    for node in range(nodes):
        targets = []
        for _ in range(3):
            state = (state * 1103515245 + 12345) % 2147483648
            targets.append(state % nodes)
        edges[node] = targets
    closure = {(a, b) for a, targets in edges.items() for b in targets}
    delta = set(closure)
    while delta:
        fresh = set()
        for a, b in delta:
            for c in edges[b]:
                if (a, c) not in closure:
                    fresh.add((a, c))
        closure |= fresh
        delta = fresh
    return len(closure)


class SpeedLog:
    """Probe task timings, and the scale they give an operation."""

    def __init__(self, samples: Iterable[Tuple[float, float]]) -> None:
        ordered = sorted(samples)
        self.ends = [at for at, _seconds in ordered]
        self.durations = [seconds for _at, seconds in ordered]

    @classmethod
    def read(cls, path: str) -> "SpeedLog":
        """The complete lines of a probe's log (it may still be writing)."""
        samples = []
        with open(path, encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if line.endswith("\n") and len(fields) == 2:
                    samples.append((float(fields[0]), float(fields[1])))
        return cls(samples)

    def __len__(self) -> int:
        return len(self.ends)

    def factor(self, start: float, end: float, margin: float = 0.0) -> float:
        """``REFERENCE_TASK_S`` over the mean time of the tasks that ended
        within ``[start - margin, end + margin]`` (monotonic time), widened
        to the nearest :data:`MIN_TASKS` tasks when fewer did."""
        if not self.ends:
            raise ValueError("no reference-task timings")
        start, end = start - margin, end + margin
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_TASKS and (lo > 0 or hi < len(self.ends)):
            if hi == len(self.ends) or (
                    lo > 0 and start - self.ends[lo - 1]
                    <= self.ends[hi] - end):
                lo -= 1
            else:
                hi += 1
        near = self.durations[lo:hi]
        return REFERENCE_TASK_S * len(near) / sum(near)

    def scaled(self, spans: Sequence[Sequence[float]]) -> List[float]:
        """CPU seconds of each ``(start, end, cpu_seconds)`` operation at
        the reference speed."""
        return [cpu * self.factor(start, end) for start, end, cpu in spans]


def cpu_clock(pid: int) -> int:
    """Clock id of process ``pid``'s CPU time, all its threads together
    (what ``clock_getcpuclockid(3)`` returns on Linux)."""
    return ((~pid) << 3) | 2


class TreeCpu:
    """CPU seconds used so far by a process and its child processes.

    A child found for the first time counts with all it has used since
    it started; a process that has ended keeps its last reading.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.used: Dict[int, float] = {}

    def children(self) -> List[int]:
        pids: List[int] = []
        try:
            threads = os.listdir("/proc/%d/task" % self.pid)
        except OSError:
            return pids
        for thread in threads:
            try:
                with open("/proc/%d/task/%s/children" % (self.pid, thread),
                          encoding="ascii") as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
            except OSError:
                pass
        return pids

    def read(self, discover: bool = False) -> float:
        """CPU seconds so far; ``discover`` first looks for new children."""
        if discover or not self.used:
            for pid in [self.pid] + self.children():
                self.used.setdefault(pid, 0.0)
        for pid in self.used:
            try:
                self.used[pid] = time.clock_gettime(cpu_clock(pid))
            except OSError:
                pass
        return sum(self.used.values())


def probe(path: str, parent: int) -> None:
    """Time :func:`reference_task` until killed or no longer a child of
    ``parent`` (the caller pins this process to the workload's CPU).
    The parent's pid comes from the caller: read here, it would be the
    new parent's when the caller had already ended."""
    os.nice(PROBE_NICENESS)
    # A collection would land in some tasks and not others.
    gc.disable()
    with open(path, "a", encoding="ascii", buffering=1) as log:
        while os.getppid() == parent:
            started = time.thread_time()
            reference_task()
            seconds = time.thread_time() - started
            log.write("%.6f %.7f\n" % (time.monotonic(), seconds))


if __name__ == "__main__":
    probe(sys.argv[1], int(sys.argv[2]))
