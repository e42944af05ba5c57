"""Reference-speed scaling from the speed probe's log, and the CPU
clocks of other processes."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

import hostspeed
from hostspeed import (MIN_TASKS, REFERENCE_TASK_S, SpeedLog, TreeCpu,
                       reference_task)


def _steady(start: float, end: float, seconds: float, step: float = 0.01):
    count = int(round((end - start) / step))
    return [(start + index * step, seconds) for index in range(count)]


class TestFactor:
    def test_uses_the_tasks_that_ended_within_the_operation(self):
        # Slow state before, fast state during the operation at 9.5-9.9.
        log = SpeedLog(_steady(0.0, 9.5, 0.012) + _steady(9.5, 10.0, 0.006))
        assert log.factor(9.5, 9.9) == pytest.approx(REFERENCE_TASK_S / 0.006)

    def test_mean_not_median_of_the_task_times(self):
        # A switch mid-operation: the mean weighs both states by time.
        times = [0.004] * MIN_TASKS + [0.008, 0.008]
        log = SpeedLog([(1.0 + 0.01 * index, seconds)
                        for index, seconds in enumerate(times)])
        assert log.factor(1.0, 2.0) == pytest.approx(
            REFERENCE_TASK_S * len(times) / sum(times))

    def test_widens_to_the_nearest_tasks(self):
        far = _steady(100.0, 101.0, 0.012)
        near = _steady(19.0, 19.0 + MIN_TASKS * 0.01, 0.006)
        log = SpeedLog(far + near)
        assert log.factor(20.0, 21.0) == pytest.approx(
            REFERENCE_TASK_S / 0.006)

    def test_needs_a_timing(self):
        with pytest.raises(ValueError):
            SpeedLog([]).factor(0.0, 1.0)

    def test_a_slow_host_scales_down(self):
        # Twice the reference task time: an operation counts half.
        log = SpeedLog([(1.0, 2 * REFERENCE_TASK_S)])
        assert log.scaled([(0.5, 1.5, 1.0)]) == [pytest.approx(0.5)]

    def test_scales_cpu_time_not_wall_time(self):
        # A second of wall time of which the operation ran 0.4 s.
        log = SpeedLog([(1.0, REFERENCE_TASK_S)])
        assert log.scaled([(0.5, 1.5, 0.4)]) == [pytest.approx(0.4)]


_BUSY_CHILD = """
import subprocess, sys, time
def spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass
child = subprocess.Popen([sys.executable, "-c", %r])
spin(0.2)
print("ready", flush=True)
sys.stdin.readline()
child.kill()
child.wait()
"""


class TestTreeCpu:
    def test_counts_the_process_and_its_children_not_wall_time(self):
        grandchild = ("import time\nend = time.thread_time() + 0.3\n"
                      "while time.thread_time() < end: pass\n"
                      "time.sleep(60)")
        proc = subprocess.Popen([sys.executable, "-c", _BUSY_CHILD
                                 % grandchild],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"ready\n"
            tree = TreeCpu(proc.pid)
            deadline = time.monotonic() + 30.0
            while len(tree.children()) < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.6)  # the grandchild spins its 0.3 s, then sleeps
            first = tree.read(discover=True)
            time.sleep(0.3)
            second = tree.read()
        finally:
            proc.stdin.close()
            proc.wait()
        assert len(tree.used) == 2
        assert first >= 0.5
        # Both sleep now: wall time passes, CPU time barely does.
        assert second - first < 0.1

    def test_an_ended_process_keeps_its_last_reading(self):
        proc = subprocess.Popen([sys.executable, "-c", "import sys; "
                                 "sys.stdin.readline()"],
                                stdin=subprocess.PIPE)
        tree = TreeCpu(proc.pid)
        first = tree.read()
        proc.stdin.close()
        proc.wait()
        assert tree.read(discover=True) == first


class TestProbe:
    def test_reference_task_is_fixed_work(self):
        assert reference_task() == reference_task()

    def test_read_skips_a_line_still_being_written(self, tmp_path):
        path = tmp_path / "speed.log"
        path.write_text("1.0 0.004\n2.0 0.005\n3.0 0.0")
        assert SpeedLog.read(str(path)).durations == [0.004, 0.005]

    def test_probe_logs_timestamped_task_times(self, tmp_path):
        path = str(tmp_path / "speed.log")
        before = time.monotonic()
        proc = subprocess.Popen([sys.executable, hostspeed.__file__, path,
                                 str(os.getpid())])
        try:
            deadline = time.monotonic() + 30.0
            while len(SpeedLog.read(path) if os.path.exists(path) else ()) \
                    < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        log = SpeedLog.read(path)
        assert len(log) >= 3
        assert before <= log.ends[0] <= log.ends[-1] <= time.monotonic()
        assert all(seconds > 0 for seconds in log.durations)
        assert log.factor(before, time.monotonic()) > 0

    def test_probe_ends_with_the_process_that_started_it(self, tmp_path):
        path = str(tmp_path / "speed.log")
        # The starter ends at once, most likely before the probe runs.
        starter = ("import os, subprocess, sys; print(subprocess.Popen("
                   "[sys.executable, %r, %r, str(os.getpid())], "
                   "stdout=subprocess.DEVNULL).pid)" % (hostspeed.__file__,
                                                        path))
        pid = int(subprocess.check_output([sys.executable, "-c", starter]))
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                with open("/proc/%d/stat" % pid, encoding="ascii") as handle:
                    if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            pytest.fail("the orphaned probe kept running")
