"""The process's CPUs, shared by the ``--jobs`` pool and concurrent branches.

The process may use ``os.cpu_count()`` CPUs, and the thread that runs a
protocol holds one of them. ``BUDGET`` counts the CPUs that are idle. A
branch (``tensor.branches``) goes to a helper thread only when it can take
an idle CPU at that moment, and runs inline on its caller otherwise, so no
branch ever waits for a CPU. A running ``--jobs`` task holds a CPU whether
or not one was idle, and the caller that waits on the pool lends its own CPU
to the pool for as long as it waits. Where a branch runs never changes what
it computes.
"""
from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Sequence


class CpuBudget:
    """Idle-CPU count of the process, and ``cpus - 1`` helper threads.

    Creating a budget starts no thread: the helpers start on first use.
    """

    def __init__(self, cpus: int) -> None:
        self._lock = threading.Lock()
        self.idle = cpus - 1  # the calling thread holds one CPU
        self._helpers = ThreadPoolExecutor(max_workers=max(cpus - 1, 1),
                                           thread_name_prefix="mvcrop-branch")

    def take(self) -> bool:
        """Take an idle CPU if there is one; never waits."""
        with self._lock:
            if self.idle > 0:
                self.idle -= 1
                return True
            return False

    def _add(self, count: int) -> None:
        with self._lock:
            self.idle += count

    @contextmanager
    def held(self):
        """A ``--jobs`` task runs: it holds a CPU, idle or not."""
        self._add(-1)
        try:
            yield
        finally:
            self._add(1)

    @contextmanager
    def lent(self):
        """The caller blocks on the ``--jobs`` pool: its CPU is idle."""
        self._add(1)
        try:
            yield
        finally:
            self._add(-1)

    def _helping(self, drain: Callable[[], None]) -> None:
        try:
            drain()
        finally:
            self._add(1)

    def run(self, calls: Sequence[Callable[[], object]], spread: bool) -> list:
        """Call each of ``calls`` once; returns their results in order.

        When ``spread`` is true, one helper per CPU it can take, up to one
        fewer than the calls, joins the caller, and they take the calls in
        order from one queue until it is empty; a call that raises does not
        stop the others, and the first failure in call order is raised once
        all have finished. With no helper the calls run in order on the
        caller, and the first that raises stops the rest.
        """
        helpers = 0
        if spread:
            while helpers < len(calls) - 1 and self.take():
                helpers += 1
        if not helpers:
            return [call() for call in calls]
        results: list = [None] * len(calls)
        errors: list = [None] * len(calls)
        queue = deque(range(len(calls)))

        def drain() -> None:
            while True:
                try:
                    i = queue.popleft()
                except IndexError:
                    return
                try:
                    results[i] = calls[i]()
                except BaseException as exc:  # re-raised below, in order
                    errors[i] = exc

        running = [self._helpers.submit(self._helping, drain)
                   for _ in range(helpers)]
        drain()
        for helper in running:
            helper.result()
        for exc in errors:
            if exc is not None:
                raise exc
        return results


BUDGET = CpuBudget(os.cpu_count() or 1)
