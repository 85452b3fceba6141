"""One pool of worker processes for all of a command's independent fits.

A ``Task`` is a module-level function with its arguments and a key
that names its result. A ``TaskPool`` runs each key once: a scheduler
can submit a command's tasks early, and the function that reduces them
later submits the same tasks and gets the same futures back. So cross-
validation and stacking run the same code whether they own the pool or
share one. With ``jobs=1`` there are no worker processes and each task
runs inline when it is first submitted.

Keys name results within one pool, and a pool serves one dataset.
Results are gathered in task order, never in completion order, so the
outcome does not depend on scheduling.
"""
from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


@dataclass(frozen=True)
class Task:
    key: tuple
    fn: Callable
    args: tuple


class TaskPool:
    def __init__(self, jobs: int = 1):
        """Freeing one untouched 8 MB array (RSS does not move) raises glibc's
        mmap threshold to 8 MB, here and in workers forked from here, so work
        arrays above its initial 128 KB reuse freed heap instead of faulting
        in freshly mapped pages on every use."""
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        np.empty(1 << 20)
        self._executor = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
        self._futures: dict[tuple, Future] = {}

    def submit(self, tasks: Iterable[Task]) -> list[Future]:
        """Futures of the tasks, in order; a key seen before is not run again."""
        futures = []
        for task in tasks:
            future = self._futures.get(task.key)
            if future is None:
                if self._executor is not None:
                    future = self._executor.submit(task.fn, *task.args)
                else:
                    future = Future()
                    future.set_result(task.fn(*task.args))
                self._futures[task.key] = future
            futures.append(future)
        return futures

    def run(self, tasks: Iterable[Task]) -> list:
        return [future.result() for future in self.submit(tasks)]

    def close(self, cancel: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)


def run_tasks(pool: TaskPool | None, tasks: Iterable[Task]) -> list:
    """Results of ``tasks`` on ``pool``, or inline when there is none."""
    return (pool or TaskPool()).run(tasks)
