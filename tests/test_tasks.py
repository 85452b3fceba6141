import os

import pytest

from c2sift.tasks import Task, TaskPool, run_tasks

CALLS = []


def record(x):
    CALLS.append(x)
    return x * x


def pid_of(_):
    return os.getpid()


def test_inline_pool_runs_each_key_once_at_submission():
    CALLS.clear()
    pool = TaskPool()
    tasks = [Task(("sq", i), record, (i,)) for i in range(4)]
    first = pool.submit(tasks)
    assert CALLS == [0, 1, 2, 3]
    assert pool.run(reversed(tasks)) == [9, 4, 1, 0]
    assert pool.submit(tasks) == first
    assert CALLS == [0, 1, 2, 3]


def test_results_come_in_task_order_from_workers():
    tasks = [Task(("sq", i), record, (i,)) for i in range(6)]
    with TaskPool(2) as pool:
        assert pool.run(tasks) == [i * i for i in range(6)]
        assert os.getpid() not in pool.run([Task(("pid", i), pid_of, (i,)) for i in range(2)])
    assert run_tasks(None, tasks) == [i * i for i in range(6)]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        TaskPool(jobs)
