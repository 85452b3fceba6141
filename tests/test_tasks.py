import os
import platform
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
def test_pool_start_keeps_freed_work_arrays_off_fresh_pages():
    """After a pool starts, 50 cycles of four filled 300 KB arrays fault in
    under a tenth of their ~14,600 pages: freed blocks are reused."""
    code = (
        "import resource\nimport numpy as np\nfrom c2sift.tasks import TaskPool\nTaskPool(1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(50):\n"
        "    arrays = [np.empty(37_500) for _ in range(4)]\n"
        "    for array in arrays:\n"
        "        array.fill(1.0)\n"
        "    del array, arrays\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 0.1 * 50 * 4 * 300_000 / 4096
