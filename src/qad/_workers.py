"""Worker processes behind every ``threads`` count, forked on Linux only (see ``_map``)."""

import os
import pickle
import signal
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on (all of them without an affinity call)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map(fn, tasks, workers: int):
    """``[fn(t) for t in tasks]`` on W = min(workers, tasks, usable CPUs) processes:
    task i runs in worker i mod W, worker 0 being the caller and the others
    forked children that pickle their results into a pipe.  The lowest failing
    task's exception is raised, as a serial run raises it (a child's without its
    traceback), and every child is killed and reaped before this returns.  Off
    Linux (macOS, whose system frameworks are not fork-safe, and Windows) W is 1."""
    tasks = list(tasks)
    W = max(1, min(workers, len(tasks), usable_cpus())) if sys.platform == "linux" else 1

    def run(first):  # (results, None) of tasks first, first + W, ..., or (results, (i, exc))
        results = []
        for i in range(first, len(tasks), W):
            try:
                results.append(fn(tasks[i]))
            except Exception as exc:
                return results, (i, exc)
        return results, None

    pids, reads = [], []
    try:
        for w in range(1, W):
            read_end, write_end = os.pipe()
            reads.append(read_end)
            try:
                pids.append(os.fork())
                if pids[-1] == 0:  # the child never returns into the caller's stack
                    try:
                        with open(write_end, "wb") as pipe:
                            pipe.write(pickle.dumps(run(w)))
                    finally:
                        os._exit(0)
            finally:
                os.close(write_end)
        parts = [run(0)]
        for read_end in reads:
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError("a worker process ended without sending its results")
            parts.append(pickle.loads(data))
    finally:
        for read_end in reads:
            os.close(read_end)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in parts if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [parts[i % W][0][i // W] for i in range(len(tasks))]  # task i is in worker i mod W
