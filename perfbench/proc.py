"""Run one child process to completion and measure it from outside.

Wall time comes from the parent's monotonic clock around spawn and reap;
peak RSS comes from the child's ``os.wait4`` rusage, so no helper package
is needed. Children run one at a time, and every child is reaped before
``run_child`` returns, also when it is killed for running too long.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

# `vcnn` exactly as the console script `vcnn = vcnn.cli:main` starts it.
CLI_PRELUDE = "import sys; from vcnn.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool


def child_env(root: str) -> dict:
    """Environment for a child: the package from ``<root>/src``, default seed unset."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("VCNN_SEED", None)
    return env


def run_child(argv: list[str], env: dict, cwd: str, stdout_path: str | None = None,
              stderr_path: str | None = None, timeout_s: float = 150.0) -> ChildResult:
    """Spawn ``argv``, wait for it, return exit code, wall time and peak RSS."""
    with open(stdout_path or os.devnull, "wb") as out, open(stderr_path or os.devnull, "wb") as err:
        expired = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            expired.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    # Tell Popen the child is reaped, so it never waits for the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux.
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, expired.is_set())
