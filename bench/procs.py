"""Child processes of a run: every one of them ends with the run.

A run starts processes in three places: the set-up probes (fresh
interpreters), the process pool of a traced `scale` run, and redlab's own
verify pool at REDLAB_WORKERS > 1. `install()` and `reap()` make sure
none of them outlives the run, on every way out of it:

- every forked child asks the kernel to SIGKILL it when its parent dies
  (prctl PR_SET_PDEATHSIG), so a run that is itself killed leaves none;
- SIGTERM and SIGHUP raise SystemExit in the run, so the `with` and
  `finally` blocks that shut pools down and wait for probes still run;
- stdout and stderr are flushed before each fork, so a forked child that
  flushes its inherited buffers on exit does not print the run's lines twice;
- `reap()` kills and waits for any child that is still alive at the end.

Linux only, like the rest of the benchmark.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys

PR_SET_PDEATHSIG = 1

_prctl = None
_forking_parent = 0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def die_with_parent(parent: int) -> None:
    """In a child: be killed when `parent` dies, or exit now if it has."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def _before_fork():
    global _forking_parent
    _forking_parent = os.getpid()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass


def _after_fork_in_child():
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, signal.SIG_DFL)
    die_with_parent(_forking_parent)


def install() -> None:
    global _prctl
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _exit_on_signal)
    os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)


def preexec() -> None:
    """`preexec_fn` for subprocess: the same guarantee for exec'd children."""
    _after_fork_in_child()


def _children() -> list[int]:
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended meanwhile
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def reap() -> int:
    """Kill and wait for every child still alive; returns how many there were."""
    active = multiprocessing.active_children()
    for child in active:
        child.kill()
        child.join()
    left = _children()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return len(active) + len(left)
