"""A call computed in a forked helper process, so the caller goes on meanwhile.

`cli.run` hands each growth task to a `Helper` when a spare CPU is usable.
The child sends the call's result as JSON down a pipe; it never writes to
stdout and ends with `os._exit`, so no atexit handler and no inherited
buffer runs in it.  `cli` imports this module only when a file has a
growth task, so the other files do not pay for its import.
"""
from __future__ import annotations

import json
import os
import signal
import threading


class Helper:
    """fn(*args) computed in a forked child process."""

    @classmethod
    def start(cls, fn, args, alive):
        """The helper, or None to compute fn(*args) inline: without os.fork,
        when the `alive` helpers and this process use every usable CPU,
        when other threads run (a fork copies only the calling thread), or
        when the fork fails."""
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if not hasattr(os, "fork") or alive >= cpus - 1 or threading.active_count() > 1:
            return None
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            code = 1
            try:
                with open(wfd, "wb") as fh:
                    fh.write(json.dumps(fn(*args)).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        if pid is None:
            os.close(rfd)
            return None
        return cls(pid, open(rfd, "rb"))

    def __init__(self, pid, pipe):
        self.pid, self.pipe = pid, pipe

    def result(self):
        """Read the pipe to EOF and reap the child.  None when it sent no
        valid result: it crashed, was killed or wrote bad JSON."""
        data = self.pipe.read()
        self.pipe.close()
        code = os.waitpid(self.pid, 0)[1]
        self.pid = None
        try:
            return json.loads(data) if code == 0 else None
        except ValueError:
            return None

    def stop(self):
        """Kill and reap the child, unless `result` has reaped it."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
