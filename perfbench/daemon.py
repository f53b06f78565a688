"""Start, probe and stop the shipped daemon (``tools/serve_daemon.py``)
as its own process, and read the memory of its process tree."""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One daemon process.  ``traced=True`` runs it under
    ``traced_daemon.py``, which wraps the layers in spans and writes
    them to ``spans_path`` when the daemon exits."""

    def __init__(self, root: str, args: Sequence[str], log_path: str,
                 traced: bool = False, spans_path: Optional[str] = None):
        self.root = root
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_daemon.py"),
                   spans_path, "--"]
        else:
            cmd = [sys.executable,
                   os.path.join(root, "tools", "serve_daemon.py")]
        self.cmd = cmd + ["--host", "127.0.0.1", "--port", "0",
                          "--linger-s", "0", *args]
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def start(self) -> float:
        """Launch and wait for the ``READY`` line; returns the launch
        instant (``time.monotonic()``)."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self._log = open(self.log_path, "ab")
        launched = time.monotonic()
        self.proc = subprocess.Popen(self.cmd, cwd=self.root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        reader = threading.Thread(target=self._read, daemon=True)
        reader.start()
        deadline = launched + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline
                                                   - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise DaemonError("daemon did not print READY in time")
            if line is None:
                self.stop()
                raise DaemonError(f"daemon exited before READY; see "
                                  f"{self.log_path}")
            if line.startswith("READY "):
                url = line.split()[1]
                self.port = int(url.rsplit(":", 1)[1])
                return launched

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill on timeout."""
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            for pid in descendants(proc.pid):
                _kill(pid)
            proc.kill()
            code = proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self._log.close()
        return code

    def tree_peak_rss_mb(self) -> float:
        """Sum of VmHWM over the daemon and every descendant (its pool
        workers), in MiB."""
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return sum(vm_hwm_kb(pid) for pid in pids) / 1024.0


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``, from ``/proc/<n>/stat``."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses: the fields
        # after the last ')' are state, then ppid.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def vm_hwm_kb(pid) -> int:
    """Peak resident set (``VmHWM``) of one process in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
