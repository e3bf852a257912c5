"""Start, watch and stop one ``repro.cli serve`` process.

The server runs exactly as a user starts it: the CLI defaults for front,
workers, fsync mode and checkpoint interval, with only the port (``0``,
an ephemeral one), ``--data-dir`` and ``--extended`` set.  A traced
server runs the same CLI through ``traced_server.py``, which installs
the span recorder first.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import Optional

from repro.client import ClientError, OptImatchClient

_LISTENING = re.compile(r"listening on http://([\w.]+):(\d+)")
HERE = os.path.dirname(os.path.abspath(__file__))


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One server child process, its log file and a client for it."""

    def __init__(
        self,
        root: str,
        data_dir: str,
        log_path: str,
        extended: bool = False,
        trace_dir: Optional[str] = None,
        armed: bool = False,
    ):
        self.root = root
        self.data_dir = data_dir
        self.log_path = log_path
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_server.py"),
                       "--trace-dir", trace_dir]
            if armed:
                command.append("--armed")
            command.append("--")
        self.command = command + ["serve", "--port", "0", "--data-dir", data_dir]
        if extended:
            self.command.append("--extended")
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + HERE
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.command, cwd=self.root, env=env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        return self

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise ServerError(
                f"server exited with code {self.proc.returncode}; "
                f"log:\n{self.log_tail()}"
            )

    def log_tail(self, limit: int = 4000) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-limit:].decode("utf-8", "replace")

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until ``/health`` says ``ok``; returns the
        ``time.perf_counter()`` at which it did."""
        deadline = time.monotonic() + timeout
        while self.url is None:
            self._check_alive()
            with open(self.log_path, "rb") as handle:
                found = _LISTENING.search(handle.read().decode("utf-8", "replace"))
            if found:
                self.url = f"http://{found.group(1)}:{found.group(2)}"
            elif time.monotonic() > deadline:
                raise ServerError("server did not announce its address")
            else:
                time.sleep(0.005)
        client = self.client()
        while True:
            self._check_alive()
            try:
                if client.health()["status"] == "ok":
                    return time.perf_counter()
            except (ClientError, OSError):
                pass  # not accepting yet
            if time.monotonic() > deadline:
                raise ServerError("server did not become healthy")
            time.sleep(0.005)

    def client(self) -> OptImatchClient:
        return OptImatchClient(self.url, retries=0)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM not reported")

    def send(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self, graceful: bool = True, timeout: float = 150.0) -> int:
        """SIGTERM (the server drains and checkpoints) or SIGKILL (a
        crash); waits for the exit and returns the exit code."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise ServerError("server did not stop in time")


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(base, name))
    return total
