"""A ``benes serve`` daemon in its own process, as a user would run it.

The daemon is started from the checkout's sources at its default
configuration (only the port is chosen by the OS), with a fresh
autotune cache file so no run inherits an engine choice from another.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from typing import Dict, Optional, Tuple

from . import ROOT
from .stats import peak_rss_mb

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")

#: Seconds a daemon may take to bind before the run is abandoned.
START_TIMEOUT = 60.0


def cpu_split():
    """``(daemon CPUs, load generator CPUs)``: one CPU each on a host
    with two or more, so the scheduler cannot put both on one core for
    part of a run; ``(None, None)`` on a one-CPU host."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


def program_env(autotune_cache: str) -> Dict[str, str]:
    """The environment the program under test runs with: the
    checkout's ``src`` on the path, the per-run autotune cache, and no
    inherited ``BENES_*`` steering (engine, metrics, trace, shard
    threshold)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("BENES_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["BENES_AUTOTUNE_CACHE"] = autotune_cache
    env["PYTHONHASHSEED"] = "0"
    return env


def free_port() -> int:
    """An unused localhost TCP port (for ``--metrics-port``)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``benes serve`` subprocess.

    Args:
        autotune_cache: path of the fresh autotune cache file.
        metrics_port: expose the daemon's OpenMetrics endpoint on this
            port (turns the daemon's metrics collection on).
    """

    def __init__(self, autotune_cache: str,
                 metrics_port: Optional[int] = None) -> None:
        self.metrics_port = metrics_port
        self.started = time.monotonic()
        args = [sys.executable, "-m", "repro.cli", "serve",
                "--port", "0"]
        if metrics_port is not None:
            args += ["--metrics-port", str(metrics_port)]
        cpus, _ = cpu_split()
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=program_env(autotune_cache),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
            preexec_fn=(None if cpus is None
                        else lambda: os.sched_setaffinity(0, cpus)))
        self.address = self._wait_listening()

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("benes serve did not report a listening "
                           "address")

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set so far, in MiB."""
        return peak_rss_mb(self.proc.pid)

    def cpu_seconds(self) -> float:
        """User plus system CPU time the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def scrape(self) -> Dict[str, float]:
        """The daemon's ``serve.*`` figures from its live OpenMetrics
        endpoint, as ``{sample name: value}``."""
        url = f"http://127.0.0.1:{self.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read().decode("utf-8")
        samples = {}
        for line in body.splitlines():
            if line.startswith("serve_") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        return samples

    def stop(self) -> None:
        """Interrupt the daemon (its clean-shutdown path) and wait for
        it; kill it if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
