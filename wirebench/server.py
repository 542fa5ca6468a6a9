"""Launching, probing and stopping the server process under test.

The server is ``python -m repro serve`` (or, for a traced run, the
span-recording launcher :mod:`traced_server` around the same CLI) in a
pinned environment: a fixed registry capacity, a fresh empty
``--cache-dir`` per launch (or ``--no-cache``: no disk tier at all),
``PYTHONPATH`` pointing at the checkout's ``src`` and no inherited
``REPRO_*`` variable (``REPRO_CACHE_DIR`` would otherwise warm the disk
tier across runs).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

#: Registry capacity for every workload: below the approximate stream's
#: number of distinct schemas, above the validate workloads' seven.
REGISTRY_CAPACITY = 32
#: Fixed hash seed, so set iteration order inside the constructions is
#: the same on every run.
HASH_SEED = "0"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def split_cpus() -> tuple[set[int], set[int]]:
    """(client CPUs, server CPUs): the first usable CPU for the client,
    the rest for the server, so the two never compete for a CPU; both
    sets are empty when fewer than two CPUs are usable."""
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        return set(), set()
    return {usable[0]}, set(usable[1:])


CLIENT_CPUS, SERVER_CPUS = split_cpus()


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One server process with its own fresh cache directory, or with
    the disk tier off when *disk_tier* is false."""

    def __init__(self, root: Path, workdir: Path, *, traced: bool, disk_tier: bool = True) -> None:
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.disk_tier = disk_tier
        self.port = _free_port()
        self.cache_dir = workdir / "cache"
        self.spans_path = workdir / "spans.json"
        self.log_path = workdir / "server.log"
        self.process: subprocess.Popen | None = None
        self.launched_at = 0.0

    def command(self) -> list[str]:
        cache_args = ["--cache-dir", str(self.cache_dir)] if self.disk_tier else ["--no-cache"]
        repro_args = [
            *cache_args,
            "serve",
            "--port", str(self.port),
            "--registry-capacity", str(REGISTRY_CAPACITY),
        ]
        if self.traced:
            launcher = Path(__file__).with_name("traced_server.py")
            return [sys.executable, str(launcher), str(self.spans_path), *repro_args]
        return [sys.executable, "-m", "repro", *repro_args]

    def environment(self) -> dict[str, str]:
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = HASH_SEED
        return env

    def launch(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.cache_dir.mkdir()
        with open(self.log_path, "wb") as log:
            self.launched_at = time.perf_counter()
            self.process = subprocess.Popen(
                self.command(),
                cwd=self.workdir,
                env=self.environment(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        if SERVER_CPUS:
            os.sched_setaffinity(self.process.pid, SERVER_CPUS)

    async def connect(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Open a connection, retrying until the listener is up."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                return await asyncio.open_connection(
                    "127.0.0.1", self.port, limit=8 * 1024 * 1024
                )
            except OSError:
                if self.process is None or self.process.poll() is not None:
                    raise ServerError(f"server exited early; see {self.log_path}") from None
                if time.perf_counter() > deadline:
                    raise ServerError("server did not start listening") from None
                await asyncio.sleep(0.002)

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server process so far."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """Interrupt the server (the traced launcher writes its spans on
        the way out), wait for it to exit and return its code; kill it
        when it does not exit in time."""
        if self.process is None:
            return 0
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        return process.returncode

    def cleanup(self) -> None:
        self.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
