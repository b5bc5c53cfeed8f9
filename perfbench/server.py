"""Lifecycle of the ``python -m repro serve`` processes a run starts.

Every server gets an empty ``--cache-dir`` of its own and its own process
group, so stopping it can reach the pool workers too.  A pid file under
the run directory names each live server; a run refuses to start while
one of them, or any process in its group, is still alive, so leaked
workers cannot take the cores a measurement needs.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
WORKERS = 2


class BenchError(RuntimeError):
    """A condition that makes the run invalid (reported, exit nonzero)."""


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def refuse_if_live(run_dir: Path) -> None:
    """Raise if a server an earlier run started is still alive."""
    for pidfile in run_dir.glob("server-*.pid"):
        pgid = int(pidfile.read_text().split()[0])
        alive = _group_members(pgid)
        if alive:
            raise BenchError(
                f"a benchmark-started server group {pgid} is still alive "
                f"(pids {alive}); stop it before measuring"
            )
        # The run that wrote it died before cleaning up after its server.
        stem = pidfile.stem[len("server-"):]
        shutil.rmtree(run_dir / f"cache-{stem}", ignore_errors=True)
        (run_dir / f"server-{stem}.log").unlink(missing_ok=True)
        pidfile.unlink()


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the processes' peak resident set sizes (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU time the processes have used so far.  Time
    the hypervisor steals from the machine is not charged to them."""
    ticks = 0
    for pid in pids:
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat[stat.rfind(")") + 2:].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``python -m repro serve --workers 2`` with a fresh cache dir."""

    def __init__(self, root: Path, run_dir: Path, index: int) -> None:
        self.cache_dir = run_dir / f"cache-{os.getpid()}-{index}"
        if self.cache_dir.exists():
            shutil.rmtree(self.cache_dir)
        self.cache_dir.mkdir(parents=True)
        self._pidfile = run_dir / f"server-{os.getpid()}-{index}.pid"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(run_dir / f"server-{os.getpid()}-{index}.log", "wb")
        self.process: Optional[subprocess.Popen] = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", str(WORKERS),
                "--cache-dir", str(self.cache_dir),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self._pidfile.write_text(f"{self.process.pid}\n")
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode("utf-8", "replace").strip()
                if line.startswith("repro-service listening on "):
                    return int(line.rsplit(":", 1)[1])
                if not line and self.process.poll() is not None:
                    break
        log = Path(self._log.name).read_text(errors="replace")[-2000:]
        raise BenchError(
            f"server did not print its ready line (exit {self.process.poll()}):\n{log}"
        )

    def side_files(self) -> List[Path]:
        """Per-transducer table side files the server has published."""
        return [
            path for path in self.cache_dir.iterdir()
            if ".tables." in path.name or ".btables." in path.name
        ]

    def stop(self) -> None:
        """Terminate the server and every process in its group, then wait
        until none is left; idempotent.  SIGINT and SIGTERM are held back
        meanwhile, so an interrupt cannot cut the clean-up short."""
        process, self.process = self.process, None
        if process is None:
            return
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            # SIGTERM first; a group still alive after the grace period
            # gets SIGKILL.  SIGINT would not do: a shell that starts the
            # benchmark in the background makes its children ignore it.
            for signum in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(process.pid, signum)
                except ProcessLookupError:
                    break
                deadline = time.monotonic() + STOP_TIMEOUT_S
                while _group_members(process.pid) and time.monotonic() < deadline:
                    time.sleep(0.02)
                if not _group_members(process.pid):
                    break
            else:
                raise BenchError(f"server group {process.pid} would not stop")
            process.wait(STOP_TIMEOUT_S)
            self._pidfile.unlink(missing_ok=True)
        finally:
            process.stdout.close()
            self._log.close()
            Path(self._log.name).unlink(missing_ok=True)
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
