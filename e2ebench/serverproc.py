"""Start, watch and stop one ``repro serve`` process and its shard workers."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

from spans import clock

#: ``repro serve --scale SCALE --workers WORKERS``, as the workloads run it.
SCALE = "tiny"
WORKERS = 2
READY_TIMEOUT_SECONDS = 60.0
STOP_TIMEOUT_SECONDS = 60.0
_LISTENING = re.compile(r"listening on (http://[0-9.]+:\d+)")


class ServerError(RuntimeError):
    """The server did not start, did not stop, or left a process behind."""


def children_of(pid: int) -> set[int]:
    """Process ids whose parent is ``pid`` (from ``/proc``)."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.add(int(entry))
    return found


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for process {pid}")


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def get_json(url: str, timeout: float = 5.0) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class ServerProcess:
    """One ``repro serve`` of the :data:`WORKERS` fleet on port 0 with a fresh journal.

    ``argv`` is the command up to and including ``serve``; this class
    appends the port, journal and fleet options. ``setup_seconds`` is the
    time from spawning the process until ``/readyz`` answered ready.
    """

    def __init__(self, argv, env, workdir, journal_dir):
        self.workdir = workdir
        self.journal_dir = journal_dir
        os.makedirs(workdir, exist_ok=True)
        self._stdout_path = os.path.join(workdir, "server.out")
        self._stderr_path = os.path.join(workdir, "server.err")
        command = list(argv) + [
            "--scale", SCALE, "--workers", str(WORKERS), "--port", "0",
            "--journal-dir", journal_dir,
        ]
        self.pids: set[int] = set()
        self.url = None
        started = clock()
        with open(self._stdout_path, "wb") as out, open(self._stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env
            )
        try:
            self.url = self._wait_listening(started)
            self._wait_ready(started)
        except BaseException:
            self.kill()
            raise
        self.setup_seconds = clock() - started

    def _wait_listening(self, started: float) -> str:
        while clock() - started < READY_TIMEOUT_SECONDS:
            if self.process.poll() is not None:
                raise ServerError(f"server exited early: {self.log_tail()}")
            with open(self._stdout_path, encoding="utf-8", errors="replace") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                return match.group(1)
            time.sleep(0.005)
        raise ServerError("server never printed its address")

    def _wait_ready(self, started: float) -> None:
        while clock() - started < READY_TIMEOUT_SECONDS:
            try:
                status, document = get_json(self.url + "/readyz", timeout=2.0)
            except (OSError, ValueError):
                status, document = 0, {}
            if status == 200 and document.get("ready"):
                return
            time.sleep(0.005)
        raise ServerError("server never became ready")

    def note_workers(self) -> set[int]:
        """Record the current shard workers (respawns included)."""
        self.pids |= children_of(self.process.pid)
        return self.pids

    def wait_for_workers(self) -> None:
        deadline = clock() + READY_TIMEOUT_SECONDS
        while len(children_of(self.process.pid)) < WORKERS:
            if clock() > deadline:
                raise ServerError("shard workers did not start")
            time.sleep(0.01)
        self.note_workers()

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server and its workers."""
        live = [pid for pid in self.note_workers() if _alive(pid)]
        return peak_rss_mb(self.process.pid) + sum(peak_rss_mb(p) for p in live)

    def metrics(self) -> dict:
        return get_json(self.url + "/metrics")[1]

    def stop(self) -> None:
        """SIGTERM, reap, and fail if any shard worker outlived the server."""
        self.note_workers()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not drain within the timeout")
        deadline = clock() + 5.0
        while any(_alive(pid) for pid in self.pids) and clock() < deadline:
            time.sleep(0.01)
        leftover = sorted(pid for pid in self.pids if _alive(pid))
        if leftover:
            self.kill()
            raise ServerError(f"processes left behind after stop: {leftover}")
        if code != 0:
            raise ServerError(f"server exited with {code}: {self.log_tail()}")

    def kill(self) -> None:
        """Hard stop of the server and every worker seen."""
        if self.process.poll() is None:
            self.note_workers()
        for pid in list(self.pids) + [self.process.pid]:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass

    def log_tail(self, lines: int = 5) -> str:
        try:
            with open(self._stderr_path, encoding="utf-8", errors="replace") as handle:
                return " | ".join(handle.read().splitlines()[-lines:])
        except OSError:
            return ""


def serve_argv(root: str, span_dir: str | None) -> list[str]:
    """The command that starts the server, traced or as users run it."""
    if span_dir is None:
        return [sys.executable, "-m", "repro", "serve"]
    return [sys.executable, os.path.join(root, "e2ebench", "traced_serve.py"),
            span_dir, "serve"]
