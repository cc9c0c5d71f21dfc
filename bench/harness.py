"""Measurement primitives: CPU-speed probes, timed CLI processes and the
machine record written into every result file.

Times are normalised to a reference CPU speed.  On a shared VM the speed a
process gets drifts by up to 2x over seconds, which no number of
repetitions inside one run can average away.  A short fixed pure-Python
probe (`probe`, the same kind of work as sdrkit: small tuples, comparisons,
int-to-string formatting) measures that speed on the CPU the measured code
runs on, at the same time, and a time t is reported as
t * (reference probe time) / (mean measured probe time): the time the
measured code would take on a machine where the probe takes
REFERENCE_STEP_S per step.  Raw times and factors are kept in the result
file.
"""

from __future__ import annotations

import errno
import hashlib
import math
import os
import platform
import select
import subprocess
import sys
import time
from dataclasses import dataclass

# One probe step's time on the reference machine (a 2-vCPU Xeon VM in its
# fast phase); any constant works, this one keeps normalised times close to
# raw ones there.
REFERENCE_STEP_S = 4.2e-6
PROBE_STEPS = 200  # about 1 ms: short enough to interleave with a process
PROBE_PERIOD_S = 0.05  # one probe per period while a timed process runs
PIPE_CHUNK = 1 << 16


def _step(i: int) -> int:
    base = (i * 7) & 63
    bits = tuple(range(base, base + 21))
    ordered = all(bits[k] < bits[k + 1] for k in range(len(bits) - 1))
    return len(",".join(str(b) for b in bits)) + ordered


def probe(steps: int = PROBE_STEPS) -> float:
    """Normalisation factor from one probe: reference time / measured time.

    The probe is timed in CPU time, so a probe that shares its CPU with a
    busy measured process is not charged for the slices that process runs.
    """
    started = time.thread_time()
    for i in range(steps):
        _step(i)
    return steps * REFERENCE_STEP_S / (time.thread_time() - started)


class Speed:
    """Brackets in-process timed items with probes."""

    STEPS = 10 * PROBE_STEPS

    def __init__(self) -> None:
        self.last = probe(self.STEPS)

    def factor(self) -> float:
        """Normalisation factor for the item timed since the previous call."""
        before, self.last = self.last, probe(self.STEPS)
        return 2 / (1 / before + 1 / self.last)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the probes share
    the measured process's core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class ProcessTiming:
    raw_setup_s: float  # spawn until the command opened its input
    raw_command_s: float  # input opened until the process exited
    setup_factor: float
    command_factor: float
    peak_rss_mb: float
    exit_code: int

    @property
    def setup_s(self) -> float:
        return self.raw_setup_s * self.setup_factor

    @property
    def command_s(self) -> float:
        return self.raw_command_s * self.command_factor


def _mean_factor(factors: list[float]) -> float:
    # Mean of times, not of rates: the harmonic mean of the factors.
    return len(factors) / sum(1 / f for f in factors)


def run_timed(argv: list[str], env: dict, fifo: str, data: bytes,
              stdout_path: str, stderr_path: str, timeout_s: float = 170.0) -> ProcessTiming:
    """Spawn ``argv`` whose input is the named pipe ``fifo`` and feed it ``data``.

    The command opens its input only after interpreter start, imports and
    config parsing, so the moment the pipe gains a reader splits set-up from
    the work.  Every PROBE_PERIOD_S this process, on the same CPU, runs a
    probe; set-up and work are each normalised by the probes taken during
    them.  ``wait4`` gives the child's own peak RSS.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    probes: list[tuple[float, float]] = []
    next_probe = started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    fd = None
    try:
        def due() -> float:
            nonlocal next_probe
            now = time.perf_counter()
            if now - started > timeout_s:
                raise TimeoutError(f"{argv[:4]} ran longer than {timeout_s} s")
            if now >= next_probe:
                probes.append((now, probe()))
                next_probe = now + PROBE_PERIOD_S
            return max(0.0, next_probe - time.perf_counter())

        exited = False
        while fd is None and not exited:
            due()
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as exc:
                if exc.errno != errno.ENXIO:  # ENXIO: no reader yet
                    raise
                exited = bool(select.select([pidfd], [], [], 0.001)[0])
        ready = time.perf_counter()
        view, sent = memoryview(data), 0
        while not exited:
            wait = due()
            readable, writable, _ = select.select([pidfd], [] if fd is None else [fd], [], wait)
            exited = bool(readable)
            if writable:
                try:
                    sent += os.write(fd, view[sent:sent + PIPE_CHUNK])
                except BlockingIOError:
                    pass
                except BrokenPipeError:  # the command stopped reading
                    sent = len(data)
                if sent >= len(data):
                    os.close(fd)
                    fd = None
        done = time.perf_counter()
        _, status, usage = os.wait4(pid, 0)
        pid = None
    finally:
        if fd is not None:
            os.close(fd)
        os.close(pidfd)
        if pid is not None:  # an exception left the child running
            os.kill(pid, 9)
            os.waitpid(pid, 0)
    in_setup = [f for t, f in probes if t < ready] or [f for _, f in probes]
    in_command = [f for t, f in probes if t >= ready] or in_setup
    return ProcessTiming(ready - started, done - ready, _mean_factor(in_setup),
                         _mean_factor(in_command), usage.ru_maxrss / 1024,
                         os.waitstatus_to_exitcode(status))


def make_fifo(path: str) -> str:
    if os.path.exists(path):
        os.unlink(path)
    os.mkfifo(path)
    return path


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def machine_record(root: str, seed: int, runs: int) -> dict:
    """What every result file records about the code and the machine."""
    from importlib.metadata import PackageNotFoundError, version

    def installed(package: str) -> str:
        try:
            return version(package)
        except PackageNotFoundError:
            return "not installed"

    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = os.path.join(root, "src", "sdrkit")
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                src_lines += f.read().count(b"\n")
    return {
        "git_commit": commit,
        "seed": seed,
        "runs": runs,
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": installed("numpy"),
        "scipy": installed("scipy"),
        "src_lines": src_lines,
        "src_lines_method": "newline characters in src/sdrkit/*.py (what `wc -l` counts)",
        "reference_probe_step_s": REFERENCE_STEP_S,
        "python_executable": sys.executable,
    }
