"""Host-noise stamp for every run, so shared-host drift can be told
apart from a code change: 1-minute loadavg before and after, the
``/proc/stat`` steal and iowait deltas, a fixed calibration loop's
time, the CPU count, and the code's identity."""

from __future__ import annotations

import hashlib
import os
import subprocess
import time

#: Iterations of the calibration loop (about 0.1 s of pure Python on
#: a 2-vCPU host); fixed, so its time tracks how fast the host is now.
CALIBRATION_ITERATIONS = 1_000_000


def calibration_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def cpu_times() -> dict:
    """Aggregate jiffies from the ``cpu`` line of ``/proc/stat``."""
    names = ("user", "nice", "system", "idle", "iowait", "irq",
             "softirq", "steal")
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:1 + len(names)]
    except OSError:
        return {}
    return dict(zip(names, (int(f) for f in fields)))


def git_head(root: str) -> str | None:
    """``git rev-parse HEAD`` in ``root``; None where ``root`` is not a
    repository (a plain checkout, which may sit inside another one) or
    git fails."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def code_identity(root: str) -> dict:
    """Git SHA when the checkout is a repository, and always a sha256
    over the Python sources under ``src``."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_sha": git_head(root), "source_sha256": digest.hexdigest()}


class HostStamp:
    """Call :meth:`begin` before the run and :meth:`end` after it."""

    def __init__(self, root: str):
        self.root = root
        self._cpu0: dict = {}
        self.stamp: dict = {}

    def begin(self) -> None:
        self._cpu0 = cpu_times()
        self.stamp = {
            "loadavg_1m_before": os.getloadavg()[0],
            "calibration_s_before": calibration_seconds(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            **code_identity(self.root),
        }

    def end(self) -> dict:
        cpu1 = cpu_times()
        delta = {k: cpu1[k] - self._cpu0.get(k, 0) for k in cpu1}
        total = sum(delta.values()) or 1
        self.stamp.update({
            "loadavg_1m_after": os.getloadavg()[0],
            "calibration_s_after": calibration_seconds(),
            "steal_jiffies": delta.get("steal", 0),
            "iowait_jiffies": delta.get("iowait", 0),
            "steal_share": delta.get("steal", 0) / total,
            "iowait_share": delta.get("iowait", 0) / total,
        })
        return self.stamp
