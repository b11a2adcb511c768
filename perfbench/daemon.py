"""Service daemons in child processes, through the public Python API.

The child side (``python3 -m perfbench.daemon serve|coordinator ...``)
builds a :class:`~repro.service.api.BenchService` behind
:func:`~repro.service.async_api.serve_async`, or a
:class:`~repro.service.shard.ShardCoordinator` behind
:func:`~repro.service.shard.make_shard_server`, prints ``READY <url>``
once bound, and drains on SIGTERM/SIGINT.

The parent side, :class:`Fleet`, spawns those children, waits until
they answer ``/status``, and on every exit path (normal, failure,
Ctrl-C) drains and reaps them in reverse spawn order, then checks that
no child process of the benchmark survives.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import selectors
import signal
import subprocess
import sys
import threading
import time

PR_SET_PDEATHSIG = 1
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


# --------------------------------------------------------------------- #
# child side


def _announce(url: str) -> None:
    sys.stdout.write(f"READY {url}\n")
    sys.stdout.flush()
    # Nothing else may reach the pipe the parent stopped reading.
    sys.stdout = sys.stderr


def serve(cache_dir: str) -> int:
    import asyncio

    from repro.service import BenchService, serve_async

    service = BenchService(backend="serial", workers=1, cache_dir=cache_dir)

    async def main() -> bool:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        return await serve_async(service, announce=_announce,
                                 stop_event=stop,
                                 drain_timeout=DRAIN_TIMEOUT_S)

    return 0 if asyncio.run(main()) else 3


def coordinate(shards: list[str]) -> int:
    from repro.service import ShardCoordinator, make_shard_server

    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    coordinator = ShardCoordinator(dict(s.split("=", 1) for s in shards))
    coordinator.start()
    server = make_shard_server(coordinator)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    _announce(f"http://{host}:{port}")
    stop.wait()
    server.shutdown()
    server.server_close()
    coordinator.close()
    thread.join(DRAIN_TIMEOUT_S)
    return 3 if thread.is_alive() else 0


def die_with_parent(parent: int) -> None:
    """Have the kernel SIGTERM this daemon (so it drains) if the
    benchmark process dies without reaping it, e.g. on SIGKILL."""
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        return
    if os.getppid() != parent:  # the parent died before prctl took hold
        os.kill(os.getpid(), signal.SIGTERM)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.daemon")
    parser.add_argument("--parent", type=int, required=True,
                        help="pid of the benchmark process")
    sub = parser.add_subparsers(dest="role", required=True)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--cache-dir", required=True)
    p_coord = sub.add_parser("coordinator")
    p_coord.add_argument("--shard", action="append", required=True,
                         help="name=url, once per shard")
    args = parser.parse_args(argv)
    die_with_parent(args.parent)
    if args.role == "serve":
        return serve(args.cache_dir)
    return coordinate(args.shard)


# --------------------------------------------------------------------- #
# parent side


class DaemonError(RuntimeError):
    """A daemon failed to start, drain, or exit cleanly."""


class Fleet:
    """Child daemons of one benchmark run; a context manager.

    ``root`` is the checkout (the children import ``repro`` from
    ``root/src`` and this package from ``root``); ``workdir`` holds the
    children's stderr logs and per-daemon cache directories.
    """

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self._procs: list[tuple[str, subprocess.Popen]] = []
        self._count = 0

    def _env(self) -> dict:
        env = dict(os.environ)
        paths = [os.path.join(self.root, "src"), self.root]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    def _start(self, name: str, args: list[str]) -> subprocess.Popen:
        log = open(os.path.join(self.workdir, f"{name}.log"), "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.daemon",
                 f"--parent={os.getpid()}", *args],
                cwd=self.root, env=self._env(), stdout=subprocess.PIPE,
                stderr=log, start_new_session=True)
        finally:
            log.close()
        self._procs.append((name, proc))
        return proc

    def _ready(self, name: str, proc: subprocess.Popen) -> str:
        """Wait for ``READY <url>`` and a 200 from ``/status``."""
        line = _read_line(proc, READY_TIMEOUT_S)
        if not line.startswith("READY "):
            raise DaemonError(f"{name} did not start (see {name}.log): "
                              f"{line!r}")
        url = line.split(None, 1)[1].strip()
        from repro.service.async_api import wait_for_port

        if not wait_for_port(url, timeout=READY_TIMEOUT_S):
            raise DaemonError(f"{name} at {url} never answered /status")
        return url

    def daemons(self, count: int) -> list[str]:
        """Start ``count`` async daemons at once, each with its own
        cache directory; returns their URLs once all are ready."""
        started = []
        for _ in range(count):
            self._count += 1
            name = f"daemon{self._count}"
            cache = os.path.join(self.workdir, f"{name}-cache")
            started.append((name, self._start(
                name, ["serve", "--cache-dir", cache])))
        return [self._ready(name, proc) for name, proc in started]

    def coordinator(self, shards: dict[str, str]) -> str:
        self._count += 1
        name = f"coordinator{self._count}"
        return self._ready(name, self._start(
            name,
            ["coordinator"] + [f"--shard={k}={v}" for k, v in shards.items()]))

    def stop(self) -> list[str]:
        """Drain and reap every child, newest first; returns problems."""
        problems = []
        while self._procs:
            name, proc = self._procs.pop()
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
                problems.append(f"{name} did not drain; killed")
            if proc.stdout is not None:
                proc.stdout.close()
            if code != 0:
                problems.append(f"{name} exited with {code}")
        survivors = child_processes()
        if survivors:
            problems.append(f"child processes survived: {survivors}")
        return problems

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        problems = self.stop()
        if problems and exc[0] is None:
            raise DaemonError("; ".join(problems))


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """First stdout line of ``proc``, or '' on exit or timeout."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                return buf.decode(errors="replace")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buf += chunk
    return buf.decode(errors="replace").split("\n", 1)[0]


def child_processes() -> list[int]:
    """Pids whose parent is this process (Linux ``/proc``)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ')'
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            found.append(int(entry))
    return found


if __name__ == "__main__":
    sys.exit(main())
