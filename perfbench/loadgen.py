"""Server processes and the single-threaded asyncio load generator.

Every serving workload talks to the shipped ``python -m repro serve
--listen`` over at most two TCP connections from this one process:
either a closed loop (each connection sends its next request when the
previous answer arrived) or an open loop (each request is written when
it is due, whatever the server is doing, and timed from that due time).
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def process_cpu_s(pid: int) -> float:
    """CPU seconds process ``pid`` has used so far, every thread and
    every waited-for child (``/proc/PID/stat``).  The kernel charges CPU
    time net of hypervisor steal, so a busier shared host or a busy
    second core does not inflate it, unlike wall time.  Resolution is
    one clock tick."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    # utime, stime, cutime, cstime are fields 14-17 of proc(5); ``fields``
    # starts at field 3.
    ticks = sum(int(v) for v in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One ``repro serve --listen`` child; ``start`` returns once the
    ready line arrived, ``stop`` drains it with SIGINT and waits."""

    def __init__(self, argv: List[str], root: str, log_path: str):
        self.argv = argv
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self._log = None
        self.host = ""
        self.port = 0

    def start(self) -> "ServerProcess":
        try:
            return self._start()
        except BaseException:
            self.stop()
            raise

    def _start(self) -> "ServerProcess":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, *self.argv], cwd=self.root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log)
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not print its ready line")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited before ready (code "
                        f"{self.proc.wait()}); see {self.log_path}")
                buffer += chunk
        line = json.loads(buffer.split(b"\n", 1)[0])
        if line.get("op") != "ready":
            raise RuntimeError(f"unexpected first line {line!r}")
        host, _, port = line["listen"].rpartition(":")
        self.host, self.port = host, int(port)
        return self

    def cpu_s(self) -> float:
        """CPU seconds the server process has used so far."""
        return process_cpu_s(self.proc.pid)

    def stop(self) -> int:
        """SIGINT (the server drains and exits 0), then wait; SIGKILL
        only if the drain hangs.  Returns the exit code."""
        if self.proc is None:
            if self._log is not None:
                self._log.close()
                self._log = None
            return 0
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            return proc.returncode
        finally:
            proc.stdout.close()
            if self._log is not None:
                self._log.close()
                self._log = None


# ----------------------------------------------------------------------
# Response checks
# ----------------------------------------------------------------------
def valid_envelope(response, request: dict) -> bool:
    """Every answer is a JSON object with a boolean ``ok``; a success
    carries the fields its op promises, a failure the error envelope."""
    if not isinstance(response, dict) or not isinstance(response.get("ok"),
                                                        bool):
        return False
    if not response["ok"]:
        return (isinstance(response.get("error"), str)
                and isinstance(response.get("error_type"), str)
                and isinstance(response.get("code"), int))
    op = request.get("op")
    if op == "score":
        scores = response.get("scores")
        return (isinstance(scores, dict)
                and set(scores) == {str(n) for n in request["nodes"]}
                and all(isinstance(s, float) for s in scores.values()))
    if op == "score_edge":
        return isinstance(response.get("score"), float)
    if op in ("add_edge", "update_features", "add_node", "reload"):
        return isinstance(response.get("version"), int)
    return True


@dataclass
class Outcome:
    """One request as the client saw it (times in loop seconds)."""
    index: int
    kind: str
    request: dict
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: Optional[dict] = None
    valid: bool = False

    @property
    def ok(self) -> bool:
        return self.valid and bool(self.response and self.response["ok"])

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
def ndjson_bytes(body: dict) -> bytes:
    return (json.dumps(body) + "\n").encode()


def http_bytes(path: str, body: dict, host: str) -> bytes:
    payload = json.dumps(body).encode()
    return (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n").encode() + payload


async def read_ndjson(reader) -> dict:
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


async def read_http(reader) -> dict:
    status = await reader.readline()
    if not status:
        raise ConnectionError("server closed the connection")
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return json.loads(await reader.readexactly(length))


async def request_once(host: str, port: int, body: dict) -> dict:
    """One NDJSON request on a fresh connection (stats, quiesce reads)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(ndjson_bytes(body))
        await writer.drain()
        return await read_ndjson(reader)
    finally:
        writer.close()
        await writer.wait_closed()


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
async def closed_loop(host: str, port: int, connections: int,
                      next_request: Callable[[], Optional[dict]],
                      seconds: float, min_done: int = 0) -> List[Outcome]:
    """``connections`` NDJSON clients, each sending its next request
    when the previous answer arrived, until ``seconds`` passed and at
    least ``min_done`` answers came back (or requests ran out).
    Latency is measured from send, which in a closed loop is the due
    time."""
    loop = asyncio.get_running_loop()
    outcomes: List[Outcome] = []
    start = loop.time()
    deadline = start + seconds

    async def client():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while loop.time() < deadline or len(outcomes) < min_done:
                body = next_request()
                if body is None:
                    return
                out = Outcome(len(outcomes), "read", body, loop.time())
                out.sent = out.due
                outcomes.append(out)
                writer.write(ndjson_bytes(body))
                await writer.drain()
                out.response = await read_ndjson(reader)
                out.done = loop.time()
                out.valid = valid_envelope(out.response, body)
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(client() for _ in range(connections)))
    return outcomes


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class _Lane:
    """One connection of the open loop: its ops in send order."""
    name: str
    outcomes: List[Outcome] = field(default_factory=list)
    frames: List[bytes] = field(default_factory=list)


async def open_loop(host: str, port: int, ops, lead_s: float = 0.2
                    ) -> List[Outcome]:
    """Send every op of ``ops`` (``gen.Op``) at its due time on its
    connection: ``"ndjson"`` or ``"http"`` (keep-alive, pipelined).
    Frames are encoded before the clock starts, so the generator's own
    work stays off the schedule.  Returns outcomes in schedule order."""
    loop = asyncio.get_running_loop()
    lanes = {"ndjson": _Lane("ndjson"), "http": _Lane("http")}
    outcomes: List[Outcome] = []
    for index, op in enumerate(ops):
        body = dict(op.body, id=index)
        out = Outcome(index, op.kind, body, op.due)
        outcomes.append(out)
        lane = lanes[op.conn]
        lane.outcomes.append(out)
        lane.frames.append(http_bytes(op.path, body, host)
                           if op.conn == "http" else ndjson_bytes(body))
    start = loop.time() + lead_s
    for out in outcomes:
        out.due += start

    async def run_lane(lane: _Lane):
        if not lane.outcomes:
            return
        reader, writer = await asyncio.open_connection(host, port)
        read_one = read_http if lane.name == "http" else read_ndjson

        async def send():
            for out, frame in zip(lane.outcomes, lane.frames):
                delay = out.due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                out.sent = loop.time()
                writer.write(frame)
                await writer.drain()

        async def receive():
            for out in lane.outcomes:
                out.response = await read_one(reader)
                out.done = loop.time()
                out.valid = (valid_envelope(out.response, out.request)
                             and out.response.get("id") == out.request["id"])

        try:
            await asyncio.gather(send(), receive())
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(run_lane(lane) for lane in lanes.values()))
    return outcomes
