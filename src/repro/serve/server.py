"""The ``repro serve`` asyncio HTTP service (stdlib only, no framework).

One process hosts the :class:`~repro.serve.jobs.JobScheduler` plus a pool
of local worker *processes* (:mod:`repro.serve.worker`); HTTP is a thin
transport over both.  Endpoints:

``POST /jobs``
    Submit ``{"spec": {...RunSpec...}, "priority": N}`` (or a bare RunSpec
    payload).  Identical canonical specs coalesce into one job; the
    response carries the job summary and a ``coalesced`` flag.

``GET /jobs`` / ``GET /jobs/<id>``
    List job summaries / fetch one.

``GET /jobs/<id>/events?since=N``
    NDJSON event stream: a ``job`` snapshot, then one ``progress`` line
    per consumed chunk (shots, errors, current rate, live Wilson relative
    error, convergence flag), then a terminal ``done`` (with the full
    RunResult payload) or ``failed`` line.  Every job-scoped event carries
    a monotonically increasing ``seq``; ``since=N`` replays retained
    history after sequence ``N`` before going live, so a client whose
    connection dropped resumes without duplicates.

``GET /jobs/<id>/result?timeout=S``
    Block until the job finishes and return its result payload (``504``
    when the poll window expires first — clients re-poll).

``GET /healthz``
    Worker liveness, job tallies, memo/TTL counters
    and the fabric counters (:class:`~repro.serve.jobs.JobQueueStats`).

``POST /shutdown``
    Ask the server to stop (used by the CI smoke harness).

Responses are single-shot ``Connection: close`` HTTP/1.1 — one request
per connection keeps the stdlib parser honest; event streams simply write
NDJSON until the terminal event and close.  Malformed bodies and query
parameters answer ``400`` with a JSON error instead of dropping the
connection.

Local workers are started via the ``spawn`` context (safe to combine with
the server's threads), watched by a reaper task that requeues expired
leases, detects dead processes (``Process.is_alive``), respawns
replacements, and sweeps expired job memos — a SIGKILLed worker delays a
job by at most one lease timeout.  ``workers=0`` starts no worker
process, so submitted jobs stay queued.

With a journal configured (``journal=...``, conventionally next to the
chunk cache), submissions and terminal transitions are appended to an
append-only JSONL (:mod:`repro.serve.journal`); a restarted server
replays it, resumes unfinished jobs (published chunks replay from the
cache with ``chunks_executed == 0``) and keeps completed memos.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import multiprocessing
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.api.spec import RunSpec
from repro.serve.jobs import LEASE_CHUNKS, JobScheduler, JobState
from repro.serve.journal import JobJournal, load_journal
from repro.serve.worker import worker_main

__all__ = ["ReproServer", "ServeConfig", "serve_in_thread"]

#: Per-job event-history retention: the replay buffer for reconnecting
#: clients keeps this many recent events (terminal events always survive).
EVENT_HISTORY_LIMIT = 512


class _BadRequest(ValueError):
    """A client error that should answer HTTP 400 with a JSON message."""


def _query_float(query: dict, name: str, default: float) -> float:
    """Parse a float query parameter; malformed values raise ``_BadRequest``."""
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise _BadRequest(f"query parameter {name}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise _BadRequest(f"query parameter {name}={raw!r} must be finite")
    return value


def _query_int(query: dict, name: str, default: int) -> int:
    """Parse an integer query parameter; malformed values raise ``_BadRequest``."""
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise _BadRequest(f"query parameter {name}={raw!r} is not an integer") from None


def _json_body(body: bytes) -> dict:
    """Decode a JSON object request body; anything else raises ``_BadRequest``."""
    try:
        payload = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _BadRequest(f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    return payload


@dataclass(frozen=True)
class ServeConfig:
    """Service configuration: bind address, fleet size and queue policy.

    ``port=0`` binds an ephemeral port (the bound port is reported by
    :attr:`ReproServer.url`).  ``workers=0`` starts no worker process,
    so submitted jobs stay queued.  ``lease_timeout`` is how long a
    worker may hold a lease without reporting a chunk before its chunks
    are requeued.

    ``journal`` is the durable queue's JSONL path (``"auto"`` places it at
    ``<cache_dir>/journal.jsonl``); ``None`` disables durability.
    ``memo_ttl``/``memo_cap`` bound how long and how many terminal job
    memos are retained (``None`` disables the respective bound).
    ``throttle`` artificially slows workers (seconds per chunk) — a
    test/debug knob only.  Out-of-range values raise a one-line
    ``ValueError`` naming the field, before anything binds or spawns.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    cache_dir: str | None = None
    journal: str | None = None
    lease_timeout: float = 30.0
    memo_ttl: float | None = 3600.0
    memo_cap: int | None = 1024
    poll_interval: float = 0.25
    respawn: bool = True
    throttle: float = 0.0

    def __post_init__(self) -> None:
        for name, valid, bound in (
            ("workers", self.workers >= 0, ">= 0"),
            ("port", 0 <= self.port <= 65535, "in 0..65535"),
            ("lease_timeout", self.lease_timeout > 0, "> 0"),
            ("poll_interval", self.poll_interval > 0, "> 0"),
            ("memo_ttl", self.memo_ttl is None or self.memo_ttl >= 0, ">= 0"),
            ("memo_cap", self.memo_cap is None or self.memo_cap >= 0, ">= 0"),
            ("throttle", self.throttle >= 0, ">= 0"),
        ):
            if not valid:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)}")

    @property
    def journal_path(self) -> str | None:
        """The resolved journal path (``"auto"`` → next to the chunk cache)."""
        if self.journal != "auto":
            return self.journal
        if not self.cache_dir:
            raise ValueError("journal='auto' needs cache_dir to place the journal next to")
        return str(Path(self.cache_dir) / "journal.jsonl")


class _WorkerHandle:
    """Server-side view of one local worker process."""

    def __init__(self, worker_id: str, process, inbox) -> None:
        self.id = worker_id
        self.process = process
        self.inbox = inbox
        self.outstanding = 0
        self.results = 0  # chunk results received: > 0 once a chunk has run
        self.lost = False

    @property
    def alive(self) -> bool:
        return not self.lost and self.process.is_alive()


class ReproServer:
    """The serve fabric: scheduler + worker pool + HTTP front end."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        journal_path = self.config.journal_path
        self.journal = JobJournal(journal_path) if journal_path else None
        self.scheduler = JobScheduler(
            lease_timeout=self.config.lease_timeout,
            # Per-basis speculation: enough chunks to keep every lease full.
            window=max(8, 2 * max(1, self.config.workers) * LEASE_CHUNKS),
            memo_ttl=self.config.memo_ttl,
            memo_cap=self.config.memo_cap,
            journal=self.journal,
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._outbox = self._ctx.Queue()
        self._workers: dict[str, _WorkerHandle] = {}
        self._worker_serial = 0
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._reader: threading.Thread | None = None
        self._reaper: asyncio.Task | None = None
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._done_events: dict[str, asyncio.Event] = {}
        #: Per-job numbered event history (the ``?since=`` replay buffer).
        self._event_log: dict[str, list[dict]] = {}
        self._event_seq: dict[str, int] = {}
        self._stopping = asyncio.Event()
        self.workers_respawned = 0
        self.jobs_restored = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the bound HTTP endpoint."""
        if self._server is None:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"http://{host}:{port}"

    async def start(self) -> None:
        """Restore the journal, bind the socket, spawn workers, start pumps."""
        self._loop = asyncio.get_running_loop()
        self._restore_journal()
        for _ in range(self.config.workers):
            self._spawn_worker()
        self._reader = threading.Thread(target=self._pump_outbox, daemon=True)
        self._reader.start()
        self._reaper = asyncio.ensure_future(self._reap_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatch()

    def _restore_journal(self) -> None:
        """Replay (then compact) the journal so the job table survives restarts."""
        if self.journal is None:
            return
        records = load_journal(self.journal.path)
        if not records:
            return
        requeued = self.scheduler.restore(records, now=time.monotonic())
        self.jobs_restored = len(requeued)
        self.journal.compact(self.scheduler.snapshot_records())

    async def wait_stopped(self) -> None:
        """Block until :meth:`request_stop` (or ``POST /shutdown``), then clean up."""
        await self._stopping.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Ask the serving loop to exit (threadsafe from the loop's thread)."""
        self._stopping.set()

    async def stop(self) -> None:
        """Tear everything down: HTTP, reaper, workers, reader thread, journal."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._reaper is not None:
            self._reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper
        for handle in self._workers.values():
            if handle.alive:
                with contextlib.suppress(Exception):
                    handle.inbox.put(("stop",))
        deadline = time.monotonic() + 2.0
        for handle in self._workers.values():
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._outbox.put(("__exit__",))
        if self._reader is not None:
            self._reader.join(timeout=2.0)
        if self.journal is not None:
            self.journal.close()

    def _spawn_worker(self) -> _WorkerHandle:
        self._worker_serial += 1
        worker_id = f"w{self._worker_serial}"
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, inbox, self._outbox, self.config.cache_dir, self.config.throttle),
            daemon=True,
            name=f"repro-serve-{worker_id}",
        )
        process.start()
        handle = _WorkerHandle(worker_id, process, inbox)
        self._workers[worker_id] = handle
        return handle

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _pump_outbox(self) -> None:
        """(Reader thread) forward worker messages into the event loop."""
        while True:
            message = self._outbox.get()
            if message[0] == "__exit__":
                return
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            loop.call_soon_threadsafe(self._on_worker_message, message)

    def _on_worker_message(self, message) -> None:
        now = time.monotonic()
        kind = message[0]
        if kind == "result":
            _, worker_id, task, shots, errors, cached, info = message
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.outstanding = max(0, handle.outstanding - 1)
                handle.results += 1
            events = self.scheduler.record_result(
                worker_id, task, shots, errors, cached, info, now
            )
        elif kind == "error":
            _, worker_id, job_id, error_message = message
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.outstanding = max(0, handle.outstanding - 1)
            events = self.scheduler.fail_job(job_id, error_message, now)
        else:  # pragma: no cover - future message kinds
            events = []
        self._publish(events)
        self._dispatch()

    def _dispatch(self) -> None:
        """Hand leases to every idle local worker while work is available."""
        now = time.monotonic()
        for handle in self._workers.values():
            if not handle.alive or handle.outstanding > 0:
                continue
            tasks = self.scheduler.assign(handle.id, now)
            if not tasks:
                continue
            specs = {}
            for task in tasks:
                if task.job_id not in specs:
                    specs[task.job_id] = self.scheduler.jobs[task.job_id].spec.to_dict()
            handle.inbox.put(("run", tasks, specs))
            handle.outstanding += len(tasks)

    async def _reap_loop(self) -> None:
        """Periodic watchdog: expired leases, dead workers, respawns, eviction.

        Respawns are capped (``4 + 4 * workers``): a fleet whose processes
        die instantly — a broken environment, not a transient kill — must
        not fork-bomb the host.  With the cap exhausted and every worker
        dead, pending jobs are failed so clients see the outage instead of
        a silent hang.  The same tick sweeps expired job memos and their
        event state.
        """
        respawn_budget = 4 + 4 * self.config.workers
        while True:
            await asyncio.sleep(self.config.poll_interval)
            now = time.monotonic()
            self.scheduler.reap(now)
            for job_id in self.scheduler.evict(now):
                self._drop_job_state(job_id)
            for worker_id, handle in list(self._workers.items()):
                if handle.lost or handle.process.is_alive():
                    continue
                handle.lost = True
                handle.outstanding = 0
                self.scheduler.worker_lost(worker_id)
                if self.config.respawn and self.workers_respawned < respawn_budget:
                    self._spawn_worker()
                    self.workers_respawned += 1
            fleet_down = self._workers and not any(
                handle.alive for handle in self._workers.values()
            )
            if fleet_down:
                for job in list(self.scheduler.jobs.values()):
                    if job.state not in JobState.TERMINAL:
                        self._publish(
                            self.scheduler.fail_job(job.id, "no live workers remain", now)
                        )
                continue
            self._dispatch()

    def _drop_job_state(self, job_id: str) -> None:
        """Forget an evicted job's event history, done flag and subscribers."""
        self._event_log.pop(job_id, None)
        self._event_seq.pop(job_id, None)
        self._done_events.pop(job_id, None)
        self._subscribers.pop(job_id, None)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _publish(self, events: "list[dict]") -> None:
        """Number, retain and fan out job-scoped events to subscribers."""
        for event in events:
            job_id = event.get("job_id")
            if job_id is not None:
                seq = self._event_seq.get(job_id, 0) + 1
                self._event_seq[job_id] = seq
                event = {**event, "seq": seq}
                log = self._event_log.setdefault(job_id, [])
                log.append(event)
                if len(log) > EVENT_HISTORY_LIMIT:
                    # keep the tail (and thereby any terminal event)
                    del log[: len(log) - EVENT_HISTORY_LIMIT]
            for queue in self._subscribers.get(job_id, ()):  # type: ignore[arg-type]
                queue.put_nowait(event)
            if event["event"] in ("done", "failed"):
                self._done_event(job_id).set()

    def _done_event(self, job_id: str) -> asyncio.Event:
        event = self._done_events.get(job_id)
        if event is None:
            event = self._done_events[job_id] = asyncio.Event()
        return event

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            try:
                length = int(headers.get("content-length") or 0)
            except ValueError:
                await _respond(
                    writer,
                    400,
                    {"error": f"malformed Content-Length {headers.get('content-length')!r}"},
                )
                return
            if length > 0:
                body = await reader.readexactly(length)
            try:
                await self._route(method, target, body, writer)
            except _BadRequest as error:
                await _respond(writer, 400, {"error": str(error)})
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(self, method: str, target: str, body: bytes, writer) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        if method == "GET" and path == "/healthz":
            await _respond(writer, 200, self._health())
        elif method == "POST" and path == "/jobs":
            await self._post_jobs(body, writer)
        elif method == "GET" and path == "/jobs":
            await _respond(
                writer,
                200,
                {"jobs": [job.summary() for job in self.scheduler.jobs.values()]},
            )
        elif method == "POST" and path == "/shutdown":
            await _respond(writer, 200, {"status": "stopping"})
            self.request_stop()
        elif method == "GET" and path.startswith("/jobs/"):
            await self._get_job(path, query, writer)
        else:
            await _respond(writer, 404, {"error": f"no route for {method} {split.path}"})

    def _health(self) -> dict:
        return {
            "status": "ok",
            "workers": [
                {
                    "id": handle.id,
                    "pid": handle.process.pid,
                    "alive": handle.alive,
                    "outstanding": handle.outstanding,
                    "results": handle.results,
                }
                for handle in self._workers.values()
            ],
            "workers_respawned": self.workers_respawned,
            "jobs": self.scheduler.job_counts(),
            "jobs_restored": self.jobs_restored,
            "memo": {
                "retained": self.scheduler.memo_count,
                "ttl": self.scheduler.memo_ttl,
                "cap": self.scheduler.memo_cap,
                "evicted": self.scheduler.stats.jobs_evicted,
            },
            "journal": str(self.journal.path) if self.journal else None,
            "stats": self.scheduler.stats.to_dict(),
        }

    async def _post_jobs(self, body: bytes, writer) -> None:
        try:
            payload = _json_body(body)
            spec_payload = payload.get("spec", payload)
            priority = int(payload.get("priority", 0)) if "priority" in payload else 0
            spec = RunSpec.from_dict(spec_payload)
            job, coalesced, events = self.scheduler.submit(
                spec, priority=priority, now=time.monotonic()
            )
        except _BadRequest:
            raise
        except (ValueError, TypeError, KeyError) as error:
            await _respond(writer, 400, {"error": str(error)})
            return
        self._publish(events)
        if job.state in JobState.TERMINAL:
            self._done_event(job.id).set()
        self._dispatch()
        status = 200 if coalesced else 201
        await _respond(writer, status, {"job": job.summary(), "coalesced": coalesced})

    async def _get_job(self, path: str, query: dict, writer) -> None:
        segments = path.split("/")  # ["", "jobs", "<id>"] or ["", "jobs", "<id>", "<verb>"]
        job = self.scheduler.get(segments[2])
        if job is None:
            await _respond(writer, 404, {"error": f"unknown job {segments[2]!r}"})
            return
        verb = segments[3] if len(segments) > 3 else None
        if verb is None:
            await _respond(writer, 200, {"job": job.summary()})
        elif verb == "result":
            timeout = _query_float(query, "timeout", 300.0)
            if job.state not in JobState.TERMINAL:
                try:
                    await asyncio.wait_for(
                        self._done_event(job.id).wait(), timeout=max(0.0, timeout)
                    )
                except asyncio.TimeoutError:
                    await _respond(
                        writer,
                        504,
                        {"error": "timed out waiting for job", "job": job.summary()},
                    )
                    return
            await _respond(writer, 200, {"job": job.summary(), "result": job.result})
        elif verb == "events":
            since = _query_int(query, "since", 0)
            await self._stream_events(job, writer, since)
        else:
            await _respond(writer, 404, {"error": f"unknown job endpoint {verb!r}"})

    async def _stream_events(self, job, writer, since: int = 0) -> None:
        """NDJSON event stream: snapshot, history replay, live events.

        The subscription queue is registered *before* history is snapshotted,
        so an event published during replay is never lost — it is simply
        skipped by sequence number if the replay already covered it.
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job.id, set()).add(queue)
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Cache-Control: no-store\r\n"
                b"Connection: close\r\n\r\n"
            )
            await _write_line(writer, {"event": "job", "job": job.summary()})
            last_seq = since
            replayed_terminal = False
            for event in list(self._event_log.get(job.id, ())):
                if event["seq"] <= since:
                    continue
                await _write_line(writer, event)
                last_seq = event["seq"]
                if event["event"] in ("done", "failed"):
                    replayed_terminal = True
            if replayed_terminal:
                return
            if job.state in JobState.TERMINAL:
                # Terminal but nothing retained to replay (journal-restored
                # memo, or history trimmed): synthesize the terminal event.
                await _write_line(writer, _terminal_event(job))
                return
            while True:
                event = await queue.get()
                seq = event.get("seq")
                if seq is not None and seq <= last_seq:
                    continue  # already covered by the history replay
                await _write_line(writer, event)
                if seq is not None:
                    last_seq = seq
                if event["event"] in ("done", "failed"):
                    return
        finally:
            self._subscribers.get(job.id, set()).discard(queue)


def _terminal_event(job) -> dict:
    if job.state == JobState.FAILED:
        return {"event": "failed", "job_id": job.id, "error": job.error}
    return {"event": "done", "job_id": job.id, "result": job.result}


async def _write_line(writer, payload: dict) -> None:
    writer.write(json.dumps(payload, allow_nan=False).encode("utf-8") + b"\n")
    await writer.drain()


async def _respond(writer, status: int, payload: dict) -> None:
    reasons = {
        200: "OK",
        201: "Created",
        400: "Bad Request",
        404: "Not Found",
        504: "Gateway Timeout",
    }
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    writer.write(
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode("latin-1")
    )
    writer.write(body)
    await writer.drain()


@contextlib.contextmanager
def serve_in_thread(config: ServeConfig | None = None):
    """Run a :class:`ReproServer` on a background thread; yields the server.

    The embedding entry point the integration tests (and any library user)
    rely on: the event loop, worker fleet and HTTP endpoint live on a
    daemon thread; the caller talks to ``server.url`` over HTTP and the
    context manager tears everything down on exit.
    """
    server = ReproServer(config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # pragma: no cover - startup failure
            failure.append(error)
            started.set()
            return
        started.set()
        loop.run_until_complete(server.wait_stopped())
        loop.close()

    thread = threading.Thread(target=_run, daemon=True, name="repro-serve")
    thread.start()
    started.wait(timeout=60.0)
    if failure:  # pragma: no cover - startup failure
        raise failure[0]
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(server.request_stop)
        thread.join(timeout=30.0)
