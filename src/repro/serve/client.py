"""Stdlib HTTP client for a running ``repro serve`` endpoint.

Used by the ``repro submit`` / ``repro jobs`` CLI verbs, the suite
runner's server mode and the integration tests.  One
:class:`http.client.HTTPConnection` per request (the server is
``Connection: close``), so a :class:`ServeClient` is cheap, stateless and
safe to share across threads.

Two edges are handled here rather than pushed onto callers:

* :meth:`ServeClient.result` long-polls in bounded windows.  The server
  expires a poll after its own ``?timeout=`` seconds with a ``504``; the
  client treats that as "not done yet" and re-polls until *its* deadline,
  and clamps each request's socket timeout to the poll window plus a
  margin — so ``result(job_id, timeout=900)`` genuinely waits 900 s
  instead of dying at a default socket timeout.
* :meth:`ServeClient.events` survives a dropped connection.  The server
  numbers every job-scoped event with a monotonically increasing ``seq``
  and replays history from ``?since=N``; the client reconnects with the
  last sequence it saw and discards replayed duplicates, so the caller
  observes each event exactly once, in order.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPException
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeError"]

#: Socket-timeout margin over the server-side long-poll window: covers
#: connection setup plus the response round trip for one poll request.
POLL_MARGIN = 30.0


class ServeError(RuntimeError):
    """An HTTP error response from the serve endpoint (carries the status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Talk to a ``repro serve`` endpoint given its base URL."""

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {split.scheme!r} (http only)")
        if not split.hostname:
            raise ValueError(f"no host in server URL {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout

    @property
    def base_url(self) -> str:
        """The normalized endpoint URL."""
        return f"http://{self.host}:{self.port}"

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        connection = HTTPConnection(
            self.host, self.port, timeout=self.timeout if timeout is None else timeout
        )
        try:
            body = None
            headers = {"Accept": "application/json"}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = json.loads(response.read().decode("utf-8") or "{}")
            if response.status >= 400:
                raise ServeError(response.status, data.get("error", response.reason))
            return data
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /healthz`` — worker liveness, job tallies, fabric counters."""
        return self._request("GET", "/healthz")

    def submit(self, spec, priority: int = 0) -> dict:
        """``POST /jobs`` — submit a RunSpec (object or payload dict).

        Returns ``{"job": summary, "coalesced": bool}``.
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        return self._request("POST", "/jobs", {"spec": payload, "priority": priority})

    def jobs(self) -> "list[dict]":
        """``GET /jobs`` — all job summaries."""
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>`` — one job summary."""
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def result(self, job_id: str, timeout: float = 300.0, poll_window: float = 60.0) -> dict:
        """Block until the job finishes; return the RunResult payload.

        Long-polls ``GET /jobs/<id>/result`` in windows of at most
        ``poll_window`` seconds.  A server-side ``504`` (its poll window
        expired before the job finished) is *not* an error — the client
        re-polls until its own ``timeout`` deadline, then raises
        :class:`ServeError` with status 504.  Each request's socket
        timeout is clamped to its window plus a margin, so no caller
        deadline is cut short by the default socket timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(504, f"job {job_id} did not finish within {timeout:g}s")
            window = max(0.05, min(poll_window, remaining))
            try:
                data = self._request(
                    "GET",
                    f"/jobs/{job_id}/result?timeout={window:g}",
                    timeout=window + POLL_MARGIN,
                )
            except ServeError as error:
                if error.status == 504:
                    continue  # server's window expired; poll again
                raise
            except TimeoutError:
                continue  # socket-level hiccup inside our deadline; retry
            job = data["job"]
            if job["state"] == "failed":
                raise ServeError(500, job.get("error") or "job failed")
            return data["result"]

    def events(
        self,
        job_id: str,
        since: int = 0,
        reconnect: bool = True,
        max_reconnects: int = 5,
        reconnect_delay: float = 0.5,
    ):
        """``GET /jobs/<id>/events`` — yield NDJSON events until the terminal one.

        A generator of dicts: a ``job`` snapshot first, then ``progress``
        events, ending with ``done`` (carrying the result) or ``failed``.
        Every job-scoped event carries a server-assigned ``seq``; if the
        connection drops mid-stream the client reconnects with
        ``?since=<last seq>`` and resumes where it left off, discarding
        any replayed duplicates — the caller sees each event exactly once,
        in order.  ``max_reconnects`` consecutive failed reconnects raise
        :class:`ServeError`; a successfully resumed stream resets the
        budget.  Terminal events are always yielded, whatever their
        sequence number, so the generator cannot hang on a resume edge.
        """
        last_seq = int(since)
        yielded_snapshot = False
        failures = 0
        while True:
            try:
                for event in self._events_once(job_id, last_seq):
                    failures = 0
                    kind = event.get("event")
                    if kind == "job":
                        if yielded_snapshot:
                            continue  # reconnects re-send the snapshot
                        yielded_snapshot = True
                        yield event
                        continue
                    seq = event.get("seq")
                    terminal = kind in ("done", "failed")
                    if seq is not None:
                        if seq <= last_seq and not terminal:
                            continue  # replayed duplicate after a reconnect
                        last_seq = max(last_seq, seq)
                    yield event
                    if terminal:
                        return
                # The stream closed without a terminal event: the server
                # dropped the connection mid-job.  Resume from last_seq.
                raise ConnectionError("event stream ended before a terminal event")
            except (ConnectionError, TimeoutError, HTTPException, OSError) as error:
                if not reconnect:
                    raise
                failures += 1
                if failures > max_reconnects:
                    raise ServeError(
                        503,
                        f"event stream for {job_id} lost after "
                        f"{max_reconnects} reconnect attempts: {error}",
                    ) from error
                time.sleep(reconnect_delay)

    def _events_once(self, job_id: str, since: int):
        """One event-stream connection: yield parsed NDJSON lines until EOF."""
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            path = f"/jobs/{job_id}/events"
            if since:
                path += f"?since={since}"
            connection.request("GET", path, headers={"Accept": "application/x-ndjson"})
            response = connection.getresponse()
            if response.status >= 400:
                data = json.loads(response.read().decode("utf-8") or "{}")
                raise ServeError(response.status, data.get("error", response.reason))
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    def run(self, spec, priority: int = 0, timeout: float = 600.0) -> dict:
        """Submit a spec and block for its result payload (convenience)."""
        job_id = self.submit(spec, priority=priority)["job"]["id"]
        return self.result(job_id, timeout=timeout)

    def shutdown(self) -> dict:
        """``POST /shutdown`` — ask the server to stop."""
        return self._request("POST", "/shutdown")
