"""HTTP edge cases for `repro serve`: parse errors, long-poll, reconnects.

The satellite contract hardened here:

* malformed query parameters (``?timeout=``, ``?since=``), non-JSON POST
  bodies and a broken ``Content-Length`` answer ``400`` with a JSON error
  instead of dropping the connection;
* unknown routes and verbs answer ``404`` (never a hang), including the
  retired remote-worker routes ``/lease``, ``/chunks`` and ``/heartbeat``;
* :meth:`ServeClient.result` treats the server's long-poll ``504`` as
  "not done yet" and re-polls until its *own* deadline;
* :meth:`ServeClient.events` survives dropped connections by resuming
  from the last sequence number, without duplicating or reordering.
* an out-of-range :class:`ServeConfig` field is a one-line ``ValueError``
  naming the field (``repro serve`` exits 2) before anything binds.

Servers here run with ``workers=0`` where possible (no subprocess spawn),
so the module stays fast.
"""

from __future__ import annotations

import importlib
import json
import socket
import time

import pytest

from repro.api.spec import Budget, RunSpec
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.serve.client import ServeError

#: Single-chunk-per-basis spec: the cheapest real job the fabric can run.
SMALL_SPEC = RunSpec(code="steane", decoder="lookup", budget=Budget(shots=512), seed=11)


def idle_config(**overrides):
    defaults = dict(port=0, workers=0, poll_interval=0.05)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def raw_request(server, payload: bytes) -> bytes:
    """Send raw bytes to the server socket, return the full response."""
    host, port = server.url.split("//")[1].split(":")
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


@pytest.fixture(scope="module")
def idle_server():
    with serve_in_thread(idle_config()) as server:
        yield server


class TestParseErrors:
    def test_non_json_post_body_is_400(self, idle_server):
        client = ServeClient(idle_server.url)
        response = raw_request(
            idle_server,
            b"POST /jobs HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 9\r\n\r\nnot json!",
        )
        assert response.startswith(b"HTTP/1.1 400")
        assert b'"error"' in response
        # The server survives it.
        assert client.health()["status"] == "ok"

    def test_json_array_body_is_400(self, idle_server):
        body = b"[1, 2, 3]"
        response = raw_request(
            idle_server,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert response.startswith(b"HTTP/1.1 400")
        assert b"JSON object" in response

    def test_malformed_content_length_is_400(self, idle_server):
        response = raw_request(
            idle_server,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")

    def test_malformed_timeout_query_is_400(self, idle_server):
        client = ServeClient(idle_server.url)
        job_id = client.submit(SMALL_SPEC)["job"]["id"]
        for bad in ("oops", "", "nan", "inf"):
            with pytest.raises(ServeError) as excinfo:
                client._request("GET", f"/jobs/{job_id}/result?timeout={bad}")
            assert excinfo.value.status == 400, bad
        # A well-formed request on the same socket path still works.
        assert client.job(job_id)["id"] == job_id

    def test_malformed_since_query_is_400(self, idle_server):
        client = ServeClient(idle_server.url)
        job_id = client.submit(SMALL_SPEC)["job"]["id"]
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", f"/jobs/{job_id}/events?since=later")
        assert excinfo.value.status == 400

    def test_unknown_routes_and_verbs_are_404(self, idle_server):
        client = ServeClient(idle_server.url)
        job_id = client.submit(SMALL_SPEC)["job"]["id"]
        for method, path in (
            ("GET", "/nope"),
            ("POST", "/jobs/extra/segments"),
            ("DELETE", "/jobs"),
            ("GET", f"/jobs/{job_id}/frobnicate"),
            ("POST", "/lease"),
            ("POST", "/chunks"),
            ("POST", "/heartbeat"),
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request(method, path)
            assert excinfo.value.status == 404, (method, path)
        with pytest.raises(ServeError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404

    def test_submit_without_spec_is_400(self, idle_server):
        client = ServeClient(idle_server.url)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/jobs", {"priority": 1})
        assert excinfo.value.status == 400


class TestRetiredWorkerProtocol:
    """The remote-worker protocol is gone: its routes lease and record nothing."""

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/lease", {"worker_id": "r-1"}),
            ("/chunks", {"worker_id": "r-1", "results": [], "failures": []}),
            ("/heartbeat", {"worker_id": "r-1"}),
        ],
    )
    def test_well_formed_request_is_404_and_grants_nothing(
        self, idle_server, path, payload
    ):
        client = ServeClient(idle_server.url)
        job_id = client.submit(SMALL_SPEC)["job"]["id"]
        before = client.health()["stats"]
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", path, payload)
        assert excinfo.value.status == 404
        assert client.health()["stats"] == before
        assert client.job(job_id)["state"] == "queued"

    def test_client_has_no_worker_protocol_methods(self):
        for name in ("lease", "heartbeat", "report"):
            assert not hasattr(ServeClient, name), name

    def test_remote_worker_module_is_gone(self):
        import repro.serve

        assert "RemoteWorker" not in repro.serve.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serve.remote")


class TestResultPolling:
    def test_client_repolls_through_server_504s(self):
        # Server long-poll windows far shorter than the job: the client
        # must treat each 504 as "not done yet" and keep polling.
        config = ServeConfig(port=0, workers=1, poll_interval=0.05, throttle=0.2)
        with serve_in_thread(config) as server:
            client = ServeClient(server.url)
            job_id = client.submit(SMALL_SPEC)["job"]["id"]
            result = client.result(job_id, timeout=120.0, poll_window=0.05)
        assert result["shots"] == 512

    def test_client_deadline_raises_504(self, idle_server):
        # workers=0 starts no worker process: the job stays queued.
        client = ServeClient(idle_server.url)
        job_id = client.submit(SMALL_SPEC)["job"]["id"]
        with pytest.raises(ServeError) as excinfo:
            client.result(job_id, timeout=0.4, poll_window=0.1)
        assert excinfo.value.status == 504

    def test_result_of_failed_job_raises_with_its_error(self):
        config = ServeConfig(port=0, workers=1, poll_interval=0.05)
        with serve_in_thread(config) as server:
            client = ServeClient(server.url)
            bad = SMALL_SPEC.replace(decoder="lookup:radius=oops")
            job_id = client.submit(bad)["job"]["id"]
            with pytest.raises(ServeError) as excinfo:
                client.result(job_id, timeout=60.0, poll_window=0.5)
        assert excinfo.value.status == 500
        assert "radius" in str(excinfo.value)


class FlakyEvents:
    """Scripted `_events_once` stand-in: drops the stream between calls."""

    def __init__(self, scripts):
        self.scripts = list(scripts)
        self.calls = []

    def __call__(self, job_id, since):
        self.calls.append(since)
        if not self.scripts:
            raise AssertionError("client reconnected more often than scripted")
        script = self.scripts.pop(0)
        yield {"event": "job", "job": {"id": job_id, "state": "running"}}
        for event in script:
            yield event
        if self.scripts:
            raise ConnectionError("stream dropped")


class TestEventsReconnect:
    def make_client(self, monkeypatch, scripts):
        client = ServeClient("127.0.0.1:9")  # never actually connected
        flaky = FlakyEvents(scripts)
        monkeypatch.setattr(
            client, "_events_once", lambda job_id, since: flaky(job_id, since)
        )
        return client, flaky

    def test_resume_deduplicates_and_preserves_order(self, monkeypatch):
        scripts = [
            [
                {"event": "progress", "seq": 1, "basis": "Z", "chunks_done": 1},
                {"event": "progress", "seq": 2, "basis": "Z", "chunks_done": 2},
            ],
            [
                {"event": "progress", "seq": 2, "basis": "Z", "chunks_done": 2},
                {"event": "progress", "seq": 3, "basis": "X", "chunks_done": 1},
                {"event": "done", "seq": 4, "result": {"shots": 512}},
            ],
        ]
        client, flaky = self.make_client(monkeypatch, scripts)
        events = list(client.events("job-1", reconnect_delay=0.0))
        kinds = [event["event"] for event in events]
        assert kinds == ["job", "progress", "progress", "progress", "done"]
        seqs = [event["seq"] for event in events if "seq" in event]
        assert seqs == [1, 2, 3, 4]  # seq 2 not duplicated, order preserved
        assert flaky.calls == [0, 2]  # reconnect resumed from the last seq

    def test_terminal_event_always_yielded_even_with_stale_seq(self, monkeypatch):
        # After a server restart the event counter resets; a terminal event
        # numbered below the client's high-water mark must still be yielded.
        scripts = [
            [{"event": "progress", "seq": 7, "basis": "Z", "chunks_done": 3}],
            [{"event": "done", "seq": 1, "result": {"shots": 512}}],
        ]
        client, _ = self.make_client(monkeypatch, scripts)
        events = list(client.events("job-1", reconnect_delay=0.0))
        assert [event["event"] for event in events] == ["job", "progress", "done"]

    def test_no_reconnect_mode_raises(self, monkeypatch):
        scripts = [
            [{"event": "progress", "seq": 1, "basis": "Z", "chunks_done": 1}],
            [{"event": "done", "seq": 2, "result": {}}],
        ]
        client, _ = self.make_client(monkeypatch, scripts)
        with pytest.raises(ConnectionError):
            list(client.events("job-1", reconnect=False))

    def test_reconnect_budget_exhaustion_raises_503(self, monkeypatch):
        client = ServeClient("127.0.0.1:9")

        def always_drops(job_id, since):
            raise ConnectionError("down")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(client, "_events_once", always_drops)
        with pytest.raises(ServeError) as excinfo:
            list(
                client.events(
                    "job-1", max_reconnects=2, reconnect_delay=0.0
                )
            )
        assert excinfo.value.status == 503


class TestHealthz:
    def test_health_reports_memo_and_journal_state(self, idle_server):
        health = ServeClient(idle_server.url).health()
        assert health["status"] == "ok"
        assert {"retained", "ttl", "cap", "evicted"} <= set(health["memo"])
        assert "journal" in health
        assert "remote_workers" not in health
        assert "jobs_restored" in health

    def test_zero_worker_server_keeps_jobs_queued(self):
        # No worker process at all is not a dead fleet: the reaper must
        # leave the job queued over many ticks rather than fail it.
        with serve_in_thread(idle_config(poll_interval=0.02)) as server:
            client = ServeClient(server.url)
            job_id = client.submit(SMALL_SPEC)["job"]["id"]
            time.sleep(0.3)
            health = client.health()
            assert client.job(job_id)["state"] == "queued"
        assert health["workers"] == []
        assert health["jobs"]["queued"] == 1
        assert health["jobs"]["failed"] == 0


def test_events_stream_resumes_over_real_http():
    """End-to-end seq resume: replay history via ?since= on a live server."""
    config = ServeConfig(port=0, workers=1, poll_interval=0.05)
    with serve_in_thread(config) as server:
        client = ServeClient(server.url)
        job_id = client.submit(SMALL_SPEC)["job"]["id"]
        full = list(client.events(job_id))
        assert full[-1]["event"] == "done"
        mid_seq = full[1]["seq"]  # pretend we dropped after the first event
        resumed = list(client.events(job_id, since=mid_seq))
    replayed = [event for event in resumed if event.get("seq", 0) > 0]
    assert all(event["seq"] > mid_seq for event in replayed[:-1])
    assert resumed[-1]["event"] == "done"
    assert resumed[-1]["result"] == full[-1]["result"]
    # No duplicates, strictly increasing sequence in the resumed stream.
    seqs = [event["seq"] for event in replayed]
    assert seqs == sorted(set(seqs))


# ----------------------------------------------------------------------
# Configuration is validated before anything binds or spawns
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "field, value",
    [
        ("workers", -3),
        ("port", -1),
        ("port", 70000),
        ("lease_timeout", 0),
        ("lease_timeout", -1.0),
        ("poll_interval", 0),
        ("poll_interval", -1),
        ("memo_ttl", -1.0),
        ("memo_cap", -5),
        ("throttle", -0.1),
    ],
)
def test_out_of_range_config_is_a_one_line_value_error(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be") as raised:
        ServeConfig(**{field: value})
    assert "\n" not in str(raised.value)


def test_boundary_config_values_are_accepted():
    config = ServeConfig(port=0, workers=0, memo_ttl=None, memo_cap=None, throttle=0.0)
    assert (config.port, config.workers) == (0, 0)
    assert ServeConfig(port=65535, memo_ttl=0.0, memo_cap=0).port == 65535


@pytest.mark.parametrize("field", ["lease_chunks", "window"])
def test_retired_config_fields_are_refused(field):
    with pytest.raises(TypeError, match=field):
        ServeConfig(**{field: 2})


def test_cli_serve_rejects_bad_config_with_exit_2(capsys):
    from repro.api.cli import main

    assert main(["serve", "--port", "70000", "--workers", "0"]) == 2
    assert main(["serve", "--port", "0", "--workers", "0", "--poll-interval", "0"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors == [
        "error: port must be in 0..65535, got 70000",
        "error: poll_interval must be > 0, got 0.0",
    ]


def test_cli_serve_lease_chunks_flag_is_retired(capsys):
    from repro.api.cli import main

    with pytest.raises(SystemExit) as raised:
        main(["serve", "--lease-chunks", "2"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --lease-chunks 2" in capsys.readouterr().err
