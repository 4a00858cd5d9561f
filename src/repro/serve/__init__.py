"""``repro serve`` — a shared execution service over the chunk plan.

The service turns the worker-count-invariant chunk plan
(:mod:`repro.parallel`) and the content-addressed chunk cache
(:mod:`repro.cache`) into a long-running HTTP job queue that many clients
share, executed by one fleet of local worker processes:

:mod:`repro.serve.jobs`
    the deduplicating priority job queue and the chunk-lease scheduler.
    Identical canonical :class:`~repro.api.spec.RunSpec` submissions
    coalesce into one job; local workers lease fixed 1024-shot chunk
    ranges with deadlines, so a killed worker never strands a job, and the
    results are consumed in chunk order through
    :meth:`repro.parallel.AdaptiveEstimate.consume`, as offline.

:mod:`repro.serve.worker`
    the worker process: builds the pipeline stages for a job once, then
    takes each leased chunk through the offline chunk loop's own step,
    :func:`repro.parallel.chunk_step` — replaying or publishing its
    ``(shots, errors)`` summary through the shared
    :class:`repro.cache.ResultCache`.

:mod:`repro.serve.server`
    the asyncio HTTP service (stdlib only): ``POST /jobs``,
    ``GET /jobs/<id>/events`` (NDJSON streaming progress with live Wilson
    estimates), ``GET /jobs/<id>/result`` and ``GET /healthz``.

:mod:`repro.serve.client`
    a stdlib client used by ``repro submit`` / ``repro jobs``, the suite
    runner's server mode and the integration tests.

:mod:`repro.serve.journal`
    the durable queue: submissions and terminal transitions journal to an
    append-only JSONL so a restarted server resumes in-flight jobs (their
    published chunks replaying from the cache) and keeps completed memos,
    which in turn live under a TTL and LRU cap so the job table stays
    bounded.

Because jobs consume the exact chunk plan, seed streams and stopping rule
the offline :class:`repro.api.Pipeline` uses, a served result is
**bit-identical** to the same RunSpec run offline, for every server worker
count — pinned by ``tests/test_serve_integration.py``.
"""

from repro.serve.client import ServeClient
from repro.serve.jobs import Job, JobQueueStats, JobScheduler, JobState, job_key
from repro.serve.journal import JobJournal, load_journal
from repro.serve.server import ReproServer, ServeConfig, serve_in_thread

__all__ = [
    "Job",
    "JobJournal",
    "JobQueueStats",
    "JobScheduler",
    "JobState",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "job_key",
    "load_journal",
    "serve_in_thread",
]
