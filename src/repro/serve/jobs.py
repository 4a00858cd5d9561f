"""Deduplicating priority job queue and chunk-lease scheduler.

This module is the service's brain, written as plain synchronous state
machines so the queue semantics are unit-testable without sockets or
processes (the asyncio server and the worker pool are thin shells around
it — ``tests/test_serve_queue.py`` drives it directly with a fake clock).

**Deduplication.**  A submitted :class:`~repro.api.spec.RunSpec` is reduced
to its canonical payload (:func:`repro.api.spec.canonical_spec` — the same
normalisation sweeps and suite rows resume on, so ``workers`` never splits
a job) and hashed into a :func:`job_key`.  Two submissions with the same
key *coalesce*: the second subscriber attaches to the first job and exactly
one computation runs.  Because results are deterministic functions of the
canonical spec, a completed job is a permanent memo — resubmitting a done
spec returns the finished job immediately.

**Chunk plan.**  A job's work is the exact chunk plan the offline
:class:`repro.api.Pipeline` would execute: per basis (``Z``/``X``), the
sizes :func:`repro.parallel.chunk_plan` lays out for the budget's stopping
rule.  Chunk *results* arrive in any order; :class:`BasisProgress` buffers
them and consumes them strictly in chunk order through
:meth:`repro.parallel.AdaptiveEstimate.consume` — the step the offline
loop takes — so speculative chunks past an adaptive stopping point are
discarded, and the finished job reduces through
:func:`repro.sim.estimator.rates_from_estimates`.  That is byte-for-byte
the offline engine's contract, which is what makes served results
bit-identical to offline runs.

**Leases.**  Workers are granted chunk ranges under a deadline
(``lease_timeout``); every reported chunk renews the lease.  An
expired lease — a worker that died, hung, or was killed mid-job — has its
unfinished chunks requeued ahead of fresh dispatch, so the job still
completes (and completes *identically*, since a chunk's content depends
only on its index and stream, never on which worker runs it).

**Durability.**  With a :class:`~repro.serve.journal.JobJournal` attached,
every new submission and terminal transition is appended as one JSONL
record; :meth:`~JobScheduler.restore` replays a journal after a restart so
pending/running jobs resume (their published chunks replaying from the
shared cache at ``chunks_executed == 0``) and completed memos survive.

**TTL / eviction.**  Terminal jobs are memos with a bounded lifetime:
:meth:`~JobScheduler.evict` sweeps memos idle past ``memo_ttl`` and trims
the LRU table past ``memo_cap``, so a long-lived server's job table stays
bounded no matter how many specs pass through it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.stats import relative_error
from repro.api.pipeline import RunResult, adaptive_report
from repro.api.spec import RunSpec, canonical_spec
from repro.parallel import AdaptiveEstimate, chunk_plan
from repro.sim.estimator import BASES, rates_from_estimates

__all__ = [
    "BasisProgress",
    "ChunkTask",
    "Job",
    "JobQueueStats",
    "JobScheduler",
    "JobState",
    "Lease",
    "job_key",
]

#: Chunks one lease grants (``JobScheduler``'s default).
LEASE_CHUNKS = 4


def job_key(spec: RunSpec) -> str:
    """Content address of one job: SHA-256 of the canonical spec payload.

    ``workers`` (and nothing else) is dropped by the canonicalisation, so
    submissions that differ only in an execution detail share a key.
    """
    payload = canonical_spec(spec.to_dict())
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class JobState:
    """Job lifecycle states (plain strings so summaries JSON-serialise)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    #: States in which no further work will be dispatched.
    TERMINAL = (DONE, FAILED)


@dataclass(frozen=True)
class ChunkTask:
    """One leased unit of work: chunk ``index`` of ``basis`` of a job."""

    job_id: str
    basis: str
    index: int
    shots: int


class BasisProgress:
    """Ordered consumption of one basis' chunk plan from out-of-order arrivals.

    Chunk results arrive in any order (workers race).  A wanted result waits
    in ``buffered`` until every lower index has arrived, then it is consumed
    into ``consumed`` through :meth:`repro.parallel.AdaptiveEstimate.consume`,
    exactly as :func:`repro.parallel.sample_and_decode` consumes it.
    ``done`` flips when that step says stop; anything buffered or reported
    after that is speculation and is discarded.
    """

    def __init__(self, sizes: list[int], rule) -> None:
        self.sizes = sizes
        self.rule = rule
        self.consumed = AdaptiveEstimate()
        self.buffered: dict[int, tuple[int, int, bool]] = {}
        self.next_dispatch = 0
        self.done = not sizes

    @property
    def next_consume(self) -> int:
        """Index of the next chunk to consume."""
        return self.consumed.chunks

    def wants(self, index: int) -> bool:
        """True while chunk ``index`` is not done, not consumed and not buffered."""
        return not self.done and index >= self.next_consume and index not in self.buffered

    def record(self, index: int, shots: int, errors: int, cached: bool) -> bool:
        """Take one chunk result if it is wanted, consuming in order.  True if taken."""
        if not self.wants(index):
            return False
        self.buffered[index] = (shots, errors, not cached)
        while not self.done and self.next_consume in self.buffered:
            counts = self.buffered.pop(self.next_consume)
            self.done = self.consumed.consume(*counts, self.rule, len(self.sizes))
        if self.done:
            self.buffered.clear()
        return True

    def dispatchable(self, window: int) -> "list[int]":
        """Chunk indices ready to hand out, bounded by the speculation window.

        ``window`` caps how far past the consumption frontier the scheduler
        speculates — pools on the offline path do the same via
        ``lookahead`` — so an adaptive job that stops early never fans its
        whole ``max_shots`` plan out to the fleet.
        """
        if self.done:
            return []
        horizon = min(len(self.sizes), self.next_consume + max(1, window))
        return list(range(max(self.next_dispatch, self.next_consume), horizon))

    def mark_dispatched(self, index: int) -> None:
        """Advance the dispatch frontier past ``index``."""
        self.next_dispatch = max(self.next_dispatch, index + 1)

    def summary(self) -> dict:
        """JSON-ready progress snapshot of this basis."""
        consumed = self.consumed
        rse = relative_error(consumed.errors, consumed.shots, z=self.rule.z)
        return {
            "chunks_done": consumed.chunks,
            "chunks_planned": len(self.sizes),
            "shots": consumed.shots,
            "errors": consumed.errors,
            "rate": consumed.rate,
            "rse": rse if math.isfinite(rse) else None,
            "converged": consumed.converged,
            "done": self.done,
        }


class Job:
    """One deduplicated computation: a spec, its chunk plan, its progress."""

    def __init__(self, job_id: str, key: str, spec: RunSpec, priority: int, seq: int) -> None:
        self.id = job_id
        self.key = key
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.state = JobState.QUEUED
        self.submissions = 1
        self.rule = spec.budget.stopping_rule()
        sizes = chunk_plan(self.rule.max_shots, None).sizes
        self.progress: dict[str, BasisProgress] = {
            basis: BasisProgress(sizes, self.rule) for basis in BASES
        }
        #: Expired-lease chunks to re-dispatch before fresh speculation.
        self.requeued: list[ChunkTask] = []
        #: Pipeline facts reported by the first worker to build the job's
        #: stages (schedule depth, synthesis counters) — needed to assemble
        #: a RunResult identical to the offline pipeline's.
        self.depth: int | None = None
        self.synthesis_evaluations: int | None = None
        self.baseline_overall: float | None = None
        self.result: dict | None = None
        self.error: str | None = None

    # ------------------------------------------------------------------
    @property
    def adaptive(self) -> bool:
        """True when the job's budget streams through a precision target."""
        return self.spec.budget.adaptive

    @property
    def complete(self) -> bool:
        """True when every basis has consumed its plan (or converged)."""
        return all(progress.done for progress in self.progress.values())

    def chunk_task(self, basis: str, index: int) -> ChunkTask:
        """The :class:`ChunkTask` for one chunk of one basis."""
        return ChunkTask(self.id, basis, index, self.progress[basis].sizes[index])

    def absorb_info(self, info: dict | None) -> None:
        """Record the worker-reported pipeline facts (first reporter wins)."""
        if not info or self.depth is not None:
            return
        self.depth = info.get("depth")
        self.synthesis_evaluations = info.get("synthesis_evaluations")
        self.baseline_overall = info.get("baseline_overall")

    def finalize(self) -> dict:
        """Assemble the RunResult payload — the offline pipeline's, bit for bit.

        The consumed per-basis counts reduce through
        :func:`repro.sim.estimator.rates_from_estimates` with the job's
        stopping rule, exactly as the offline pipeline does.
        """
        depth = self.depth if self.depth is not None else 0
        estimates = {basis: progress.consumed for basis, progress in self.progress.items()}
        rates = rates_from_estimates(depth, estimates, self.rule)
        report = adaptive_report(self.spec.budget, estimates) if self.adaptive else None
        self.result = RunResult(
            spec=self.spec,
            rates=rates,
            depth=depth,
            synthesis_evaluations=self.synthesis_evaluations,
            baseline_overall=self.baseline_overall,
            adaptive=report,
        ).to_dict()
        self.state = JobState.DONE
        return self.result

    def summary(self) -> dict:
        """JSON-ready job snapshot (the ``GET /jobs/<id>`` payload)."""
        payload = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "priority": self.priority,
            "submissions": self.submissions,
            "adaptive": self.adaptive,
            "spec": self.spec.to_dict(),
            "depth": self.depth,
            "progress": {basis: progress.summary() for basis, progress in self.progress.items()},
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


@dataclass
class Lease:
    """One worker's claim on a set of chunks, valid until ``deadline``."""

    worker_id: str
    tasks: "set[ChunkTask]" = field(default_factory=set)
    deadline: float = 0.0


@dataclass
class JobQueueStats:
    """Fabric-wide counters (the dedup and lease acceptance evidence)."""

    jobs_submitted: int = 0
    jobs_coalesced: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_evicted: int = 0
    jobs_restored: int = 0
    chunks_executed: int = 0
    chunks_cached: int = 0
    chunks_discarded: int = 0
    leases_granted: int = 0
    leases_expired: int = 0

    def to_dict(self) -> dict:
        """Plain-dict view for ``/healthz``."""
        return dict(vars(self))


class JobScheduler:
    """Priority queue + dedup map + lease table, driven by an external clock.

    Every mutating call takes ``now`` (any monotonic float) and returns the
    NDJSON-ready events it produced, so the asyncio server stays a thin
    transport: it forwards worker messages in and fans events out.
    """

    def __init__(
        self,
        *,
        lease_timeout: float = 30.0,
        lease_chunks: int = LEASE_CHUNKS,
        window: int = 8,
        memo_ttl: float | None = None,
        memo_cap: int | None = None,
        journal=None,
    ) -> None:
        self.lease_timeout = lease_timeout
        self.lease_chunks = max(1, lease_chunks)
        self.window = max(1, window)
        self.memo_ttl = memo_ttl if memo_ttl and memo_ttl > 0 else None
        self.memo_cap = memo_cap if memo_cap and memo_cap > 0 else None
        self.journal = journal
        self.jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        #: Min-heap of ``(-priority, seq, job_id)`` — higher priority first,
        #: FIFO within a priority level.  Entries go stale when a job
        #: finishes or its priority is raised; stale entries are dropped
        #: lazily during dispatch scans.
        self._heap: list[tuple[int, int, str]] = []
        self._leases: dict[str, Lease] = {}
        #: Terminal jobs in LRU order: ``job_id -> last_touch`` clock value.
        #: Iteration order is recency (oldest first); the TTL/cap sweep in
        #: :meth:`evict` pops from the front.
        self._memos: "OrderedDict[str, float]" = OrderedDict()
        self._seq = 0
        self.stats = JobQueueStats()

    # ------------------------------------------------------------------
    # Submission / dedup
    # ------------------------------------------------------------------
    def submit(
        self, spec: RunSpec, *, priority: int = 0, now: float = 0.0
    ) -> "tuple[Job, bool, list[dict]]":
        """Submit a spec; returns ``(job, coalesced, events)``.

        A spec whose canonical payload matches a live (or completed) job
        coalesces into it — ``coalesced=True`` and no new computation.  A
        coalescing submission with a *higher* priority raises the job's
        priority (the fabric serves the most urgent subscriber).  Specs
        that previously **failed** are retried with a fresh job.  ``now``
        feeds the memo LRU: touching a completed memo keeps it warm
        against the TTL/cap sweep of :meth:`evict`.
        """
        if spec.budget.plan_shots <= 0:
            raise ValueError("serve jobs need budget.shots (or max_shots) >= 1")
        key = job_key(spec)
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            job = self.jobs[existing_id]
            if job.state != JobState.FAILED:
                job.submissions += 1
                self.stats.jobs_coalesced += 1
                if job.state in JobState.TERMINAL:
                    self._touch_memo(job.id, now)
                elif priority > job.priority:
                    job.priority = priority
                    self._push(job)
                return job, True, []
        self._seq += 1
        job = Job(f"j{self._seq:04d}-{key[:12]}", key, spec, priority, self._seq)
        self.jobs[job.id] = job
        self._by_key[key] = job.id
        self._push(job)
        self.stats.jobs_submitted += 1
        self._journal(
            {
                "record": "submit",
                "job_id": job.id,
                "key": key,
                "seq": job.seq,
                "priority": priority,
                "spec": spec.to_dict(),
            }
        )
        return job, False, [{"event": "queued", "job_id": job.id}]

    def _journal(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _touch_memo(self, job_id: str, now: float) -> None:
        self._memos[job_id] = now
        self._memos.move_to_end(job_id)

    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, job.seq, job.id))

    def get(self, job_id: str) -> Job | None:
        """The job with ``job_id`` (or ``None``)."""
        return self.jobs.get(job_id)

    # ------------------------------------------------------------------
    # Dispatch / leases
    # ------------------------------------------------------------------
    def assign(self, worker_id: str, now: float) -> "list[ChunkTask]":
        """Lease up to ``lease_chunks`` chunks of the best runnable job.

        Requeued chunks (from expired leases) go out first; fresh chunks
        follow the basis plans within the speculation window.  Returns an
        empty list when nothing is runnable.  The granted lease expires at
        ``now + lease_timeout`` unless renewed by reported results.
        """
        job = self._next_runnable()
        if job is None:
            return []
        tasks: list[ChunkTask] = []
        while job.requeued and len(tasks) < self.lease_chunks:
            tasks.append(job.requeued.pop(0))
        if len(tasks) < self.lease_chunks:
            for basis in BASES:
                progress = job.progress[basis]
                for index in progress.dispatchable(self.window):
                    if len(tasks) >= self.lease_chunks:
                        break
                    tasks.append(job.chunk_task(basis, index))
                    progress.mark_dispatched(index)
        if not tasks:
            return []
        if job.state == JobState.QUEUED:
            job.state = JobState.RUNNING
        lease = self._leases.setdefault(worker_id, Lease(worker_id))
        lease.tasks.update(tasks)
        lease.deadline = now + self.lease_timeout
        self.stats.leases_granted += 1
        return tasks

    def _next_runnable(self) -> Job | None:
        """Highest-priority job with dispatchable work (stale entries dropped)."""
        kept: list[tuple[int, int, str]] = []
        found: Job | None = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            neg_priority, _, job_id = entry
            job = self.jobs.get(job_id)
            if job is None or job.state in JobState.TERMINAL or -neg_priority != job.priority:
                continue  # stale: finished, or superseded by a priority raise
            kept.append(entry)
            if job.requeued or any(
                job.progress[basis].dispatchable(self.window) for basis in BASES
            ):
                found = job
                break
        for entry in kept:
            heapq.heappush(self._heap, entry)
        return found

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def record_result(
        self,
        worker_id: str,
        task: ChunkTask,
        shots: int,
        errors: int,
        cached: bool,
        info: dict | None,
        now: float,
    ) -> "list[dict]":
        """Fold one worker-reported chunk back into its job.

        Renews the worker's lease (a reporting worker is alive), advances
        the ordered consumption frontier, and — when the last basis
        finishes — finalizes the job.  Results for finished jobs (adaptive
        speculation past the stopping point, or a lease that expired and
        was re-run) are counted as discarded and otherwise ignored.
        """
        lease = self._leases.get(worker_id)
        if lease is not None:
            lease.tasks.discard(task)
            lease.deadline = now + self.lease_timeout
            if not lease.tasks:
                del self._leases[worker_id]
        job = self.jobs.get(task.job_id)
        if job is None or job.state in JobState.TERMINAL:
            self.stats.chunks_discarded += 1
            return []
        job.absorb_info(info)
        progress = job.progress.get(task.basis)
        consumed_before = progress.consumed.chunks if progress is not None else 0
        if progress is None or not progress.record(task.index, shots, errors, cached):
            # Speculation past an adaptive stop, or a duplicate of a chunk
            # another worker (possibly before a server restart) already
            # delivered — drop it before it reaches any counter, so the
            # fabric stats never double-count a chunk.
            self.stats.chunks_discarded += 1
            return []
        if cached:
            self.stats.chunks_cached += 1
        else:
            self.stats.chunks_executed += 1
        # A chunk that only entered the out-of-order buffer moves no counter
        # a subscriber can see, so only an advanced prefix is news.
        events = []
        if progress.consumed.chunks != consumed_before:
            events.append(
                {"event": "progress", "job_id": job.id, "basis": task.basis, **progress.summary()}
            )
        if job.complete:
            result = job.finalize()
            self.stats.jobs_completed += 1
            self._drop_job_tasks(job.id)
            self._touch_memo(job.id, now)
            self._journal(
                {"record": "state", "job_id": job.id, "state": JobState.DONE, "result": result}
            )
            events.append({"event": "done", "job_id": job.id, "result": result})
        return events

    def fail_job(self, job_id: str, message: str, now: float = 0.0) -> "list[dict]":
        """Mark a job failed (worker could not build or execute it)."""
        job = self.jobs.get(job_id)
        if job is None or job.state in JobState.TERMINAL:
            return []
        job.state = JobState.FAILED
        job.error = message
        self.stats.jobs_failed += 1
        self._drop_job_tasks(job_id)
        self._touch_memo(job_id, now)
        self._journal(
            {"record": "state", "job_id": job_id, "state": JobState.FAILED, "error": message}
        )
        return [{"event": "failed", "job_id": job_id, "error": message}]

    def _drop_job_tasks(self, job_id: str) -> None:
        """Remove a finished job's chunks from every outstanding lease."""
        for worker_id in list(self._leases):
            lease = self._leases[worker_id]
            lease.tasks = {task for task in lease.tasks if task.job_id != job_id}
            if not lease.tasks:
                del self._leases[worker_id]

    # ------------------------------------------------------------------
    # Memo TTL / eviction
    # ------------------------------------------------------------------
    def evict(self, now: float) -> "list[str]":
        """Drop terminal memos past ``memo_ttl`` or beyond ``memo_cap`` (LRU).

        Completed jobs are permanent memos *while they live*; this sweep
        bounds how long (and how many) they live, so a long-running server
        stops leaking job-table memory.  Returns the evicted job ids so the
        server can drop its per-job event state too.  A resubmission of an
        evicted spec simply runs fresh (and, with a chunk cache, replays
        published chunks at zero sampling cost).
        """
        evicted: list[str] = []
        if self.memo_ttl is not None:
            while self._memos:
                job_id, touched = next(iter(self._memos.items()))
                if now - touched < self.memo_ttl:
                    break
                evicted.append(job_id)
                del self._memos[job_id]
        if self.memo_cap is not None:
            while len(self._memos) > self.memo_cap:
                job_id, _ = self._memos.popitem(last=False)
                evicted.append(job_id)
        for job_id in evicted:
            job = self.jobs.pop(job_id, None)
            if job is not None and self._by_key.get(job.key) == job_id:
                del self._by_key[job.key]
            self.stats.jobs_evicted += 1
            self._journal({"record": "evict", "job_id": job_id})
        return evicted

    @property
    def memo_count(self) -> int:
        """Number of terminal jobs currently retained as memos."""
        return len(self._memos)

    # ------------------------------------------------------------------
    # Durability: journal replay / snapshot
    # ------------------------------------------------------------------
    def restore(self, records: "list[dict]", now: float = 0.0) -> "list[Job]":
        """Rebuild the job table from journal ``records`` (in file order).

        Non-terminal jobs re-enter the queue as ``queued`` with their
        original id/key/seq/priority — their chunk progress restarts from
        zero, but workers replay already-published chunk summaries through
        the shared content-addressed cache, so the completed prefix costs
        ``chunks_executed == 0``.  ``done`` records restore the full result
        memo; ``evict`` records keep swept memos dead.  Returns the jobs
        that re-entered the queue (the ones a server should re-dispatch).
        """
        for record in records:
            kind = record.get("record")
            if kind == "submit":
                spec = RunSpec.from_dict(record["spec"])
                job = Job(
                    record["job_id"],
                    record["key"],
                    spec,
                    int(record.get("priority", 0)),
                    int(record["seq"]),
                )
                self.jobs[job.id] = job
                self._by_key[job.key] = job.id
                self._seq = max(self._seq, job.seq)
            elif kind == "state":
                job = self.jobs.get(record["job_id"])
                if job is None:
                    continue
                job.state = record["state"]
                if job.state == JobState.DONE:
                    job.result = record.get("result")
                    job.depth = (job.result or {}).get("depth")
                else:
                    job.error = record.get("error")
                self._touch_memo(job.id, now)
            elif kind == "evict":
                job = self.jobs.pop(record["job_id"], None)
                self._memos.pop(record["job_id"], None)
                if job is not None and self._by_key.get(job.key) == job.id:
                    del self._by_key[job.key]
            else:
                raise ValueError(f"unknown journal record kind {kind!r}")
        requeued: list[Job] = []
        for job in self.jobs.values():
            if job.state in JobState.TERMINAL:
                continue
            job.state = JobState.QUEUED
            self._push(job)
            requeued.append(job)
        self.stats.jobs_restored = len(requeued)
        return requeued

    def snapshot_records(self) -> "list[dict]":
        """The compacted journal equivalent of the current job table.

        One ``submit`` record (plus a terminal ``state`` record where
        applicable) per live job, in submission order — what
        :meth:`repro.serve.journal.JobJournal.compact` rewrites the file
        with after a restart replay.
        """
        records: list[dict] = []
        for job in sorted(self.jobs.values(), key=lambda j: j.seq):
            records.append(
                {
                    "record": "submit",
                    "job_id": job.id,
                    "key": job.key,
                    "seq": job.seq,
                    "priority": job.priority,
                    "spec": job.spec.to_dict(),
                }
            )
            if job.state == JobState.DONE:
                records.append(
                    {
                        "record": "state",
                        "job_id": job.id,
                        "state": JobState.DONE,
                        "result": job.result,
                    }
                )
            elif job.state == JobState.FAILED:
                records.append(
                    {
                        "record": "state",
                        "job_id": job.id,
                        "state": JobState.FAILED,
                        "error": job.error,
                    }
                )
        return records

    # ------------------------------------------------------------------
    # Lease expiry / worker death
    # ------------------------------------------------------------------
    def reap(self, now: float) -> "list[ChunkTask]":
        """Requeue the chunks of every lease whose deadline has passed."""
        requeued: list[ChunkTask] = []
        for worker_id, lease in list(self._leases.items()):
            if lease.deadline <= now:
                requeued.extend(self._expire(worker_id))
        return requeued

    def worker_lost(self, worker_id: str) -> "list[ChunkTask]":
        """Requeue a dead worker's leased chunks immediately.

        The lease *timeout* alone would eventually recover them; death
        detection just recovers faster when the process demonstrably exited.
        """
        if worker_id not in self._leases:
            return []
        return self._expire(worker_id)

    def _expire(self, worker_id: str) -> "list[ChunkTask]":
        lease = self._leases.pop(worker_id)
        self.stats.leases_expired += 1
        requeued = []
        for task in sorted(lease.tasks, key=lambda t: (t.basis, t.index)):
            job = self.jobs.get(task.job_id)
            if job is None or job.state in JobState.TERMINAL:
                continue
            if job.progress[task.basis].wants(task.index):
                job.requeued.append(task)
                requeued.append(task)
        return requeued

    # ------------------------------------------------------------------
    def job_counts(self) -> dict:
        """Job tallies by state (for ``/healthz``)."""
        counts = {state: 0 for state in (
            JobState.QUEUED, JobState.RUNNING, JobState.DONE, JobState.FAILED
        )}
        for job in self.jobs.values():
            counts[job.state] += 1
        return counts
