"""Queue-semantics tests for the serve scheduler (no sockets, no processes).

`repro.serve.jobs.JobScheduler` is a synchronous state machine driven by
an injected clock, so dedup coalescing, priority ordering, lease-timeout
requeue, adaptive early stop and ordered consumption are all pinned here
with plain function calls; `tests/test_serve_integration.py` covers the
same semantics through real worker processes and HTTP.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import StoppingRule
from repro.api.spec import Budget, RunSpec
from repro.parallel import DEFAULT_CHUNK_SHOTS, chunk_sizes, sample_and_decode
from repro.serve.jobs import BasisProgress, JobScheduler, JobState, job_key
from repro.sim.estimator import BASES


def make_spec(**overrides):
    defaults = dict(code="steane", decoder="lookup", budget=Budget(shots=3000), seed=7)
    defaults.update(overrides)
    return RunSpec(**defaults)


def drain(scheduler, worker_id="w1", *, now=0.0, info=None):
    """Run every dispatchable chunk with deterministic fake results."""
    events = []
    while True:
        tasks = scheduler.assign(worker_id, now)
        if not tasks:
            return events
        for task in tasks:
            events.extend(
                scheduler.record_result(
                    worker_id, task, task.shots, task.index + 1, False, info, now
                )
            )


class TestJobKey:
    def test_workers_do_not_split_jobs(self):
        assert job_key(make_spec(workers=1)) == job_key(make_spec(workers=4))

    def test_distinct_specs_distinct_keys(self):
        assert job_key(make_spec(seed=7)) != job_key(make_spec(seed=8))


class TestDedup:
    def test_identical_specs_coalesce_into_one_job(self):
        scheduler = JobScheduler()
        job_a, coalesced_a, _ = scheduler.submit(make_spec(workers=1))
        job_b, coalesced_b, _ = scheduler.submit(make_spec(workers=4))
        assert job_a is job_b
        assert (coalesced_a, coalesced_b) == (False, True)
        assert job_a.submissions == 2
        assert scheduler.stats.jobs_submitted == 1
        assert scheduler.stats.jobs_coalesced == 1

    def test_coalesced_job_runs_exactly_one_computation(self):
        scheduler = JobScheduler(lease_chunks=64, window=64)
        job, _, _ = scheduler.submit(make_spec())
        scheduler.submit(make_spec())
        events = drain(scheduler)
        assert job.state == JobState.DONE
        assert events[-1]["event"] == "done"
        planned = 2 * len(chunk_sizes(3000, DEFAULT_CHUNK_SHOTS))
        assert scheduler.stats.chunks_executed == planned
        assert scheduler.stats.jobs_completed == 1
        # Both "clients" observe the same finished job and result.
        resubmitted, coalesced, _ = scheduler.submit(make_spec())
        assert coalesced and resubmitted is job and resubmitted.result is job.result

    def test_done_job_is_a_permanent_memo(self):
        scheduler = JobScheduler(lease_chunks=64, window=64)
        job, _, _ = scheduler.submit(make_spec())
        drain(scheduler)
        executed = scheduler.stats.chunks_executed
        again, coalesced, events = scheduler.submit(make_spec())
        assert coalesced and again.state == JobState.DONE
        assert events == []
        assert scheduler.assign("w2", 0.0) == []
        assert scheduler.stats.chunks_executed == executed

    def test_failed_job_is_retried_fresh(self):
        scheduler = JobScheduler()
        job, _, _ = scheduler.submit(make_spec())
        scheduler.fail_job(job.id, "boom")
        retry, coalesced, _ = scheduler.submit(make_spec())
        assert not coalesced
        assert retry.id != job.id
        assert retry.state == JobState.QUEUED

    def test_zero_shot_budget_rejected(self):
        scheduler = JobScheduler()
        with pytest.raises(ValueError, match="budget.shots"):
            scheduler.submit(make_spec(budget=Budget(shots=0)))


class TestPriority:
    def test_higher_priority_dispatches_first(self):
        scheduler = JobScheduler(lease_chunks=1)
        low, _, _ = scheduler.submit(make_spec(seed=1), priority=0)
        high, _, _ = scheduler.submit(make_spec(seed=2), priority=5)
        tasks = scheduler.assign("w1", 0.0)
        assert tasks and tasks[0].job_id == high.id

    def test_fifo_within_a_priority_level(self):
        scheduler = JobScheduler(lease_chunks=1)
        first, _, _ = scheduler.submit(make_spec(seed=1))
        scheduler.submit(make_spec(seed=2))
        tasks = scheduler.assign("w1", 0.0)
        assert tasks[0].job_id == first.id

    def test_coalescing_can_raise_priority(self):
        scheduler = JobScheduler(lease_chunks=1)
        scheduler.submit(make_spec(seed=1), priority=3)
        job, _, _ = scheduler.submit(make_spec(seed=2), priority=0)
        raised, coalesced, _ = scheduler.submit(make_spec(seed=2), priority=9)
        assert coalesced and raised is job and job.priority == 9
        tasks = scheduler.assign("w1", 0.0)
        assert tasks[0].job_id == job.id


class TestLeases:
    def test_expired_lease_requeues_unfinished_chunks(self):
        scheduler = JobScheduler(lease_timeout=10.0, lease_chunks=4)
        job, _, _ = scheduler.submit(make_spec())
        lost_tasks = scheduler.assign("w1", now=0.0)
        assert len(lost_tasks) == 4
        assert scheduler.reap(now=5.0) == []  # still within the lease
        requeued = scheduler.reap(now=10.0)
        assert sorted(t.index for t in requeued) == sorted(t.index for t in lost_tasks)
        assert scheduler.stats.leases_expired == 1
        # A healthy worker picks the requeued chunks up first and the job
        # still completes.
        events = drain(scheduler, "w2", now=11.0)
        assert job.state == JobState.DONE
        assert events[-1]["event"] == "done"

    def test_reported_results_renew_the_lease(self):
        scheduler = JobScheduler(lease_timeout=10.0, lease_chunks=4)
        scheduler.submit(make_spec())
        tasks = scheduler.assign("w1", now=0.0)
        scheduler.record_result("w1", tasks[0], tasks[0].shots, 1, False, None, now=8.0)
        assert scheduler.reap(now=12.0) == []  # renewed at t=8 -> expires t=18
        assert scheduler.reap(now=18.0) != []

    def test_worker_lost_requeues_immediately(self):
        scheduler = JobScheduler(lease_timeout=1000.0)
        job, _, _ = scheduler.submit(make_spec())
        tasks = scheduler.assign("w1", now=0.0)
        requeued = scheduler.worker_lost("w1")
        assert sorted(t.index for t in requeued) == sorted(t.index for t in tasks)
        drain(scheduler, "w2")
        assert job.state == JobState.DONE

    def test_duplicate_result_after_requeue_is_discarded(self):
        scheduler = JobScheduler(lease_timeout=10.0, lease_chunks=64, window=64)
        job, _, _ = scheduler.submit(make_spec())
        tasks = scheduler.assign("w1", now=0.0)
        scheduler.reap(now=10.0)  # w1 presumed dead; chunks requeued
        drain(scheduler, "w2", now=11.0)  # w2 completes the whole job
        assert job.state == JobState.DONE
        before = (job.progress["Z"].consumed.shots, job.progress["Z"].consumed.errors)
        discarded = scheduler.stats.chunks_discarded
        # The "dead" worker reports late; the result must change nothing.
        scheduler.record_result(
            "w1", tasks[0], tasks[0].shots, 999, False, None, now=12.0
        )
        assert (job.progress["Z"].consumed.shots, job.progress["Z"].consumed.errors) == before
        assert scheduler.stats.chunks_discarded == discarded + 1


class TestOrderedConsumption:
    def test_out_of_order_results_are_buffered_until_contiguous(self):
        scheduler = JobScheduler(lease_chunks=64, window=64)
        job, _, _ = scheduler.submit(make_spec())
        tasks = [t for t in scheduler.assign("w1", 0.0) if t.basis == "Z"]
        by_index = {t.index: t for t in tasks}
        progress = job.progress["Z"]
        consumed = progress.consumed
        scheduler.record_result("w1", by_index[2], 1000, 5, False, None, 0.0)
        scheduler.record_result("w1", by_index[1], 1000, 3, False, None, 0.0)
        assert progress.next_consume == 0 and consumed.shots == 0
        scheduler.record_result("w1", by_index[0], 1000, 2, False, None, 0.0)
        assert progress.next_consume == 3
        assert (consumed.shots, consumed.errors) == (3000, 10)
        assert consumed.chunk_counts == [(1000, 2), (1000, 3), (1000, 5)]

    def test_fixed_rate_is_single_division_of_summed_counts(self):
        scheduler = JobScheduler(lease_chunks=64, window=64)
        job, _, _ = scheduler.submit(make_spec())
        drain(scheduler)
        result = job.result
        for basis, field in (("Z", "error_x"), ("X", "error_z")):
            consumed = job.progress[basis].consumed
            assert result[field] == consumed.errors / consumed.shots


class _Summary(NamedTuple):
    shots: int
    errors: int


class _StoredCounts:
    """A chunk store holding every chunk of a plan (``put`` must never run)."""

    def __init__(self, counts):
        self.counts = counts

    def get(self, index):
        return _Summary(*self.counts[index])

    def put(self, index, shots, errors):
        raise AssertionError("a fully stored plan samples no chunk")


@st.composite
def _arrivals(draw):
    """A chunk plan's counts, a rule, and a racy arrival order of its chunks."""
    sizes = chunk_sizes(draw(st.integers(1, 1500)), 100)
    counts = [(size, draw(st.integers(0, size // 4))) for size in sizes]
    target = draw(st.one_of(st.none(), st.floats(0.2, 1.0)))
    rule = StoppingRule(max_shots=sum(sizes), target_rse=target)
    duplicates = draw(st.lists(st.sampled_from(range(len(sizes))), max_size=len(sizes)))
    order = draw(st.permutations(list(range(len(sizes))) + duplicates))
    return sizes, counts, rule, order


class TestOutOfOrderConsumer:
    @settings(max_examples=150, deadline=None)
    @given(_arrivals())
    def test_matches_the_in_order_engine(self, case):
        """Any arrival order (duplicates and arrivals after an adaptive stop
        included) consumes exactly what sample_and_decode replays in order."""
        sizes, counts, rule, order = case
        progress = BasisProgress(sizes, rule)
        for index in order:
            progress.record(index, *counts[index], True)
        assert progress.done and not progress.buffered
        engine = sample_and_decode(
            None, None, None, None, rule, chunk_shots=100, store=_StoredCounts(counts)
        )
        consumed = progress.consumed
        assert (consumed.shots, consumed.errors) == (engine.shots, engine.errors)
        assert consumed.chunk_counts == engine.chunk_counts
        assert consumed.converged == engine.converged


class TestAdaptive:
    def adaptive_spec(self):
        return make_spec(
            budget=Budget(shots=1000, target_rse=0.5, max_shots=16 * DEFAULT_CHUNK_SHOTS)
        )

    def test_early_stop_honours_target_rse(self):
        scheduler = JobScheduler(lease_chunks=2, window=2)
        job, _, _ = scheduler.submit(self.adaptive_spec())
        rule = job.spec.budget.stopping_rule()
        drain(scheduler)
        assert job.state == JobState.DONE
        for basis in BASES:
            progress = job.progress[basis]
            consumed = progress.consumed
            assert consumed.converged
            assert rule.converged(consumed.errors, consumed.shots)
            # Strictly fewer chunks than the plan: the stop was early.
            assert progress.next_consume < len(progress.sizes)
            # The stop is the *first* qualifying prefix: the rule must not
            # already hold one chunk earlier.
            shots, errors = 0, 0
            for chunk_shots, chunk_errors in consumed.chunk_counts[:-1]:
                shots += chunk_shots
                errors += chunk_errors
                assert not rule.converged(errors, shots)

    def test_speculative_chunks_past_the_stop_are_discarded(self):
        scheduler = JobScheduler(lease_chunks=64, window=64)
        job, _, _ = scheduler.submit(self.adaptive_spec())
        tasks = scheduler.assign("w1", 0.0)
        done_events = 0
        for task in tasks:
            events = scheduler.record_result(
                "w1", task, task.shots, task.shots // 2, False, None, 0.0
            )
            done_events += sum(1 for event in events if event["event"] == "done")
        assert job.state == JobState.DONE
        assert done_events == 1
        assert scheduler.stats.chunks_discarded > 0
        report = job.result["adaptive"]
        assert report["converged"] is True

    def test_adaptive_window_bounds_speculation(self):
        scheduler = JobScheduler(lease_chunks=64, window=2)
        job, _, _ = scheduler.submit(self.adaptive_spec())
        tasks = scheduler.assign("w1", 0.0)
        for basis in BASES:
            indices = [t.index for t in tasks if t.basis == basis]
            assert indices == [0, 1]
            assert max(indices) < len(job.progress[basis].sizes)


class TestEvents:
    def test_progress_and_done_events_are_emitted(self):
        scheduler = JobScheduler(lease_chunks=64, window=64)
        job, _, submit_events = scheduler.submit(make_spec())
        assert submit_events == [{"event": "queued", "job_id": job.id}]
        events = drain(scheduler, info={"depth": 9})
        kinds = [event["event"] for event in events]
        assert kinds.count("done") == 1 and kinds[-1] == "done"
        assert all(kind == "progress" for kind in kinds[:-1])
        assert job.depth == 9
        assert events[-1]["result"] == job.result
        assert job.result["depth"] == 9

    def test_progress_only_when_the_consumed_prefix_advances(self):
        scheduler = JobScheduler(lease_chunks=64, window=64)
        scheduler.submit(make_spec())
        tasks = {
            task.index: task
            for task in scheduler.assign("w1", 0.0)
            if task.basis == "Z" and task.index in (0, 1)
        }
        # Chunk 1 waits in the buffer for chunk 0: nothing a subscriber sees moves.
        assert scheduler.record_result("w1", tasks[1], tasks[1].shots, 1, False, None, 0.0) == []
        events = scheduler.record_result("w1", tasks[0], tasks[0].shots, 0, False, None, 0.0)
        assert [(event["event"], event["chunks_done"]) for event in events] == [("progress", 2)]

    def test_summary_is_json_ready(self):
        import json

        scheduler = JobScheduler()
        job, _, _ = scheduler.submit(make_spec())
        drain(scheduler)
        payload = json.loads(json.dumps(job.summary()))
        assert payload["state"] == "done"
        assert payload["progress"]["Z"]["chunks_done"] == 3

class TestLeaseRenewal:
    def test_only_results_renew_a_lease(self):
        # With the heartbeat route gone, a reported chunk is the only
        # thing that extends a lease; there is no separate renewal call.
        assert not hasattr(JobScheduler, "renew")
        assert "leases_renewed" not in JobScheduler().stats.to_dict()


class TestMemoEviction:
    def test_ttl_expires_idle_memos(self):
        scheduler = JobScheduler(memo_ttl=100.0)
        job, _, _ = scheduler.submit(make_spec(), now=0.0)
        drain(scheduler)
        assert scheduler.memo_count == 1
        assert scheduler.evict(now=50.0) == []
        assert scheduler.evict(now=100.0) == [job.id]
        assert scheduler.memo_count == 0
        assert job.id not in scheduler.jobs
        assert scheduler.stats.jobs_evicted == 1

    def test_coalescing_touch_keeps_a_memo_warm(self):
        scheduler = JobScheduler(memo_ttl=100.0)
        job, _, _ = scheduler.submit(make_spec(), now=0.0)
        drain(scheduler)
        job2, coalesced, _ = scheduler.submit(make_spec(), now=80.0)
        assert coalesced and job2 is job
        assert scheduler.evict(now=150.0) == []  # touched at t=80 -> warm to t=180
        assert scheduler.evict(now=180.0) == [job.id]

    def test_lru_cap_evicts_least_recently_touched_first(self):
        scheduler = JobScheduler(memo_cap=2)
        jobs = []
        for seed in (1, 2, 3):
            job, _, _ = scheduler.submit(make_spec(seed=seed), now=float(seed))
            drain(scheduler, now=float(seed))
            jobs.append(job)
        # Touch the oldest memo so the middle one becomes LRU.
        scheduler.submit(make_spec(seed=1), now=10.0)
        evicted = scheduler.evict(now=10.0)
        assert evicted == [jobs[1].id]
        assert scheduler.memo_count == 2
        assert jobs[0].id in scheduler.jobs and jobs[2].id in scheduler.jobs

    def test_evicted_spec_reruns_fresh(self):
        scheduler = JobScheduler(memo_ttl=10.0)
        job, _, _ = scheduler.submit(make_spec(), now=0.0)
        drain(scheduler)
        first_result = job.result
        assert scheduler.evict(now=20.0) == [job.id]
        job2, coalesced, _ = scheduler.submit(make_spec(), now=21.0)
        assert not coalesced and job2.id != job.id
        drain(scheduler, now=21.0)
        # Determinism: the fresh run reproduces the evicted memo bit for bit
        # (modulo the spec id fields that enter the payload identically).
        assert job2.result == first_result

    @pytest.mark.parametrize("ttl,cap", [(None, 4), (1000.0, None), (1000.0, 4), (50.0, 2)])
    def test_ttl_cap_sweep_bounds_job_table(self, ttl, cap):
        scheduler = JobScheduler(memo_ttl=ttl, memo_cap=cap)
        for seed in range(10):
            scheduler.submit(make_spec(seed=seed), now=float(seed))
            drain(scheduler, now=float(seed))
            scheduler.evict(now=float(seed))
        # Far-future sweep: TTL (when set) clears everything; a bare cap
        # keeps exactly `cap` memos.
        scheduler.evict(now=10_000.0)
        if ttl is not None:
            assert scheduler.memo_count == 0 and not scheduler.jobs
        else:
            assert scheduler.memo_count == cap == len(scheduler.jobs)
        assert scheduler.stats.jobs_evicted == 10 - scheduler.memo_count

    def test_live_jobs_are_never_evicted(self):
        scheduler = JobScheduler(memo_ttl=1.0, memo_cap=1)
        job, _, _ = scheduler.submit(make_spec(), now=0.0)
        scheduler.assign("w1", now=0.0)  # running, not terminal
        assert scheduler.evict(now=10_000.0) == []
        assert job.id in scheduler.jobs


class FakeJournal:
    """Minimal in-memory journal double (append-only list)."""

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)


class TestJournalRestore:
    def test_submission_and_completion_are_journaled(self):
        journal = FakeJournal()
        scheduler = JobScheduler(journal=journal)
        job, _, _ = scheduler.submit(make_spec())
        scheduler.submit(make_spec())  # coalesced: nothing durable changes
        drain(scheduler)
        kinds = [record["record"] for record in journal.records]
        assert kinds == ["submit", "state"]
        assert journal.records[0]["job_id"] == job.id
        assert journal.records[1]["state"] == JobState.DONE
        assert journal.records[1]["result"] == job.result

    def test_restore_requeues_unfinished_jobs_with_identical_identity(self):
        journal = FakeJournal()
        first = JobScheduler(journal=journal)
        job, _, _ = first.submit(make_spec(), priority=3)
        first.assign("w1", now=0.0)  # running when the "crash" happens
        restored = JobScheduler()
        requeued = restored.restore(journal.records)
        assert [j.id for j in requeued] == [job.id]
        clone = restored.jobs[job.id]
        assert (clone.key, clone.seq, clone.priority) == (job.key, job.seq, 3)
        assert clone.state == JobState.QUEUED
        assert restored.stats.jobs_restored == 1
        # The restored job drains to the same result as an uninterrupted run.
        drain(restored, "w2")
        uninterrupted = JobScheduler()
        ref_job, _, _ = uninterrupted.submit(make_spec())
        drain(uninterrupted)
        assert clone.result == ref_job.result

    def test_restore_preserves_done_memos_and_seq_counter(self):
        journal = FakeJournal()
        first = JobScheduler(journal=journal)
        job, _, _ = first.submit(make_spec())
        drain(first)
        restored = JobScheduler()
        assert restored.restore(journal.records) == []
        clone = restored.jobs[job.id]
        assert clone.state == JobState.DONE
        assert clone.result == job.result
        # A resubmission coalesces into the restored memo...
        again, coalesced, _ = restored.submit(make_spec())
        assert coalesced and again is clone
        # ...and a *different* spec gets a fresh id beyond the restored seq.
        other, _, _ = restored.submit(make_spec(seed=99))
        assert other.seq > job.seq

    def test_restore_honours_evict_records(self):
        journal = FakeJournal()
        first = JobScheduler(journal=journal, memo_ttl=10.0)
        job, _, _ = first.submit(make_spec(), now=0.0)
        drain(first)
        assert first.evict(now=20.0) == [job.id]
        restored = JobScheduler()
        restored.restore(journal.records)
        assert job.id not in restored.jobs
        assert restored.memo_count == 0

    def test_restore_replays_failed_retry_chains(self):
        journal = FakeJournal()
        first = JobScheduler(journal=journal)
        bad, _, _ = first.submit(make_spec())
        first.fail_job(bad.id, "boom")
        retry, coalesced, _ = first.submit(make_spec())
        assert not coalesced and retry.id != bad.id
        restored = JobScheduler()
        requeued = restored.restore(journal.records)
        assert [j.id for j in requeued] == [retry.id]
        assert restored.jobs[bad.id].state == JobState.FAILED
        assert restored.jobs[bad.id].error == "boom"

    def test_stale_report_for_requeued_chunk_after_restart_is_discarded(self):
        # The durability interaction the protocol must survive: a worker
        # leased chunks before the crash; the restarted server requeued and
        # re-ran them; the pre-crash worker finally reports.  The late
        # report must change nothing and count as discarded.
        journal = FakeJournal()
        first = JobScheduler(journal=journal)
        job, _, _ = first.submit(make_spec())
        old_tasks = first.assign("w-old", now=0.0)
        restored = JobScheduler()
        restored.restore(journal.records)
        drain(restored, "w-new")  # the restarted fleet completes the job
        clone = restored.jobs[job.id]
        assert clone.state == JobState.DONE
        before = dict(vars(restored.stats))
        result_before = clone.result
        events = restored.record_result(
            "w-old", old_tasks[0], old_tasks[0].shots, 999, False, None, now=50.0
        )
        assert events == []
        assert clone.result == result_before
        assert restored.stats.chunks_discarded == before["chunks_discarded"] + 1
        assert restored.stats.chunks_executed == before["chunks_executed"]

    def test_journal_roundtrip_through_disk(self, tmp_path):
        from repro.serve.journal import JobJournal, load_journal

        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        scheduler = JobScheduler(journal=journal)
        job, _, _ = scheduler.submit(make_spec())
        drain(scheduler)
        journal.close()
        records = load_journal(path)
        restored = JobScheduler()
        restored.restore(records)
        assert restored.jobs[job.id].result == job.result

    def test_torn_tail_is_tolerated(self, tmp_path):
        from repro.serve.journal import JobJournal, load_journal

        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        scheduler = JobScheduler(journal=journal)
        job, _, _ = scheduler.submit(make_spec())
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "state", "job_id": "trunc')  # mid-append crash
        records = load_journal(path)
        assert [r["record"] for r in records] == ["submit"]
        restored = JobScheduler()
        assert [j.id for j in restored.restore(records)] == [job.id]

    def test_compaction_snapshot_roundtrips(self, tmp_path):
        from repro.serve.journal import JobJournal, load_journal

        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        scheduler = JobScheduler(journal=journal)
        done_job, _, _ = scheduler.submit(make_spec())
        drain(scheduler)
        pending, _, _ = scheduler.submit(make_spec(seed=8))
        journal.compact(scheduler.snapshot_records())
        journal.close()
        restored = JobScheduler()
        requeued = restored.restore(load_journal(path))
        assert [j.id for j in requeued] == [pending.id]
        assert restored.jobs[done_job.id].state == JobState.DONE
        assert restored.jobs[done_job.id].result == done_job.result
