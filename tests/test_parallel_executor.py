"""Tests for the job-based executor and the content-addressed cache.

Determinism contract: a figure regenerated with one worker, four
workers, or from a warm cache is *identical* — same labels, same x/y
values, bit for bit.
"""

import json
import os

import pytest

from repro.errors import ReproError
from repro.experiments.figures import fig4_lk23
from repro.experiments.runner import Scale
from repro.experiments.tables import table2_lk23_counters
from repro.parallel import (
    CELLS,
    JOBS_ENV,
    ResultCache,
    cache_enabled,
    default_jobs,
    make_job,
    run_cell,
    run_jobs,
    source_digest,
)
from repro.parallel import executor

TINY = Scale("tiny", lk23_n=256, lk23_iterations=2, matmul_n=512,
             video_frames=3, video_frames_4k=2)


def tiny_job(n_threads=2, seed=1):
    return make_job(
        "lk23",
        TINY,
        {"machine": "SMP12E5", "variant": "orwl", "n_threads": n_threads},
        seed,
    )


def fig_fingerprint(fig):
    return [(s.label, s.x, s.y) for s in fig.series]


class TestJobs:
    def test_cells_registered(self):
        assert set(CELLS) == {"lk23", "matmul", "video", "map-subtree"}

    def test_unknown_cell_rejected_early(self):
        with pytest.raises(ReproError, match="unknown cell"):
            make_job("nope", TINY, {}, 1)

    def test_job_is_picklable_and_json_safe(self):
        import pickle

        job = tiny_job()
        assert pickle.loads(pickle.dumps(job)) == job
        json.dumps(job.to_dict())  # must not raise

    def test_run_cell_matches_direct_run(self):
        from repro.apps.lk23 import Lk23Config, run_orwl_lk23
        from repro.topology import machine_by_name

        payload = run_cell(tiny_job())
        cfg = Lk23Config(n=TINY.lk23_n, iterations=TINY.lk23_iterations,
                         n_threads=2)
        direct = run_orwl_lk23(machine_by_name("SMP12E5"), cfg,
                               affinity=False, seed=1)
        assert payload["seconds"] == direct.seconds
        assert payload["counters"]["l3_misses"] == direct.counters.l3_misses


class TestDefaultJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert default_jobs() == 1

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3
        monkeypatch.setenv(JOBS_ENV, "0")
        assert default_jobs() >= 1  # cpu count
        monkeypatch.setenv(JOBS_ENV, "banana")
        with pytest.raises(ReproError, match=JOBS_ENV):
            default_jobs()
        monkeypatch.setenv(JOBS_ENV, "-2")
        with pytest.raises(ReproError, match=JOBS_ENV):
            default_jobs()

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ReproError, match="n_jobs must be >= 0, got -1"):
            run_jobs([tiny_job()], n_jobs=-1, cache=False)

    def test_zero_counts_cpus_in_the_affinity_mask(self, monkeypatch):
        # A taskset or cgroup mask of three CPUs, whatever the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 4, 6},
                            raising=False)
        monkeypatch.setenv(JOBS_ENV, "0")
        assert executor.available_cpus() == 3
        assert default_jobs() == 3

        sizes = []

        class Pool:
            """Records the pool size; runs nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [{"seed": job.seed} for job in jobs]

        monkeypatch.setattr(executor, "ProcessPoolExecutor", Pool)
        jobs = [tiny_job(seed=s) for s in range(5)]
        assert run_jobs(jobs, n_jobs=0, cache=False) == [
            {"seed": s} for s in range(5)
        ]
        assert sizes == [3]

    def test_shard_reexports_the_cpu_count(self):
        """``bench/run.py``'s ``provenance()`` imports ``available_cpus``
        from ``repro.sim.shard``; the module stays as that re-export
        until the benchmark imports it from the executor."""
        from repro.sim import shard

        assert shard.available_cpus is executor.available_cpus


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, digest="testgen")
        job = tiny_job()
        assert cache.get(job) is None
        cache.put(job, {"seconds": 1.25, "counters": {"l3_misses": 3.0}})
        assert cache.get(job) == {"seconds": 1.25, "counters": {"l3_misses": 3.0}}
        assert cache.hits == 1 and cache.misses == 1

    def test_floats_survive_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path, digest="g")
        job = tiny_job()
        value = 0.1 + 0.2  # not exactly representable in decimal
        cache.put(job, {"seconds": value})
        assert cache.get(job)["seconds"] == value

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, digest="g")
        job = tiny_job()
        cache.put(job, {"seconds": 1.0})
        cache.path_for(job).write_text("{ not json")
        assert cache.get(job) is None

    @pytest.mark.parametrize("text", ["{ not json", "", "[1, 2]", '"s"'],
                             ids=["garbage", "empty", "list", "string"])
    def test_malformed_entry_is_a_miss(self, tmp_path, text):
        cache = ResultCache(tmp_path, digest="g")
        job = tiny_job()
        cache.put(job, {"seconds": 1.0})
        cache.path_for(job).write_text(text)
        assert cache.get(job) is None
        assert cache.hits == 0 and cache.misses == 1

    def test_key_distinguishes_jobs(self, tmp_path):
        cache = ResultCache(tmp_path, digest="g")
        assert cache.key(tiny_job(n_threads=2)) != cache.key(tiny_job(n_threads=4))
        assert cache.key(tiny_job(seed=1)) != cache.key(tiny_job(seed=2))
        assert cache.key(tiny_job()) == cache.key(tiny_job())

    def test_source_digest_partitions_generations(self, tmp_path):
        job = tiny_job()
        old = ResultCache(tmp_path, digest="aaaa")
        new = ResultCache(tmp_path, digest="bbbb")
        old.put(job, {"seconds": 9.9})
        # Same job, new source generation: the stale entry is invisible.
        assert new.get(job) is None
        assert old.get(job) == {"seconds": 9.9}

    def test_source_digest_is_stable(self):
        assert source_digest() == source_digest()
        assert len(source_digest()) == 16

    def test_cache_enabled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled()
        for off in ("off", "0", "no", "false", "OFF"):
            monkeypatch.setenv("REPRO_CACHE", off)
            assert not cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "on")
        assert cache_enabled()

    def test_concurrent_writers_never_expose_partial_entries(self, tmp_path):
        # 4 writer processes race to store the same job while this
        # process reads it in a loop: the atomic rename in put() means
        # every read is a miss or the whole payload.
        import multiprocessing as mp
        import time

        job = tiny_job()
        payload = {"seconds": 0.1 + 0.2, "rows": list(range(2000))}
        ctx = mp.get_context("spawn")
        writers = [
            ctx.Process(target=_put_repeatedly,
                        args=(tmp_path, job, payload, 50))
            for _ in range(4)
        ]
        for w in writers:
            w.start()
        reader = ResultCache(tmp_path, digest="g")
        deadline = time.monotonic() + 120
        try:
            while any(w.is_alive() for w in writers):
                assert time.monotonic() < deadline, "writers did not finish"
                got = reader.get(job)
                assert got is None or got == payload
        finally:
            for w in writers:
                w.join(timeout=60)
                if w.is_alive():
                    w.kill()
        assert [w.exitcode for w in writers] == [0, 0, 0, 0]
        assert list(tmp_path.rglob("*.tmp")) == []
        assert reader.get(job) == payload


def _put_repeatedly(root, job, payload, times):
    cache = ResultCache(root, digest="g")
    for _ in range(times):
        cache.put(job, payload)


class TestRunJobs:
    def test_order_preserved(self, tmp_path):
        jobs = [tiny_job(n_threads=nc) for nc in (1, 2, 4)]
        payloads = run_jobs(jobs, n_jobs=1, cache=False)
        # Payload i belongs to job i, in submission order.
        assert payloads == [run_cell(j) for j in jobs]
        again = run_jobs(list(reversed(jobs)), n_jobs=1, cache=False)
        assert again == list(reversed(payloads))

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path, digest="g")
        jobs = [tiny_job(n_threads=nc) for nc in (1, 2)]
        cold = run_jobs(jobs, n_jobs=1, cache=cache)
        assert cache.misses == 2
        warm = run_jobs(jobs, n_jobs=1, cache=cache)
        assert warm == cold
        assert cache.hits == 2

    def test_parallel_matches_serial(self, tmp_path):
        jobs = [tiny_job(n_threads=nc) for nc in (1, 2, 4)]
        serial = run_jobs(jobs, n_jobs=1, cache=False)
        parallel = run_jobs(jobs, n_jobs=4, cache=False)
        assert parallel == serial

    def test_dead_worker_raises_repro_error(self, monkeypatch):
        monkeypatch.setitem(CELLS, "_test-exit", _exit_cell)
        jobs = [make_job("_test-exit", TINY, {"k": k}, 1) for k in (1, 2)]
        with pytest.raises(ReproError, match=r"_test-exit\(k=1\)"):
            run_jobs(jobs, n_jobs=2, cache=False)


def _exit_cell(*, scale, seed, **params):
    """A cell whose worker process dies without a word."""
    import os

    os._exit(1)


class TestFigureDeterminism:
    def test_jobs_1_jobs_4_and_warm_cache_identical(self, tmp_path):
        cache = ResultCache(tmp_path, digest="g")
        serial = fig4_lk23("SMP12E5", scale=TINY, cores=[1, 2, 4],
                           jobs=1, cache=False)
        parallel = fig4_lk23("SMP12E5", scale=TINY, cores=[1, 2, 4],
                             jobs=4, cache=cache)
        warm = fig4_lk23("SMP12E5", scale=TINY, cores=[1, 2, 4],
                         jobs=1, cache=cache)
        assert cache.hits == len(parallel.series) * 3
        fp = fig_fingerprint(serial)
        assert fig_fingerprint(parallel) == fp
        assert fig_fingerprint(warm) == fp
        assert [s.label for s in serial.series] == [
            "ORWL", "ORWL (affinity)", "OpenMP", "OpenMP (affinity)",
        ]

    def test_table_shares_cache_with_figure(self, tmp_path):
        cache = ResultCache(tmp_path, digest="g")
        fig4_lk23("SMP12E5", scale=TINY, cores=[64], jobs=1, cache=cache)
        before = cache.misses
        rows = table2_lk23_counters(scale=TINY, cores=64, jobs=1, cache=cache)
        # The 4 table rows are the 4 figure variants at 64 threads: all hits.
        assert cache.misses == before
        assert cache.hits >= 4
        assert [r.variant for r in rows] == [
            "ORWL", "ORWL (Affinity)", "OpenMP", "OpenMP (Affinity)",
        ]

    def test_source_change_invalidates(self, tmp_path):
        jobs = [tiny_job()]
        gen1 = ResultCache(tmp_path, digest="gen1")
        run_jobs(jobs, n_jobs=1, cache=gen1)
        assert gen1.misses == 1
        # "Edit a source file": the digest moves, the old entry is stale.
        gen2 = ResultCache(tmp_path, digest="gen2")
        run_jobs(jobs, n_jobs=1, cache=gen2)
        assert gen2.misses == 1 and gen2.hits == 0
