"""The job-based experiment executor.

Fans independent experiment cells out over a ``ProcessPoolExecutor``
(each simulation is a deterministic, single-threaded process — separate
interpreters sidestep the GIL entirely) and reassembles payloads in job
order, so the output of ``run_jobs`` is identical for any worker count.

Worker-count selection: explicit ``n_jobs`` argument, else the
``REPRO_JOBS`` environment variable, else 1 (inline execution, no pool).
A value of 0 means "one worker per usable CPU" (:func:`available_cpus`).

The on-disk :class:`~repro.parallel.cache.ResultCache` is consulted
before dispatch and written after: only cache misses reach the pool, and
a warm re-run touches no simulator code at all.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ReproError
from repro.parallel.cache import ResultCache
from repro.parallel.jobs import Job, run_cell

__all__ = ["run_jobs", "default_jobs", "available_cpus", "JOBS_ENV"]

JOBS_ENV = "REPRO_JOBS"

_MISSING = object()


def available_cpus() -> int:
    """CPUs this process may actually use.

    ``sched_getaffinity`` where available (cgroup/taskset aware — the
    honest number for "can 4 workers really run in parallel here"),
    ``os.cpu_count()`` otherwise. ``REPRO_JOBS=0`` and
    ``run_jobs(n_jobs=0)`` size the worker pool by it, and the
    benchmark's provenance record reports it next to ``nproc``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1; 0 ⇒ usable CPUs)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ReproError(f"{JOBS_ENV} must be an integer, got {raw!r}") from None
    if n < 0:
        raise ReproError(f"{JOBS_ENV} must be >= 0, got {n}")
    return n or available_cpus()


def _resolve_cache(cache) -> ResultCache | None:
    if cache is None:
        return ResultCache.from_env()
    if cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache


def run_jobs(
    jobs: Sequence[Job],
    *,
    n_jobs: int | None = None,
    cache: ResultCache | bool | None = None,
) -> list:
    """Execute *jobs*; returns their payloads in job order.

    ``n_jobs``: worker processes (None ⇒ ``REPRO_JOBS``, 1 ⇒ inline,
    0 ⇒ one per usable CPU; negative counts raise :class:`ReproError`).
    ``cache``: a :class:`ResultCache`, True (default cache), False
    (disabled), or None (``REPRO_CACHE``/``REPRO_CACHE_DIR`` decide).
    """
    n_jobs = default_jobs() if n_jobs is None else n_jobs
    if n_jobs < 0:
        raise ReproError(f"n_jobs must be >= 0, got {n_jobs}")
    if n_jobs == 0:
        n_jobs = available_cpus()
    store = _resolve_cache(cache)

    results = [_MISSING] * len(jobs)
    cold: list[int] = []
    for i, job in enumerate(jobs):
        hit = store.get(job) if store is not None else None
        if hit is not None:
            results[i] = hit
        else:
            cold.append(i)

    if cold:
        if n_jobs > 1 and len(cold) > 1:
            workers = min(n_jobs, len(cold))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                payloads = pool.map(run_cell, [jobs[i] for i in cold])
                done = 0
                try:
                    for payload in payloads:
                        results[cold[done]] = payload
                        done += 1
                except BrokenProcessPool as exc:
                    raise ReproError(
                        f"a worker process died before returning "
                        f"{jobs[cold[done]]!r} ({len(cold) - done} of "
                        f"{len(cold)} job(s) without a result)"
                    ) from exc
        else:
            for i in cold:
                results[i] = run_cell(jobs[i])
        if store is not None:
            for i in cold:
                store.put(jobs[i], results[i])

    return results
