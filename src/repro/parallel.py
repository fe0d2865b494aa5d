"""Process-pool execution for Monte Carlo runs and parameter sweeps.

The paper's analytical headline (the M-S-approach) made the *model* cheap
to evaluate; this module makes the *validation* side cheap too.  It fans
Monte Carlo trial shards and sweep grid points out to worker processes:

* ``MonteCarloSimulator.run(workers=N)`` and
  ``FusedMonteCarloEngine.run(workers=N)`` split their trials into
  per-worker shards (:func:`_run_sharded`), run each shard in its own
  process, and merge the per-trial arrays back into one result;
* :func:`parallel_map` is the generic ordered map behind
  ``sweep(..., workers=N)`` / ``grid_sweep(..., workers=N)``.

Reproducibility contract
------------------------

Shard randomness comes from ``np.random.SeedSequence(seed).spawn(workers)``
(:func:`spawn_seed_sequences`): worker ``i`` always receives the ``i``-th
spawned child, so

* the same ``(seed, workers)`` pair always produces the *identical*
  :class:`SimulationResult` (bitwise, regardless of scheduling order);
* different workers draw from statistically independent streams (the
  SeedSequence spawn tree guarantee);
* different ``workers`` counts give different — equally valid — trial
  streams.  Only ``workers=1`` reproduces the legacy serial output
  byte-for-byte, because the serial path seeds one generator directly.

Everything shipped to a worker must be picklable: deployment and target
callables must be module-level functions or picklable objects — a
helpful :class:`~repro.errors.SimulationError` is raised otherwise.

Crash resilience
----------------

Long sweeps must survive their own infrastructure.  Every pooled call
runs on one resilient engine:

* a worker process dying mid-task (OOM kill, segfault, ``os._exit``)
  surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`; the
  engine rebuilds the pool and resubmits every unfinished task, up to
  two times.  Because shard ``i`` always re-runs with the same
  ``SeedSequence`` child, **a retried shard produces the exact result the
  crashed attempt would have** — crash recovery never changes the output;
* once crash retries are exhausted, the engine falls back to running the
  remaining tasks serially in the parent process, so a flaky pool
  degrades throughput instead of discarding completed work.

An exception raised by the task's own code is not a crash: it reaches
the caller with its own type, as it would from a plain call, once the
tasks still in flight have finished.  Only a failure to pickle a task
is reported as a :class:`~repro.errors.SimulationError`.

One pool per process
--------------------

Every pooled call in a process — :func:`parallel_map` (and so the
sweeps) and both engines' trial shards — runs on one shared worker
pool.  The first pooled call starts it and later calls reuse it, so a
sweep of many grids forks its workers once instead of once per call.
The pool is discarded and the next call starts a new one only when a
worker dies (``BrokenProcessPool``) or a call needs a different number
of workers than the pool has.

The pool is sized by the caller's ``workers``, not by its task count, so
a short grid does not re-fork it.  A module lock lets one call use the
pool at a time; a second thread's pooled call waits for it.
``on_result`` callbacks (the sweeps' checkpoint writers) run while the
pool is held: a pooled call made from one raises
:class:`~repro.errors.SimulationError` instead of deadlocking.  A child
made by ``os.fork()`` drops its inherited reference to the pool (an
``os.register_at_fork`` hook) and starts its own on first use.  At
interpreter exit the standard ``concurrent.futures`` exit handler joins
the workers, so none outlives the process.

Each task is pickled in the parent and sent with the analysis cache's
generation (:attr:`repro.cache.AnalysisCache.generation`).  A worker that
sees a new generation clears its own cache first, so
:func:`~repro.cache.clear_analysis_cache` reaches kept workers as it
reached freshly forked ones.

A pooled call runs the code the workers were forked with, not the
parent's current module state.  Functions and classes are pickled by
reference, so a task whose pickle names ``__main__`` (a script's, a
notebook's or a REPL's definitions, which may have been added or
redefined since the fork) runs on a freshly forked pool.  Code in
importable modules is trusted to be what the workers imported: anything
that patches module attributes (tests, tracing wrappers) and needs the
workers to see the patch must discard the pool first
(``repro.parallel._discard_pool()``).
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.cache import analysis_cache
from repro.errors import SimulationError, require_count

__all__ = [
    "available_workers",
    "merge_fused_results",
    "merge_simulation_results",
    "parallel_map",
    "spawn_seed_sequences",
    "split_trials",
]


def available_workers() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _validate_workers(workers: int) -> int:
    require_count("workers", workers, SimulationError)
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def split_trials(trials: int, workers: int) -> List[int]:
    """Near-even shard sizes: ``trials`` split across ``workers``.

    The first ``trials % workers`` shards get one extra trial; every shard
    is non-empty (workers beyond ``trials`` are dropped), and the split
    depends only on ``(trials, workers)`` — part of the reproducibility
    contract.
    """
    workers = _validate_workers(workers)
    if trials < 1:
        raise SimulationError(f"trials must be >= 1, got {trials}")
    workers = min(workers, trials)
    base, extra = divmod(trials, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def spawn_seed_sequences(
    seed: Optional[int], workers: int
) -> List[np.random.SeedSequence]:
    """Independent per-worker seed sequences from one root seed.

    ``SeedSequence(seed).spawn(workers)`` — deterministic for a given
    ``(seed, workers)`` and statistically independent across workers.
    With ``seed=None`` the root sequence draws OS entropy (irreproducible
    by design, matching the serial path's behaviour).
    """
    workers = _validate_workers(workers)
    return np.random.SeedSequence(seed).spawn(workers)


def merge_simulation_results(results: Sequence[Any]):
    """Concatenate per-shard :class:`SimulationResult`\\ s in shard order.

    All shards must share one scenario and agree on whether latency and
    per-period counts were tracked.
    """
    from repro.simulation.runner import SimulationResult

    if not results:
        raise SimulationError("no shard results to merge")
    first = results[0]
    for result in results[1:]:
        if result.scenario != first.scenario:
            raise SimulationError(
                "cannot merge results from different scenarios"
            )
        if (result.detection_periods is None) != (
            first.detection_periods is None
        ) or (result.period_counts is None) != (first.period_counts is None):
            raise SimulationError(
                "cannot merge results with mismatched tracking options"
            )
    return SimulationResult(
        scenario=first.scenario,
        report_counts=np.concatenate([r.report_counts for r in results]),
        node_counts=np.concatenate([r.node_counts for r in results]),
        false_report_counts=np.concatenate(
            [r.false_report_counts for r in results]
        ),
        detection_periods=(
            None
            if first.detection_periods is None
            else np.concatenate([r.detection_periods for r in results])
        ),
        period_counts=(
            None
            if first.period_counts is None
            else np.concatenate([r.period_counts for r in results])
        ),
    )


def merge_fused_results(results: Sequence[Any]):
    """Concatenate per-shard :class:`FusedSweepResult`\\ s in shard order.

    All shards must share one scenario and the same ``(N, k)`` axes.
    """
    from repro.simulation.fused import FusedSweepResult

    if not results:
        raise SimulationError("no shard results to merge")
    first = results[0]
    for result in results[1:]:
        if (
            result.scenario != first.scenario
            or result.num_sensors != first.num_sensors
            or result.thresholds != first.thresholds
        ):
            raise SimulationError(
                "cannot merge fused results from different sweeps"
            )
    return FusedSweepResult(
        scenario=first.scenario,
        num_sensors=first.num_sensors,
        thresholds=first.thresholds,
        report_counts=np.concatenate([r.report_counts for r in results]),
        node_counts=np.concatenate([r.node_counts for r in results]),
    )


def _run_shard(simulator, trials: int, seed_seq: np.random.SeedSequence):
    """Worker entry point: run one shard with its own generator.

    Shared by the plain simulator and the fused engine — both expose the
    same ``_run_serial(trials, rng)`` shard contract.
    """
    return simulator._run_serial(trials, np.random.default_rng(seed_seq))


#: Pool rebuilds after worker crashes allowed per task before the
#: remaining tasks run serially in the parent.
_MAX_RETRIES = 2


# The process-wide pool (see "One pool per process" in the module
# docstring).  Guarded by _POOL_LOCK, which a pooled call holds while it
# submits to and waits on the pool; _pool_owner is the holding thread.
_POOL_LOCK = threading.Lock()
_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0
_pool_owner: Optional[int] = None
# In a pool worker: the parent's cache generation this worker's cache
# matches.  A forked child's cache is its parent's, so the fork hook
# starts it at the inherited generation.
_cache_generation = analysis_cache().generation


def _forget_pool_after_fork() -> None:
    """In a forked child: drop the parent's pool and lock unused.

    The child has none of the executor's threads, so touching the
    inherited executor would hang; the lock may have been held by another
    thread of the parent at fork time.
    """
    global _POOL_LOCK, _pool, _pool_size, _pool_owner, _cache_generation
    _POOL_LOCK = threading.Lock()
    _pool = None
    _pool_size = 0
    _pool_owner = None
    _cache_generation = analysis_cache().generation


os.register_at_fork(after_in_child=_forget_pool_after_fork)


def _discard_pool() -> None:
    """Drop the shared pool, joining its workers; the next pooled call
    starts a fresh one."""
    global _pool, _pool_size
    pool, _pool, _pool_size = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


def _shared_pool(size: int, fresh: bool) -> ProcessPoolExecutor:
    """The shared pool at ``size`` workers, started if needed (lock held).

    ``fresh`` forks new workers even when the pool fits, for tasks whose
    code the running workers may not have (see the module docstring).
    """
    global _pool, _pool_size
    if _pool is not None and (
        fresh or _pool_size != size or getattr(_pool, "_broken", False)
    ):
        _discard_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=size)
        _pool_size = size
        ob = obs.current()
        if ob.enabled:
            ob.incr("parallel.pool_starts")
            ob.event("parallel.pool_start", size=size)
    return _pool


def _run_task(generation: int, payload: bytes) -> Any:
    """Worker entry point: match the parent's cache generation, then run.

    ``payload`` is the pickled ``(fn, args)``.  A generation the worker
    has not seen means the parent cleared its analysis cache since; the
    worker clears its own, as a freshly forked worker would start.
    """
    global _cache_generation
    if generation != _cache_generation:
        analysis_cache().clear()
        _cache_generation = generation
    fn, args = pickle.loads(payload)
    return fn(*args)


def _execute_resilient(
    fn: Callable[..., Any],
    tasks: Sequence[tuple],
    workers: int,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run ``fn(*task)`` for every task over a process pool, surviving crashes.

    The engine behind the trial-shard runners and :func:`parallel_map`
    (see the module docstring's resilience contract).
    ``on_result(index, result)`` fires in completion order as tasks finish
    — checkpoint writers hang off it.

    Returns:
        Results in task order.

    Raises:
        SimulationError: a task that cannot be pickled (checked before
            any pool starts), or a call from inside another pooled
            call's ``on_result``.  An error raised by ``fn`` itself
            propagates with its own type.

    Observability: when instrumentation is active
    (:func:`repro.obs.current`), the engine emits the task lifecycle from
    the parent side — ``parallel.pool_start`` / ``parallel.task_submit``
    / ``parallel.task_complete`` / ``parallel.task_retry`` /
    ``parallel.pool_crash`` / ``parallel.serial_fallback`` events, with
    matching ``parallel.*`` counters in the manifest.
    """
    global _pool_owner
    if _pool_owner == threading.get_ident():
        raise SimulationError(
            "a pooled call cannot start inside another pooled call's "
            "on_result callback; the pool is in use"
        )
    # Pickled here, before any pool starts, so an unpicklable task fails
    # at once; a task naming __main__ gets freshly forked workers.
    try:
        payloads = [pickle.dumps((fn, task)) for task in tasks]
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SimulationError(
            "parallel execution requires every simulator component "
            "(deployment, target, sensing ranges, ...) to be picklable; "
            "use module-level functions or functools.partial instead of "
            f"lambdas and local closures ({exc})"
        ) from exc
    fresh = any(b"__main__" in payload for payload in payloads)
    generation = analysis_cache().generation
    ob = obs.current()
    results: List[Any] = [None] * len(tasks)
    pending = set(range(len(tasks)))
    attempts = [0] * len(tasks)
    if ob.enabled:
        ob.incr("parallel.tasks", len(tasks))
    while pending:
        if any(attempts[index] > _MAX_RETRIES for index in pending):
            # Crash retries exhausted: finish the remaining work serially
            # in the parent rather than discarding completed shards.
            if ob.enabled:
                ob.incr("parallel.serial_fallback_tasks", len(pending))
                ob.event(
                    "parallel.serial_fallback", tasks=sorted(pending)
                )
            for index in sorted(pending):
                results[index] = fn(*tasks[index])
                pending.discard(index)
                if ob.enabled:
                    ob.incr("parallel.tasks_completed")
                    ob.event(
                        "parallel.task_complete", index=index, mode="serial"
                    )
                if on_result is not None:
                    on_result(index, results[index])
            break
        with _POOL_LOCK:
            _pool_owner = threading.get_ident()
            broken = False
            futures: dict = {}
            try:
                pool = _shared_pool(workers, fresh)
                for index in sorted(pending):
                    future = pool.submit(_run_task, generation, payloads[index])
                    futures[future] = index
                    if ob.enabled:
                        ob.event(
                            "parallel.task_submit",
                            index=index,
                            attempt=attempts[index],
                        )
                for future in as_completed(list(futures)):
                    index = futures.pop(future)
                    results[index] = future.result()
                    pending.discard(index)
                    if ob.enabled:
                        ob.incr("parallel.tasks_completed")
                        ob.event(
                            "parallel.task_complete", index=index, mode="pool"
                        )
                    if on_result is not None:
                        on_result(index, results[index])
            except BrokenProcessPool:
                broken = True
                # A worker died; we cannot tell whose task killed it, so every
                # unfinished task gets one attempt charged.  Determinism makes
                # the retry exact: same seed material, same result.
                if ob.enabled:
                    ob.incr("parallel.pool_crashes")
                    ob.incr("parallel.task_retries", len(pending))
                    ob.event("parallel.pool_crash", pending=sorted(pending))
                    for index in sorted(pending):
                        ob.event(
                            "parallel.task_retry",
                            index=index,
                            attempts=attempts[index] + 1,
                            reason="pool_crash",
                        )
                for index in pending:
                    attempts[index] += 1
            finally:
                if broken:
                    _discard_pool()
                elif futures:
                    # A task or callback raised with others in flight: let
                    # them finish so the next call finds every worker idle.
                    for future in futures:
                        future.cancel()
                    wait(set(futures))
                _pool_owner = None
    return results


def _run_sharded(engine, workers: int, merge):
    """Run ``engine``'s trials across worker processes, merged in shard order.

    The shard loop behind ``MonteCarloSimulator.run`` and
    ``FusedMonteCarloEngine.run`` at ``workers > 1``: shards follow
    :func:`split_trials`, shard ``i`` draws from the ``i``-th
    :func:`spawn_seed_sequences` child, and ``merge`` (one of
    :func:`merge_simulation_results` / :func:`merge_fused_results`)
    concatenates the shard results.  So the same ``(seed, workers)``
    always reproduces the identical result, and worker crashes never
    change it (retries replay the same seeds).  Fused grid rows stay
    aligned across columns within every shard, so common-random-numbers
    monotonicity survives the merge.
    """
    shards = split_trials(engine._trials, workers)
    seeds = spawn_seed_sequences(engine._seed, len(shards))
    if len(shards) == 1:
        return _run_shard(engine, shards[0], seeds[0])
    tasks = [(engine, shard, seed) for shard, seed in zip(shards, seeds)]
    return merge(_execute_resilient(_run_shard, tasks, workers=workers))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int = 1,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Ordered ``map(fn, items)`` over a process pool.

    Args:
        fn: a picklable callable (module-level function or partial),
            called as ``fn(item)``.
        items: the inputs.
        workers: ``1`` runs inline (no pool, no pickling requirement).
        on_result: optional ``(index, result)`` callback fired as each
            item completes (input order when inline, completion order on
            the pool) — the hook checkpointed sweeps persist through.
            It runs while the pool is held, so it must not make a pooled
            call itself (that raises :class:`SimulationError`).

    Pooled calls run on the process-wide pool one at a time: a call from
    a second thread waits for the first.  Crashed workers are retried
    (see the module docstring); an error raised by ``fn`` reaches the
    caller with its own type at any ``workers``.

    Returns:
        Results in input order.
    """
    workers = _validate_workers(workers)
    tasks = [(item,) for item in items]
    if workers == 1 or len(tasks) <= 1:
        results = []
        for index, (item,) in enumerate(tasks):
            results.append(fn(item))
            if on_result is not None:
                on_result(index, results[index])
        return results
    return _execute_resilient(fn, tasks, workers=workers, on_result=on_result)
