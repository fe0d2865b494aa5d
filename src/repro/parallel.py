"""Process-pool execution for Monte Carlo runs and parameter sweeps.

The paper's analytical headline (the M-S-approach) made the *model* cheap
to evaluate; this module makes the *validation* side cheap too.  It fans
Monte Carlo trial shards and sweep grid points out to worker processes:

* :func:`run_simulator_parallel` splits a :class:`MonteCarloSimulator`'s
  trials into per-worker shards, runs each shard in its own process, and
  merges the per-trial arrays back into one
  :class:`~repro.simulation.runner.SimulationResult`;
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

Everything shipped to a worker must be picklable.  The simulator strips
its (possibly closure-carrying) ``progress`` callback before pickling and
reports progress from the parent as shards complete; deployment and
target callables, however, must be module-level functions or picklable
objects — a helpful :class:`~repro.errors.SimulationError` is raised
otherwise.

Crash resilience
----------------

Long sweeps must survive their own infrastructure.  Both executors run on
a shared resilient engine (the trial-shard runners on its defaults: two
crash retries, no timeout; :func:`parallel_map` takes both as options):

* a worker process dying mid-shard (OOM kill, segfault, ``os._exit``)
  surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`; the
  engine rebuilds the pool and resubmits every unfinished task, up to
  ``max_retries`` times.  Because shard ``i`` always re-runs with the same
  ``SeedSequence`` child, **a retried shard produces the exact result the
  crashed attempt would have** — crash recovery never changes the output;
* ``timeout`` bounds each task's *running* wall-clock seconds — at most
  ``workers`` tasks are in flight at once and each clock starts when the
  task is handed to a free worker, so queue wait behind other tasks never
  counts against it.  An overdue pool is abandoned (workers terminated
  best-effort, never joined) and the overdue tasks are retried.  A task
  that times out on every attempt raises
  :class:`~repro.errors.SimulationError` after the pool is abandoned —
  it would hang serially too;
* once crash retries are exhausted, the engine falls back to running the
  remaining tasks serially in the parent process, so a flaky pool
  degrades throughput instead of discarding completed work.
"""

from __future__ import annotations

import numbers
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import SimulationError, require_count

__all__ = [
    "available_workers",
    "merge_fused_results",
    "merge_simulation_results",
    "parallel_map",
    "run_fused_parallel",
    "run_simulator_parallel",
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


def _wrap_pickling_error(exc: Exception) -> SimulationError:
    return SimulationError(
        "parallel execution requires every simulator component "
        "(deployment, target, sensing ranges, ...) to be picklable; use "
        "module-level functions or functools.partial instead of lambdas "
        f"and local closures ({exc})"
    )


class _PoolRestart(Exception):
    """Internal control flow: abandon the current pool and resubmit."""


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting on possibly-hung workers.

    ``shutdown(wait=True)`` would join workers that may never return; the
    best-effort ``terminate`` ensures an overdue worker cannot wedge the
    parent (or the interpreter's exit handler).
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown never raises in CPython
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass


def _validate_resilience(
    timeout: Optional[float], max_retries: int = 0
) -> None:
    """Reject bad pool/fleet bounds before any process starts.

    ``timeout`` must be ``None`` or a real number of seconds in
    ``(0, threading.TIMEOUT_MAX]`` — bools, strings, NaN and ±inf are
    refused here rather than busy-waiting or overflowing mid-run — and
    ``max_retries`` an integer >= 0 (not a bool).
    """
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, numbers.Real)
        or not 0 < timeout <= threading.TIMEOUT_MAX
    ):
        raise SimulationError(
            "timeout must be None or a finite number of seconds > 0, "
            f"got {timeout!r}"
        )
    require_count("max_retries", max_retries, SimulationError)
    if max_retries < 0:
        raise SimulationError(f"max_retries must be >= 0, got {max_retries}")


def _execute_resilient(
    fn: Callable[..., Any],
    tasks: Sequence[tuple],
    workers: int,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run ``fn(*task)`` for every task over a process pool, surviving crashes.

    The engine behind the trial-shard runners and :func:`parallel_map`
    (see the module docstring's resilience contract).
    ``on_result(index, result)`` fires in completion order as tasks finish
    — checkpoint writers and progress callbacks hang off it.

    Returns:
        Results in task order.

    Observability: when instrumentation is active
    (:func:`repro.obs.current`), the engine emits the task lifecycle from
    the parent side — ``parallel.task_submit`` / ``parallel.task_complete``
    / ``parallel.task_retry`` / ``parallel.task_timeout`` /
    ``parallel.pool_crash`` / ``parallel.serial_fallback`` events, with
    matching ``parallel.*`` counters in the manifest.
    """
    ob = obs.current()
    results: List[Any] = [None] * len(tasks)
    pending = set(range(len(tasks)))
    attempts = [0] * len(tasks)
    if ob.enabled:
        ob.incr("parallel.tasks", len(tasks))
    while pending:
        if any(attempts[index] > max_retries for index in pending):
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
        pool_size = min(workers, len(pending))
        pool = ProcessPoolExecutor(max_workers=pool_size)
        abandon = False
        try:
            queue = sorted(pending)
            next_pos = 0
            futures: dict = {}
            deadlines: dict = {}

            def submit_up_to_capacity() -> None:
                # At most `pool_size` tasks in flight: a submitted task
                # always finds a free worker, so its deadline bounds
                # execution time rather than time spent queued behind
                # other tasks.
                nonlocal next_pos
                while next_pos < len(queue) and len(futures) < pool_size:
                    index = queue[next_pos]
                    next_pos += 1
                    future = pool.submit(fn, *tasks[index])
                    futures[future] = index
                    deadlines[future] = (
                        (time.monotonic() + timeout)
                        if timeout is not None
                        else None
                    )
                    if ob.enabled:
                        ob.event(
                            "parallel.task_submit",
                            index=index,
                            attempt=attempts[index],
                        )

            submit_up_to_capacity()
            while futures:
                wait_for = None
                if timeout is not None:
                    wait_for = max(
                        0.0,
                        min(deadlines[f] for f in futures) - time.monotonic(),
                    )
                finished, _ = wait(
                    set(futures), timeout=wait_for, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index = futures.pop(future)
                    del deadlines[future]
                    results[index] = future.result()
                    pending.discard(index)
                    if ob.enabled:
                        ob.incr("parallel.tasks_completed")
                        ob.event(
                            "parallel.task_complete", index=index, mode="pool"
                        )
                    if on_result is not None:
                        on_result(index, results[index])
                if timeout is not None and futures:
                    now = time.monotonic()
                    overdue = [f for f in futures if deadlines[f] <= now]
                    if overdue:
                        for future in overdue:
                            index = futures[future]
                            attempts[index] += 1
                            if ob.enabled:
                                ob.incr("parallel.task_timeouts")
                                ob.event(
                                    "parallel.task_timeout",
                                    index=index,
                                    attempts=attempts[index],
                                    timeout=timeout,
                                )
                            if attempts[index] > max_retries:
                                # The worker running this task may be
                                # genuinely hung; joining it would wedge
                                # the parent, so abandon the pool before
                                # the error propagates.
                                abandon = True
                                raise SimulationError(
                                    f"task {index} exceeded its {timeout} s "
                                    f"timeout on {attempts[index]} attempts; "
                                    "giving up (it would hang serially too)"
                                )
                        raise _PoolRestart
                submit_up_to_capacity()
        except _PoolRestart:
            # Overdue tasks re-enter `pending`; only here may workers be
            # genuinely hung, so the pool is torn down without joining.
            abandon = True
        except BrokenProcessPool:
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
            if abandon:
                _abandon_pool(pool)
            else:
                # Plain join: workers here are healthy, finished, or
                # already reaped by the executor (cancel_futures would
                # race the feeder thread's pickling-error path).
                pool.shutdown(wait=True)
    return results


def _run_sharded(engine, workers: int, merge, progress=None):
    """Shard ``engine``'s trials over processes and merge in shard order.

    The one shard loop behind :func:`run_simulator_parallel` and
    :func:`run_fused_parallel`: shards follow :func:`split_trials`, shard
    ``i`` draws from the ``i``-th :func:`spawn_seed_sequences` child, and
    ``progress(done, total)`` (optional) fires in the parent as shards
    complete.  Crashed shards are retried and replay the same seeds.
    """
    shards = split_trials(engine._trials, workers)
    seeds = spawn_seed_sequences(engine._seed, len(shards))
    total = engine._trials
    if len(shards) == 1:
        result = _run_shard(engine, shards[0], seeds[0])
        if progress is not None:
            progress(total, total)
        return result
    on_result = None
    if progress is not None:
        done_trials = [0]

        def on_result(index: int, _result: Any) -> None:
            done_trials[0] += shards[index]
            progress(done_trials[0], total)

    tasks = [(engine, shard, seed) for shard, seed in zip(shards, seeds)]
    try:
        results = _execute_resilient(
            _run_shard, tasks, workers=len(shards), on_result=on_result
        )
    except SimulationError:
        raise
    except (pickle.PicklingError, TypeError, AttributeError, ImportError) as exc:
        raise _wrap_pickling_error(exc) from exc
    return merge(results)


def run_simulator_parallel(simulator, workers: int):
    """Run a :class:`MonteCarloSimulator`'s trials across worker processes.

    Args:
        simulator: the configured simulator (its ``trials``, ``seed``,
            ``progress`` and all modelling options are honoured).
        workers: process count; shards follow :func:`split_trials` and
            seeds follow :func:`spawn_seed_sequences`.

    Returns:
        One merged :class:`SimulationResult` — shard order, hence output,
        is deterministic for a given ``(seed, workers)``, and worker
        crashes never change it (retries replay the same seeds).
    """
    return _run_sharded(
        simulator, workers, merge_simulation_results, simulator._progress
    )


def run_fused_parallel(engine, workers: int):
    """Run a :class:`FusedMonteCarloEngine`'s trials across processes.

    The fused counterpart of :func:`run_simulator_parallel`, under the
    identical reproducibility contract, so the same ``(seed, workers)``
    always reproduces the identical
    :class:`~repro.simulation.fused.FusedSweepResult`.  The per-trial
    grid rows stay aligned across columns within every shard, so
    common-random-numbers monotonicity survives the merge.
    """
    return _run_sharded(engine, workers, merge_fused_results)


def _invoke(task) -> Any:
    """Top-level trampoline so (fn, args, kwargs) tasks pickle cleanly."""
    fn, args, kwargs = task
    return fn(*args, **kwargs)


def parallel_map(
    fn: Callable[..., Any],
    items: Sequence[Any],
    workers: int = 1,
    kwargs_items: bool = False,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Ordered ``map(fn, items)`` over a process pool.

    Args:
        fn: a picklable callable (module-level function or partial).
        items: the inputs; each is passed as ``fn(item)``, or as
            ``fn(**item)`` when ``kwargs_items`` is true.
        workers: ``1`` runs inline (no pool, no pickling requirement).
        kwargs_items: treat each item as a keyword-argument dict.
        timeout: optional per-item running-time bound in seconds, queue
            wait excluded (pool mode; the inline path runs items
            unbounded, as plain calls would).
        max_retries: pool rebuilds allowed per item before the serial
            fallback (crashes) or a raised error (timeouts).
        on_result: optional ``(index, result)`` callback fired as each
            item completes (input order when inline, completion order on
            the pool) — the hook checkpointed sweeps persist through.

    Returns:
        Results in input order.
    """
    workers = _validate_workers(workers)
    _validate_resilience(timeout, max_retries)
    if kwargs_items:
        tasks = [(fn, (), dict(item)) for item in items]
    else:
        tasks = [(fn, (item,), {}) for item in items]
    if workers == 1 or len(tasks) <= 1:
        results = []
        for index, task in enumerate(tasks):
            result = _invoke(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results
    try:
        return _execute_resilient(
            _invoke,
            [(task,) for task in tasks],
            workers=min(workers, len(tasks)),
            timeout=timeout,
            max_retries=max_retries,
            on_result=on_result,
        )
    except SimulationError:
        raise
    except (pickle.PicklingError, TypeError, AttributeError, ImportError) as exc:
        raise _wrap_pickling_error(exc) from exc
