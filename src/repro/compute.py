"""Process-wide compute budget: OpenBLAS thread control and the forward pool.

One number bounds how many cores a process keeps busy:
:func:`compute_budget` = usable CPUs // shards, at least one.  A lone
process gets every usable CPU; each shard worker gets an equal slice
(its bootstrap calls :func:`apply_budget`).  Two consumers spend it:

* **OpenBLAS's thread pools** (numpy and scipy each bundle a copy).  A
  shard worker sets them to its budget explicitly; a lone process
  leaves them as loaded until it starts a forward pool.
* **The forward pool** (:func:`forward_pool`): ``budget`` threads that
  run the chunks of one fused quantized forward side by side
  (:func:`repro.detect.pipeline.predict_windows`).  Most of a quantized
  forward is single-threaded numpy elementwise work (activation
  quantization, requantization, LayerNorm, GELU, softmax) that a BLAS
  thread cannot help with, so chunks in parallel use the cores where
  BLAS threading does not.  While the pool exists every OpenBLAS pool
  runs one thread, so chunk threads and BLAS threads never compete for
  the same cores.  With a budget of one (every shard worker on a host
  with fewer CPUs than twice its shards) the pool is never created.

The pool never changes a result: the quantized kernels are exact
integer arithmetic and every reduction in the quantized graph is
row-local, so a chunk's rows come out the same on any thread (asserted
by the detect tests).

A forked child starts without a pool (:func:`os.register_at_fork`); it
inherits its parent's OpenBLAS thread counts like any other fork, and a
shard worker then sets its own.

Nothing here imports the rest of :mod:`repro` at module level, so any
layer (``detect``, ``serve``) can use it.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import os
import threading
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

__all__ = [
    "apply_budget",
    "blas_budget",
    "blas_threads",
    "budget_info",
    "compute_budget",
    "forward_pool",
    "release_forward_pool",
    "usable_cpus",
]

_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")
# OpenBLAS's own pre-fork hook: stops the pool's threads (it restarts on
# the next threaded call).
_BLAS_SHUTDOWN = ("blas_thread_shutdown_",)


class _BlasPool(NamedTuple):
    library: str
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]
    shutdown: Optional[Callable[[], int]]


def _symbol(lib, names, argtypes, restype):
    for name in names:
        func = getattr(lib, name, None)
        if func is not None:
            func.argtypes, func.restype = argtypes, restype
            return func
    return None


@functools.lru_cache(maxsize=None)
def _openblas_pools() -> Tuple[_BlasPool, ...]:
    """Every loaded OpenBLAS copy, with its thread-control symbols.

    numpy and scipy each bundle one; the program's numeric modules load
    both (imported here so a spawned worker has scipy's too).  Resolved
    once per process from ``/proc/self/maps``; a process that resolves
    before forking hands its children the lookup.
    """
    import repro.quant.vit  # noqa: F401  (scipy.special -> its OpenBLAS)
    import repro.tensor.ops  # noqa: F401

    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split()[-1] for line in maps]
    except OSError:  # no procfs: leave the pools alone
        return ()
    pools = []
    for path in dict.fromkeys(paths):
        name = os.path.basename(path)
        if "openblas" not in name or ".so" not in name:
            continue
        lib = ctypes.CDLL(path)
        pool = _BlasPool(
            name, _symbol(lib, _BLAS_SETTERS, [ctypes.c_int], None),
            _symbol(lib, _BLAS_GETTERS, [], ctypes.c_int),
            _symbol(lib, _BLAS_SHUTDOWN, [], ctypes.c_int))
        if pool.set_threads is not None and pool.get_threads is not None:
            pools.append(pool)
    return tuple(pools)


def blas_threads() -> Dict[str, int]:
    """Threads per loaded OpenBLAS library in this process."""
    return {pool.library: pool.get_threads() for pool in _openblas_pools()}


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def blas_budget(num_shards: int) -> int:
    """Compute budget of each of ``num_shards`` processes sharing the host.

    With default OpenBLAS pools every shard worker would run one thread
    per CPU, so N shards put N threads on each core; measured on 2 CPUs
    with 2 shards that made a shard-side quantized forward ~4x slower
    than in-process.
    """
    return max(1, usable_cpus() // num_shards)


# Shards sharing the host with this process: 1 unless a shard worker
# bootstrap said otherwise (:func:`apply_budget`).
_num_shards = 1
_pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
_pool_lock = threading.Lock()
# OpenBLAS thread counts from before the pool pinned them to one.
_saved_blas: Optional[Dict[str, int]] = None


def compute_budget() -> int:
    """Cores this process may keep busy: usable CPUs // shards.

    Also the number of threads a multi-chunk quantized forward runs on.
    """
    return blas_budget(_num_shards)


def forward_pool() -> Optional[concurrent.futures.ThreadPoolExecutor]:
    """The chunk-forward thread pool, created on first use.

    ``None`` when the budget is one core.  Creating the pool sets every
    loaded OpenBLAS pool to one thread (restored by
    :func:`release_forward_pool`).
    """
    global _pool, _saved_blas
    if _pool is not None:
        return _pool
    workers = compute_budget()
    if workers <= 1:
        return None
    with _pool_lock:
        if _pool is None:
            pools = _openblas_pools()
            _saved_blas = {pool.library: pool.get_threads() for pool in pools}
            for pool in pools:
                pool.set_threads(1)
            _pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-forward")
    return _pool


def release_forward_pool() -> None:
    """Stop the forward pool and restore the OpenBLAS thread counts."""
    global _pool, _saved_blas
    with _pool_lock:
        pool, _pool = _pool, None
        saved, _saved_blas = _saved_blas, None
    if pool is not None:
        pool.shutdown(wait=True)
    if saved:
        for blas in _openblas_pools():
            if blas.library in saved:
                blas.set_threads(saved[blas.library])


def apply_budget(num_shards: int) -> None:
    """Budget this process as one of ``num_shards`` shard workers.

    Sets every loaded OpenBLAS pool to the budget.  After a fork the set
    call restarts each pool at full size, and the new threads busy-wait
    for work (~40 ms each) while the worker builds its models; they are
    stopped here, and a threaded call restarts them.
    """
    global _num_shards
    _num_shards = num_shards
    budget = compute_budget()
    for pool in _openblas_pools():
        pool.set_threads(budget)
        if pool.shutdown is not None:
            pool.shutdown()


def budget_info() -> Dict[str, Any]:
    """The budget as applied: forward threads, pool state, BLAS counts."""
    return {"forward_workers": compute_budget(),
            "forward_pool": _pool is not None,
            "blas_threads": blas_threads()}


def _forget_pool_in_child() -> None:
    # The parent's pool threads do not exist in a forked child, and its
    # lock may have been held mid-fork: start clean.
    global _pool, _saved_blas, _pool_lock
    _pool = None
    _saved_blas = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch — posix only
    os.register_at_fork(after_in_child=_forget_pool_in_child)
