"""The engine's execution layer: serial, thread and process executors.

Heavy engine work decomposes into *independent* units whose results are
merged in a fixed order — the 28 anchor-dependent delta expressions of
one anchor update, the per-structure feature columns of one extraction,
the scored blocks of one candidate sweep.  Scipy's sparse kernels and
numpy's searchsorted/ufuncs release the GIL, so a plain thread pool
parallelizes them without any serialization cost.

:class:`Executor` is the small abstraction the session and the candidate
stream program against.  Three implementations exist:

* :class:`SerialExecutor` — runs everything inline (the default, and the
  reference semantics);
* :class:`ThreadedExecutor` — a ``concurrent.futures.ThreadPoolExecutor``
  wrapper that preserves **input order** in all results, so the merged
  output of a threaded run is byte-identical to the serial run;
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor`` wrapper for work
  whose units cross process boundaries: the function and every item
  must be **picklable**.  The engine's picklable work units are the
  arena-backed block descriptors of :mod:`repro.store.procwork` — the
  matrices themselves are shared through the arena's memory maps, not
  copied.  A non-picklable callable (a closure over live session state)
  degrades gracefully to inline execution, so a session handed a
  process executor still works everywhere — only the curated
  descriptor paths actually fan across processes.  Each such
  degradation is counted in the executor's own :attr:`registry`
  (``fallback.inline_map``).

The :attr:`Executor.crosses_processes` flag is the seam dispatchers use
to choose the descriptor-based work units over closures.

Determinism contract: both :meth:`Executor.map` and
:meth:`Executor.imap` return results in the order of their inputs, never
in completion order, and callers fold results sequentially in that
order.  Because each work unit is a pure function of its inputs, the
executor choice can change wall-clock time but never a single bit of the
output — asserted by the engine test-suite and the parallel benchmark.

Nested use is safe: when a worker thread re-enters the executor (e.g. a
threaded block sweep whose scorer calls ``session.extract``, which
itself maps over structures), the inner call runs inline instead of
deadlocking the bounded pool.

:meth:`Executor.close` is **idempotent** on every implementation, and
executors are context managers — the pipeline, the experiment runner
and the CLI always release pools through ``with``/``finally`` so an
exception mid-run never leaks worker threads or processes.
"""

from __future__ import annotations

import logging
import pickle
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar, Union

from repro.exceptions import AlignmentError
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)


def _picklable(obj) -> bool:
    """Whether ``obj`` survives pickling (the process-pool entry fee)."""
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True

T = TypeVar("T")
R = TypeVar("R")

#: What the ``workers`` knobs accept: an executor, a worker count, or
#: ``None`` for the serial default.
WorkersSpec = Union["Executor", int, None]


class Executor:
    """Order-preserving work executor (see module docstring).

    Attributes
    ----------
    workers:
        Parallelism degree; ``1`` means strictly inline execution.
    kind:
        Short name of the execution backend (``"serial"``, ``"thread"``
        or ``"process"``) — recorded in experiment runtime metadata.
    crosses_processes:
        Whether work units leave this interpreter (pickled to a process
        pool).  Dispatchers use this to decide between closure-based
        work and the arena-backed block descriptors of
        :mod:`repro.store.procwork`.
    """

    workers: int = 1
    kind: str = "serial"
    crosses_processes: bool = False

    def map(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> List[R]:
        """Apply ``fn`` to every item; results in input order."""
        raise NotImplementedError

    def imap(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        window: Optional[int] = None,
    ) -> Iterator[R]:
        """Lazily apply ``fn`` over a stream; results in input order.

        Unlike :meth:`map`, the input iterable is consumed on demand
        with at most ``window`` items in flight, so an unboundedly long
        stream (the candidate block generator) never materializes.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker threads/processes, if any (always idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Inline execution — the reference path every parallel run must match."""

    workers = 1
    kind = "serial"

    def map(self, fn, items):
        return [fn(item) for item in items]

    def imap(self, fn, items, window=None):
        return (fn(item) for item in items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def _windowed_imap(
    executor: Union["ThreadedExecutor", "ProcessExecutor"],
    fn: Callable[[T], R],
    items: Iterable[T],
    window: Optional[int],
) -> Iterator[R]:
    """The pooled executors' ``imap``: ``fn`` over ``items`` on the
    executor's pool, in input order, with at most ``window`` (default
    twice the pool size) submitted but unconsumed results in flight."""
    if window is None:
        window = 2 * executor.workers
    if window < 1:
        raise AlignmentError(f"window must be >= 1, got {window}")
    pool = executor._ensure_pool()

    def results() -> Iterator[R]:
        pending = deque()
        try:
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) >= window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()

    return results()


class ThreadedExecutor(Executor):
    """Thread-pool execution with input-order result merging.

    Parameters
    ----------
    workers:
        Pool size; must be >= 2 (use :class:`SerialExecutor` for 1).

    Notes
    -----
    The pool is created lazily on first use and torn down by
    :meth:`close` (or garbage collection).  Calls made *from* a pool
    worker run inline — see the module docstring on nested use.
    """

    kind = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise AlignmentError(
                f"ThreadedExecutor needs >= 2 workers, got {workers}"
            )
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._in_worker = threading.local()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                logger.debug("starting thread pool (workers=%d)", self.workers)
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-engine",
                )
            return self._pool

    def _entered(self, fn: Callable[[T], R]) -> Callable[[T], R]:
        """Wrap ``fn`` so nested executor calls detect the worker thread."""

        def run(item: T) -> R:
            self._in_worker.flag = True
            try:
                return fn(item)
            finally:
                self._in_worker.flag = False

        return run

    @property
    def _inside_worker(self) -> bool:
        return bool(getattr(self._in_worker, "flag", False))

    def map(self, fn, items):
        if self._inside_worker:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(self._entered(fn), items))

    def imap(self, fn, items, window=None):
        if self._inside_worker:
            return (fn(item) for item in items)
        return _windowed_imap(self, self._entered(fn), items, window)

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadedExecutor(workers={self.workers})"


class ProcessExecutor(Executor):
    """Process-pool execution for picklable work units.

    Parameters
    ----------
    workers:
        Pool size; must be >= 2 (use :class:`SerialExecutor` for 1).

    Notes
    -----
    The pool is created lazily and torn down by :meth:`close`
    (idempotent).  Work whose callable does not pickle — the session's
    internal closures — runs inline, preserving correctness at serial
    speed; the engine's cross-process fan-outs go through the
    module-level job functions of :mod:`repro.store.procwork`, whose
    items are block descriptors resolved against a shared
    :class:`~repro.store.arena.MatrixArena`.  Result order always
    follows input order, so a process run is byte-identical to a serial
    one.

    :attr:`registry` counts the degradations: ``fallback.inline_map``
    for every ``map``/``imap`` whose callable did not pickle, and
    ``fallback.serial_sweep`` for every
    :func:`~repro.engine.candidates.streamed_selection` that swept
    serially because its scorer did not pickle.  A session merges it
    into :meth:`~repro.engine.session.AlignmentSession.metrics_snapshot`.
    """

    kind = "process"
    crosses_processes = True

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise AlignmentError(
                f"ProcessExecutor needs >= 2 workers, got {workers}"
            )
        self.workers = int(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self.registry = MetricsRegistry()
        # Registered up front so a run without fallbacks reports 0s.
        self.registry.counter("fallback.inline_map")
        self.registry.counter("fallback.serial_sweep")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                logger.debug(
                    "starting process pool (workers=%d)", self.workers
                )
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def _ships(self, fn: Callable) -> bool:
        """Whether ``fn`` can go to the pool; counts it when it cannot."""
        if _picklable(fn):
            return True
        self.registry.counter("fallback.inline_map").inc()
        logger.debug("ProcessExecutor: %r does not pickle; running inline", fn)
        return False

    def map(self, fn, items):
        if not self._ships(fn):
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def imap(self, fn, items, window=None):
        if not self._ships(fn):
            return (fn(item) for item in items)
        return _windowed_imap(self, fn, items, window)

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessExecutor(workers={self.workers})"


def make_executor(kind: str, workers: int = 1) -> Executor:
    """Build an executor from a named backend and a worker count.

    The CLI's ``--executor {serial,thread,process}`` knob resolves
    through here; ``workers <= 1`` always yields the serial executor
    for the pooled kinds (a pool of one is just overhead).
    """
    if kind not in ("serial", "thread", "process"):
        raise AlignmentError(
            f"unknown executor kind {kind!r}; "
            "choose from serial, thread, process"
        )
    if kind == "serial" or workers <= 1:
        return SerialExecutor()
    if kind == "thread":
        return ThreadedExecutor(workers)
    return ProcessExecutor(workers)


def get_executor(workers: WorkersSpec) -> Executor:
    """Resolve a ``workers`` knob into an executor.

    ``None``, ``0`` and ``1`` mean serial; an integer >= 2 builds a
    :class:`ThreadedExecutor`; an :class:`Executor` instance passes
    through unchanged (letting several sessions share one pool).
    """
    if isinstance(workers, Executor):
        return workers
    if workers is None:
        return SerialExecutor()
    count = int(workers)
    if count < 0:
        raise AlignmentError(f"workers must be >= 0, got {workers}")
    if count <= 1:
        return SerialExecutor()
    return ThreadedExecutor(count)
