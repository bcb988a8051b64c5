"""The engine's execution layer: serial and thread executors.

Heavy engine work decomposes into *independent* units whose results are
merged in a fixed order — the 28 anchor-dependent delta expressions of
one anchor update, the per-structure feature columns of one extraction,
the scored blocks of one candidate sweep.  Scipy's sparse kernels and
numpy's searchsorted/ufuncs release the GIL, so a plain thread pool
parallelizes them without any serialization cost.

:class:`Executor` is the small abstraction the session and the candidate
stream program against.  Two implementations exist:

* :class:`SerialExecutor` — runs everything inline (the default, and the
  reference semantics);
* :class:`ThreadedExecutor` — a ``concurrent.futures.ThreadPoolExecutor``
  wrapper that preserves **input order** in all results, so the merged
  output of a threaded run is byte-identical to the serial run.

The engine runs on one host: every work unit is a closure over live
session state, shared by the pool's threads without copying.

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
exception mid-run never leaks worker threads.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar, Union

from repro.exceptions import AlignmentError

logger = logging.getLogger(__name__)

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
        Short name of the execution backend (``"serial"`` or
        ``"thread"``) — recorded in experiment runtime metadata.
    """

    workers: int = 1
    kind: str = "serial"

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
        """Release worker threads, if any (always idempotent)."""

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
        """``fn`` over ``items`` on the pool, in input order, with at
        most ``window`` (default twice the pool size) submitted but
        unconsumed results in flight."""
        if self._inside_worker:
            return (fn(item) for item in items)
        if window is None:
            window = 2 * self.workers
        if window < 1:
            raise AlignmentError(f"window must be >= 1, got {window}")
        pool = self._ensure_pool()
        fn = self._entered(fn)

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

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadedExecutor(workers={self.workers})"


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
