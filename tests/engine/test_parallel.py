"""Tests for repro.engine.parallel and the threaded session paths."""

import os
import threading

import numpy as np
import pytest

from repro.engine import (
    AlignmentSession,
    CandidateGenerator,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    get_executor,
    linear_scorer,
    make_executor,
    streamed_selection,
)
from repro.exceptions import AlignmentError


def _all_pairs(pair):
    return [(u, v) for u in pair.left_users() for v in pair.right_users()]


def _square(value):
    """Module-level (hence picklable) work function for process tests."""
    return value * value


def _worker_pid(_):
    return os.getpid()


class TestExecutors:
    def test_get_executor_dispatch(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(0), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        threaded = get_executor(3)
        assert isinstance(threaded, ThreadedExecutor)
        assert threaded.workers == 3
        assert get_executor(threaded) is threaded
        with pytest.raises(AlignmentError):
            get_executor(-1)
        with pytest.raises(AlignmentError):
            ThreadedExecutor(1)

    def test_serial_map_and_imap_order(self):
        executor = SerialExecutor()
        assert executor.map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]
        assert list(executor.imap(lambda x: -x, range(4))) == [0, -1, -2, -3]

    def test_threaded_map_preserves_input_order(self):
        with ThreadedExecutor(4) as executor:
            items = list(range(100))
            assert executor.map(lambda x: x + 1, items) == [
                x + 1 for x in items
            ]

    @pytest.mark.parametrize(
        "pool", [ThreadedExecutor, ProcessExecutor], ids=["thread", "process"]
    )
    def test_pooled_imap_ordered_and_lazy(self, pool):
        consumed = []

        def stream():
            for i in range(50):
                consumed.append(i)
                yield i

        with pool(2) as executor:
            results = executor.imap(_square, stream(), window=4)
            first = next(results)
            assert first == 0
            # The bounded window keeps the stream from being drained
            # eagerly: at most window + yielded items were consumed.
            assert len(consumed) <= 6
            assert list(results) == [x * x for x in range(1, 50)]

    def test_threaded_imap_propagates_errors(self):
        def explode(x):
            if x == 3:
                raise ValueError("boom")
            return x

        with ThreadedExecutor(2) as executor:
            with pytest.raises(ValueError, match="boom"):
                list(executor.imap(explode, range(6)))

    def test_nested_calls_run_inline(self):
        """A worker thread re-entering the executor must not deadlock."""
        with ThreadedExecutor(2) as executor:

            def outer(x):
                inner = executor.map(lambda y: y + x, range(3))
                return sum(inner)

            assert executor.map(outer, range(8)) == [
                sum(y + x for y in range(3)) for x in range(8)
            ]

    def test_threaded_work_actually_uses_pool_threads(self):
        seen = set()
        with ThreadedExecutor(3) as executor:
            executor.map(
                lambda _: seen.add(threading.current_thread().name), range(32)
            )
        assert any(name.startswith("repro-engine") for name in seen)


class TestProcessExecutor:
    def test_map_preserves_input_order(self):
        with ProcessExecutor(2) as executor:
            assert executor.map(_square, range(8)) == [
                v * v for v in range(8)
            ]

    def test_imap_ordered_with_window(self):
        with ProcessExecutor(2) as executor:
            results = list(executor.imap(_square, range(10), window=3))
            assert results == [v * v for v in range(10)]

    def test_work_crosses_process_boundary(self):
        with ProcessExecutor(2) as executor:
            pids = set(executor.map(_worker_pid, range(8)))
            assert os.getpid() not in pids

    def test_unpicklable_callable_runs_inline(self):
        captured = []
        with ProcessExecutor(2) as executor:
            results = executor.map(lambda v: captured.append(v) or v, range(4))
            assert results == [0, 1, 2, 3]
            # Closure side effects prove inline (same-process) execution.
            assert captured == [0, 1, 2, 3]
            lazy = executor.imap(lambda v: v + 1, range(3))
            assert list(lazy) == [1, 2, 3]

    def test_close_is_idempotent(self):
        executor = ProcessExecutor(2)
        assert executor.map(_square, [3]) == [9]
        executor.close()
        executor.close()
        # A closed executor lazily rebuilds its pool on next use.
        assert executor.map(_square, [4]) == [16]
        executor.close()

    def test_requires_two_workers(self):
        with pytest.raises(AlignmentError):
            ProcessExecutor(1)

    def test_kind_labels(self):
        assert SerialExecutor().kind == "serial"
        assert ThreadedExecutor(2).kind == "thread"
        assert ProcessExecutor(2).kind == "process"

    def test_crosses_processes_flags(self):
        assert SerialExecutor.crosses_processes is False
        assert ThreadedExecutor.crosses_processes is False
        assert ProcessExecutor.crosses_processes is True


class TestMakeExecutor:
    def test_named_backends(self):
        assert isinstance(make_executor("serial", 8), SerialExecutor)
        thread = make_executor("thread", 3)
        assert isinstance(thread, ThreadedExecutor) and thread.workers == 3
        process = make_executor("process", 2)
        assert isinstance(process, ProcessExecutor) and process.workers == 2
        process.close()

    def test_single_worker_always_serial(self):
        assert isinstance(make_executor("thread", 1), SerialExecutor)
        assert isinstance(make_executor("process", 0), SerialExecutor)

    def test_unknown_kind_rejected(self):
        for kind in ("gpu", "rpc"):
            with pytest.raises(
                AlignmentError, match="choose from serial, thread, process$"
            ):
                make_executor(kind, 2)


class TestExecutorLifecycle:
    def test_session_closes_owned_executor(self, handmade_pair):
        with AlignmentSession(handmade_pair, workers=2) as session:
            session.extract(_all_pairs(handmade_pair))
            assert isinstance(session.executor, ThreadedExecutor)
        # After close the lazily-created pool is gone; reuse rebuilds it.
        assert session.executor._pool is None

    def test_session_leaves_shared_executor_open(self, handmade_pair):
        executor = ThreadedExecutor(2)
        try:
            with AlignmentSession(handmade_pair, workers=executor) as session:
                session.extract(_all_pairs(handmade_pair))
            # The shared pool must survive the session's close.
            assert executor.map(len, [[1, 2]]) == [2]
        finally:
            executor.close()


class TestThreadedSessionExactness:
    """workers=N must be byte-identical to workers=1, path by path."""

    def test_extraction_identical(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        pairs = _all_pairs(pair)[:400]
        serial = AlignmentSession(pair, known_anchors=pair.anchors, workers=1)
        threaded = AlignmentSession(
            pair, known_anchors=pair.anchors, workers=4
        )
        assert threaded.workers == 4
        assert np.array_equal(serial.extract(pairs), threaded.extract(pairs))

    def test_delta_rounds_identical(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _all_pairs(pair)[:400]
        serial = AlignmentSession(pair, known_anchors=anchors[:3], workers=1)
        threaded = AlignmentSession(pair, known_anchors=anchors[:3], workers=4)
        X_serial = serial.extract(pairs)
        X_threaded = threaded.extract(pairs)
        for upto in range(4, len(anchors) + 1):
            serial.set_anchors(anchors[:upto])
            threaded.set_anchors(anchors[:upto])
            serial.refresh_features(X_serial, pairs)
            threaded.refresh_features(X_threaded, pairs)
            assert np.array_equal(X_serial, X_threaded)
        assert threaded.stats.delta_updates == serial.stats.delta_updates
        assert threaded.stats.full_recounts == serial.stats.full_recounts

    def test_threaded_matches_scratch(self, tiny_synthetic_pair):
        """Threaded delta path equals a from-scratch serial session."""
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _all_pairs(pair)[:400]
        threaded = AlignmentSession(pair, known_anchors=anchors[:4], workers=4)
        X = threaded.extract(pairs)
        threaded.set_anchors(anchors)
        threaded.refresh_features(X, pairs)
        scratch = AlignmentSession(pair, known_anchors=anchors).extract(pairs)
        assert np.array_equal(X, scratch)


class TestThreadedBlockScoring:
    def test_streamed_selection_workers_identical(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        session = AlignmentSession(pair, known_anchors=pair.anchors)
        weights = np.random.default_rng(5).normal(
            scale=0.7, size=session.n_features
        )
        scorer = linear_scorer(session, weights)

        def select(workers):
            return streamed_selection(
                CandidateGenerator(pair, block_size=53),
                scorer,
                threshold=0.5,
                workers=workers,
            )

        serial = select(None)
        threaded = select(4)
        assert serial == threaded
        assert serial  # non-trivial selection

    def test_shared_executor_accepted(self, handmade_pair):
        session = AlignmentSession(
            handmade_pair, known_anchors=handmade_pair.anchors, workers=2
        )
        selected = streamed_selection(
            CandidateGenerator(handmade_pair, block_size=2),
            lambda block: np.ones(len(block)),
            workers=session.executor,
        )
        assert selected

    def test_score_length_mismatch_rejected(self, handmade_pair):
        generator = CandidateGenerator(handmade_pair, block_size=4)
        with pytest.raises(AlignmentError, match="score function"):
            streamed_selection(generator, lambda block: np.ones(1))


def _fallbacks(executor):
    counters = executor.registry.snapshot()["counters"]
    return counters["fallback.inline_map"], counters["fallback.serial_sweep"]


class TestFallbackCounters:
    """The process executor counts every silent degradation."""

    def test_unpicklable_map_and_imap_count_inline_runs(self):
        offset = 1
        with ProcessExecutor(2) as executor:
            assert executor.map(lambda v: v + offset, range(3)) == [1, 2, 3]
            assert _fallbacks(executor) == (1, 0)
            assert list(executor.imap(lambda v: v - offset, range(3))) == [
                -1,
                0,
                1,
            ]
            assert _fallbacks(executor) == (2, 0)

    def test_picklable_functions_count_nothing(self):
        with ProcessExecutor(2) as executor:
            assert executor.map(_square, range(4)) == [0, 1, 4, 9]
            assert list(executor.imap(_square, range(4))) == [0, 1, 4, 9]
            assert _fallbacks(executor) == (0, 0)

    def test_unpicklable_scorer_counts_a_serial_sweep(self, handmade_pair):
        with ProcessExecutor(2) as executor:
            selected = streamed_selection(
                CandidateGenerator(handmade_pair, block_size=2),
                lambda block: np.ones(len(block)),
                workers=executor,
            )
            assert selected
            assert _fallbacks(executor) == (0, 1)

    def test_arena_scorer_sweeps_across_processes(
        self, tiny_synthetic_pair, tmp_path
    ):
        from repro.store import ArenaLinearScorer

        pair = tiny_synthetic_pair
        with AlignmentSession(
            pair, known_anchors=pair.anchors, store=tmp_path
        ) as session:
            weights = np.random.default_rng(5).normal(size=session.n_features)
            scorer = ArenaLinearScorer(spec=session.flush_store(), weights=weights)
            serial = streamed_selection(
                CandidateGenerator(pair, block_size=97), scorer
            )
            with ProcessExecutor(2) as executor:
                fanned = streamed_selection(
                    CandidateGenerator(pair, block_size=97),
                    scorer,
                    workers=executor,
                )
                assert _fallbacks(executor) == (0, 0)
        assert serial  # non-trivial selection
        assert fanned == serial

    def test_linear_scorer_ships_the_arena_to_a_process_pool(
        self, tiny_synthetic_pair, tmp_path
    ):
        from repro.store import ArenaLinearScorer

        pair = tiny_synthetic_pair

        def sweep(**session_kwargs):
            with AlignmentSession(
                pair, known_anchors=pair.anchors, **session_kwargs
            ) as session:
                weights = np.random.default_rng(5).normal(
                    size=session.n_features
                )
                scorer = linear_scorer(session, weights)
                selected = streamed_selection(
                    CandidateGenerator(pair, block_size=97),
                    scorer,
                    workers=session.executor,
                )
                return scorer, selected, session.metrics_snapshot()["counters"]

        _, serial, _ = sweep()
        with ProcessExecutor(2) as executor:
            scorer, fanned, counters = sweep(workers=executor, store=tmp_path)
        assert isinstance(scorer, ArenaLinearScorer)
        assert serial  # non-trivial selection
        assert fanned == serial
        assert counters["fallback.serial_sweep"] == 0

    def test_counters_reach_the_session_snapshot(self, handmade_pair):
        with ProcessExecutor(2) as executor:
            with AlignmentSession(
                handmade_pair, known_anchors=handmade_pair.anchors, workers=executor
            ) as session:
                session.extract(_all_pairs(handmade_pair))
                streamed_selection(
                    CandidateGenerator(handmade_pair, block_size=2),
                    linear_scorer(session, np.ones(session.n_features)),
                    workers=session.executor,
                )
                counters = session.metrics_snapshot()["counters"]
        # Extraction maps closures over live session state: inline.
        assert counters["fallback.inline_map"] > 0
        assert counters["fallback.serial_sweep"] == 1
