"""Tests for repro.engine.parallel and the threaded session paths."""

import threading

import numpy as np
import pytest

from repro.engine import (
    AlignmentSession,
    CandidateGenerator,
    SerialExecutor,
    ThreadedExecutor,
    get_executor,
    linear_scorer,
    streamed_selection,
)
from repro.exceptions import AlignmentError


def _all_pairs(pair):
    return [(u, v) for u in pair.left_users() for v in pair.right_users()]


def _square(value):
    return value * value


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

    @pytest.mark.parametrize("pool", [ThreadedExecutor], ids=["thread"])
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

    def test_kind_labels(self):
        assert SerialExecutor().kind == "serial"
        assert ThreadedExecutor(2).kind == "thread"

    def test_threaded_work_actually_uses_pool_threads(self):
        seen = set()
        with ThreadedExecutor(3) as executor:
            executor.map(
                lambda _: seen.add(threading.current_thread().name), range(32)
            )
        assert any(name.startswith("repro-engine") for name in seen)


class TestExecutorLifecycle:
    def test_threaded_close_is_idempotent(self):
        executor = ThreadedExecutor(2)
        assert executor.map(_square, [3]) == [9]
        executor.close()
        executor.close()
        # A closed executor lazily rebuilds its pool on next use.
        assert executor.map(_square, [4]) == [16]
        executor.close()

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
