"""Scalability analysis harness (Figure 4).

Measures end-to-end ActiveIter fit time while the NP-ratio θ (and with
it the candidate count |H| = (1 + θ)·|L+|) grows.  The paper's claim is
*near-linear* growth; :func:`fit_linear_trend` quantifies it with a
least-squares line and its R².
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.active.oracle import LabelOracle
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentTask
from repro.engine.candidates import (
    CandidateGenerator,
    linear_scorer,
    streamed_selection,
)
from repro.engine.session import AlignmentSession, SessionStats
from repro.engine.streaming import StreamedAlignmentTask, blockify
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.meta.diagrams import standard_diagram_family
from repro.meta.features import FeatureExtractor
from repro.networks.aligned import AlignedPair


@dataclass(frozen=True)
class TimingPoint:
    """Wall-clock measurement at one NP-ratio."""

    np_ratio: int
    n_candidates: int
    seconds: float


def scalability_study(
    pair: AlignedPair,
    np_ratios: Sequence[int] = (5, 10, 20, 30, 40, 50),
    budget: int = 50,
    sample_ratio: float = 1.0,
    seed: int = 13,
) -> List[TimingPoint]:
    """Time one ActiveIter fit per NP-ratio (features pre-extracted).

    Feature extraction cost is excluded: the paper's complexity analysis
    (§III-E) concerns the learning loop, and extraction is a fixed
    preprocessing stage shared by every method.
    """
    points: List[TimingPoint] = []
    for np_ratio in np_ratios:
        config = ProtocolConfig(
            np_ratio=np_ratio,
            sample_ratio=sample_ratio,
            n_repeats=1,
            seed=seed,
        )
        split = next(iter(build_splits(pair, config)))
        extractor = FeatureExtractor(
            pair, known_anchors=split.train_positive_pairs
        )
        task = AlignmentTask(
            pairs=list(split.candidates),
            X=extractor.extract(list(split.candidates)),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        positives = {
            split.candidates[i]
            for i in range(len(split.candidates))
            if split.truth[i] == 1
        }
        model = ActiveIter(LabelOracle(positives, budget=budget))
        started = time.perf_counter()
        model.fit(task)
        elapsed = time.perf_counter() - started
        points.append(
            TimingPoint(
                np_ratio=np_ratio,
                n_candidates=len(split.candidates),
                seconds=elapsed,
            )
        )
    return points


@dataclass(frozen=True)
class IncrementalComparison:
    """Result of racing the incremental session against full recompute.

    Attributes
    ----------
    full_seconds, incremental_seconds:
        Wall-clock fit time of the two feature-refresh paths.
    n_rounds:
        Query rounds executed (identical for both paths).
    identical_labels:
        Whether the two paths produced byte-identical label vectors —
        the delta update's exactness guarantee, asserted downstream.
    full_stats, incremental_stats:
        The sessions' work counters.
    """

    full_seconds: float
    incremental_seconds: float
    n_rounds: int
    identical_labels: bool
    full_stats: SessionStats
    incremental_stats: SessionStats

    @property
    def speedup(self) -> float:
        """Full-recompute time over incremental time."""
        if self.incremental_seconds <= 0:
            return float("inf")
        return self.full_seconds / self.incremental_seconds


def compare_incremental_paths(
    pair: AlignedPair,
    np_ratio: int = 20,
    sample_ratio: float = 1.0,
    budget: int = 30,
    batch_size: int = 2,
    seed: int = 13,
) -> IncrementalComparison:
    """Race ActiveIter-with-refresh on delta vs full-recompute sessions.

    Both runs share one split, the same oracle budget and the same
    query strategy; the only difference is the session's ``incremental``
    flag.  Because the delta update is bit-exact, every round's scores —
    and therefore the queried links and the final labels — must agree
    byte for byte; :attr:`IncrementalComparison.identical_labels`
    records that check for callers to assert on.
    """
    config = ProtocolConfig(
        np_ratio=np_ratio, sample_ratio=sample_ratio, n_repeats=1, seed=seed
    )
    split = next(iter(build_splits(pair, config)))
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }

    def run(incremental: bool):
        session = AlignmentSession(
            pair,
            known_anchors=split.train_positive_pairs,
            incremental=incremental,
        )
        candidates = list(split.candidates)  # shared with the session view
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        model = ActiveIter(
            LabelOracle(positives, budget=budget),
            batch_size=batch_size,
            session=session,
            refresh_features=True,
        )
        started = time.perf_counter()
        model.fit(task)
        elapsed = time.perf_counter() - started
        return model, session, elapsed

    full_model, full_session, full_seconds = run(incremental=False)
    incr_model, incr_session, incr_seconds = run(incremental=True)
    return IncrementalComparison(
        full_seconds=full_seconds,
        incremental_seconds=incr_seconds,
        n_rounds=incr_model.result_.n_rounds,
        identical_labels=bool(
            np.array_equal(full_model.labels_, incr_model.labels_)
            and full_model.queried_ == incr_model.queried_
        ),
        full_stats=full_session.stats,
        incremental_stats=incr_session.stats,
    )


def format_incremental_comparison(comparison: IncrementalComparison) -> str:
    """Plain-text rendering of the incremental-vs-full race."""
    lines = [
        "Incremental session vs full recompute (ActiveIter with feature refresh)",
        f"{'path':<14}{'seconds':>10}  session stats",
        (
            f"{'full':<14}{comparison.full_seconds:>10.4f}  "
            f"{comparison.full_stats.summary()}"
        ),
        (
            f"{'incremental':<14}{comparison.incremental_seconds:>10.4f}  "
            f"{comparison.incremental_stats.summary()}"
        ),
        (
            f"speedup: {comparison.speedup:.2f}x over {comparison.n_rounds} "
            f"query rounds; labels identical: {comparison.identical_labels}"
        ),
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class ParallelComparison:
    """Result of racing the threaded execution layer against serial.

    Attributes
    ----------
    workers:
        Thread-pool size of the threaded run.
    serial_seconds, threaded_seconds:
        Wall-clock time of the two runs over identical work: a full
        extraction, ``n_rounds`` delta anchor updates with in-place
        feature refresh, and one block-scored streamed selection.
    n_rounds:
        Anchor-update rounds executed (identical for both runs).
    identical_features:
        Whether the two runs produced byte-identical feature matrices.
    identical_selection:
        Whether the block-scored streamed selections matched exactly.
    serial_stats, threaded_stats:
        The sessions' work counters.
    """

    workers: int
    serial_seconds: float
    threaded_seconds: float
    n_rounds: int
    identical_features: bool
    identical_selection: bool
    serial_stats: SessionStats
    threaded_stats: SessionStats

    @property
    def speedup(self) -> float:
        """Serial time over threaded time."""
        if self.threaded_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.threaded_seconds

    @property
    def identical(self) -> bool:
        """Whether every compared output was byte-identical."""
        return self.identical_features and self.identical_selection


def _anchor_round_workload(
    pair: AlignedPair,
    np_ratio: int,
    sample_ratio: float,
    rounds: int,
    batch_size: int,
    seed: int,
):
    """Shared setup of the engine-race workload.

    Both :func:`compare_parallel_paths` and :func:`compare_store_paths`
    claim to run *the identical engine workload* under different
    execution configurations; building it in one place keeps that claim
    true by construction.  Returns ``(split, known, arrivals, weights)``
    — the split, the initially known anchors (half the split's
    positives, deterministically ordered), the batched anchor arrivals
    of the later rounds, and a fixed random scoring weight vector.
    """
    config = ProtocolConfig(
        np_ratio=np_ratio, sample_ratio=sample_ratio, n_repeats=1, seed=seed
    )
    split = next(iter(build_splits(pair, config)))
    positives = sorted(
        (
            split.candidates[i]
            for i in range(len(split.candidates))
            if split.truth[i] == 1
        ),
        key=repr,
    )
    start_known = max(1, len(positives) // 2)
    known = positives[:start_known]
    queue = positives[start_known:]
    arrivals = [
        queue[r * batch_size: (r + 1) * batch_size] for r in range(rounds)
    ]
    arrivals = [arrival for arrival in arrivals if arrival]
    n_features = len(standard_diagram_family().feature_names) + 1  # + bias
    weights = np.random.default_rng(seed).normal(scale=0.5, size=n_features)
    return split, known, arrivals, weights


def compare_parallel_paths(
    pair: AlignedPair,
    workers: int = 4,
    np_ratio: int = 20,
    sample_ratio: float = 1.0,
    rounds: int = 6,
    batch_size: int = 3,
    block_size: int = 1024,
    seed: int = 13,
) -> ParallelComparison:
    """Race a ``workers``-threaded session against a serial one.

    Both runs execute the identical engine workload — initial feature
    extraction over the split's candidates, ``rounds`` batched anchor
    arrivals with delta updates and in-place refresh, then one
    block-scored streamed selection over the support-pruned candidate
    space.  The executor only changes scheduling, so the comparison
    asserts byte-identical features and selections alongside the
    wall-clock ratio.
    """
    split, known, arrivals, weights = _anchor_round_workload(
        pair, np_ratio, sample_ratio, rounds, batch_size, seed
    )

    def run(worker_count: int):
        # The context manager releases the thread pool the session
        # builds for worker_count > 1, even if the race raises.
        with AlignmentSession(
            pair, known_anchors=known, workers=worker_count
        ) as session:
            candidates = list(split.candidates)
            started = time.perf_counter()
            X = session.extract(candidates)
            current = list(known)
            for arrival in arrivals:
                current += arrival
                session.set_anchors(current)
                session.refresh_features(X, candidates)
            generator = CandidateGenerator.from_support(
                session, block_size=block_size
            )
            selected = streamed_selection(
                generator,
                linear_scorer(session, weights),
                threshold=0.5,
                workers=session.executor,
            )
            elapsed = time.perf_counter() - started
            return X, selected, session.stats, elapsed

    X_serial, sel_serial, stats_serial, serial_seconds = run(1)
    X_threaded, sel_threaded, stats_threaded, threaded_seconds = run(workers)
    return ParallelComparison(
        workers=workers,
        serial_seconds=serial_seconds,
        threaded_seconds=threaded_seconds,
        n_rounds=len(arrivals),
        identical_features=bool(np.array_equal(X_serial, X_threaded)),
        identical_selection=sel_serial == sel_threaded,
        serial_stats=stats_serial,
        threaded_stats=stats_threaded,
    )


def format_parallel_comparison(comparison: ParallelComparison) -> str:
    """Plain-text rendering of the threaded-vs-serial race."""
    lines = [
        (
            "Parallel execution layer vs serial "
            f"(workers={comparison.workers}, "
            f"{comparison.n_rounds} anchor rounds)"
        ),
        f"{'path':<14}{'seconds':>10}  session stats",
        (
            f"{'serial':<14}{comparison.serial_seconds:>10.4f}  "
            f"{comparison.serial_stats.summary()}"
        ),
        (
            f"{'threaded':<14}{comparison.threaded_seconds:>10.4f}  "
            f"{comparison.threaded_stats.summary()}"
        ),
        (
            f"speedup: {comparison.speedup:.2f}x; "
            f"features identical: {comparison.identical_features}; "
            f"selection identical: {comparison.identical_selection}"
        ),
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class StoreComparison:
    """Disk-backed store (+ chosen executor) vs the in-memory baseline.

    Both runs execute the identical engine workload; the store run
    spills every count matrix (and memoized product) to ``store_dir``
    and serves it memory-mapped.  ``identical_features`` /
    ``identical_selection`` record the subsystem's exactness guarantee.
    """

    executor: str
    workers: int
    memory_seconds: float
    store_seconds: float
    n_rounds: int
    identical_features: bool
    identical_selection: bool
    store_dir: str
    store_entries: int
    store_bytes: int

    @property
    def identical(self) -> bool:
        """Whether every compared output was byte-identical."""
        return self.identical_features and self.identical_selection


def compare_store_paths(
    pair: AlignedPair,
    store_dir,
    executor: str = "serial",
    workers: int = 1,
    np_ratio: int = 20,
    sample_ratio: float = 1.0,
    rounds: int = 4,
    batch_size: int = 3,
    block_size: int = 1024,
    seed: int = 13,
) -> StoreComparison:
    """Race a store-backed session against the in-memory baseline.

    The workload mirrors :func:`compare_parallel_paths` — extraction,
    batched anchor arrivals with in-place refresh, one streamed
    selection over the support-pruned candidate space — but the second
    run spills to ``store_dir`` and executes on
    ``make_executor(executor, workers)``; with ``executor="process"``
    block scoring crosses process boundaries through the shared arena.
    """
    from repro.engine.parallel import make_executor

    split, known, arrivals, weights = _anchor_round_workload(
        pair, np_ratio, sample_ratio, rounds, batch_size, seed
    )

    def run(store, executor_spec):
        with AlignmentSession(
            pair, known_anchors=known, workers=executor_spec, store=store
        ) as session:
            candidates = list(split.candidates)
            started = time.perf_counter()
            X = session.extract(candidates)
            current = list(known)
            for arrival in arrivals:
                current += arrival
                session.set_anchors(current)
                session.refresh_features(X, candidates)
            generator = CandidateGenerator.from_support(
                session, block_size=block_size
            )
            if session.arena is not None and session.executor.crosses_processes:
                from repro.store.procwork import ArenaLinearScorer

                score_fn = ArenaLinearScorer(
                    spec=session.flush_store(), weights=weights
                )
            else:
                score_fn = linear_scorer(session, weights)
            selected = streamed_selection(
                generator,
                score_fn,
                threshold=0.5,
                workers=session.executor,
            )
            elapsed = time.perf_counter() - started
            entries = (
                len(session.arena.keys()) if session.arena is not None else 0
            )
            size = session.arena.nbytes() if session.arena is not None else 0
            return X, selected, elapsed, entries, size

    X_memory, sel_memory, memory_seconds, _, _ = run(None, None)
    with make_executor(executor, workers) as store_executor:
        X_store, sel_store, store_seconds, entries, size = run(
            store_dir, store_executor
        )
    return StoreComparison(
        executor=executor,
        workers=workers,
        memory_seconds=memory_seconds,
        store_seconds=store_seconds,
        n_rounds=len(arrivals),
        identical_features=bool(np.array_equal(X_memory, X_store)),
        identical_selection=sel_memory == sel_store,
        store_dir=str(store_dir),
        store_entries=entries,
        store_bytes=size,
    )


def format_store_comparison(comparison: StoreComparison) -> str:
    """Plain-text rendering of the store-vs-memory race."""
    lines = [
        (
            "Disk-backed matrix store vs in-memory baseline "
            f"(executor={comparison.executor}, workers={comparison.workers}, "
            f"{comparison.n_rounds} anchor rounds)"
        ),
        f"{'path':<14}{'seconds':>10}",
        f"{'in-memory':<14}{comparison.memory_seconds:>10.4f}",
        (
            f"{'store':<14}{comparison.store_seconds:>10.4f}  "
            f"({comparison.store_entries} entries, "
            f"{comparison.store_bytes / 1024:.0f} KiB on disk)"
        ),
        (
            f"features identical: {comparison.identical_features}; "
            f"selection identical: {comparison.identical_selection}"
        ),
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class StreamedFitComparison:
    """Streamed active fit vs materialized active fit on one split.

    ``identical_queries`` / ``identical_labels`` record the exactness
    guarantee of the streaming refactor: the block-wise strategies must
    buy the same labels and converge to the same assignment.
    """

    n_candidates: int
    n_blocks: int
    materialized_seconds: float
    streamed_seconds: float
    identical_queries: bool
    identical_labels: bool


def compare_streamed_fit(
    pair: AlignedPair,
    np_ratio: int = 5,
    budget: int = 10,
    batch_size: int = 2,
    block_size: int = 256,
    seed: int = 13,
    model: str = "ridge",
    feature_map=None,
    unlabeled_C: float = 0.1,
) -> StreamedFitComparison:
    """Race ActiveIter on a streamed task against the materialized task.

    Both fits share one split and identical strategies; the streamed
    run never allocates the |H| x d matrix.  ``model``/``feature_map``
    select the model backend (see :mod:`repro.ml.backends`) — both runs
    ride the same backend configuration, so the race also demonstrates
    streamed-vs-materialized agreement for SVM and kernelized fits.
    """
    from repro.ml.backends import make_backend

    config = ProtocolConfig(
        np_ratio=np_ratio, sample_ratio=1.0, n_repeats=1, seed=seed
    )
    split = next(iter(build_splits(pair, config)))
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }

    def run(streamed: bool):
        session = AlignmentSession(pair, known_anchors=split.train_positive_pairs)
        candidates = list(split.candidates)
        backend = None
        if model != "ridge" or feature_map is not None:
            backend = make_backend(
                model,
                seed=seed,
                feature_map=feature_map,
                unlabeled_C=unlabeled_C,
            )
        model_ = ActiveIter(
            LabelOracle(positives, budget=budget),
            batch_size=batch_size,
            backend=backend,
            positive_threshold=0.0 if model.startswith("svm") else 0.5,
        )
        if streamed:
            task = StreamedAlignmentTask(
                session,
                blockify(candidates, block_size),
                split.train_indices,
                split.truth[split.train_indices],
            )
        else:
            task = AlignmentTask(
                pairs=candidates,
                X=session.extract(candidates),
                labeled_indices=split.train_indices,
                labeled_values=split.truth[split.train_indices],
            )
        started = time.perf_counter()
        model_.fit(task)
        elapsed = time.perf_counter() - started
        return model_, task, elapsed

    materialized, _, materialized_seconds = run(streamed=False)
    streamed, streamed_task, streamed_seconds = run(streamed=True)
    return StreamedFitComparison(
        n_candidates=streamed_task.n_candidates,
        n_blocks=streamed_task.n_blocks,
        materialized_seconds=materialized_seconds,
        streamed_seconds=streamed_seconds,
        identical_queries=materialized.queried_ == streamed.queried_,
        identical_labels=bool(
            np.array_equal(materialized.labels_, streamed.labels_)
        ),
    )


def format_streamed_fit(comparison: StreamedFitComparison) -> str:
    """Plain-text rendering of the streamed-vs-materialized fit race."""
    return "\n".join(
        [
            (
                "Streamed active fit vs materialized task "
                f"(|H|={comparison.n_candidates}, "
                f"{comparison.n_blocks} blocks)"
            ),
            (
                f"  materialized {comparison.materialized_seconds:.4f}s  "
                f"streamed {comparison.streamed_seconds:.4f}s"
            ),
            (
                f"  queried links identical: {comparison.identical_queries}; "
                f"labels identical: {comparison.identical_labels}"
            ),
        ]
    )


def fit_linear_trend(points: Sequence[TimingPoint]) -> Tuple[float, float, float]:
    """Least-squares ``seconds ~ a * n_candidates + b`` with R².

    Returns ``(slope, intercept, r_squared)``; an R² near 1 supports the
    paper's near-linear scalability claim.
    """
    x = np.array([p.n_candidates for p in points], dtype=np.float64)
    y = np.array([p.seconds for p in points], dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    total = float(((y - y.mean()) ** 2).sum())
    residual = float(((y - predicted) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return float(slope), float(intercept), r_squared


def format_timing(points: Sequence[TimingPoint]) -> str:
    """Plain-text rendering of Figure 4."""
    lines = ["Scalability analysis (ActiveIter fit time)"]
    lines.append(f"{'NP-ratio':>8}  {'|H|':>8}  {'seconds':>9}")
    for point in points:
        lines.append(
            f"{point.np_ratio:>8}  {point.n_candidates:>8}  {point.seconds:>9.4f}"
        )
    slope, intercept, r_squared = fit_linear_trend(points)
    lines.append(
        f"linear fit: {slope:.3e} s/link + {intercept:.3e}s  (R^2={r_squared:.3f})"
    )
    return "\n".join(lines)
