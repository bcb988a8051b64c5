"""Experiment runner: the paper's method lineup over protocol splits.

Runs any subset of {ActiveIter-b, ActiveIter-Rand-b, Iter-MPMD,
SVM-MPMD, SVM-MP} on the splits produced by
:mod:`repro.eval.protocol`, computing the four paper metrics on the
test set (with queried links removed for active methods) and
aggregating mean ± std across fold rotations.

Feature economy: one :class:`~repro.engine.session.AlignmentSession`
is shared across *all* fold rotations — attribute-only structures are
counted exactly once per experiment, and each rotation only re-anchors
the session.  Within a split the full-family feature matrix is
extracted once; the meta-path-only matrix of SVM-MP is a *column
subset* of it, so adding SVM-MP costs no extra counting.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.active.oracle import LabelOracle
from repro.active.strategies import (
    ConflictFalseNegativeStrategy,
    MarginQueryStrategy,
    RandomQueryStrategy,
)
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentModel, AlignmentTask
from repro.core.itermpmd import IterMPMD
from repro.core.svm_baselines import SVMAligner
from repro.engine.session import AlignmentSession, SessionStats
from repro.engine.streaming import AUTO_BLOCK_SIZE, StreamedAlignmentTask
from repro.exceptions import ExperimentError
from repro.eval.protocol import ExperimentSplit, ProtocolConfig, build_splits
from repro.meta.diagrams import standard_diagram_family
from repro.ml.backends import BACKEND_NAMES, make_backend
from repro.ml.kernels import FEATURE_MAP_NAMES
from repro.ml.metrics import ClassificationReport, classification_report
from repro.networks.aligned import AlignedPair, NetworkDelta

logger = logging.getLogger(__name__)

#: Query strategies addressable from a MethodSpec.
_STRATEGIES = {
    "conflict": ConflictFalseNegativeStrategy,
    "random": RandomQueryStrategy,
    "margin": MarginQueryStrategy,
}


@dataclass(frozen=True)
class MethodSpec:
    """Declarative description of one comparison method.

    Attributes
    ----------
    name:
        Display name (also the result key).
    kind:
        ``"active"`` (ActiveIter family), ``"iterative"`` (Iter-MPMD) or
        ``"svm"``.
    features:
        ``"full"`` for paths + meta diagrams (MPMD), ``"paths"`` for
        meta paths only (MP).
    budget:
        Query budget b (active methods only).
    strategy:
        ``"conflict"``, ``"random"`` or ``"margin"`` (active only).
    batch_size:
        Labels per query round k (active only).
    svm_C:
        SVM regularization (svm methods and the ``"svm"`` model
        backend).
    streamed:
        Run the fit over streamed candidate blocks instead of a
        materialized feature matrix.  Valid for every kind — active and
        iterative fits stream through the model-backend seam, and the
        SVM baselines gather only their labeled training rows.  Results
        match the materialized path (byte-identically for SVMs and the
        single-block ridge; selected query sets always agree).
    stream_block_size:
        Candidate block size of the streamed fit path; ``"auto"`` tunes
        it from a measured probe extraction.
    model:
        Model backend of the internal fit step for ``active`` and
        ``iterative`` methods: ``"ridge"`` (the paper, default),
        ``"svm"`` (supervised SVM refits inside the query loop) or
        ``"svm-pu"`` (the biased positive-unlabeled SVM: every
        candidate row trains as a weighted soft negative at
        ``unlabeled_C``, through the working-set streamed solver).
        Meaningless for ``kind="svm"`` — that *is* the SVM baseline.
    unlabeled_C:
        Box constraint of unlabeled rows under ``model="svm-pu"``
        (ignored otherwise).
    feature_map:
        Optional kernel feature map name (``"nystroem"``, ``"fourier"``,
        ``"poly"``, ``"linear"``) composed into the fit; streamed
        methods fit the map from the block stream (Nyström landmarks
        from a streamed reservoir sample).
    """

    name: str
    kind: str
    features: str = "full"
    budget: int = 0
    strategy: str = "conflict"
    batch_size: int = 5
    svm_C: float = 1.0
    streamed: bool = False
    stream_block_size: object = 2048
    model: str = "ridge"
    unlabeled_C: float = 0.1
    feature_map: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("active", "iterative", "svm"):
            raise ExperimentError(f"unknown method kind {self.kind!r}")
        if self.features not in ("full", "paths"):
            raise ExperimentError(f"unknown feature set {self.features!r}")
        if self.kind == "active" and self.budget < 1:
            raise ExperimentError("active methods need budget >= 1")
        if self.strategy not in _STRATEGIES:
            raise ExperimentError(f"unknown strategy {self.strategy!r}")
        if self.model not in BACKEND_NAMES:
            raise ExperimentError(
                f"unknown model backend {self.model!r}; "
                f"choose from {BACKEND_NAMES}"
            )
        if self.kind == "svm" and self.model != "ridge":
            raise ExperimentError(
                "model= selects the alternating-loop backend of active/"
                "iterative methods; kind='svm' already is the SVM baseline"
            )
        if self.feature_map is not None and (
            self.feature_map not in FEATURE_MAP_NAMES
        ):
            raise ExperimentError(
                f"unknown feature map {self.feature_map!r}; "
                f"choose from {FEATURE_MAP_NAMES}"
            )
        if self.streamed and self.features != "full":
            raise ExperimentError(
                "streamed fits extract the full feature family; "
                "features='paths' needs the materialized column subset"
            )
        if self.stream_block_size != AUTO_BLOCK_SIZE and (
            not isinstance(self.stream_block_size, int)
            or self.stream_block_size < 1
        ):
            raise ExperimentError(
                f"stream_block_size must be >= 1 or {AUTO_BLOCK_SIZE!r}"
            )


def standard_methods(
    budgets: Sequence[int] = (100, 50), random_budget: int = 50
) -> List[MethodSpec]:
    """The paper's Table III/IV lineup."""
    methods = [
        MethodSpec(name=f"ActiveIter-{b}", kind="active", budget=b)
        for b in budgets
    ]
    methods.append(
        MethodSpec(
            name=f"ActiveIter-Rand-{random_budget}",
            kind="active",
            budget=random_budget,
            strategy="random",
        )
    )
    methods.extend(
        [
            MethodSpec(name="Iter-MPMD", kind="iterative"),
            MethodSpec(name="SVM-MPMD", kind="svm"),
            MethodSpec(name="SVM-MP", kind="svm", features="paths"),
        ]
    )
    return methods


@dataclass
class MethodResult:
    """Aggregated metrics of one method across fold rotations."""

    name: str
    reports: List[ClassificationReport] = field(default_factory=list)
    runtimes: List[float] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        """Mean of a metric across rotations."""
        return float(np.mean([r.as_dict()[metric] for r in self.reports]))

    def std(self, metric: str) -> float:
        """Standard deviation of a metric across rotations."""
        return float(np.std([r.as_dict()[metric] for r in self.reports]))

    @property
    def mean_runtime(self) -> float:
        """Mean wall-clock fit time (seconds)."""
        return float(np.mean(self.runtimes)) if self.runtimes else 0.0

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """metric -> (mean, std) map."""
        return {
            metric: (self.mean(metric), self.std(metric))
            for metric in ("f1", "precision", "recall", "accuracy")
        }


@dataclass
class RuntimeMetadata:
    """Engine/runtime facts of one experiment run.

    Recorded on the outcome (and serialized by
    :mod:`repro.eval.persistence`) so archived results say *how* they
    were produced, not just what they measured.

    Attributes
    ----------
    workers:
        Parallelism degree of the shared session's executor.
    executor:
        Executor backend (``"serial"``, ``"thread"`` or ``"process"``).
    store_dir:
        Directory of the disk-backed matrix store, or ``None`` for an
        in-memory run.
    peak_rss_bytes:
        Peak resident set size of the process at the end of the run
        (``0`` where the platform cannot report it).
    full_recounts:
        Structure count matrices the shared session evaluated from
        scratch over the whole run (initial evaluations included).
    fallback_invalidations:
        Updates that dropped a materialized structure because the
        sparse delta path could not serve them — the session's silent
        slow path, surfaced into outcome JSON (see
        :class:`~repro.engine.session.SessionStats`).
    removal_updates:
        Network events that shrank something (removed nodes/edges,
        detached cells, dropped known anchors) served through the
        removal delta path.
    compactions:
        Tombstone compactions the shared session performed during the
        run.
    metrics:
        The full ``repro.obs`` registry snapshot at the end of the run
        (session counters, the process executor's ``fallback.*``
        counters, phase-timing histograms), as returned by
        :meth:`~repro.engine.session.AlignmentSession.metrics_snapshot`.
        The flat counters above are a legacy subset kept for older
        readers; this carries everything (persistence format 6).
    """

    workers: int = 1
    executor: str = "serial"
    store_dir: Optional[str] = None
    peak_rss_bytes: int = 0
    full_recounts: int = 0
    fallback_invalidations: int = 0
    removal_updates: int = 0
    compactions: int = 0
    metrics: Optional[Dict] = None


@dataclass
class ExperimentOutcome:
    """All method results of one experiment configuration."""

    config: ProtocolConfig
    methods: Dict[str, MethodResult]
    runtime: Optional[RuntimeMetadata] = None

    def method(self, name: str) -> MethodResult:
        """Result of one method by name."""
        try:
            return self.methods[name]
        except KeyError:
            raise ExperimentError(f"no results for method {name!r}") from None


def _paths_feature_columns(family, include_bias: bool = True) -> List[int]:
    """Column indices of the meta-path features inside the full matrix."""
    names = family.feature_names
    columns = [i for i, name in enumerate(names) if name in
               {p.name for p in family.paths}]
    if include_bias:
        columns.append(len(names))  # trailing bias column
    return columns


def _build_model(spec: MethodSpec, split: ExperimentSplit, seed: int) -> AlignmentModel:
    """Instantiate the model described by ``spec`` for one split."""
    if spec.kind == "svm":
        return SVMAligner(
            C=spec.svm_C, seed=seed, feature_map=spec.feature_map
        )
    backend = None
    if spec.model != "ridge" or spec.feature_map is not None:
        backend = make_backend(
            spec.model,
            svm_C=spec.svm_C,
            seed=seed,
            feature_map=spec.feature_map,
            unlabeled_C=spec.unlabeled_C,
        )
    # SVM decision scores live on the signed-margin scale; the greedy
    # selector's positive threshold moves to the decision boundary.
    positive_threshold = 0.0 if spec.model.startswith("svm") else 0.5
    if spec.kind == "iterative":
        return IterMPMD(backend=backend, positive_threshold=positive_threshold)
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }
    oracle = LabelOracle(positives, budget=spec.budget)
    if spec.strategy == "random":
        strategy = RandomQueryStrategy(seed=seed)
    else:
        strategy = _STRATEGIES[spec.strategy]()
    return ActiveIter(
        oracle=oracle,
        strategy=strategy,
        batch_size=spec.batch_size,
        backend=backend,
        positive_threshold=positive_threshold,
    )


def run_split(
    pair: AlignedPair,
    split: ExperimentSplit,
    methods: Sequence[MethodSpec],
    seed: int = 0,
    session: Optional[AlignmentSession] = None,
) -> Dict[str, Tuple[ClassificationReport, float]]:
    """Run every method on one split; returns name -> (report, runtime).

    ``session`` lets callers (notably :func:`run_experiment`) share one
    alignment session across splits; it is re-anchored to the split's
    training positives, reusing every anchor-independent cached count.
    """
    if session is None:
        session = AlignmentSession(
            pair,
            family=standard_diagram_family(),
            known_anchors=split.train_positive_pairs,
        )
    else:
        session.set_anchors(split.train_positive_pairs)
    family = session.family
    # Streamed methods never need the materialized |H| x d matrix; only
    # extract it when some method in the lineup actually fits on it.
    X_full: Optional[np.ndarray] = None
    X_paths: Optional[np.ndarray] = None
    if any(not spec.streamed for spec in methods):
        X_full = session.extract(list(split.candidates))
        path_columns = _paths_feature_columns(family)
        X_paths = X_full[:, path_columns]

    results: Dict[str, Tuple[ClassificationReport, float]] = {}
    for spec in methods:
        if spec.streamed:
            # Every kind rides the block stream: active/iterative fits
            # go through the model-backend seam, SVM baselines gather
            # only their labeled rows — no |H| x d matrix either way.
            task = StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=spec.stream_block_size,
            )
        else:
            X = X_paths if spec.features == "paths" else X_full
            task = AlignmentTask(
                pairs=list(split.candidates),
                X=X.copy(),
                labeled_indices=split.train_indices,
                labeled_values=split.truth[split.train_indices],
            )
        model = _build_model(spec, split, seed)
        started = time.perf_counter()
        model.fit(task)
        runtime = time.perf_counter() - started
        logger.debug(
            "fold %d: %s fitted in %.3fs", split.fold, spec.name, runtime
        )

        queried_pairs = {pair_ for pair_, _ in model.queried_}
        test_indices = np.array(
            [
                i
                for i in split.test_indices
                if split.candidates[i] not in queried_pairs
            ],
            dtype=np.int64,
        )
        report = classification_report(
            split.truth[test_indices], model.labels_[test_indices]
        )
        results[spec.name] = (report, runtime)
    return results


@dataclass
class EvolvePhase:
    """Method metrics at one point of an evolving-network run."""

    name: str
    n_left_users: int
    n_right_users: int
    reports: Dict[str, ClassificationReport]


@dataclass
class EvolveOutcome:
    """Result of the evolving-network scenario.

    One session lives through a scripted schedule of network deltas; its
    sparse delta path races a full-recount baseline over the identical
    drift.  ``identical_features`` records the generalized delta
    algebra's exactness guarantee — both paths must land on
    byte-identical feature matrices over the grown network.
    """

    n_events: int
    n_candidates: int
    delta_seconds: float
    recount_seconds: float
    identical_features: bool
    phases: List[EvolvePhase]
    delta_stats: SessionStats
    recount_stats: SessionStats

    @property
    def speedup(self) -> float:
        """Full-recount refresh time over delta-path refresh time."""
        if self.delta_seconds <= 0:
            return float("inf")
        return self.recount_seconds / self.delta_seconds


def run_evolve_scenario(
    make_pair: Callable[[], AlignedPair],
    config: ProtocolConfig,
    schedule: Sequence[NetworkDelta],
    methods: Optional[Sequence[MethodSpec]] = None,
    seed: int = 0,
    evaluate_every_event: bool = False,
    session_options: Optional[Dict] = None,
) -> EvolveOutcome:
    """Serve an evolving network: drift, refresh, re-fit, compare.

    ``make_pair`` must build the base pair deterministically — it is
    called twice so the delta path and the full-recount baseline each
    grow their own copy through the identical ``schedule``.  The method
    lineup (default: Iter-MPMD only) is evaluated on the first protocol
    split before and after the drift, re-using the evolving session's
    counts both times; the timing race measures only the
    feature-maintenance work the two paths do per event.

    With ``evaluate_every_event=True`` the lineup is additionally
    re-evaluated after *each* scheduled delta — the drifting method
    sweep (see :func:`repro.eval.sweeps.run_evolve_sweep`), one phase
    per event.  Method evaluation time is excluded from the timing race
    either way.

    ``session_options`` (e.g. ``{"compact_every": 8}`` or
    ``{"strict_deltas": True}``) are forwarded to **both** sessions, so
    the delta path and the recount baseline race under identical
    session policy.
    """
    if methods is None:
        methods = [MethodSpec(name="Iter-MPMD", kind="iterative")]
    pair = make_pair()
    split = next(iter(build_splits(pair, config)))
    candidates = list(split.candidates)

    def serve(incremental: bool):
        own_pair = pair if incremental else make_pair()
        session = AlignmentSession(
            own_pair,
            family=standard_diagram_family(),
            known_anchors=split.train_positive_pairs,
            incremental=incremental,
            **(session_options or {}),
        )
        X = session.extract(candidates)
        phases: List[EvolvePhase] = []
        if incremental:
            phases.append(
                _evolve_phase("initial", own_pair, split, methods, session, seed)
            )
        elapsed = 0.0
        for event_index, delta in enumerate(schedule, start=1):
            started = time.perf_counter()
            session.apply_network_delta(delta)
            if incremental:
                session.refresh_features(X, candidates)
            else:
                X = session.extract(candidates)
            elapsed += time.perf_counter() - started
            if incremental and evaluate_every_event:
                phases.append(
                    _evolve_phase(
                        f"event {event_index}",
                        own_pair,
                        split,
                        methods,
                        session,
                        seed,
                    )
                )
        if incremental:
            phases.append(
                _evolve_phase("evolved", own_pair, split, methods, session, seed)
            )
        return session, X, elapsed, phases

    delta_session, X_delta, delta_seconds, phases = serve(incremental=True)
    recount_session, X_recount, recount_seconds, _ = serve(incremental=False)
    return EvolveOutcome(
        n_events=len(schedule),
        n_candidates=len(candidates),
        delta_seconds=delta_seconds,
        recount_seconds=recount_seconds,
        identical_features=bool(np.array_equal(X_delta, X_recount)),
        phases=phases,
        delta_stats=delta_session.stats,
        recount_stats=recount_session.stats,
    )


def _evolve_phase(
    name: str,
    pair: AlignedPair,
    split: ExperimentSplit,
    methods: Sequence[MethodSpec],
    session: AlignmentSession,
    seed: int,
) -> EvolvePhase:
    """Run the method lineup once against the session's current state."""
    results = run_split(pair, split, methods, seed=seed, session=session)
    return EvolvePhase(
        name=name,
        n_left_users=len(pair.left_users()),
        n_right_users=len(pair.right_users()),
        reports={name_: report for name_, (report, _) in results.items()},
    )


def format_evolve_outcome(outcome: EvolveOutcome) -> str:
    """Plain-text rendering of the evolving-network scenario."""
    lines = [
        (
            f"Evolving-network scenario ({outcome.n_events} delta events, "
            f"|H|={outcome.n_candidates})"
        ),
        f"{'path':<14}{'seconds':>10}  session stats",
        (
            f"{'delta':<14}{outcome.delta_seconds:>10.4f}  "
            f"{outcome.delta_stats.summary()}"
        ),
        (
            f"{'full recount':<14}{outcome.recount_seconds:>10.4f}  "
            f"{outcome.recount_stats.summary()}"
        ),
        (
            f"speedup: {outcome.speedup:.2f}x; features identical: "
            f"{outcome.identical_features}"
        ),
    ]
    for phase in outcome.phases:
        lines.append(
            f"phase {phase.name!r} "
            f"(|U1|={phase.n_left_users}, |U2|={phase.n_right_users}):"
        )
        for method, report in phase.reports.items():
            lines.append(
                f"  {method:<18} f1={report.f1:.3f} "
                f"precision={report.precision:.3f} "
                f"recall={report.recall:.3f} "
                f"accuracy={report.accuracy:.3f}"
            )
    return "\n".join(lines)


def run_experiment(
    pair: AlignedPair,
    config: ProtocolConfig,
    methods: Optional[Sequence[MethodSpec]] = None,
    workers=None,
    store=None,
) -> ExperimentOutcome:
    """Run the full protocol: all fold rotations, all methods.

    ``workers`` is the engine execution-layer knob (see
    :class:`~repro.engine.session.AlignmentSession`): the shared
    session's per-structure counting, delta updates and extraction fan
    out across a thread pool, with bit-identical results.  ``store``
    (a directory path or shared arena) spills the session's count
    matrices to disk and serves them memory-mapped.  Both knobs are
    recorded in :attr:`ExperimentOutcome.runtime`, and the session —
    including any pool it built — is always released on exit.
    """
    from repro.store.memory import peak_rss_bytes

    if methods is None:
        methods = standard_methods()
    outcome = ExperimentOutcome(
        config=config,
        methods={spec.name: MethodResult(name=spec.name) for spec in methods},
    )
    with AlignmentSession(
        pair, family=standard_diagram_family(), workers=workers, store=store
    ) as session:
        for split in build_splits(pair, config):
            per_method = run_split(
                pair,
                split,
                methods,
                seed=config.seed + split.fold,
                session=session,
            )
            for name, (report, runtime) in per_method.items():
                outcome.methods[name].reports.append(report)
                outcome.methods[name].runtimes.append(runtime)
        outcome.runtime = RuntimeMetadata(
            workers=session.workers,
            executor=session.executor.kind,
            store_dir=(
                str(session.store_dir)
                if session.store_dir is not None
                else None
            ),
            peak_rss_bytes=peak_rss_bytes(),
            full_recounts=session.stats.full_recounts,
            fallback_invalidations=session.stats.fallback_invalidations,
            removal_updates=session.stats.removal_updates,
            compactions=session.stats.compactions,
            metrics=session.metrics_snapshot(),
        )
    logger.info(
        "experiment complete: %d method(s) x %d fold repeat(s), "
        "executor=%s peak_rss=%d",
        len(outcome.methods),
        config.n_repeats,
        outcome.runtime.executor,
        outcome.runtime.peak_rss_bytes,
    )
    return outcome
