"""Timing harnesses: the Figure 4 scalability study and the engine races.

:func:`scalability_study` measures end-to-end ActiveIter fit time while
the NP-ratio θ (and with it the candidate count |H| = (1 + θ)·|L+|)
grows.  The paper's claim is *near-linear* growth;
:func:`fit_linear_trend` quantifies it with a least-squares line and
its R².

An engine race checks a fast path against its reference path — delta
vs full recount, threaded vs serial, store vs in-memory, streamed vs
materialized.  Each path runs one of two shared workloads once and
returns a :class:`Run`:

* :func:`run_anchor_rounds` — extract a split's candidates, fold
  batched anchor arrivals (``set_anchors`` + ``refresh_features``),
  then one support-pruned ``streamed_selection``; the rounds come from
  :func:`anchor_rounds`;
* :func:`active_fit` — one ActiveIter fit on a split, with or without
  per-round feature refresh, on a materialized or a streamed task.

:meth:`Race.between` compares two runs output by output.  A race that
is not :attr:`~Race.identical` means the faster path no longer
reproduces the paper's model, whatever its speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.active.oracle import LabelOracle
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentTask
from repro.engine.candidates import (
    CandidateGenerator,
    linear_scorer,
    streamed_selection,
)
from repro.engine.parallel import WorkersSpec
from repro.engine.session import AlignmentSession
from repro.engine.streaming import StreamedAlignmentTask, blockify
from repro.eval.protocol import ExperimentSplit, ProtocolConfig, build_splits
from repro.meta.diagrams import standard_diagram_family
from repro.meta.features import FeatureExtractor
from repro.networks.aligned import AlignedPair
from repro.types import LinkPair

#: Candidates per block of :func:`active_fit`'s streamed task.
FIT_BLOCK = 256


@dataclass(frozen=True)
class TimingPoint:
    """Wall-clock measurement at one NP-ratio."""

    np_ratio: int
    n_candidates: int
    seconds: float


def first_split(
    pair: AlignedPair, np_ratio: int, seed: int, sample_ratio: float = 1.0
) -> ExperimentSplit:
    """The first fold of the evaluation protocol at ``np_ratio``."""
    config = ProtocolConfig(
        np_ratio=np_ratio, sample_ratio=sample_ratio, n_repeats=1, seed=seed
    )
    return next(iter(build_splits(pair, config)))


def _positives(split: ExperimentSplit) -> List[LinkPair]:
    """The split's true anchors among its candidates, in candidate order."""
    return [split.candidates[i] for i in np.flatnonzero(split.truth == 1)]


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
        split = first_split(pair, np_ratio, seed, sample_ratio)
        extractor = FeatureExtractor(
            pair, known_anchors=split.train_positive_pairs
        )
        task = AlignmentTask(
            pairs=list(split.candidates),
            X=extractor.extract(list(split.candidates)),
            labeled_indices=split.train_indices,
            labeled_values=split.train_labels,
        )
        model = ActiveIter(LabelOracle(set(_positives(split)), budget=budget))
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


class Run(NamedTuple):
    """One path of a race: its outputs by name, its wall-clock seconds,
    and an optional one-line note on its work."""

    outputs: Dict[str, object]
    seconds: float
    note: str = ""


def _same(a, b) -> bool:
    """Byte-identity of two outputs (arrays compare element-wise)."""
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    return bool(a == b)


@dataclass(frozen=True)
class Race:
    """A fast path raced against its reference over one workload.

    ``paths`` and ``seconds`` list the reference path first.
    ``outputs`` maps each compared output to whether the two paths
    produced it byte-identically.
    """

    title: str
    paths: Tuple[str, str]
    seconds: Tuple[float, float]
    outputs: Dict[str, bool]
    note: str = ""

    @classmethod
    def between(
        cls, title: str, paths: Tuple[str, str], reference: Run, candidate: Run
    ) -> "Race":
        """Compare every output of ``reference`` with ``candidate``'s."""
        notes = [
            f"{path}: {run.note}"
            for path, run in zip(paths, (reference, candidate))
            if run.note
        ]
        return cls(
            title=title,
            paths=paths,
            seconds=(reference.seconds, candidate.seconds),
            outputs={
                name: _same(value, candidate.outputs[name])
                for name, value in reference.outputs.items()
            },
            note="; ".join(notes),
        )

    @property
    def identical(self) -> bool:
        """Whether every compared output was byte-identical."""
        return all(self.outputs.values())

    @property
    def speedup(self) -> float:
        """Reference time over candidate time."""
        reference, candidate = self.seconds
        return reference / candidate if candidate > 0 else float("inf")

    def render(self) -> str:
        """Title, timings, note, then one ``<output> identical:`` line
        per output."""
        timings = ", ".join(
            f"{path} {seconds:.4f}s"
            for path, seconds in zip(self.paths, self.seconds)
        )
        lines = [self.title, f"  {timings}: speedup {self.speedup:.2f}x"]
        if self.note:
            lines.append(f"  {self.note}")
        lines.extend(
            f"  {name} identical: {same}" for name, same in self.outputs.items()
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class AnchorRounds:
    """The anchor-round workload, built once and run once per path.

    Half the split's positives (in a fixed order) start known; the
    rest arrive in ``arrivals``, one batch per round.  ``weights`` is a
    fixed random scoring vector for the closing sweep.
    """

    pair: AlignedPair
    candidates: Sequence[LinkPair]
    known: List[LinkPair]
    arrivals: List[List[LinkPair]]
    weights: np.ndarray


def anchor_rounds(
    pair: AlignedPair,
    np_ratio: int = 20,
    rounds: int = 6,
    batch_size: int = 3,
    seed: int = 13,
) -> AnchorRounds:
    """Build the anchor-round workload on the protocol's first split."""
    split = first_split(pair, np_ratio, seed)
    positives = sorted(_positives(split), key=repr)
    start_known = max(1, len(positives) // 2)
    queue = positives[start_known:]
    arrivals = [
        queue[r * batch_size: (r + 1) * batch_size] for r in range(rounds)
    ]
    n_features = len(standard_diagram_family().feature_names) + 1  # + bias
    return AnchorRounds(
        pair=pair,
        candidates=split.candidates,
        known=positives[:start_known],
        arrivals=[arrival for arrival in arrivals if arrival],
        weights=np.random.default_rng(seed).normal(scale=0.5, size=n_features),
    )


def run_anchor_rounds(
    workload: AnchorRounds, workers: WorkersSpec = None, store=None
) -> Run:
    """One pass of ``workload`` on a fresh session.

    ``workers`` and ``store`` configure the session, so one workload
    runs on every executor and storage path.  The closing sweep scores
    through :func:`~repro.engine.candidates.linear_scorer`, which ships
    an arena scorer to a process pool.  Outputs ``features`` (the
    refreshed matrix) and ``selection``; a store run notes its
    footprint.
    """
    with AlignmentSession(
        workload.pair,
        known_anchors=workload.known,
        workers=workers,
        store=store,
    ) as session:
        candidates = list(workload.candidates)
        started = time.perf_counter()
        X = session.extract(candidates)
        current = list(workload.known)
        for arrival in workload.arrivals:
            current += arrival
            session.set_anchors(current)
            session.refresh_features(X, candidates)
        selected = streamed_selection(
            CandidateGenerator.from_support(session, block_size=1024),
            linear_scorer(session, workload.weights),
            threshold=0.5,
            workers=session.executor,
        )
        elapsed = time.perf_counter() - started
        note = ""
        if session.arena is not None:
            note = (
                f"{len(session.arena.keys())} entries, "
                f"{session.arena.nbytes() / 1024:.0f} KiB on disk"
            )
    return Run({"features": X, "selection": selected}, elapsed, note)


def active_fit(
    pair: AlignedPair,
    split: ExperimentSplit,
    budget: int,
    batch_size: int,
    refresh: bool = False,
    incremental: bool = True,
    streamed: bool = False,
    model: str = "ridge",
    feature_map=None,
    unlabeled_C: float = 0.1,
    seed: int = 13,
) -> Run:
    """One ActiveIter fit on ``split``, timed around ``fit`` only.

    ``refresh`` re-extracts features after every round, through a
    session whose delta path is on iff ``incremental``.  ``streamed``
    fits a :class:`~repro.engine.streaming.StreamedAlignmentTask` of
    :data:`FIT_BLOCK`-candidate blocks instead of the materialized
    task.  ``model``/``feature_map``/``unlabeled_C`` pick the backend
    (:func:`~repro.ml.backends.make_backend`).  Outputs ``queried
    links`` and ``labels``.
    """
    from repro.ml.backends import make_backend

    session = AlignmentSession(
        pair, known_anchors=split.train_positive_pairs, incremental=incremental
    )
    candidates = list(split.candidates)
    if streamed:
        task = StreamedAlignmentTask(
            session,
            blockify(candidates, FIT_BLOCK),
            split.train_indices,
            split.train_labels,
        )
    else:
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.train_labels,
        )
    backend = None
    if model != "ridge" or feature_map is not None:
        backend = make_backend(
            model, seed=seed, feature_map=feature_map, unlabeled_C=unlabeled_C
        )
    fitted = ActiveIter(
        LabelOracle(set(_positives(split)), budget=budget),
        batch_size=batch_size,
        backend=backend,
        positive_threshold=0.0 if model.startswith("svm") else 0.5,
        session=session if refresh else None,
        refresh_features=refresh,
    )
    started = time.perf_counter()
    fitted.fit(task)
    elapsed = time.perf_counter() - started
    return Run(
        {"queried links": fitted.queried_, "labels": fitted.labels_},
        elapsed,
        (
            f"{fitted.result_.n_rounds} query rounds, "
            f"{session.stats.full_recounts} full recounts"
        ),
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
