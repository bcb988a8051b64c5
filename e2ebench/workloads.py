"""The benchmark's three ActiveIter workloads and their output checks.

Every workload runs the paper's protocol through public APIs only:
``build_splits`` makes the folds, an :class:`AlignmentSession` and a task
are built per alignment (the set-up), and ``ActiveIter.fit`` spends the
budget b=50 in batches of k=5 on the serial executor.  The labeler's
wait is measured at the oracle boundary by :class:`TimedOracle`.

Each workload loads a different layer (see ``e2ebench/README.md``):

* ``paper-dense`` — the paper's own setting; query selection dominates;
* ``svm-loop`` — a supervised SVM refit inside the loop; the fit layer
  dominates;
* ``drift-streamed`` — streamed blocks, feature refresh and network churn
  in the loop, then a sweep of the support-pruned full candidate space;
  extraction and candidate generation dominate.
"""

from __future__ import annotations

import copy
import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.active.oracle import LabelOracle
from repro.core import ActiveIter, AlignmentTask
from repro.datasets import foursquare_twitter_like
from repro.engine import AlignmentSession, CandidateGenerator, StreamedAlignmentTask
from repro.engine import candidates as candidates_module
from repro.engine.evolution import (
    evolution_rounds,
    replay_schedule,
    scripted_churn_schedule,
)
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.matching.constraints import satisfies_one_to_one
from repro.ml.backends import make_backend
from repro.ml.metrics import classification_report

BUDGET = 50
BATCH_SIZE = 5
SAMPLE_RATIO = 0.6
N_FOLDS = 10
DATASET_SEED = 7
PROTOCOL_SEED = 13


#: Percentiles a labeler-wait tail may be reported at.
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank ``percentile`` of ``values``.

    Raises when fewer than ten samples lie beyond it: a tail is only
    reported with at least ten samples above its rank.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{percentile:g} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it; need 10"
        )
    return ordered[rank - 1]


def highest_tail_percentile(n_samples: int) -> Optional[float]:
    """The highest :data:`TAIL_GRID` percentile with ten samples beyond."""
    best = None
    for percentile in TAIL_GRID:
        rank = max(1, math.ceil(percentile / 100.0 * n_samples))
        if n_samples - rank >= 10:
            best = percentile
    return best


@dataclass(frozen=True)
class Workload:
    """One closed-loop alignment setting."""

    name: str
    scale: str
    np_ratio: int
    model: str
    streamed: bool


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload("paper-dense", "large", 20, "ridge", False),
        Workload("svm-loop", "medium", 20, "svm", False),
        Workload("drift-streamed", "large", 5, "ridge", True),
    )
}

#: Folds a measuring run rotates through: the first four of the ten.
ROTATION = 4
#: Labeler waits of one alignment: one per query batch.
WAITS_PER_ALIGNMENT = BUDGET // BATCH_SIZE
#: The wait percentile reported as ``round_tail_ms``.  A measuring run
#: makes at least one whole rotation, so ten waits always lie beyond it.
TAIL_PERCENTILE = highest_tail_percentile(ROTATION * WAITS_PER_ALIGNMENT)

#: The benchmark's clock.  A measuring process runs one thread (serial
#: executor, one BLAS thread), so its CPU time is its wall time minus
#: what a shared host steals from the vCPU — steal that, on a busy host,
#: otherwise doubles an alignment's wall time from one minute to the next.
clock = time.process_time

#: Block size of the streamed task, and of the full-space sweep.
STREAM_BLOCK_SIZE = 2048
SWEEP_BLOCK_SIZE = 4096
#: Churn events of ``drift-streamed``, applied one per query round.
CHURN_EVENTS = 8


class TimedOracle(LabelOracle):
    """A label oracle that records how long the labeler waited.

    One wait runs from the end of the previous answered batch (or from
    :meth:`start`, for the first batch) to the next ``query_batch``
    call — the time a human annotator sits idle between batches.
    """

    def __init__(self, positives, budget: int) -> None:
        super().__init__(positives, budget)
        self.waits: List[float] = []
        self._idle_since: Optional[float] = None

    def start(self) -> None:
        """Mark the start of the fit; the first wait counts from here."""
        self._idle_since = clock()

    def query_batch(self, pairs):
        asked = clock()
        if self._idle_since is not None:
            self.waits.append(asked - self._idle_since)
        try:
            return super().query_batch(pairs)
        finally:
            self._idle_since = clock()


@dataclass
class Inputs:
    """Everything a workload's alignments read, generated from seeds."""

    spec: Workload
    pair: object
    splits: List[object]
    positives: frozenset
    schedule: List[object] = field(default_factory=list)

    @property
    def n_candidates(self) -> int:
        return len(self.splits[0].candidates)


def build_inputs(
    spec: Workload,
    dataset_seed: int = DATASET_SEED,
    protocol_seed: int = PROTOCOL_SEED,
) -> Inputs:
    """Generate the pair, the protocol folds and (for drift) the churn."""
    pair = foursquare_twitter_like(spec.scale, seed=dataset_seed)
    config = ProtocolConfig(
        np_ratio=spec.np_ratio,
        sample_ratio=SAMPLE_RATIO,
        n_folds=N_FOLDS,
        n_repeats=N_FOLDS,
        seed=protocol_seed,
    )
    splits = list(build_splits(pair, config))
    first = splits[0]
    positives = frozenset(
        first.candidates[i]
        for i in range(len(first.candidates))
        if first.truth[i] == 1
    )
    schedule = (
        scripted_churn_schedule(pair, events=CHURN_EVENTS, seed=protocol_seed)
        if spec.streamed
        else []
    )
    return Inputs(
        spec=spec,
        pair=pair,
        splits=splits,
        positives=positives,
        schedule=schedule,
    )


@dataclass
class Outcome:
    """One alignment: its timings, its outputs, and the live state the
    output checks read."""

    fold: int
    setup_s: float
    align_s: float
    waits: List[float]
    labels: np.ndarray
    queried: Tuple
    swept: List[Tuple]
    n_rounds: int
    session: AlignmentSession
    candidates: List[Tuple]
    space: int = 0

    def digest(self) -> str:
        """Stable SHA-256 of the labels over H, the queried links and (on
        ``drift-streamed``) the anchors the full-space sweep chose."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.labels, dtype=np.int64).tobytes())
        for item in sorted(repr(entry) for entry in self.queried):
            digest.update(b"q" + item.encode())
        for item in sorted(repr(entry) for entry in self.swept):
            digest.update(b"s" + item.encode())
        return digest.hexdigest()


def run_alignment(
    inputs: Inputs,
    fold: int,
    root: Callable[[], ContextManager] = nullcontext,
) -> Outcome:
    """Set up and run one alignment of ``inputs`` on protocol fold ``fold``.

    ``root`` wraps the timed part (set-up plus alignment); the traced
    run passes a span factory there.
    """
    spec = inputs.spec
    split = inputs.splits[fold]
    # Churn mutates the pair in place, so each drifting alignment starts
    # from its own copy of the generated input (made outside the clock).
    pair = copy.deepcopy(inputs.pair) if spec.streamed else inputs.pair
    candidates = list(split.candidates)
    train_values = split.truth[split.train_indices]
    oracle = TimedOracle(inputs.positives, budget=BUDGET)
    with root():
        started = clock()
        session = AlignmentSession(pair, known_anchors=split.train_positive_pairs)
        if spec.streamed:
            session.structure_counts()
            task = StreamedAlignmentTask.from_pairs(
                session,
                candidates,
                split.train_indices,
                train_values,
                block_size=STREAM_BLOCK_SIZE,
            )
            model = ActiveIter(
                oracle,
                batch_size=BATCH_SIZE,
                session=session,
                refresh_features=True,
                evolution=evolution_rounds(inputs.schedule),
            )
        else:
            task = AlignmentTask(
                pairs=candidates,
                X=session.extract(candidates),
                labeled_indices=split.train_indices,
                labeled_values=train_values,
            )
            backend = make_backend(spec.model) if spec.model != "ridge" else None
            model = ActiveIter(
                oracle,
                batch_size=BATCH_SIZE,
                backend=backend,
                positive_threshold=0.0 if spec.model == "svm" else 0.5,
            )
        set_up = clock()
        oracle.start()
        model.fit(task)
        swept: List[Tuple] = []
        space = 0
        if spec.streamed:
            swept, space = _sweep(session, model)
        finished = clock()
    return Outcome(
        fold=fold,
        setup_s=set_up - started,
        align_s=finished - set_up,
        waits=list(oracle.waits),
        labels=np.asarray(model.labels_, dtype=np.int64),
        queried=tuple(model.queried_),
        swept=swept,
        n_rounds=model.result_.n_rounds,
        session=session,
        candidates=candidates,
        space=space,
    )


@dataclass
class Best:
    """The fastest repeat of each timed part of one fold's alignments."""

    setup_s: float
    align_s: float
    waits: List[float]
    repeats: int


def best_of_repeats(outcomes: Sequence[Outcome]) -> Dict[int, Best]:
    """Per fold, the minimum of each timing over that fold's repeats.

    A fold repeats the same work (its digest is the same every time), so
    its fastest repeat is the program's cost with the least of the shared
    host's slowdown in it; the n-th wait is taken over the n-th rounds.
    """
    by_fold: Dict[int, List[Outcome]] = {}
    for outcome in outcomes:
        by_fold.setdefault(outcome.fold, []).append(outcome)
    return {
        fold: Best(
            setup_s=min(o.setup_s for o in group),
            align_s=min(o.align_s for o in group),
            waits=[min(round_waits) for round_waits in zip(*(o.waits for o in group))],
            repeats=len(group),
        )
        for fold, group in by_fold.items()
    }


def _sweep(session: AlignmentSession, model: ActiveIter) -> Tuple[List, int]:
    """Greedy anchor selection over the support-pruned full space.

    Returns the selected links and |U1|x|U2| of the (drifted) pair.
    """
    generator = CandidateGenerator.from_support(
        session, block_size=SWEEP_BLOCK_SIZE
    )
    known = session.known_anchors
    selected = candidates_module.streamed_selection(
        generator,
        candidates_module.linear_scorer(session, model.weights_),
        threshold=model.positive_threshold,
        blocked_left={left for left, _ in known},
        blocked_right={right for _, right in known},
    )
    space = len(session.pair.left_users()) * len(session.pair.right_users())
    return [pair for pair, _ in selected], space


def f1_score(inputs: Inputs, outcome: Outcome) -> float:
    """Test-fold F1 with queried links removed (§IV-B.3)."""
    split = inputs.splits[outcome.fold]
    queried = {pair for pair, _ in outcome.queried}
    test = np.array(
        [i for i in split.test_indices if split.candidates[i] not in queried],
        dtype=np.int64,
    )
    return classification_report(
        split.truth[test], outcome.labels[test]
    ).f1


def check_outcome(
    inputs: Inputs, outcome: Outcome, reference: Optional[Dict[str, str]]
) -> List[str]:
    """Problems with one alignment's outputs (empty when correct).

    ``reference`` maps fold numbers (as strings) to recorded digests;
    without one, only the structural checks run.
    """
    problems: List[str] = []
    split = inputs.splits[outcome.fold]
    labels = outcome.labels
    if labels.shape != (inputs.n_candidates,):
        problems.append(f"labels cover {labels.shape}, not |H|")
    elif not np.isin(labels, (0, 1)).all():
        problems.append("labels are not 0/1")
    elif not satisfies_one_to_one(outcome.candidates, labels):
        problems.append("positive labels are not one-to-one")
    if len(outcome.queried) != BUDGET:
        problems.append(f"{len(outcome.queried)} links queried, budget {BUDGET}")
    truth = dict(zip(split.candidates, split.truth.tolist()))
    if any(truth[pair] != label for pair, label in outcome.queried):
        problems.append("an oracle answer disagrees with the ground truth")
    if outcome.swept:
        known = outcome.session.known_anchors
        chosen = list(known) + list(outcome.swept)
        if not satisfies_one_to_one(chosen, np.ones(len(chosen), dtype=np.int64)):
            problems.append("swept anchors collide with each other or known ones")
    if reference is not None:
        expected = reference.get(str(outcome.fold))
        if expected is None:
            problems.append(f"no reference digest for fold {outcome.fold}")
        elif expected != outcome.digest():
            problems.append(
                f"fold {outcome.fold} digest {outcome.digest()[:12]} "
                f"!= reference {expected[:12]}"
            )
    return problems


def replay_check(inputs: Inputs, outcome: Outcome) -> List[str]:
    """Final features of a drifted session must be byte-identical to a
    fresh session's on the pair the applied churn replays onto."""
    session = outcome.session
    applied = len(session.evolution_log)
    if applied != len(inputs.schedule):
        return [f"{applied} of {len(inputs.schedule)} churn events applied"]
    evolved = session.extract(outcome.candidates)
    fresh_pair = replay_schedule(copy.deepcopy(inputs.pair), inputs.schedule)
    fresh = AlignmentSession(
        fresh_pair, known_anchors=session.known_anchors
    ).extract(outcome.candidates)
    if evolved.shape != fresh.shape or evolved.tobytes() != fresh.tobytes():
        return ["drifted features differ from a fresh session on the replay"]
    return []
