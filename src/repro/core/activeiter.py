"""ActiveIter: the paper's full active network alignment model (§III).

ActiveIter wraps the Iter-MPMD alternating engine in an outer
query loop:

1. **external step (1)** — run (1-1)/(1-2) to convergence with the
   current known labels (training + queried so far);
2. **external step (2)** — select up to ``k`` likely false-negative
   candidates with the configured query strategy, buy their labels from
   the oracle, clamp them, and repeat — ``b/k`` rounds in total.

The queried links become part of the clamped label set; queried
positives also block their endpoints for the greedy selector, which is
how one bought positive label silently corrects its conflicting
negatives (the "extra label gains" of §III-C.3).

Optionally the model refreshes the anchor matrix used for feature
extraction whenever queried positives arrive (``refresh_features``);
the paper precomputes features once, so this defaults to off.

The loop also serves **evolving networks**: an ``evolution`` schedule
of ``(round, NetworkDelta)`` events applies network growth between
query rounds through the attached session's generalized delta seam —
bought labels are preserved, dirty feature columns are refreshed in
place (or re-extracted on the next streamed block pass), and the next
round's scores reflect the drifted network exactly.

Long fits can be made durable with a
:class:`~repro.store.checkpoint.SessionCheckpoint`: the loop snapshots
its complete state (clamped labels, bought queries, the label vector,
oracle answers, strategy RNG state, and — when a session is attached —
the session's anchor-derived count state plus its evolution log) after
every query round, and a model constructed over the same task finds the
checkpoint and resumes byte-identically to an uninterrupted run —
replaying any evolution events onto the freshly built pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.active.oracle import LabelOracle
from repro.active.strategies import ConflictFalseNegativeStrategy, QueryStrategy
from repro.core.base import AlignmentResult, AlignmentTask
from repro.core.itermpmd import AlternatingState, IterMPMD
from repro.engine.streaming import StreamedAlignmentTask
from repro.exceptions import ModelError
from repro.meta.features import FeatureExtractor
from repro.ml.backends import as_block_source
from repro.networks.aligned import NetworkDelta
from repro.obs.tracing import get_tracer
from repro.store.checkpoint import SessionCheckpoint
from repro.types import LinkPair

#: One scheduled evolution event: apply the delta after query round N.
EvolutionEvent = Tuple[int, NetworkDelta]


class ActiveIter(IterMPMD):
    """Active iterative alignment with budgeted label queries.

    Parameters
    ----------
    oracle:
        Budgeted label oracle; its budget is the paper's ``b``.
    strategy:
        Query-set selection strategy; defaults to the paper's
        conflict-based false-negative strategy (τ = 0.05).
    batch_size:
        Labels bought per round (the paper's ``k``, default 5).
    c, max_iterations, tol, positive_threshold:
        Passed through to the alternating engine (see
        :class:`~repro.core.itermpmd.IterMPMD`).
    feature_extractor:
        When given together with ``refresh_features=True``, the model
        refreshes the extractor's anchor matrix with queried positives
        and re-extracts features between rounds (extension; off by
        default to match the paper's fixed-X analysis).
    session:
        An :class:`~repro.engine.session.AlignmentSession` to refresh
        through instead; the session applies sparse *delta* updates to
        anchor-dependent counts and rewrites only the affected feature
        columns of the task matrix in place — the fast path for long
        active runs.  Mutually exclusive with ``feature_extractor``
        (an extractor's own session is used when only the extractor is
        given).
    checkpoint:
        A :class:`~repro.store.checkpoint.SessionCheckpoint` making the
        query loop durable: state is saved after every round, and a fit
        that finds an existing checkpoint resumes from it instead of
        starting over — byte-identically to an uninterrupted run.  The
        caller must rebuild the model and task deterministically (same
        split, oracle budget, strategy and seed); with
        ``refresh_features=True`` the checkpoint also carries the
        session's count state and the feature matrix is re-derived on
        resume.
    evolution:
        Scheduled network drift: a sequence of ``(round, delta)``
        events, each applied through the session's
        ``apply_network_delta`` after query round ``round`` completes
        (before the round's checkpoint save, so resume replays the
        drift).  Requires a session and ``refresh_features=True`` —
        drifting the network under a frozen feature matrix would
        silently score against stale counts.  Bought labels are
        preserved; the session's sparse delta fold keeps each event far
        cheaper than a recount.
    backend:
        Model backend of the per-round fit (see
        :class:`~repro.core.itermpmd.IterMPMD` and
        :mod:`repro.ml.backends`); ``None`` resolves to the paper's
        ridge (:class:`~repro.ml.backends.RidgeBackend`).  Backend
        state — dual coefficients, a fitted map's landmark sample and
        statistics — rides every checkpoint save, so a resumed run is
        byte-identical for every model.
    """

    def __init__(
        self,
        oracle: LabelOracle,
        strategy: Optional[QueryStrategy] = None,
        batch_size: int = 5,
        c: float = 1.0,
        max_iterations: int = 30,
        tol: float = 0.5,
        positive_threshold: float = 0.5,
        feature_extractor: Optional[FeatureExtractor] = None,
        refresh_features: bool = False,
        session=None,
        checkpoint: Optional[SessionCheckpoint] = None,
        evolution: Optional[Sequence[EvolutionEvent]] = None,
        backend=None,
    ) -> None:
        super().__init__(
            c=c,
            max_iterations=max_iterations,
            tol=tol,
            positive_threshold=positive_threshold,
            backend=backend,
        )
        if batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        if session is not None and feature_extractor is not None:
            raise ModelError(
                "pass either a session or a feature_extractor, not both"
            )
        if feature_extractor is not None and session is None:
            session = feature_extractor.session
        if refresh_features and session is None:
            raise ModelError(
                "refresh_features=True requires a session or feature_extractor"
            )
        self.oracle = oracle
        self.strategy: QueryStrategy = (
            strategy if strategy is not None else ConflictFalseNegativeStrategy()
        )
        self.batch_size = int(batch_size)
        self.feature_extractor = feature_extractor
        self.session = session
        self.refresh_features = bool(refresh_features)
        self.checkpoint = checkpoint
        self.evolution: List[EvolutionEvent] = sorted(
            ((int(round_), delta) for round_, delta in (evolution or ())),
            key=lambda event: event[0],
        )
        if self.evolution:
            if session is None or not self.refresh_features:
                raise ModelError(
                    "an evolution schedule requires a session and "
                    "refresh_features=True"
                )
            if self.evolution[0][0] < 1:
                raise ModelError("evolution rounds must be >= 1")
        # Session-update counters at the last checkpointed snapshot;
        # lets saves skip re-pickling an unchanged session.
        self._checkpoint_anchor_marker: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _resume_payload(self, session) -> Optional[Dict]:
        """Load loop state from an existing checkpoint, if any.

        Restores the session's count/anchor state (when the checkpoint
        carries one), the oracle's answer memory and the strategy's RNG
        state; returns the loop payload for the fit loop to continue
        from, or ``None`` for a fresh start.
        """
        if self.checkpoint is None or not self.checkpoint.exists():
            return None
        payload = self.checkpoint.restore(session)
        self.oracle.restore(payload["oracle"])
        # Backend state (absent on pre-backend checkpoints) is injected
        # when the backend instance is first resolved, before round one;
        # a state of another backend kind is rejected there.
        self._pending_backend_state = payload.get("backend")
        strategy_state = payload.get("strategy_state")
        if strategy_state is not None:
            if not hasattr(self.strategy, "restore_state"):
                raise ModelError(
                    "checkpoint carries strategy state but "
                    f"{type(self.strategy).__name__} has no restore_state(); "
                    "resume with the same strategy the run was started with"
                )
            self.strategy.restore_state(strategy_state)
        if session is not None:
            self._checkpoint_anchor_marker = self._session_marker(session)
        return payload

    @staticmethod
    def _session_marker(session) -> Tuple[int, int, int]:
        """Counters that change iff the session's count state changed."""
        return (
            session.stats.anchor_updates,
            session.stats.network_updates,
            getattr(session.stats, "compactions", 0),
        )

    def _save_checkpoint(
        self,
        session,
        clamped_indices: np.ndarray,
        clamped_values: np.ndarray,
        queried: List[Tuple[LinkPair, int]],
        trace: List[float],
        y: np.ndarray,
        n_rounds: int,
        evolution_position: int = 0,
    ) -> None:
        """Persist the loop state after one completed query round.

        The session's (potentially huge) count state is re-snapshotted
        only on rounds that actually changed the anchor set — rounds
        that bought no positive label reuse the previous snapshot, so
        the per-round cost is the small loop payload.
        """
        if self.checkpoint is None:
            return
        session_dirty = True
        if session is not None:
            marker = self._session_marker(session)
            session_dirty = marker != self._checkpoint_anchor_marker
            self._checkpoint_anchor_marker = marker
        self.checkpoint.save(
            session=session,
            session_dirty=session_dirty,
            payload={
                "clamped_indices": clamped_indices.copy(),
                "clamped_values": clamped_values.copy(),
                "queried": list(queried),
                "trace": list(trace),
                "y": y.copy(),
                "n_rounds": n_rounds,
                "evolution_position": int(evolution_position),
                "oracle": self.oracle.snapshot(),
                "strategy_state": (
                    self.strategy.snapshot_state()
                    if hasattr(self.strategy, "snapshot_state")
                    else None
                ),
                "backend": (
                    self._backend_instance.state_dict()
                    if self._backend_instance is not None
                    else None
                ),
            },
        )

    # ------------------------------------------------------------------
    # Network drift
    # ------------------------------------------------------------------
    def _evolution_start(self, resume: Optional[Dict] = None) -> int:
        """Schedule position to start from (skips resumed-over events).

        A checkpoint payload carries the position explicitly (required
        once session compaction may truncate the evolution log).  For
        older checkpoints without it, a checkpoint restore replays the
        interrupted run's applied schedule prefix into the session's
        evolution log, so the longest schedule prefix matching a
        *suffix* of the log is exactly what was already applied — the
        fit continues from there.  Deltas the caller applied outside
        the schedule (a pre-drifted session) match nothing and skip
        nothing.
        """
        if not self.evolution:
            return 0
        if resume is not None and "evolution_position" in resume:
            return int(resume["evolution_position"])
        log = self.session.evolution_log
        deltas = [delta for _, delta in self.evolution]
        for applied in range(min(len(deltas), len(log)), 0, -1):
            if log[-applied:] == deltas[:applied]:
                return applied
        return 0

    def _rewrite_features(self, task) -> None:
        """Bring a materialized task's ``X`` up to date with the session.

        An incremental session rewrites only the dirty feature columns
        in place; any other session re-extracts the whole matrix.
        Streamed tasks need nothing — the next block pass extracts
        against the current session state.
        """
        if isinstance(task, StreamedAlignmentTask):
            return
        if self.session.incremental:
            self.session.refresh_features(task.X, task.pairs)
        else:
            task.X = self.session.extract(task.pairs)

    def _apply_due_evolution(
        self, task, n_rounds: int, position: int
    ) -> int:
        """Apply every scheduled delta due by ``n_rounds``; new position.

        The task's features follow the evolved session through
        :meth:`_rewrite_features`.
        """
        applied = False
        epoch_before = getattr(self.session, "compaction_epoch", 0)
        while (
            position < len(self.evolution)
            and self.evolution[position][0] <= n_rounds
        ):
            self.session.apply_network_delta(self.evolution[position][1])
            position += 1
            applied = True
        if (
            applied
            and self.checkpoint is not None
            and getattr(self.session, "compaction_epoch", 0) != epoch_before
        ):
            # Rotated pre-compaction generations can no longer restore
            # into this session (older compaction epoch); drop them so
            # the checkpoint chain shrinks with the compacted state.
            self.checkpoint.prune_history()
        if applied:
            self._rewrite_features(task)
        return position

    # ------------------------------------------------------------------
    def fit(self, task: AlignmentTask) -> "ActiveIter":
        """Fit with active label queries until the budget is spent.

        A materialized task and a
        :class:`~repro.engine.streaming.StreamedAlignmentTask` run the
        same round loop over :func:`~repro.ml.backends.as_block_source`
        (the dense matrix is the trivial one-block stream).  A streamed
        task differs in three places: the model's session, if any, must
        be the task's own; the query strategy consumes
        :class:`~repro.active.strategies.ScoredBlock` slices via
        ``select_streamed`` when it offers one; and there is no feature
        matrix to rewrite after a refresh, an evolution event or a
        resume — the next block pass extracts against the current
        session state.
        """
        streamed = isinstance(task, StreamedAlignmentTask)
        session = task.session if streamed else self.session
        if self.session is not None and self.session is not session:
            raise ModelError(
                "the model's session must be the streamed task's session"
            )
        self.task_ = task

        resume = self._resume_payload(session)
        if resume is not None:
            clamped_indices = np.asarray(resume["clamped_indices"])
            clamped_values = np.asarray(resume["clamped_values"])
            queried = list(resume["queried"])
            trace = list(resume["trace"])
            y = np.asarray(resume["y"], dtype=np.float64)
            n_rounds = int(resume["n_rounds"])
            if self.refresh_features and not streamed:
                # The restored session carries the checkpoint's anchor
                # state; a fresh extraction over it is byte-identical to
                # the in-place-refreshed matrix of the original run.
                task.X = session.extract(task.pairs)
        else:
            clamped_indices = task.labeled_indices.copy()
            clamped_values = task.labeled_values.copy()
            queried = []
            trace = []
            y = self._initial_labels(task, clamped_indices, clamped_values)
            n_rounds = 0
        evolution_position = self._evolution_start(resume)
        state = AlternatingState.from_task(task, clamped_indices, clamped_values)
        source = as_block_source(task)
        tracer = get_tracer()
        while True:
            n_rounds += 1
            # One span per query round, with the heavy phases as
            # children — the per-phase timing breakdown of the active
            # loop.  All of it is a no-op when tracing is disabled.
            # Streamed block dispatches under ``active.alternate``
            # inherit it as their trace parent.
            with tracer.span("active.round", round=n_rounds, streamed=streamed):
                with tracer.span("active.alternate"):
                    y, w, scores, round_trace = self._alternate_backend(
                        source, state, clamped_indices, clamped_values, y
                    )
                trace.extend(round_trace)
                if self.oracle.remaining <= 0:
                    break

                queryable = np.ones(task.n_candidates, dtype=bool)
                queryable[clamped_indices] = False
                batch = min(self.batch_size, self.oracle.remaining)
                with tracer.span("active.select"):
                    if streamed and hasattr(self.strategy, "select_streamed"):
                        picks = self.strategy.select_streamed(
                            task.scored_blocks(
                                scores, y.astype(np.int64), queryable
                            ),
                            batch,
                        )
                    else:
                        picks = self.strategy.select(
                            task.pairs, scores, y.astype(np.int64),
                            queryable, batch,
                        )
                if not picks:
                    break
                asked = [task.pairs[i] for i in picks]
                with tracer.span("active.oracle", asked=len(picks)):
                    answers = self.oracle.query_batch(asked)
                if not answers:
                    break
                # The oracle answers a prefix of the asked pairs, in
                # order, so the answered indices are a prefix of picks.
                if [pair for pair, _ in answers] != asked[: len(answers)]:
                    raise ModelError(
                        "the oracle must answer a prefix of the asked "
                        "pairs, in order"
                    )
                queried.extend(answers)

                answered_indices = np.asarray(
                    picks[: len(answers)], dtype=np.int64
                )
                answered_values = np.array(
                    [label for _, label in answers], dtype=np.int64
                )
                clamped_indices = np.concatenate(
                    [clamped_indices, answered_indices]
                )
                clamped_values = np.concatenate(
                    [clamped_values, answered_values]
                )
                y[answered_indices] = answered_values
                state.clamp(task, answered_indices, answered_values)

                if self.refresh_features and any(
                    label == 1 for _, label in answers
                ):
                    known_positive_pairs = [
                        task.pairs[i]
                        for i in clamped_indices[clamped_values == 1].tolist()
                    ]
                    with tracer.span("active.refresh"):
                        session.set_anchors(known_positive_pairs)
                        self._rewrite_features(task)

                with tracer.span("active.evolve"):
                    evolution_position = self._apply_due_evolution(
                        task, n_rounds, evolution_position
                    )

                with tracer.span("active.checkpoint"):
                    self._save_checkpoint(
                        session,
                        clamped_indices,
                        clamped_values,
                        queried,
                        trace,
                        y,
                        n_rounds,
                        evolution_position,
                    )

        self.weights_ = w
        self.result_ = AlignmentResult(
            labels=y.astype(np.int64),
            scores=scores,
            queried=tuple(queried),
            convergence_trace=tuple(trace),
            n_rounds=n_rounds,
        )
        if self.checkpoint is not None:
            self.checkpoint.clear()
        return self
