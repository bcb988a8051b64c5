"""Engine benchmark: evolving-network deltas vs full recount.

Simulates the network-drift workload the generalized delta algebra
exists for: a session serving a live aligned pair keeps receiving
evolution events — new users, new posts with attributes, follow churn —
and after every event the candidate feature matrix must reflect the
grown network.

Two paths race over an identical scripted schedule (each on its own
identically constructed copy of the pair):

* **full recount** — drop every touched count matrix and re-count it
  from scratch on the grown network, re-extract the whole X;
* **delta** — ``apply_network_delta``'s generalized path: per-leaf
  matrix diffs folded through the telescoped delta algebra, padded
  count/sum state, patched candidate views, in-place refresh of only
  the dirty entries of X.

Because every fold is integer-exact, the two paths are *bit-exact*: the
benchmark asserts byte-identical feature matrices and predicted anchor
sets (always — this is the CI exactness gate), and a >= 3x speedup at
``large`` scale outside smoke mode.  It also asserts that a drifting
active fit interrupted mid-loop and resumed from its checkpoint —
replaying the evolution events onto a freshly built pair — reproduces
the uninterrupted run byte for byte.

The *churn* gate races the same two paths over the adversarial
interleaved grow/shrink/attribute-churn schedule
(:func:`~repro.engine.evolution.scripted_churn_schedule`): node and
edge removals ride the event-sourced removal deltas, and a SHA-256
digest of the feature matrix is compared against the full recount
**after every event** — not just at the end — so a transiently wrong
intermediate state cannot telescope away.  The churn schedule must
stay entirely on the fast path (``fallback_invalidations == 0``) and
beat the recount >= 3x at ``large``.  A separate footprint gate drives
a store-backed session through the churn schedule with rotated
checkpoints, then asserts that ``compact()`` + pruned history shrinks
the combined checkpoint+arena disk footprint below its pre-compaction
size.

Smoke mode (CI): ``ENGINE_BENCH_SCALE=small ENGINE_BENCH_EXACT_ONLY=1``.
"""

import hashlib
import tempfile
import time
from pathlib import Path

import numpy as np

from conftest import EXACT_ONLY, engine_scale, publish
from repro.active.oracle import LabelOracle
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentTask
from repro.core.itermpmd import IterMPMD
from repro.datasets import foursquare_twitter_like
from repro.engine import AlignmentSession, evolution_rounds, scripted_delta_schedule
from repro.engine.evolution import scripted_churn_schedule
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.exceptions import CheckpointInterrupt
from repro.store import SessionCheckpoint

SCALE = engine_scale("large")
NP_RATIO = 20
EVENTS = 8
SCHEDULE_SEED = 5
SEED = 13


def _make_pair():
    return foursquare_twitter_like(SCALE, seed=7)


def _make_split(pair):
    config = ProtocolConfig(
        np_ratio=NP_RATIO, sample_ratio=1.0, n_repeats=1, seed=SEED
    )
    return next(iter(build_splits(pair, config)))


def _drift_run(incremental):
    """One serving run over the scripted drift; returns timings/outputs."""
    pair = _make_pair()
    split = _make_split(pair)
    schedule = scripted_delta_schedule(
        pair, events=EVENTS, seed=SCHEDULE_SEED
    )
    candidates = list(split.candidates)
    session = AlignmentSession(
        pair,
        known_anchors=split.train_positive_pairs,
        incremental=incremental,
    )
    X = session.extract(candidates)
    started = time.perf_counter()
    for delta in schedule:
        session.apply_network_delta(delta)
        if incremental:
            session.refresh_features(X, candidates)
        else:
            X = session.extract(candidates)
    elapsed = time.perf_counter() - started
    task = AlignmentTask(
        pairs=candidates,
        X=X,
        labeled_indices=split.train_indices,
        labeled_values=split.truth[split.train_indices],
    )
    model = IterMPMD().fit(task)
    return elapsed, X, sorted(model.predicted_anchors()), session.stats


def test_engine_evolve_vs_full_recount():
    full_seconds, X_full, predicted_full, full_stats = _drift_run(
        incremental=False
    )
    delta_seconds, X_delta, predicted_delta, delta_stats = _drift_run(
        incremental=True
    )
    if not EXACT_ONLY:
        # Best-of-two per path: the delta loop is short enough that one
        # scheduler hiccup on a shared host can halve the measured
        # ratio; the minimum is the honest cost of each path.
        full_seconds = min(full_seconds, _drift_run(incremental=False)[0])
        delta_seconds = min(delta_seconds, _drift_run(incremental=True)[0])
    speedup = full_seconds / delta_seconds

    publish(
        "engine_evolve",
        "\n".join(
            [
                "Evolving-network deltas vs full recount "
                f"({SCALE}, |H|={X_full.shape[0]}, {EVENTS} events)",
                f"{'path':<14}{'seconds':>10}  session stats",
                f"{'full':<14}{full_seconds:>10.4f}  {full_stats.summary()}",
                f"{'delta':<14}{delta_seconds:>10.4f}  "
                f"{delta_stats.summary()}",
                f"speedup: {speedup:.2f}x",
                "feature matrices identical: "
                f"{np.array_equal(X_full, X_delta)}",
                "predicted anchors identical: "
                f"{predicted_full == predicted_delta}",
            ]
        ),
        record={
            "scale": SCALE,
            "events": EVENTS,
            "exact_only": EXACT_ONLY,
            "flags": {
                "features_identical": bool(np.array_equal(X_full, X_delta)),
                "predicted_anchors_identical": predicted_full
                == predicted_delta,
            },
            "metrics": {
                "full_seconds": full_seconds,
                "delta_seconds": delta_seconds,
                "speedup": speedup,
                "fallback_invalidations": delta_stats.fallback_invalidations,
            },
        },
    )

    assert np.array_equal(X_full, X_delta), (
        "network delta folds must be bit-exact"
    )
    assert predicted_full == predicted_delta, (
        "both paths must predict identical anchor sets"
    )
    if not EXACT_ONLY:
        assert speedup >= 3.0, (
            f"delta path must be >= 3x faster, got {speedup:.2f}x "
            f"(full {full_seconds:.3f}s vs delta {delta_seconds:.3f}s)"
        )


def _drifting_fit(checkpoint=None, budget=10, batch=2):
    """Deterministic drifting active fit (same construction every call)."""
    pair = _make_pair()
    split = _make_split(pair)
    schedule = scripted_delta_schedule(pair, events=3, seed=SCHEDULE_SEED)
    candidates = list(split.candidates)
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }
    session = AlignmentSession(pair, known_anchors=split.train_positive_pairs)
    task = AlignmentTask(
        pairs=candidates,
        X=session.extract(candidates),
        labeled_indices=split.train_indices,
        labeled_values=split.truth[split.train_indices],
    )
    model = ActiveIter(
        LabelOracle(positives, budget=budget),
        batch_size=batch,
        session=session,
        refresh_features=True,
        checkpoint=checkpoint,
        evolution=evolution_rounds(schedule),
    )
    return model, task


def test_engine_evolve_checkpoint_resume():
    """Resume across evolution events is byte-identical to uninterrupted."""
    reference, reference_task = _drifting_fit()
    reference.fit(reference_task)
    assert reference.result_.n_rounds > 2, "need a multi-round drifting fit"

    with tempfile.TemporaryDirectory() as store_dir:
        interrupted = SessionCheckpoint(store_dir, interrupt_after=2)
        model, task = _drifting_fit(checkpoint=interrupted)
        try:
            model.fit(task)
        except CheckpointInterrupt:
            pass
        else:  # pragma: no cover - the fit must have >= 2 rounds
            raise AssertionError("expected the simulated crash to fire")

        resumed, resumed_task = _drifting_fit(
            checkpoint=SessionCheckpoint(store_dir)
        )
        resumed.fit(resumed_task)

    assert resumed.queried_ == reference.queried_
    assert np.array_equal(resumed.labels_, reference.labels_)
    assert np.array_equal(resumed.weights_, reference.weights_)
    assert (
        resumed.result_.convergence_trace
        == reference.result_.convergence_trace
    )


def _digest(X):
    """SHA-256 of the feature matrix bytes — the per-event fingerprint."""
    return hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()


def _churn_run(incremental):
    """One serving run over the adversarial churn; per-event digests.

    The clock covers only apply+refresh (digesting is equal dead weight
    for both paths and would mask the speedup on the cheap one).
    """
    pair = _make_pair()
    split = _make_split(pair)
    schedule = scripted_churn_schedule(
        pair, events=EVENTS, seed=SCHEDULE_SEED
    )
    candidates = list(split.candidates)
    session = AlignmentSession(
        pair,
        known_anchors=split.train_positive_pairs,
        incremental=incremental,
    )
    X = session.extract(candidates)
    digests = []
    elapsed = 0.0
    for delta in schedule:
        started = time.perf_counter()
        session.apply_network_delta(delta)
        if incremental:
            session.refresh_features(X, candidates)
        else:
            X = session.extract(candidates)
        elapsed += time.perf_counter() - started
        digests.append(_digest(X))
    return elapsed, X, digests, session.stats


def test_engine_evolve_churn_vs_full_recount():
    """Grow/shrink/attribute churn: per-event exactness plus speedup."""
    full_seconds, X_full, digests_full, full_stats = _churn_run(
        incremental=False
    )
    delta_seconds, X_delta, digests_delta, delta_stats = _churn_run(
        incremental=True
    )
    if not EXACT_ONLY:
        full_seconds = min(full_seconds, _churn_run(incremental=False)[0])
        delta_seconds = min(delta_seconds, _churn_run(incremental=True)[0])
    speedup = full_seconds / delta_seconds
    matching = sum(
        ours == theirs for ours, theirs in zip(digests_delta, digests_full)
    )

    publish(
        "engine_evolve_churn",
        "\n".join(
            [
                "Churn schedule (grow/shrink/attribute) deltas vs full "
                f"recount ({SCALE}, |H|={X_full.shape[0]}, {EVENTS} events)",
                f"{'path':<14}{'seconds':>10}  session stats",
                f"{'full':<14}{full_seconds:>10.4f}  {full_stats.summary()}",
                f"{'delta':<14}{delta_seconds:>10.4f}  "
                f"{delta_stats.summary()}",
                f"speedup: {speedup:.2f}x",
                f"per-event digests identical: {matching}/{EVENTS}",
                f"removal updates: {delta_stats.removal_updates}",
                "fallback invalidations (delta path): "
                f"{delta_stats.fallback_invalidations}",
            ]
        ),
        record={
            "scale": SCALE,
            "events": EVENTS,
            "exact_only": EXACT_ONLY,
            "flags": {
                "per_event_digests_identical": digests_delta == digests_full,
                "no_fallback_invalidations": delta_stats.fallback_invalidations
                == 0,
            },
            "metrics": {
                "full_seconds": full_seconds,
                "delta_seconds": delta_seconds,
                "speedup": speedup,
                "removal_updates": delta_stats.removal_updates,
                "fallback_invalidations": delta_stats.fallback_invalidations,
            },
        },
    )

    assert digests_delta == digests_full, (
        "event-sourced folds must match the full recount after EVERY "
        f"event, matched {matching}/{EVENTS}"
    )
    assert delta_stats.fallback_invalidations == 0, (
        "the churn schedule must ride the event fast path end to end"
    )
    assert delta_stats.removal_updates > 0, (
        "the churn schedule must actually shrink the network"
    )
    if not EXACT_ONLY:
        assert speedup >= 3.0, (
            f"delta path must be >= 3x faster under churn, got "
            f"{speedup:.2f}x (full {full_seconds:.3f}s vs delta "
            f"{delta_seconds:.3f}s)"
        )


def _tree_bytes(root):
    """Total on-disk bytes under ``root``."""
    return sum(
        path.stat().st_size for path in Path(root).rglob("*") if path.is_file()
    )


def test_engine_evolve_compaction_footprint():
    """compact() + pruned history shrinks the durable footprint."""
    with tempfile.TemporaryDirectory() as root:
        pair = _make_pair()
        split = _make_split(pair)
        schedule = scripted_churn_schedule(
            pair, events=EVENTS, seed=SCHEDULE_SEED
        )
        candidates = list(split.candidates)
        session = AlignmentSession(
            pair,
            known_anchors=split.train_positive_pairs,
            store=Path(root) / "arena",
        )
        checkpoint = SessionCheckpoint(
            Path(root) / "checkpoints", keep_last=4
        )
        X = session.extract(candidates)
        for delta in schedule:
            session.apply_network_delta(delta)
            session.refresh_features(X, candidates)
            session.flush_store()
            checkpoint.save(session, payload=None)
        before = _tree_bytes(root)

        assert session.compact(), "churn must leave tombstones to drop"
        pruned = checkpoint.prune_history()
        checkpoint.save(session, payload=None)
        session.flush_store()
        after = _tree_bytes(root)

        publish(
            "engine_evolve_compaction",
            "\n".join(
                [
                    "Long-drift compaction footprint "
                    f"({SCALE}, {EVENTS} churn events, keep_last=4)",
                    f"pre-compaction  checkpoint+arena: {before:>12d} bytes",
                    f"post-compaction checkpoint+arena: {after:>12d} bytes",
                    f"pruned checkpoint generations: {pruned}",
                    f"compactions: {session.stats.compactions}",
                ]
            ),
            record={
                "scale": SCALE,
                "events": EVENTS,
                "exact_only": EXACT_ONLY,
                "flags": {
                    "footprint_shrank": after < before,
                },
                "metrics": {
                    "bytes_before": before,
                    "bytes_after": after,
                    "pruned_generations": pruned,
                },
            },
        )

        assert pruned > 0, "rotation must have left history to prune"
        assert after < before, (
            "compaction must shrink the durable footprint: "
            f"{before} -> {after} bytes"
        )
