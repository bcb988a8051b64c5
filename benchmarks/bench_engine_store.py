"""Engine benchmark: the disk-backed store vs the in-memory engine.

Races three execution modes over an identical large-scale workload — a
streamed active fit with feature refresh followed by a streamed
prediction sweep over the support-pruned candidate space:

* ``memory`` — the in-memory baseline (serial executor, no store);
* ``store`` — count matrices and memoized products spilled to a
  ``store_dir`` arena and served as memory maps;
* ``store-process`` — the same arena shared with a two-worker
  :class:`~repro.engine.parallel.ProcessExecutor`; block extraction and
  scoring cross process boundaries as picklable descriptors.

Each mode runs in its **own spawned process** because peak RSS
(``ru_maxrss``) is a per-process high-water mark — measuring two modes
in one process would let the first contaminate the second.

Assertions:

* **exactness** — always: queried links, labels, weights and streamed
  predictions must be byte-identical across all three modes;
* **peak RSS** — at ``large`` scale outside smoke mode: the store run
  must peak strictly below the in-memory run (that is the subsystem's
  reason to exist);
* **checkpoint/resume** — always: a fit interrupted mid-loop and
  resumed from its checkpoint must reproduce the uninterrupted run
  exactly.

Smoke mode (CI exactness gating):
``ENGINE_BENCH_SCALE=small ENGINE_BENCH_EXACT_ONLY=1`` runs quickly and
skips the RSS assertion (shared runners make absolute memory noisy).
"""

import hashlib
import multiprocessing
import os
import tempfile

import numpy as np
from conftest import EXACT_ONLY, engine_scale, publish

from repro.datasets import foursquare_twitter_like
from repro.store import SessionCheckpoint

SCALE = engine_scale("large")
NP_RATIO = 20
BUDGET = 20
BATCH = 5
BLOCK = 2048
SEED = 13


def _build_split(pair):
    from repro.eval.protocol import ProtocolConfig, build_splits

    config = ProtocolConfig(
        np_ratio=NP_RATIO, sample_ratio=1.0, n_repeats=1, seed=SEED
    )
    split = next(iter(build_splits(pair, config)))
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }
    return split, positives


def _scenario(mode: str, store_dir: str, connection) -> None:
    """One execution mode, run in a dedicated spawned process."""
    from repro.active.oracle import LabelOracle
    from repro.core.activeiter import ActiveIter
    from repro.engine import (
        AlignmentSession,
        CandidateGenerator,
        ProcessExecutor,
        StreamedAlignmentTask,
        linear_scorer,
        streamed_selection,
    )
    from repro.store.memory import peak_rss_bytes

    pair = foursquare_twitter_like(SCALE, seed=7)
    split, positives = _build_split(pair)
    store = store_dir if mode != "memory" else None
    workers = ProcessExecutor(2) if mode == "store-process" else None
    try:
        with AlignmentSession(
            pair,
            known_anchors=split.train_positive_pairs,
            store=store,
            workers=workers,
        ) as session:
            task = StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=BLOCK,
            )
            model = ActiveIter(
                LabelOracle(positives, budget=BUDGET),
                batch_size=BATCH,
                session=session,
                refresh_features=True,
            )
            model.fit(task)

            generator = CandidateGenerator.from_support(
                session, block_size=BLOCK
            )
            weights = np.asarray(model.weights_, dtype=np.float64)
            known = session.known_anchors
            selected = streamed_selection(
                generator,
                linear_scorer(session, weights),
                threshold=0.5,
                blocked_left={left for left, _ in known},
                blocked_right={right for _, right in known},
                workers=session.executor,
            )
        digest = hashlib.sha256()
        digest.update(weights.tobytes())
        digest.update(np.asarray(model.labels_).tobytes())
        digest.update(repr(model.queried_).encode())
        digest.update(repr(selected).encode())
        connection.send(
            {
                "mode": mode,
                "digest": digest.hexdigest(),
                "n_selected": len(selected),
                "n_queried": len(model.queried_),
                "peak_rss_bytes": peak_rss_bytes(),
            }
        )
    finally:
        if workers is not None:
            workers.close()
        connection.close()


def _run_scenario(mode: str, store_dir: str) -> dict:
    context = multiprocessing.get_context("spawn")
    parent, child = context.Pipe()
    process = context.Process(target=_scenario, args=(mode, store_dir, child))
    process.start()
    try:
        result = parent.recv()
    finally:
        process.join()
    assert process.exitcode == 0, f"{mode} scenario crashed"
    return result


def test_engine_store_exactness_and_rss():
    results = {}
    for mode in ("memory", "store", "store-process"):
        with tempfile.TemporaryDirectory() as store_dir:
            results[mode] = _run_scenario(mode, store_dir)

    memory, store, process = (
        results["memory"],
        results["store"],
        results["store-process"],
    )
    lines = [
        (
            f"Disk-backed store benchmark ({SCALE}, NP-ratio={NP_RATIO}, "
            f"budget={BUDGET}, cpus={os.cpu_count()})"
        ),
        f"{'mode':<16}{'peak RSS (MiB)':>16}{'selected':>10}{'queried':>9}",
    ]
    for mode, result in results.items():
        lines.append(
            f"{mode:<16}{result['peak_rss_bytes'] / 2**20:>16.1f}"
            f"{result['n_selected']:>10}{result['n_queried']:>9}"
        )
    if memory["peak_rss_bytes"]:
        lines.append(
            "store/memory RSS ratio: "
            f"{store['peak_rss_bytes'] / memory['peak_rss_bytes']:.2f}"
        )
    lines.append(
        "digests identical: "
        f"{memory['digest'] == store['digest'] == process['digest']}"
    )
    publish("engine_store", "\n".join(lines))

    assert memory["digest"] == store["digest"], (
        "store-backed run must be byte-identical to the in-memory run"
    )
    assert memory["digest"] == process["digest"], (
        "process-executor run must be byte-identical to the in-memory run"
    )
    assert memory["n_queried"] > 0, "workload must actually spend budget"

    if EXACT_ONLY or SCALE != "large" or memory["peak_rss_bytes"] == 0:
        return
    assert store["peak_rss_bytes"] < memory["peak_rss_bytes"], (
        f"spilling to disk must reduce peak RSS at {SCALE} scale: "
        f"store {store['peak_rss_bytes'] / 2**20:.1f} MiB vs "
        f"memory {memory['peak_rss_bytes'] / 2**20:.1f} MiB"
    )


def test_engine_checkpoint_resume_exactness():
    from repro.active.oracle import LabelOracle
    from repro.core.activeiter import ActiveIter
    from repro.core.base import AlignmentTask
    from repro.engine import AlignmentSession
    from repro.exceptions import CheckpointInterrupt

    pair = foursquare_twitter_like(
        "small" if SCALE == "large" else SCALE, seed=7
    )
    split, positives = _build_split(pair)

    def build(checkpoint=None):
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        model = ActiveIter(
            LabelOracle(positives, budget=BUDGET),
            batch_size=2,
            session=session,
            refresh_features=True,
            checkpoint=checkpoint,
        )
        return model, task

    reference, reference_task = build()
    reference.fit(reference_task)

    with tempfile.TemporaryDirectory() as store_dir:
        interrupted = SessionCheckpoint(store_dir, interrupt_after=2)
        model, task = build(checkpoint=interrupted)
        try:
            model.fit(task)
            raise AssertionError("interrupt_after must fire mid-loop")
        except CheckpointInterrupt:
            pass
        resumed, resumed_task = build(
            checkpoint=SessionCheckpoint(store_dir)
        )
        resumed.fit(resumed_task)

    identical = (
        resumed.queried_ == reference.queried_
        and np.array_equal(resumed.labels_, reference.labels_)
        and np.array_equal(resumed.weights_, reference.weights_)
    )
    publish(
        "engine_store_resume",
        "\n".join(
            [
                "Checkpoint/resume exactness "
                f"(interrupted after 2 rounds, budget={BUDGET})",
                f"total rounds: {resumed.result_.n_rounds}; "
                f"labels bought: {len(resumed.queried_)}; "
                f"byte-identical to uninterrupted: {identical}",
            ]
        ),
    )
    assert identical, "resumed fit must reproduce the uninterrupted run"