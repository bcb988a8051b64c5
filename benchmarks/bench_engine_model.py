"""Engine benchmark: the model-backend seam (streamed SVM + kernel maps).

Gates the model-backend refactor's three guarantees:

* **streamed-vs-dense parity** — the streamed SVM baseline reproduces
  the dense one *byte-identically* given the seed (gathered training
  rows, scaler statistics and every dual-coordinate-descent update are
  bit-equal; decision scores agree to BLAS shape-rounding and labels
  follow exactly), and kernel-mapped fits (Nyström landmarks from a
  streamed reservoir, random Fourier) agree within 1e-8;
* **streamed SVM memory** — the streamed SVM active loop's peak RSS
  stays within 1.2x of the streamed *ridge* loop at the same scale:
  the SVM path adds only label-budget-sized training gathers on top of
  the block stream, never an |H| x d matrix.  Each mode runs in its own
  spawned process (``ru_maxrss`` is a per-process high-water mark);
* **checkpoint/resume** — an SVM-backend active loop on a store-backed
  session, interrupted mid-fit and resumed from its checkpoint,
  reproduces the uninterrupted run exactly (backend state — dual
  coefficients, map statistics — rides the checkpoint).

Smoke mode (CI exactness gating):
``ENGINE_BENCH_SCALE=small ENGINE_BENCH_EXACT_ONLY=1`` runs quickly and
skips the RSS ratio assertion (absolute memory is meaningless on shared
runners).
"""

import multiprocessing
import tempfile

import numpy as np
from conftest import EXACT_ONLY, engine_scale, publish

from repro.datasets import foursquare_twitter_like
from repro.store import SessionCheckpoint

SCALE = engine_scale("large")
PARITY_SCALE = "small" if SCALE == "large" else SCALE
NP_RATIO = 20
BUDGET = 20
BATCH = 5
BLOCK = 2048
SEED = 13
RSS_RATIO_BOUND = 1.2


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


def _tasks(pair, split, block_size=BLOCK):
    from repro.core.base import AlignmentTask
    from repro.engine import AlignmentSession, StreamedAlignmentTask
    from repro.meta.diagrams import standard_diagram_family

    session = AlignmentSession(
        pair,
        family=standard_diagram_family(),
        known_anchors=split.train_positive_pairs,
    )
    candidates = list(split.candidates)
    dense = AlignmentTask(
        pairs=candidates,
        X=session.extract(candidates),
        labeled_indices=split.train_indices,
        labeled_values=split.truth[split.train_indices],
    )
    streamed = StreamedAlignmentTask.from_pairs(
        session,
        candidates,
        split.train_indices,
        split.truth[split.train_indices],
        block_size=block_size,
    )
    return session, dense, streamed


def test_streamed_svm_and_kernel_parity():
    """Streamed SVM byte-identical; kernel maps within 1e-8."""
    from repro.core.itermpmd import IterMPMD
    from repro.core.svm_baselines import SVMAligner
    from repro.ml.backends import make_backend

    pair = foursquare_twitter_like(PARITY_SCALE, seed=7)
    split, _ = _build_split(pair)
    _, dense_task, streamed_task = _tasks(pair, split, block_size=256)

    dense_svm = SVMAligner(seed=SEED).fit(dense_task)
    streamed_svm = SVMAligner(seed=SEED).fit(streamed_task)
    svm_coef_identical = bool(
        np.array_equal(dense_svm.svc_.coef_, streamed_svm.svc_.coef_)
        and dense_svm.svc_.intercept_ == streamed_svm.svc_.intercept_
    )
    svm_labels_identical = bool(
        np.array_equal(dense_svm.labels_, streamed_svm.labels_)
    )
    svm_score_diff = float(
        np.abs(dense_svm.scores_ - streamed_svm.scores_).max()
    )

    dense_nystroem = SVMAligner(seed=SEED, feature_map="nystroem").fit(
        dense_task
    )
    streamed_nystroem = SVMAligner(seed=SEED, feature_map="nystroem").fit(
        streamed_task
    )
    nystroem_diff = float(
        np.abs(dense_nystroem.scores_ - streamed_nystroem.scores_).max()
    )
    nystroem_labels_identical = bool(
        np.array_equal(dense_nystroem.labels_, streamed_nystroem.labels_)
    )

    dense_ridge_map = IterMPMD(
        backend=make_backend("ridge", feature_map="nystroem", seed=SEED)
    ).fit(dense_task)
    streamed_ridge_map = IterMPMD(
        backend=make_backend("ridge", feature_map="nystroem", seed=SEED)
    ).fit(streamed_task)
    ridge_map_diff = float(
        np.abs(dense_ridge_map.scores_ - streamed_ridge_map.scores_).max()
    )

    lines = [
        (
            f"Model-backend parity ({PARITY_SCALE}, NP-ratio={NP_RATIO}, "
            f"|H|={dense_task.n_candidates}, "
            f"{streamed_task.n_blocks} blocks)"
        ),
        (
            f"streamed SVM: coef byte-identical={svm_coef_identical} "
            f"labels identical={svm_labels_identical} "
            f"max |score delta|={svm_score_diff:.2e}"
        ),
        (
            f"nystroem SVM: max |score delta|={nystroem_diff:.2e} "
            f"labels identical={nystroem_labels_identical}"
        ),
        f"nystroem ridge: max |score delta|={ridge_map_diff:.2e}",
    ]
    publish("engine_model_parity", "\n".join(lines))

    assert svm_coef_identical, (
        "streamed SVM training must be byte-identical to the dense path"
    )
    assert svm_labels_identical, (
        "streamed SVM predictions must be byte-identical to the dense path"
    )
    assert svm_score_diff <= 1e-10
    assert nystroem_diff <= 1e-8, (
        f"nystroem streamed-vs-dense scores diverged: {nystroem_diff:.3e}"
    )
    assert nystroem_labels_identical
    assert ridge_map_diff <= 1e-8


def _rss_scenario(mode: str, connection) -> None:
    """One streamed active fit, in a dedicated spawned process."""
    from repro.active.oracle import LabelOracle
    from repro.core.activeiter import ActiveIter
    from repro.engine import AlignmentSession, StreamedAlignmentTask
    from repro.meta.diagrams import standard_diagram_family
    from repro.store.memory import peak_rss_bytes

    pair = foursquare_twitter_like(SCALE, seed=7)
    split, positives = _build_split(pair)
    try:
        with AlignmentSession(
            pair,
            family=standard_diagram_family(),
            known_anchors=split.train_positive_pairs,
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
                backend="svm" if mode == "svm" else None,
                positive_threshold=0.0 if mode == "svm" else 0.5,
            )
            model.fit(task)
        connection.send(
            {
                "mode": mode,
                "n_queried": len(model.queried_),
                "peak_rss_bytes": peak_rss_bytes(),
            }
        )
    finally:
        connection.close()


def _run_rss_scenario(mode: str) -> dict:
    context = multiprocessing.get_context("spawn")
    parent, child = context.Pipe()
    process = context.Process(target=_rss_scenario, args=(mode, child))
    process.start()
    try:
        result = parent.recv()
    finally:
        process.join()
    assert process.exitcode == 0, f"{mode} scenario crashed"
    return result


def test_streamed_svm_rss_within_ridge_envelope():
    results = {mode: _run_rss_scenario(mode) for mode in ("ridge", "svm")}
    ridge, svm = results["ridge"], results["svm"]
    ratio = (
        svm["peak_rss_bytes"] / ridge["peak_rss_bytes"]
        if ridge["peak_rss_bytes"]
        else 0.0
    )
    lines = [
        (
            f"Streamed model memory ({SCALE}, NP-ratio={NP_RATIO}, "
            f"budget={BUDGET}, block={BLOCK})"
        ),
        f"{'backend':<10}{'peak RSS (MiB)':>16}{'queried':>9}",
    ]
    for mode, result in results.items():
        lines.append(
            f"{mode:<10}{result['peak_rss_bytes'] / 2**20:>16.1f}"
            f"{result['n_queried']:>9}"
        )
    lines.append(f"svm/ridge RSS ratio: {ratio:.2f} (bound {RSS_RATIO_BOUND})")
    publish(
        "engine_model_rss",
        "\n".join(lines),
        record={
            "flags": {
                "budget_spent": bool(
                    ridge["n_queried"] > 0 and svm["n_queried"] > 0
                ),
            },
            "metrics": {
                "ridge_peak_rss_bytes": ridge["peak_rss_bytes"],
                "svm_peak_rss_bytes": svm["peak_rss_bytes"],
                # Omitted where RSS is unreadable: a 0.0 ratio would
                # poison the lower-is-better ratchet forever.
                **(
                    {"svm_ridge_rss_ratio": ratio}
                    if ridge["peak_rss_bytes"]
                    else {}
                ),
            },
        },
    )

    assert ridge["n_queried"] > 0 and svm["n_queried"] > 0, (
        "both workloads must actually spend budget"
    )
    if EXACT_ONLY or ridge["peak_rss_bytes"] == 0:
        return
    assert ratio <= RSS_RATIO_BOUND, (
        f"streamed SVM peak RSS must stay within {RSS_RATIO_BOUND}x of the "
        f"streamed ridge path: ratio {ratio:.2f}"
    )


def test_svm_active_checkpoint_resume_on_store():
    """Interrupted SVM-backend active loop on a store-backed session
    resumes byte-identically."""
    from repro.active.oracle import LabelOracle
    from repro.core.activeiter import ActiveIter
    from repro.engine import AlignmentSession, StreamedAlignmentTask
    from repro.exceptions import CheckpointInterrupt
    from repro.meta.diagrams import standard_diagram_family

    pair = foursquare_twitter_like(PARITY_SCALE, seed=7)
    split, positives = _build_split(pair)

    def build(store_dir, checkpoint=None):
        session = AlignmentSession(
            pair,
            family=standard_diagram_family(),
            known_anchors=split.train_positive_pairs,
            store=store_dir,
        )
        task = StreamedAlignmentTask.from_pairs(
            session,
            list(split.candidates),
            split.train_indices,
            split.truth[split.train_indices],
            block_size=BLOCK,
        )
        model = ActiveIter(
            LabelOracle(positives, budget=BUDGET),
            batch_size=2,
            session=session,
            refresh_features=True,
            checkpoint=checkpoint,
            backend="svm",
            positive_threshold=0.0,
        )
        return model, task, session

    with tempfile.TemporaryDirectory() as reference_dir:
        reference, task, session = build(reference_dir)
        with session:
            reference.fit(task)

    with tempfile.TemporaryDirectory() as store_dir:
        interrupted, task, session = build(
            store_dir, SessionCheckpoint(store_dir, interrupt_after=2)
        )
        with session:
            try:
                interrupted.fit(task)
                raise AssertionError("interrupt_after must fire mid-loop")
            except CheckpointInterrupt:
                pass
        resumed, task, session = build(store_dir, SessionCheckpoint(store_dir))
        with session:
            resumed.fit(task)

    identical = (
        resumed.queried_ == reference.queried_
        and np.array_equal(resumed.labels_, reference.labels_)
        and np.array_equal(resumed.weights_, reference.weights_)
    )
    publish(
        "engine_model_resume",
        "\n".join(
            [
                (
                    "SVM-backend checkpoint/resume on a store-backed session "
                    f"({PARITY_SCALE}, interrupted after 2 rounds, "
                    f"budget={BUDGET})"
                ),
                (
                    f"total rounds: {resumed.result_.n_rounds}; labels "
                    f"bought: {len(resumed.queried_)}; byte-identical to "
                    f"uninterrupted: {identical}"
                ),
            ]
        ),
    )
    assert len(reference.queried_) > 0, "workload must actually spend budget"
    assert identical, (
        "resumed SVM-backend fit must reproduce the uninterrupted run"
    )
