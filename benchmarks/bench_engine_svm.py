"""Engine benchmark: the working-set streamed SVM and PU-mode training.

Gates the shrinking/streaming solver's three guarantees:

* **bit-identity** — LIBLINEAR-style shrinking is an *exact*
  optimization: for the same seed and row order the shrunk solver
  reproduces the unshrunk weight vector byte for byte (every skipped
  visit carries a drift-bound certificate that the unshrunk loop would
  have been a no-op there, and a final unshrink pass re-verifies every
  certificate it relied on).  Likewise the streamed working-set fit
  over a chopped block source is byte-identical to the one-block dense
  fit, PU per-sample costs included;
* **tractability over all of H** — a PU-mode fit trains on *every*
  streamed candidate row, so the per-epoch cost is what makes it
  usable.  Block screening plus the compact resident working set must
  make the shrunk streamed fit at least ``3x`` faster per epoch than
  the unshrunk streamed fit at ``large`` scale, and the resident row
  cache at convergence must hold under 20% of |H|;
* **checkpoint/resume** — a PU-mode active loop on a store-backed
  session, interrupted mid-fit and resumed from its checkpoint,
  reproduces the uninterrupted run byte-identically (the checkpoint
  carries the backend's mode and shrink state).

Smoke mode (CI exactness gating):
``ENGINE_BENCH_SCALE=small ENGINE_BENCH_EXACT_ONLY=1`` runs the identity
and resume gates quickly and skips the wall-clock speedup assertion
(absolute timing is meaningless on shared runners).
"""

import tempfile
import time

import numpy as np
from conftest import EXACT_ONLY, engine_scale, publish

from repro.datasets import foursquare_twitter_like
from repro.store import SessionCheckpoint

SCALE = engine_scale("large")
PARITY_SCALE = "small" if SCALE == "large" else SCALE
SEED = 3
SPEEDUP_BOUND = 3.0
RESIDENT_BOUND = 0.20

#: PU workload shape per scale: (n_rows, n_features, block_size,
#: unshrunk timing epochs).
_SHAPES = {
    "small": (3000, 8, 256, 12),
    "large": (20000, 12, 1024, 60),
}


def _pu_problem(n, d, seed=7):
    """A separable PU shape: 3% known positives, everything else
    unlabeled, positives shifted along the true weight vector so the
    working set collapses to the margin band as the fit converges."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    w_true /= np.linalg.norm(w_true)
    margin = X @ w_true
    positives = np.argsort(margin)[-max(1, int(0.03 * n)) :]
    y = np.zeros(n, dtype=np.int64)
    y[positives] = 1
    X[positives] += 1.5 * w_true
    sample_C = np.full(n, 0.02)
    sample_C[positives] = 10.0
    return X, y, sample_C


class _ChoppedSource:
    """A dense matrix served as fixed-size blocks (the |H| stream)."""

    def __init__(self, X, block_size):
        self.X = np.asarray(X, dtype=np.float64)
        self.block_size = int(block_size)

    @property
    def n_candidates(self):
        return int(self.X.shape[0])

    def block_spans(self):
        n, size = self.X.shape[0], self.block_size
        return [
            (start, min(size, n - start)) for start in range(0, n, size)
        ]

    def feature_blocks(self):
        for start, size in self.block_spans():
            yield start, self.X[start : start + size]

    def selected_feature_blocks(self, block_indices):
        spans = self.block_spans()
        for b in block_indices:
            start, size = spans[int(b)]
            yield start, self.X[start : start + size]


def test_shrinking_and_streaming_bit_identity():
    """Shrunk == unshrunk == streamed, byte for byte, PU costs included."""
    from repro.ml.backends import DenseBlockSource, StreamedLinearSVC
    from repro.ml.svm import dual_coordinate_descent

    n, d, block, _ = _SHAPES["small"]
    X, y, sample_C = _pu_problem(n, d)
    signed = np.where(y == 1, 1.0, -1.0)

    w_plain, it_plain = dual_coordinate_descent(
        [X], signed, C=1.0, max_iter=200, tol=1e-4, seed=SEED,
        sample_C=sample_C, shrink=False,
    )
    stats = {}
    w_shrunk, it_shrunk = dual_coordinate_descent(
        [X], signed, C=1.0, max_iter=200, tol=1e-4, seed=SEED,
        sample_C=sample_C, shrink=True, stats=stats,
    )
    shrunk_identical = bool(
        np.array_equal(w_shrunk, w_plain) and it_shrunk == it_plain
    )

    dense = StreamedLinearSVC(seed=SEED, max_iter=200, tol=1e-4).fit_source(
        DenseBlockSource(X), y, sample_C=sample_C
    )
    streamed = StreamedLinearSVC(
        seed=SEED, max_iter=200, tol=1e-4
    ).fit_source(_ChoppedSource(X, block), y, sample_C=sample_C)
    streamed_identical = bool(
        np.array_equal(streamed.coef_, dense.coef_)
        and streamed.intercept_ == dense.intercept_
    )

    lines = [
        (
            f"Working-set SVM bit-identity (n={n}, d={d}, "
            f"block={block}, seed={SEED})"
        ),
        (
            f"shrunk == unshrunk: {shrunk_identical} "
            f"(skipped visits: {stats['skipped_visits']}, "
            f"verify checked: {stats['verify_checked']})"
        ),
        f"streamed == dense (PU costs): {streamed_identical}",
    ]
    publish(
        "engine_svm_identity",
        "\n".join(lines),
        record={
            "flags": {
                "shrunk_identical_to_unshrunk": shrunk_identical,
                "streamed_identical_to_dense": streamed_identical,
                "visits_actually_skipped": stats["skipped_visits"] > 0,
            },
            "metrics": {
                "skipped_visits": stats["skipped_visits"],
                "verify_checked": stats["verify_checked"],
            },
        },
    )
    assert shrunk_identical, (
        "shrinking must be exact: shrunk and unshrunk solvers diverged"
    )
    assert streamed_identical, (
        "streamed working-set fit must match the dense fit byte for byte"
    )
    assert stats["skipped_visits"] > 0


def test_pu_working_set_epoch_speedup():
    """All-of-H PU fit: >=3x faster per epoch than unshrunk; the
    resident working set collapses well below |H| at convergence."""
    from repro.ml.backends import StreamedLinearSVC
    from repro.obs.metrics import MetricsRegistry

    n, d, block, timing_epochs = _SHAPES.get(SCALE, _SHAPES["small"])
    X, y, sample_C = _pu_problem(n, d)
    # Cluster rows by margin so whole blocks become screenable — the
    # layout a ranked candidate stream produces naturally.
    order = np.argsort(np.abs(X @ np.linalg.lstsq(X, y * 2.0 - 1.0, rcond=None)[0]))[::-1]
    X, y, sample_C = X[order], y[order], sample_C[order]
    source = _ChoppedSource(X, block)

    # Unshrunk reference, epoch-capped: per-epoch cost is flat (every
    # epoch reads every block), so a short run times it fairly.
    started = time.perf_counter()
    plain = StreamedLinearSVC(
        seed=SEED, max_iter=timing_epochs, tol=0.0, shrink=False
    ).fit_source(_ChoppedSource(X, block), y, sample_C=sample_C)
    plain_elapsed = time.perf_counter() - started
    plain_per_epoch = plain_elapsed / timing_epochs

    # Same epoch budget, shrunk: must agree byte for byte at scale.
    capped = StreamedLinearSVC(
        seed=SEED, max_iter=timing_epochs, tol=0.0, shrink=True
    ).fit_source(_ChoppedSource(X, block), y, sample_C=sample_C)
    capped_identical = bool(
        np.array_equal(capped.coef_, plain.coef_)
        and capped.intercept_ == plain.intercept_
    )

    # Shrunk run to convergence: the speedup and working-set gates.
    registry = MetricsRegistry()
    started = time.perf_counter()
    shrunk = StreamedLinearSVC(
        seed=SEED, max_iter=2000, tol=3e-3, shrink=True
    ).fit_source(source, y, sample_C=sample_C, registry=registry)
    shrunk_elapsed = time.perf_counter() - started
    stats = shrunk.shrink_stats_
    shrunk_per_epoch = shrunk_elapsed / max(1, stats["epochs"])
    speedup = plain_per_epoch / shrunk_per_epoch
    resident_fraction = stats["resident_final"] / n
    blocks_skipped = registry.counter("svm.blocks_skipped").value
    epoch_hist = registry.histogram("phase.svm_epoch").snapshot()

    lines = [
        (
            f"PU-mode working-set fit over all of H ({SCALE}: n={n}, "
            f"d={d}, block={block})"
        ),
        (
            f"unshrunk: {plain_per_epoch * 1e3:.2f} ms/epoch "
            f"({timing_epochs} timing epochs); shrunk capped run "
            f"byte-identical: {capped_identical}"
        ),
        (
            f"shrunk:   {shrunk_per_epoch * 1e3:.2f} ms/epoch over "
            f"{stats['epochs']} epochs to tol=3e-3 "
            f"-> {speedup:.2f}x per-epoch speedup (bound {SPEEDUP_BOUND}x)"
        ),
        (
            f"working set: resident {stats['resident_final']}/{n} rows "
            f"({resident_fraction:.1%}, bound {RESIDENT_BOUND:.0%}); "
            f"block skips {blocks_skipped} across "
            f"{stats['epochs']} epochs of {stats['blocks_total']} blocks; "
            f"per-epoch mean {epoch_hist['mean'] * 1e3:.2f} ms"
        ),
        (
            f"reads: {stats['blocks_read']} blocks, "
            f"{stats['row_fetches']} row refetches, "
            f"{stats['skipped_visits']} visits skipped"
        ),
    ]
    publish(
        "engine_svm_speedup",
        "\n".join(lines),
        record={
            "flags": {
                "capped_shrunk_identical": capped_identical,
                "converged": stats["epochs"] < 2000,
                "resident_under_bound": resident_fraction < RESIDENT_BOUND,
            },
            "metrics": {
                "pu_epoch_speedup": speedup,
                "resident_fraction": resident_fraction,
                "epochs_to_converge": stats["epochs"],
                "blocks_skipped": blocks_skipped,
                "row_fetches": stats["row_fetches"],
            },
        },
    )
    assert capped_identical, (
        "shrunk fit must stay byte-identical to unshrunk at scale"
    )
    assert resident_fraction < RESIDENT_BOUND, (
        f"resident working set must stay under {RESIDENT_BOUND:.0%} of |H| "
        f"at convergence: held {resident_fraction:.1%}"
    )
    if EXACT_ONLY:
        return
    assert speedup >= SPEEDUP_BOUND, (
        f"PU fit must be at least {SPEEDUP_BOUND}x faster per epoch than "
        f"the unshrunk path: measured {speedup:.2f}x"
    )


def test_pu_checkpoint_resume_on_store():
    """Interrupted PU-mode active loop on a store-backed session resumes
    byte-identically."""
    from repro.active.oracle import LabelOracle
    from repro.core.activeiter import ActiveIter
    from repro.engine import AlignmentSession, StreamedAlignmentTask
    from repro.eval.protocol import ProtocolConfig, build_splits
    from repro.exceptions import CheckpointInterrupt
    from repro.meta.diagrams import standard_diagram_family
    from repro.ml.backends import make_backend

    pair = foursquare_twitter_like(PARITY_SCALE, seed=7)
    config = ProtocolConfig(
        np_ratio=20, sample_ratio=1.0, n_repeats=1, seed=13
    )
    split = next(iter(build_splits(pair, config)))
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }

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
            block_size=2048,
        )
        model = ActiveIter(
            LabelOracle(positives, budget=20),
            batch_size=2,
            session=session,
            refresh_features=True,
            checkpoint=checkpoint,
            backend=make_backend("svm-pu", unlabeled_C=0.1, seed=SEED),
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
        "engine_svm_resume",
        "\n".join(
            [
                (
                    "PU-mode checkpoint/resume on a store-backed session "
                    f"({PARITY_SCALE}, interrupted after 2 rounds, "
                    "budget=20)"
                ),
                (
                    f"total rounds: {resumed.result_.n_rounds}; labels "
                    f"bought: {len(resumed.queried_)}; byte-identical to "
                    f"uninterrupted: {identical}"
                ),
            ]
        ),
        record={
            "flags": {
                "budget_spent": len(reference.queried_) > 0,
                "resume_byte_identical": bool(identical),
            },
            "metrics": {},
        },
    )
    assert len(reference.queried_) > 0, "workload must actually spend budget"
    assert identical, (
        "resumed PU-mode fit must reproduce the uninterrupted run"
    )
