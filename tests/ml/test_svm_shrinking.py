"""Property tests for working-set shrinking and the streamed SVM fit.

The shrinking contract is exactness, not approximation: every skipped
visit carries a drift-bound certificate proving the unshrunk loop
would have been a no-op there, so the shrunk solver must reproduce the
unshrunk trajectory *bit for bit* — same seed, same row order, same
floats.  These tests enforce that across seeds, block partitions,
per-sample costs and every row store the one certified sweep reads
through (an in-memory block list, and re-readable sources with and
without ``block_spans``), on hand-picked and generated problems.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.ml.backends import DenseBlockSource, StreamedLinearSVC, SVMBackend
from repro.ml.svm import (
    LinearSVC,
    PegasosSVC,
    _BlockRows,
    _certified_sweep,
    _plain_sweep,
    _read_design,
    _source_spans,
    _SourceRows,
    dual_coordinate_descent,
)
from repro.obs.metrics import MetricsRegistry


def _problem(seed=0, n=120, d=5, separable=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    margin = X @ w_true
    y = (margin > np.median(margin)).astype(np.int64)
    if separable:
        X[y == 1] += 0.8 * w_true / np.linalg.norm(w_true)
    signed = np.where(y == 1, 1.0, -1.0)
    return X, y, signed


def _chop(X, sizes):
    assert sum(sizes) == len(X)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(X[start : start + size])
        start += size
    return blocks


class _MultiBlockSource:
    """A dense matrix chopped into blocks, with read accounting."""

    def __init__(self, X, sizes):
        self.X = np.asarray(X, dtype=np.float64)
        assert sum(sizes) == len(self.X)
        self._spans = []
        offset = 0
        for size in sizes:
            self._spans.append((offset, size))
            offset += size
        self.blocks_served = 0

    @property
    def n_candidates(self):
        return int(self.X.shape[0])

    def feature_blocks(self):
        for offset, size in self._spans:
            self.blocks_served += 1
            yield offset, self.X[offset : offset + size]

    def block_spans(self):
        return list(self._spans)

    def selected_feature_blocks(self, block_indices):
        for b in block_indices:
            offset, size = self._spans[int(b)]
            self.blocks_served += 1
            yield offset, self.X[offset : offset + size]


class _SweepOnlySource:
    """Exposes only ``feature_blocks``: exercises the fallback paths."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def n_candidates(self):
        return self._inner.n_candidates

    def feature_blocks(self):
        return self._inner.feature_blocks()


class TestShrunkSolverBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unshrunk_exactly(self, seed):
        X, _, signed = _problem(seed=seed)
        w_ref, it_ref = dual_coordinate_descent(
            [X], signed, C=1.0, max_iter=200, tol=1e-6, seed=seed,
            shrink=False,
        )
        stats = {}
        w, it = dual_coordinate_descent(
            [X], signed, C=1.0, max_iter=200, tol=1e-6, seed=seed,
            shrink=True, stats=stats,
        )
        assert np.array_equal(w, w_ref)
        assert it == it_ref
        # The speedup is real, not vacuous: visits were skipped and the
        # verify pass re-checked every certificate it relied on.
        assert stats["skipped_visits"] > 0
        assert stats["verify_checked"] == stats["screened_final"]

    @pytest.mark.parametrize(
        "sizes", [(120,), (7, 113), (40, 40, 40), (1,) * 120]
    )
    def test_partition_invariant(self, sizes):
        X, _, signed = _problem(seed=2)
        w_ref, it_ref = dual_coordinate_descent(
            [X], signed, C=1.0, max_iter=150, tol=1e-6, seed=2,
            shrink=True,
        )
        w, it = dual_coordinate_descent(
            _chop(X, sizes), signed, C=1.0, max_iter=150, tol=1e-6,
            seed=2, shrink=True,
        )
        assert np.array_equal(w, w_ref)
        assert it == it_ref

    @pytest.mark.parametrize("seed", range(3))
    def test_per_sample_costs_preserved(self, seed):
        """PU-style per-sample boxes shrink identically: the
        certificate bounds gradients, which don't see the box, so a
        tiny unlabeled cost next to a large positive cost is safe."""
        X, y, signed = _problem(seed=seed)
        rng = np.random.default_rng(seed + 50)
        box = np.where(y == 1, 5.0, 0.05) * rng.uniform(0.5, 1.5, len(y))
        w_ref, it_ref = dual_coordinate_descent(
            [X], signed, C=1.0, max_iter=200, tol=1e-6, seed=seed,
            sample_C=box, shrink=False,
        )
        w, it = dual_coordinate_descent(
            [X], signed, C=1.0, max_iter=200, tol=1e-6, seed=seed,
            sample_C=box, shrink=True,
        )
        assert np.array_equal(w, w_ref)
        assert it == it_ref

    @pytest.mark.parametrize("seed", range(4))
    def test_linear_svc_shrink_flag(self, seed):
        X, y, _ = _problem(seed=seed, separable=True)
        base = LinearSVC(seed=seed, shrink=False).fit(X, y)
        shrunk = LinearSVC(seed=seed, shrink=True).fit(X, y)
        assert np.array_equal(shrunk.coef_, base.coef_)
        assert shrunk.intercept_ == base.intercept_
        assert shrunk.shrink_stats_["skipped_visits"] > 0


class TestStreamedFitSource:
    @pytest.mark.parametrize(
        "sizes", [(120,), (13, 107), (30, 30, 30, 30), (1,) * 120]
    )
    def test_bit_identical_to_fit_blocks(self, sizes):
        X, y, _ = _problem(seed=3)
        dense = StreamedLinearSVC(seed=3).fit_blocks([X], y)
        source = _MultiBlockSource(X, sizes)
        streamed = StreamedLinearSVC(seed=3).fit_source(source, y)
        assert np.array_equal(streamed.coef_, dense.coef_)
        assert streamed.intercept_ == dense.intercept_

    def test_fallback_source_without_spans(self):
        X, y, _ = _problem(seed=4)
        dense = StreamedLinearSVC(seed=4).fit_blocks([X], y)
        source = _SweepOnlySource(_MultiBlockSource(X, (60, 60)))
        streamed = StreamedLinearSVC(seed=4).fit_source(source, y)
        assert np.array_equal(streamed.coef_, dense.coef_)
        assert streamed.intercept_ == dense.intercept_

    def test_sample_costs_match_single_block(self):
        X, y, _ = _problem(seed=5)
        box = np.where(y == 1, 4.0, 0.1)
        single = StreamedLinearSVC(seed=5).fit_source(
            DenseBlockSource(X), y, sample_C=box
        )
        multi = StreamedLinearSVC(seed=5).fit_source(
            _MultiBlockSource(X, (50, 70)), y, sample_C=box
        )
        assert np.array_equal(multi.coef_, single.coef_)
        assert multi.intercept_ == single.intercept_

    def test_unshrunk_streamed_matches_shrunk(self):
        X, y, _ = _problem(seed=6)
        source = _MultiBlockSource(X, (40, 80))
        plain = StreamedLinearSVC(seed=6, shrink=False).fit_source(
            _MultiBlockSource(X, (40, 80)), y
        )
        shrunk = StreamedLinearSVC(seed=6, shrink=True).fit_source(
            source, y
        )
        assert np.array_equal(shrunk.coef_, plain.coef_)
        assert shrunk.intercept_ == plain.intercept_

    def test_degenerate_single_class(self):
        X, _, _ = _problem(seed=7)
        y = np.ones(len(X), dtype=np.int64)
        model = StreamedLinearSVC(seed=7).fit_source(
            _MultiBlockSource(X, (60, 60)), y
        )
        assert np.array_equal(model.coef_, np.zeros(X.shape[1]))
        assert model.intercept_ == 1.0

    def test_telemetry_and_registry(self):
        X, y, _ = _problem(seed=8, n=240, separable=True)
        # Margin-sorted layout clusters the easy rows, so whole blocks
        # become screenable — the skip counter must see them.
        order = np.argsort(np.abs(X @ np.linalg.lstsq(X, y * 2.0 - 1.0, rcond=None)[0]))[::-1]
        X, y = X[order], y[order]
        registry = MetricsRegistry()
        source = _MultiBlockSource(X, (16,) * 15)
        model = StreamedLinearSVC(seed=8, tol=1e-5).fit_source(
            source, y, registry=registry
        )
        stats = model.shrink_stats_
        assert stats["resident_peak"] == len(X)
        assert stats["resident_final"] <= stats["resident_peak"]
        assert stats["blocks_total"] == 15
        assert stats["row_fetches"] >= 0
        assert registry.counter("svm.blocks_skipped").value == (
            stats["blocks_skipped"]
        )
        epoch_hist = registry.histogram("phase.svm_epoch").snapshot()
        assert epoch_hist["count"] == stats["epochs"]

    def test_validation(self):
        X, y, _ = _problem(seed=9)
        source = _MultiBlockSource(X, (60, 60))
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_source(source, y[:-1])
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_source(
                source, y, sample_C=-np.ones(len(y))
            )
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_source(
                source, y, sample_C=np.ones(len(y) - 1)
            )


@st.composite
def _sweep_problems(draw):
    """Sweep inputs with the edge cases the certificates must survive.

    Zero-cost boxes and all-zero rows (dead duals), single-class label
    sets, caps small enough to stop mid-descent, and one-block, random
    and one-row partitions.
    """
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    if draw(st.integers(0, 3)) == 0:
        signed = np.full(n, draw(st.sampled_from([1.0, -1.0])))
    else:
        signed = np.where(X @ w_true + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
        # Push the classes apart so most duals pin and get certified.
        X += draw(st.sampled_from([0.0, 1.0])) * np.outer(signed, w_true)
    X[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    if draw(st.booleans()):  # fit_intercept
        X = np.hstack([X, np.ones((n, 1))])
    if draw(st.booleans()):
        box = rng.uniform(0.05, 5.0, n)
        box[draw(st.lists(st.integers(0, n - 1), max_size=4))] = 0.0
    else:
        box = np.full(n, draw(st.sampled_from([0.1, 1.0, 10.0])))
    layout = draw(st.sampled_from(["one", "random", "rows"]))
    if layout == "one" or n == 1:
        sizes = (n,)
    elif layout == "rows":
        sizes = (1,) * n
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5)))
        sizes = tuple(np.diff([0, *cuts, n]).tolist())
    max_iter = draw(st.integers(1, 40))
    tol = draw(st.sampled_from([1e-1, 1e-3, 1e-6]))
    return X, signed, box, sizes, max_iter, tol, seed


def _source_store(source):
    """``fit_source``'s evicting row store over ``source`` (no map)."""
    spans = _source_spans(source)
    return _SourceRows(
        source, spans, np.asarray, _read_design(source, spans, np.asarray)
    )


def _row_stores(design, sizes):
    """Every row store over the same design rows, chopped by ``sizes``."""
    yield "block list", _BlockRows(_chop(design, sizes))
    yield "source with spans", _source_store(_MultiBlockSource(design, sizes))
    yield "feature_blocks only", _source_store(
        _SweepOnlySource(_MultiBlockSource(design, sizes))
    )


@settings(max_examples=120, deadline=None)
@given(problem=_sweep_problems())
def test_certified_sweep_matches_plain_loop(problem):
    """Differential oracle: the certified sweep over every row store
    reproduces the plain ``shrink=False`` loop bit for bit."""
    design, signed, box, sizes, max_iter, tol, seed = problem
    w_ref, it_ref, converged_ref, _ = _plain_sweep(
        _BlockRows([design]), signed, box, max_iter, tol, seed
    )
    for name, rows in _row_stores(design, sizes):
        w, it, converged, stats = _certified_sweep(
            rows, signed, box, max_iter, tol, seed
        )
        assert w.tobytes() == w_ref.tobytes(), name
        assert it == it_ref, name
        assert converged == converged_ref, name
        assert stats["verify_checked"] == stats["screened_final"], name


@st.composite
def _store_schedules(draw):
    """A chopped design and a schedule of (rebuild, refresh) row sets."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    design = rng.normal(size=(n, draw(st.integers(1, 4))))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=6)))
    sizes = tuple(np.diff(sorted({0, *cuts, n})).tolist())
    row_sets = st.sets(st.integers(0, n - 1)).map(
        lambda rows: np.array(sorted(rows), dtype=np.int64)
    )
    steps = draw(st.lists(st.tuples(row_sets, row_sets), min_size=1, max_size=4))
    return design, sizes, steps


@settings(max_examples=60, deadline=None)
@given(schedule=_store_schedules())
def test_source_store_serves_design_rows(schedule):
    """Whatever the source store has evicted, every read is the design
    row: a rebuild re-reads evicted rows it keeps, a certificate
    refresh fetches absent rows (which the sweep may then visit), and
    the verify pass reaches every row it asks for."""
    design, sizes, steps = schedule
    for source in (
        _MultiBlockSource(design, sizes),
        _SweepOnlySource(_MultiBlockSource(design, sizes)),
    ):
        rows = _source_store(source)
        for needed, cand in steps:
            rows.keep(needed)
            served = []
            for sel, block in rows.gather(cand):
                assert np.array_equal(block, design[sel])
                served.extend(sel.tolist())
            assert sorted(served) == cand.tolist()
            at_hand = sorted(set(needed.tolist()) | set(cand.tolist()))
            assert np.flatnonzero(rows.held()).tolist() == at_hand
            for i in at_hand:
                assert np.array_equal(rows.row(i), design[i])
        verified = []
        for offset, block in rows.verify_blocks(cand):
            sel = cand[(cand >= offset) & (cand < offset + block.shape[0])]
            assert np.array_equal(block[sel - offset], design[sel])
            verified.extend(sel.tolist())
        assert verified == cand.tolist()


class TestConvergenceFlag:
    """``converged_`` tells a fit that met ``tol`` from one that stopped
    at ``max_iter``; ``n_iter_ == max_iter`` alone cannot."""

    @pytest.mark.parametrize("shrink", [False, True])
    @pytest.mark.parametrize("streamed", [False, True])
    def test_capped_and_converged_fits(self, shrink, streamed):
        X, y, _ = _problem(seed=4)

        def fit(max_iter):
            svc = LinearSVC(seed=4, tol=1e-3, max_iter=max_iter, shrink=shrink)
            if streamed:
                return svc.fit_source(_MultiBlockSource(X, (40, 80)), y)
            return svc.fit(X, y)

        converged = fit(1000)
        assert converged.converged_
        assert 1 < converged.n_iter_ < 1000
        capped = fit(1)
        assert not capped.converged_ and capped.n_iter_ == 1
        # Converging on the last allowed epoch still counts as converged.
        last = fit(converged.n_iter_)
        assert last.converged_ and last.n_iter_ == last.max_iter
        assert np.array_equal(last.coef_, converged.coef_)

    def test_single_class_needs_no_epoch(self):
        X, _, _ = _problem(seed=4)
        model = LinearSVC().fit(X, np.zeros(len(X), dtype=np.int64))
        assert model.converged_ and model.n_iter_ == 0


class TestNonFiniteInputs:
    """NaN or inf input fails at the boundary, on every entry point."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sample_weight_must_be_finite(self, bad):
        X, y, _ = _problem(seed=13, n=40, d=3)
        weights = np.ones(len(y))
        weights[5] = bad
        for fit in (
            lambda: LinearSVC().fit(X, y, sample_weight=weights),
            lambda: StreamedLinearSVC().fit_blocks(
                [X], y, sample_weight=weights
            ),
            lambda: StreamedLinearSVC().fit_source(
                DenseBlockSource(X), y, sample_weight=weights
            ),
        ):
            with pytest.raises(ModelError, match="finite"):
                fit()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_features_must_be_finite(self, bad):
        X, y, _ = _problem(seed=14, n=40, d=3)
        X[7, 1] = bad
        X[21, 0] = bad
        for fit in (
            lambda: LinearSVC(shrink=True).fit(X, y),
            lambda: LinearSVC(shrink=False).fit(X, y),
            lambda: StreamedLinearSVC().fit_blocks(_chop(X, (15, 25)), y),
            lambda: StreamedLinearSVC().fit_source(
                _MultiBlockSource(X, (15, 25)), y
            ),
            lambda: StreamedLinearSVC(shrink=False).fit_source(
                DenseBlockSource(X), y
            ),
            lambda: PegasosSVC().fit(X, y),
        ):
            with pytest.raises(ModelError, match="2 of 40 design rows"):
                fit()
        for train in (np.arange(len(y)), None):
            backend = SVMBackend(scale_features=False)
            backend.begin(DenseBlockSource(X), train_indices=train)
            with pytest.raises(ModelError, match="2 of 40 design rows"):
                backend.fit(y)
        # Scaling spreads a non-finite column over every row.
        backend = SVMBackend()
        backend.begin(DenseBlockSource(X))
        with np.errstate(invalid="ignore"), pytest.raises(
            ModelError, match="40 of 40 design rows"
        ):
            backend.fit(y)


class TestPegasosSampleWeights:
    def test_uniform_weights_bit_identical(self):
        X, y, _ = _problem(seed=10)
        plain = PegasosSVC(lam=1e-3, n_epochs=40, seed=1).fit(X, y)
        weighted = PegasosSVC(lam=1e-3, n_epochs=40, seed=1).fit(
            X, y, sample_weight=np.ones(len(y))
        )
        assert np.array_equal(weighted.coef_, plain.coef_)
        assert weighted.intercept_ == plain.intercept_

    def test_nonuniform_weights_change_the_fit(self):
        X, y, _ = _problem(seed=11)
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.1, 3.0, len(y))
        plain = PegasosSVC(lam=1e-3, n_epochs=40, seed=1).fit(X, y)
        weighted = PegasosSVC(lam=1e-3, n_epochs=40, seed=1).fit(
            X, y, sample_weight=weights
        )
        assert not np.array_equal(weighted.coef_, plain.coef_)

    def test_validation(self):
        X, y, _ = _problem(seed=12)
        with pytest.raises(ModelError):
            PegasosSVC().fit(X, y, sample_weight=np.ones(len(y) - 1))
        with pytest.raises(ModelError):
            PegasosSVC().fit(X, y, sample_weight=-np.ones(len(y)))
