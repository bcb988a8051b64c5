"""Tests for repro.ml.backends — the model-backend seam."""

import numpy as np
import pytest

from repro.exceptions import ModelError, NotFittedError
from repro.ml.backends import (
    BACKEND_NAMES,
    DenseBlockSource,
    LinearModelState,
    RidgeBackend,
    StreamedLinearSVC,
    SVMBackend,
    apply_model_state,
    as_block_source,
    gather_rows,
    make_backend,
)
from repro.ml.kernels import NystroemMap, RandomFourierMap
from repro.ml.ridge import ridge_fit
from repro.ml.scaling import StandardScaler
from repro.ml.svm import LinearSVC
from repro.obs.metrics import global_registry


def _training_data(seed=0, n=61, d=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (X @ w + 0.1 * rng.normal(size=n) > 0).astype(np.int64)
    return X, y


def _chop(X, sizes):
    blocks, start = [], 0
    for size in sizes:
        blocks.append(X[start: start + size])
        start += size
    assert start == X.shape[0]
    return blocks


class TestStreamedLinearSVC:
    @pytest.mark.parametrize(
        "sizes", [[61], [20, 20, 21], [7] * 8 + [5], [1] * 61]
    )
    def test_bit_identical_to_dense_for_any_partition(self, sizes):
        """``fit`` on the dense matrix and ``fit_blocks`` on any chopping
        of it agree bit for bit — with and without the intercept, and
        on a single-class label set (the constant predictor)."""
        X, y = _training_data()
        single = np.ones_like(y)
        for labels, params in [
            (y, dict(C=0.8, seed=5)),
            (y, dict(fit_intercept=False, seed=1)),
            (single, {}),
        ]:
            dense = LinearSVC(**params).fit(X, labels)
            streamed = StreamedLinearSVC(**params).fit_blocks(
                _chop(X, sizes), labels
            )
            assert np.array_equal(dense.coef_, streamed.coef_)
            assert dense.intercept_ == streamed.intercept_
            assert dense.n_iter_ == streamed.n_iter_
            if not params.get("fit_intercept", True):
                assert streamed.intercept_ == 0.0
            if labels is single:
                assert streamed.n_iter_ == 0

    def test_decision_and_predict(self):
        X, y = _training_data(seed=4)
        model = StreamedLinearSVC(seed=0).fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(model.predict(X), (scores > 0).astype(np.int64))

    def test_zero_weight_sample_has_no_influence(self):
        X, y = _training_data(seed=5)
        weights = np.ones(X.shape[0])
        weights[7] = 0.0
        with_weights = StreamedLinearSVC(seed=0).fit_blocks(
            [X], y, sample_weight=weights
        )
        # The zero-box sample is skipped entirely, so flipping its label
        # cannot change the solution.
        flipped = y.copy()
        flipped[7] = 1 - flipped[7]
        refit = StreamedLinearSVC(seed=0).fit_blocks(
            [X], flipped, sample_weight=weights
        )
        assert np.array_equal(with_weights.coef_, refit.coef_)

    def test_validation(self):
        X, y = _training_data()
        with pytest.raises(ModelError):
            StreamedLinearSVC(C=0.0)
        with pytest.raises(ModelError):
            StreamedLinearSVC(max_iter=0)
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_blocks([], np.array([]))
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_blocks([X], y[:-1])
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_blocks([X], y + 5)
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_blocks([X, X[:, :3]], np.concatenate([y, y]))
        with pytest.raises(ModelError):
            StreamedLinearSVC().fit_blocks([X], y, sample_weight=-np.ones_like(y, dtype=float))
        with pytest.raises(NotFittedError):
            StreamedLinearSVC().decision_function(X)


class TestBlockSources:
    def test_dense_source_single_block(self):
        X, _ = _training_data()
        source = DenseBlockSource(X)
        assert source.n_candidates == X.shape[0]
        assert source.n_features == X.shape[1]
        blocks = list(source.feature_blocks())
        assert len(blocks) == 1
        offset, block = blocks[0]
        assert offset == 0
        assert np.array_equal(block, X)

    def test_dense_source_tracks_live_holder(self):
        class Holder:
            def __init__(self, X):
                self.X = X

        X, _ = _training_data()
        holder = Holder(X.copy())
        source = DenseBlockSource(holder)
        holder.X = holder.X * 2.0
        _, block = next(iter(source.feature_blocks()))
        assert np.array_equal(block, X * 2.0)

    def test_as_block_source_passthrough(self):
        X, _ = _training_data()
        source = DenseBlockSource(X)
        assert as_block_source(source) is source
        assert isinstance(as_block_source(X), DenseBlockSource)

    def test_gather_rows_matches_fancy_indexing(self):
        X, _ = _training_data()

        class MultiBlockSource:
            n_candidates = X.shape[0]
            n_features = X.shape[1]

            def feature_blocks(self):
                offset = 0
                for block in _chop(X, [10, 25, 26]):
                    yield offset, block
                    offset += block.shape[0]

        indices = np.array([3, 60, 0, 11, 34, 11])  # unsorted, duplicated
        gathered = gather_rows(MultiBlockSource(), indices)
        assert np.array_equal(gathered, X[indices])
        empty = gather_rows(MultiBlockSource(), np.array([], dtype=np.int64))
        assert empty.shape == (0, X.shape[1])
        with pytest.raises(ModelError):
            gather_rows(MultiBlockSource(), np.array([61]))


class TestApplyModelState:
    def test_linear_only(self):
        X, _ = _training_data()
        coef = np.arange(X.shape[1], dtype=np.float64)
        state = LinearModelState(coef=coef, intercept=0.25)
        assert np.array_equal(apply_model_state(state, X), X @ coef + 0.25)

    def test_with_scaler_and_map(self):
        X, _ = _training_data()
        mapper = RandomFourierMap(n_components=9, seed=1).fit(X)
        Z = mapper.transform(X)
        scaler = StandardScaler().fit(Z)
        coef = np.linspace(-1, 1, 9)
        state = LinearModelState(
            coef=coef,
            intercept=-0.5,
            map_state=mapper.state_dict(),
            scaler_mean=scaler.mean_,
            scaler_scale=scaler.scale_,
        )
        expected = scaler.transform(Z) @ coef - 0.5
        assert np.array_equal(apply_model_state(state, X), expected)


class TestRidgeBackend:
    def test_matches_closed_form_ridge(self):
        X, y = _training_data()
        backend = RidgeBackend(c=2.0)
        backend.begin(DenseBlockSource(X))
        w = backend.fit(y.astype(np.float64))
        assert np.allclose(w, ridge_fit(X, y, c=2.0), atol=1e-12)
        scores = backend.scores(w)
        assert np.allclose(scores, X @ w, atol=1e-12)

    def test_rejects_train_indices(self):
        X, y = _training_data()
        backend = RidgeBackend()
        with pytest.raises(ModelError):
            backend.begin(DenseBlockSource(X), train_indices=np.array([0]))

    def test_requires_begin(self):
        backend = RidgeBackend()
        with pytest.raises(NotFittedError):
            backend.fit(np.zeros(3))
        with pytest.raises(NotFittedError):
            backend.scores(np.zeros(3))

    def test_mapped_fit_runs_and_roundtrips_state(self):
        X, y = _training_data()
        backend = RidgeBackend(
            c=1.0, feature_map=NystroemMap(n_landmarks=16, seed=2)
        )
        backend.begin(DenseBlockSource(X))
        w = backend.fit(y.astype(np.float64))
        scores = backend.scores(w)
        state = backend.state_dict()
        assert state["kind"] == "ridge"
        assert state["map"]["kind"] == "nystroem"
        clone = RidgeBackend(c=1.0)
        clone.load_state_dict(state)
        clone.begin(DenseBlockSource(X))
        assert np.array_equal(clone.scores(clone.fit(y.astype(float))), scores)


class TestSVMBackend:
    def test_supervised_matches_dense_pipeline(self):
        X, y = _training_data()
        train = np.arange(0, X.shape[0], 2)
        backend = SVMBackend(C=1.0, seed=3)
        backend.begin(DenseBlockSource(X), train_indices=train)
        full_y = np.zeros(X.shape[0], dtype=np.int64)
        full_y[train] = y[train]
        w = backend.fit(full_y)
        scores = backend.scores(w)

        scaler = StandardScaler().fit(X[train])
        svc = LinearSVC(C=1.0, seed=3).fit(
            scaler.transform(X[train]), y[train]
        )
        assert np.array_equal(backend.svc_.coef_, svc.coef_)
        assert backend.svc_.intercept_ == svc.intercept_
        assert np.array_equal(
            scores, svc.decision_function(scaler.transform(X))
        )

    def test_all_rows_training_without_indices(self):
        X, y = _training_data()
        backend = SVMBackend(scale_features=False, seed=0)
        backend.begin(DenseBlockSource(X))
        w = backend.fit(y)
        dense = LinearSVC(seed=0).fit(X, y)
        assert np.array_equal(w[:-1], dense.coef_)

    def test_state_roundtrip_with_map(self):
        X, y = _training_data()
        backend = SVMBackend(
            seed=1, feature_map=NystroemMap(n_landmarks=8, seed=1)
        )
        backend.begin(DenseBlockSource(X), train_indices=np.arange(30))
        w = backend.fit(y)
        state = backend.state_dict()
        clone = SVMBackend(seed=1)
        clone.load_state_dict(state)
        assert np.array_equal(clone.svc_.coef_, backend.svc_.coef_)
        assert np.array_equal(
            clone.feature_map.landmarks_, backend.feature_map.landmarks_
        )
        # The restored backend scores identically without refitting.
        clone.begin(DenseBlockSource(X), train_indices=np.arange(30))
        assert np.array_equal(clone.scores(w), backend.scores(w))

    def test_kind_mismatch_rejected(self):
        backend = SVMBackend()
        with pytest.raises(ModelError):
            backend.load_state_dict({"kind": "ridge"})

    @pytest.mark.parametrize("mode", ["supervised", "pu"])
    def test_fits_stopped_at_max_iter_are_counted(self, mode):
        X, y = _training_data()
        train = np.flatnonzero(y == 1)[:8] if mode == "pu" else np.arange(30)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        labels[train] = y[train] if mode == "supervised" else 1
        counter = global_registry().counter("svm.unconverged_fits")
        for max_iter, stops_short in ((1, True), (1000, False)):
            backend = SVMBackend(seed=2, max_iter=max_iter, mode=mode)
            backend.begin(DenseBlockSource(X), train_indices=train)
            before = counter.value
            backend.fit(labels)
            assert backend.svc_.converged_ is not stops_short
            assert counter.value - before == int(stops_short)


class TestPUSVMBackend:
    def test_trains_on_every_candidate_row(self):
        """PU mode fits positives at C against *all* streamed rows at
        unlabeled_C — the dual box is the only thing indices change."""
        X, y = _training_data()
        train = np.flatnonzero(y == 1)[:8]
        backend = SVMBackend(
            mode="pu", unlabeled_C=0.05, scale_features=False, seed=2
        )
        backend.begin(DenseBlockSource(X), train_indices=train)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        labels[train] = 1
        w = backend.fit(labels)

        box = np.full(X.shape[0], 0.05)
        box[train] = 1.0
        reference = StreamedLinearSVC(seed=2).fit_source(
            DenseBlockSource(X), labels, sample_C=box
        )
        assert np.array_equal(w[:-1], reference.coef_)
        assert w[-1] == reference.intercept_

    def test_streamed_matches_single_block(self):
        X, y = _training_data(n=120)
        train = np.flatnonzero(y == 1)[:10]
        labels = np.zeros(X.shape[0], dtype=np.int64)
        labels[train] = 1

        def fit(source):
            backend = SVMBackend(
                mode="pu", unlabeled_C=0.1, scale_features=False, seed=4
            )
            backend.begin(source, train_indices=train)
            return backend.fit(labels)

        class _Chopped:
            def __init__(self, X, size):
                self.X, self.size = X, size

            @property
            def n_candidates(self):
                return self.X.shape[0]

            def feature_blocks(self):
                for start in range(0, self.X.shape[0], self.size):
                    yield start, self.X[start : start + self.size]

        assert np.array_equal(
            fit(DenseBlockSource(X)), fit(_Chopped(X, 17))
        )

    def test_state_roundtrip_carries_mode_and_shrink_stats(self):
        X, y = _training_data()
        train = np.flatnonzero(y == 1)[:8]
        labels = np.zeros(X.shape[0], dtype=np.int64)
        labels[train] = 1
        backend = SVMBackend(mode="pu", unlabeled_C=0.05, seed=2)
        backend.begin(DenseBlockSource(X), train_indices=train)
        w = backend.fit(labels)
        state = backend.state_dict()
        assert state["mode"] == "pu"
        assert state["unlabeled_C"] == 0.05
        assert state["svc"]["shrink_stats"] == backend.svc_.shrink_stats_

        clone = SVMBackend(mode="pu", unlabeled_C=0.05, seed=2)
        clone.load_state_dict(state)
        clone.begin(DenseBlockSource(X), train_indices=train)
        assert np.array_equal(clone.scores(w), backend.scores(w))
        assert clone.svc_.shrink_stats_ == backend.svc_.shrink_stats_

    def test_mode_mismatch_rejected(self):
        supervised = SVMBackend(mode="supervised")
        with pytest.raises(ModelError, match="'pu'-mode"):
            supervised.load_state_dict(
                {"kind": "svm", "mode": "pu", "map": None}
            )

    def test_validation(self):
        with pytest.raises(ModelError):
            SVMBackend(mode="transductive")
        with pytest.raises(ModelError):
            SVMBackend(mode="pu", unlabeled_C=0.0)


class TestMakeBackend:
    def test_registry(self):
        assert set(BACKEND_NAMES) == {"ridge", "svm", "svm-pu"}
        assert isinstance(make_backend("ridge"), RidgeBackend)
        assert isinstance(make_backend("svm"), SVMBackend)
        pu = make_backend("svm-pu", unlabeled_C=0.25)
        assert isinstance(pu, SVMBackend)
        assert pu.mode == "pu"
        assert pu.trains_on == "pu"
        assert pu.unlabeled_C == 0.25

    def test_feature_map_by_name(self):
        backend = make_backend("svm", feature_map="nystroem", seed=9)
        assert isinstance(backend.feature_map, NystroemMap)
        assert backend.feature_map.seed == 9

    def test_unknown_names_rejected(self):
        with pytest.raises(ModelError):
            make_backend("boosted-trees")
        with pytest.raises(ModelError):
            make_backend("ridge", feature_map="sigmoid")
