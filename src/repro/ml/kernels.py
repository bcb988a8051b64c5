"""Explicit kernel feature maps (§III-C.1's ``g: R^d -> R^k``).

The paper notes anchor-link features "can be projected to different
feature spaces with various kernel functions" and then uses the linear
kernel for simplicity.  Because the model's closed-form ridge step
needs an *explicit* design matrix, we provide explicit maps rather than
kernel tricks:

* :class:`LinearMap` — identity (the paper's choice);
* :class:`PolynomialMap` — degree-2 expansion (pairwise products),
  capturing feature interactions such as "common neighbors AND common
  attributes" beyond the pre-stacked diagrams;
* :class:`RandomFourierMap` — Rahimi-Recht random Fourier features
  approximating the RBF kernel with a controllable output dimension;
* :class:`NystroemMap` — landmark (Nyström) features for any supported
  kernel: a seeded reservoir sample of rows becomes the landmark set,
  and ``z(x) = k(x, L) K_LL^{-1/2}`` reproduces the kernel exactly when
  the landmarks span the data (with ``n_landmarks >= n`` the implied
  kernel matrix is exact up to eigensolver rounding).

All maps are fitted on training rows only (where they need statistics)
and are deterministic given their seed.  :class:`NystroemMap` is the
one map whose fit consumes *data* rows rather than just the input
dimensionality, so it additionally offers :meth:`NystroemMap.fit_streamed`
— a single pass over feature blocks maintaining the reservoir — which
is what the streamed model backends use; ``fit`` is the single-block
special case, so a streamed fit over any block partition of ``X`` is
byte-identical to the dense fit.

Every map serializes to a plain-array :meth:`state_dict` and rebuilds
via :func:`feature_map_from_state`; that is how fitted maps enter
checkpoints.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Optional

import numpy as np
from scipy import linalg

from repro.exceptions import ModelError, NotFittedError


class LinearMap:
    """Identity feature map (the paper's linear kernel)."""

    def fit(self, X: np.ndarray) -> "LinearMap":
        """No-op fit; returns self."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError("X must be 2-D")
        self._n_features = X.shape[1]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Return ``X`` unchanged (validated)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError("X must be 2-D")
        return X

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit then transform."""
        return self.fit(X).transform(X)

    def state_dict(self) -> Dict:
        """Picklable fitted state (see :func:`feature_map_from_state`)."""
        return {"kind": "linear", "n_features": getattr(self, "_n_features", None)}

    @classmethod
    def from_state(cls, state: Dict) -> "LinearMap":
        """Rebuild a fitted map from :meth:`state_dict` output."""
        mapper = cls()
        mapper._n_features = state["n_features"]
        return mapper


class PolynomialMap:
    """Explicit degree-2 polynomial expansion.

    Output columns: the original features followed by all products
    ``x_i * x_j`` with ``i <= j``.  Dimensionality is
    ``d + d(d+1)/2``; with the paper's d = 32 this is 560 columns,
    still tiny next to |H|.
    """

    def __init__(self, include_original: bool = True) -> None:
        self.include_original = bool(include_original)
        self._n_features: Optional[int] = None

    def fit(self, X: np.ndarray) -> "PolynomialMap":
        """Record input dimensionality; returns self."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError("X must be 2-D")
        self._n_features = X.shape[1]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Expand to degree-2 interaction features."""
        if self._n_features is None:
            raise NotFittedError("PolynomialMap.fit has not been called")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ModelError(
                f"expected {self._n_features} features, got shape {X.shape}"
            )
        blocks: List[np.ndarray] = []
        if self.include_original:
            blocks.append(X)
        products = [
            X[:, i] * X[:, j]
            for i, j in combinations_with_replacement(range(X.shape[1]), 2)
        ]
        blocks.append(np.column_stack(products))
        return np.hstack(blocks)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit then transform."""
        return self.fit(X).transform(X)

    def state_dict(self) -> Dict:
        """Picklable fitted state (see :func:`feature_map_from_state`)."""
        return {
            "kind": "poly",
            "include_original": self.include_original,
            "n_features": self._n_features,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "PolynomialMap":
        """Rebuild a fitted map from :meth:`state_dict` output."""
        mapper = cls(include_original=state["include_original"])
        mapper._n_features = state["n_features"]
        return mapper


class RandomFourierMap:
    """Random Fourier features approximating the RBF kernel.

    ``z(x) = sqrt(2/k) * cos(W x + b)`` with ``W ~ N(0, 1/sigma**2)``
    and ``b ~ U[0, 2*pi)``; ``z(x)·z(y)`` approximates
    ``exp(-||x-y||² / (2 sigma²))`` (Rahimi & Recht, NIPS 2007).

    Parameters
    ----------
    n_components:
        Output dimension k.
    sigma:
        RBF bandwidth.
    seed:
        Seed for W and b (deterministic given the seed).
    """

    def __init__(
        self, n_components: int = 128, sigma: float = 1.0, seed: int = 0
    ) -> None:
        if n_components < 1:
            raise ModelError("n_components must be >= 1")
        if sigma <= 0:
            raise ModelError("sigma must be > 0")
        self.n_components = int(n_components)
        self.sigma = float(sigma)
        self.seed = int(seed)
        self._weights: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "RandomFourierMap":
        """Draw the random projection for the input dimensionality."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError("X must be 2-D")
        rng = np.random.default_rng(self.seed)
        self._weights = rng.normal(
            scale=1.0 / self.sigma, size=(X.shape[1], self.n_components)
        )
        self._offsets = rng.uniform(0.0, 2.0 * np.pi, size=self.n_components)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Project into the random Fourier feature space."""
        if self._weights is None or self._offsets is None:
            raise NotFittedError("RandomFourierMap.fit has not been called")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._weights.shape[0]:
            raise ModelError(
                f"expected {self._weights.shape[0]} features, got {X.shape}"
            )
        projection = X @ self._weights + self._offsets
        return np.sqrt(2.0 / self.n_components) * np.cos(projection)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit then transform."""
        return self.fit(X).transform(X)

    def approximate_kernel(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The kernel matrix implied by the map (for diagnostics)."""
        return self.transform(X) @ self.transform(Y).T

    def state_dict(self) -> Dict:
        """Picklable fitted state (see :func:`feature_map_from_state`)."""
        if self._weights is None or self._offsets is None:
            raise NotFittedError("RandomFourierMap.fit has not been called")
        return {
            "kind": "fourier",
            "n_components": self.n_components,
            "sigma": self.sigma,
            "seed": self.seed,
            "weights": np.array(self._weights),
            "offsets": np.array(self._offsets),
        }

    @classmethod
    def from_state(cls, state: Dict) -> "RandomFourierMap":
        """Rebuild a fitted map from :meth:`state_dict` output."""
        mapper = cls(
            n_components=state["n_components"],
            sigma=state["sigma"],
            seed=state["seed"],
        )
        mapper._weights = np.asarray(state["weights"], dtype=np.float64)
        mapper._offsets = np.asarray(state["offsets"], dtype=np.float64)
        return mapper


class NystroemMap:
    """Landmark (Nyström) features for an explicit kernel choice.

    Landmarks L are a uniform reservoir sample of the data rows;
    the map is ``z(x) = k(x, L) @ N`` where ``N`` is the inverse square
    root of the (pseudo-inverted) landmark kernel matrix ``k(L, L)``,
    so ``z(x)·z(y) = k(x, L) k(L, L)⁺ k(L, y)`` — the standard Nyström
    approximation, exact whenever the landmarks span the data (in
    particular, with every row as a landmark the implied kernel matrix
    equals the true one up to eigensolver rounding).

    Unlike the other maps, fitting consumes *data rows*:
    :meth:`fit_streamed` maintains the reservoir over a stream of
    feature blocks — the landmark sample never needs the materialized
    matrix — and :meth:`fit` is the single-block special case, so the
    streamed fit over any block partition of ``X`` is byte-identical to
    the dense fit (the reservoir walks rows in the same order either
    way).

    Parameters
    ----------
    n_landmarks:
        Reservoir size m (fewer rows than m simply use them all).
    kernel:
        ``"rbf"`` (default), ``"poly"`` or ``"linear"``.
    sigma:
        RBF bandwidth (as on :class:`RandomFourierMap`).
    degree, coef0:
        Polynomial kernel ``(x·y + coef0) ** degree`` parameters.
    seed:
        Reservoir-sampling seed (deterministic given seed and row order).
    rcond:
        Relative eigenvalue cutoff of the landmark-kernel pseudo-inverse:
        directions with ``lambda <= rcond * lambda_max`` are dropped.
        Near-null directions carry ``1/sqrt(lambda)`` amplification, so
        a *smaller* cutoff reproduces the kernel more faithfully but
        magnifies downstream rounding (e.g. the one-ulp differences
        between block partitions of a BLAS product); the default keeps
        streamed and dense fits within 1e-8 of each other after scaling
        and solving.
    """

    def __init__(
        self,
        n_landmarks: int = 64,
        kernel: str = "rbf",
        sigma: float = 1.0,
        degree: int = 2,
        coef0: float = 1.0,
        seed: int = 0,
        rcond: float = 1e-9,
    ) -> None:
        if n_landmarks < 1:
            raise ModelError("n_landmarks must be >= 1")
        if kernel not in ("rbf", "poly", "linear"):
            raise ModelError(
                f"unknown kernel {kernel!r}; choose from rbf, poly, linear"
            )
        if sigma <= 0:
            raise ModelError("sigma must be > 0")
        if degree < 1:
            raise ModelError("degree must be >= 1")
        if not 0.0 < rcond < 1.0:
            raise ModelError("rcond must be in (0, 1)")
        self.rcond = float(rcond)
        self.n_landmarks = int(n_landmarks)
        self.kernel = kernel
        self.sigma = float(sigma)
        self.degree = int(degree)
        self.coef0 = float(coef0)
        self.seed = int(seed)
        self.landmarks_: Optional[np.ndarray] = None
        self.normalization_: Optional[np.ndarray] = None

    def _kernel_matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``k(X, Y)`` for the configured kernel."""
        if self.kernel == "linear":
            return X @ Y.T
        if self.kernel == "poly":
            return (X @ Y.T + self.coef0) ** self.degree
        squared = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(Y * Y, axis=1)[None, :]
            - 2.0 * (X @ Y.T)
        )
        np.maximum(squared, 0.0, out=squared)
        return np.exp(-squared / (2.0 * self.sigma**2))

    def fit_streamed(self, blocks: Iterable[np.ndarray]) -> "NystroemMap":
        """Fit landmarks from a stream of feature blocks (one pass).

        Maintains a seeded uniform reservoir (Algorithm R) over the
        concatenated rows, then factorizes the landmark kernel matrix.
        The sample — and therefore the fitted map — depends only on the
        seed and the row order, not on the block partition.
        """
        rng = np.random.default_rng(self.seed)
        reservoir: List[np.ndarray] = []
        seen = 0
        for block in blocks:
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2:
                raise ModelError("feature blocks must be 2-D")
            for row in block:
                if len(reservoir) < self.n_landmarks:
                    reservoir.append(row.copy())
                else:
                    slot = int(rng.integers(0, seen + 1))
                    if slot < self.n_landmarks:
                        reservoir[slot] = row.copy()
                seen += 1
        if not reservoir:
            raise ModelError("cannot fit NystroemMap on zero rows")
        landmarks = np.vstack(reservoir)
        gram = self._kernel_matrix(landmarks, landmarks)
        values, vectors = linalg.eigh(gram)
        keep = values > max(float(values.max()), 0.0) * self.rcond
        if not keep.any():
            raise ModelError("landmark kernel matrix is numerically zero")
        self.landmarks_ = landmarks
        self.normalization_ = vectors[:, keep] / np.sqrt(values[keep])
        return self

    def fit(self, X: np.ndarray) -> "NystroemMap":
        """Fit on a dense matrix (equals a one-block streamed fit)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError("X must be 2-D")
        return self.fit_streamed([X])

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Project rows into the landmark feature space."""
        if self.landmarks_ is None or self.normalization_ is None:
            raise NotFittedError("NystroemMap.fit has not been called")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.landmarks_.shape[1]:
            raise ModelError(
                f"expected {self.landmarks_.shape[1]} features, got {X.shape}"
            )
        return self._kernel_matrix(X, self.landmarks_) @ self.normalization_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit then transform."""
        return self.fit(X).transform(X)

    def approximate_kernel(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The kernel matrix implied by the map (for diagnostics)."""
        return self.transform(X) @ self.transform(Y).T

    def state_dict(self) -> Dict:
        """Picklable fitted state (see :func:`feature_map_from_state`)."""
        if self.landmarks_ is None or self.normalization_ is None:
            raise NotFittedError("NystroemMap.fit has not been called")
        return {
            "kind": "nystroem",
            "n_landmarks": self.n_landmarks,
            "kernel": self.kernel,
            "sigma": self.sigma,
            "degree": self.degree,
            "coef0": self.coef0,
            "seed": self.seed,
            "rcond": self.rcond,
            "landmarks": np.array(self.landmarks_),
            "normalization": np.array(self.normalization_),
        }

    @classmethod
    def from_state(cls, state: Dict) -> "NystroemMap":
        """Rebuild a fitted map from :meth:`state_dict` output."""
        mapper = cls(
            n_landmarks=state["n_landmarks"],
            kernel=state["kernel"],
            sigma=state["sigma"],
            degree=state["degree"],
            coef0=state["coef0"],
            seed=state["seed"],
            rcond=state.get("rcond", 1e-9),
        )
        mapper.landmarks_ = np.asarray(state["landmarks"], dtype=np.float64)
        mapper.normalization_ = np.asarray(
            state["normalization"], dtype=np.float64
        )
        return mapper


#: Feature maps addressable by name (CLI / MethodSpec knobs).
_FEATURE_MAPS = {
    "linear": LinearMap,
    "poly": PolynomialMap,
    "fourier": RandomFourierMap,
    "nystroem": NystroemMap,
}

#: Valid ``feature_map`` names, in registration order.
FEATURE_MAP_NAMES = tuple(_FEATURE_MAPS)


def make_feature_map(name: str, seed: int = 0, **kwargs):
    """Build an (unfitted) feature map from its registry name.

    ``seed`` reaches the maps that draw randomness (``fourier``,
    ``nystroem``); the deterministic maps ignore it.  Extra keyword
    arguments pass through to the map constructor.
    """
    try:
        factory = _FEATURE_MAPS[name]
    except KeyError:
        raise ModelError(
            f"unknown feature map {name!r}; choose from {FEATURE_MAP_NAMES}"
        ) from None
    if name in ("fourier", "nystroem"):
        kwargs.setdefault("seed", seed)
    return factory(**kwargs)


def feature_map_from_state(state: Dict):
    """Rebuild a fitted feature map from any map's :meth:`state_dict`.

    The inverse of ``state_dict`` across all map classes — this is how
    fitted maps travel through pickles (session checkpoints) as plain
    arrays rather than live objects.
    """
    kind = state.get("kind")
    try:
        factory = _FEATURE_MAPS[kind]
    except KeyError:
        raise ModelError(f"unknown feature map state kind {kind!r}") from None
    return factory.from_state(state)
