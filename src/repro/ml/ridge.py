"""Closed-form ridge regression (internal iteration step 1-1).

The paper fixes labels ``y`` and solves

    min_w  (c/2) ||Xw - y||² + (1/2) ||w||²

whose optimum is ``w = c (I + c XᵀX)⁻¹ Xᵀ y``.  Because the alternating
optimization re-solves this with a new ``y`` every internal iteration but
the *same* ``X``, :class:`RidgeSolver` prefactorizes
``H = c (I + c XᵀX)⁻¹ Xᵀ`` once (via a Cholesky factorization, not an
explicit inverse) and each subsequent solve is a cheap matrix-vector
product — exactly the constant-matrix trick the paper describes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import linalg

from repro.exceptions import ModelError


class GramRidgeSolver:
    """Ridge solve from a precomputed Gram matrix ``XᵀΩX``.

    The streamed fit path never materializes ``X``; it accumulates the
    d x d Gram matrix block by block and hands it here.  The solver
    factorizes ``I + c · gram`` once and then maps any right-hand side
    ``XᵀΩy`` (also block-accumulated) to
    ``w = c (I + c XᵀΩX)⁻¹ XᵀΩy``.

    Parameters
    ----------
    gram:
        The (weighted) Gram matrix, shape ``(d, d)``.
    c:
        Loss weight (the paper's ``c``).
    """

    def __init__(self, gram: np.ndarray, c: float = 1.0) -> None:
        gram = np.asarray(gram, dtype=np.float64)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ModelError(f"gram matrix must be square, got {gram.shape}")
        if c <= 0:
            raise ModelError(f"loss weight c must be > 0, got {c}")
        self.c = float(c)
        self.n_features = gram.shape[0]
        system = np.eye(self.n_features) + self.c * gram
        try:
            self._cho = linalg.cho_factor(system, lower=True)
        except linalg.LinAlgError as error:  # pragma: no cover - defensive
            raise ModelError(f"ridge system is singular: {error}") from error

    def solve_rhs(self, xty: np.ndarray) -> np.ndarray:
        """Return ``w`` for a right-hand side ``XᵀΩy``."""
        xty = np.asarray(xty, dtype=np.float64).ravel()
        if xty.shape[0] != self.n_features:
            raise ModelError(
                f"right-hand side length {xty.shape[0]} does not match "
                f"{self.n_features} features"
            )
        return linalg.cho_solve(self._cho, self.c * xty)


class RidgeSolver:
    """Reusable ridge solver for a fixed design matrix.

    Parameters
    ----------
    X:
        Design matrix of shape ``(n_samples, n_features)``.
    c:
        Loss weight (the paper's ``c``; equivalently ``1/gamma`` for the
        L2 strength ``gamma`` used in the joint objective).
    sample_weight:
        Optional per-sample weights Ω; the solve becomes
        ``w = c (I + c XᵀΩX)⁻¹ XᵀΩ y``.  Used by the PU models to
        up-weight the scarce trusted positives.
    """

    def __init__(
        self,
        X: np.ndarray,
        c: float = 1.0,
        sample_weight: Optional[np.ndarray] = None,
    ) -> None:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError("X must be a 2-D array")
        if c <= 0:
            raise ModelError(f"loss weight c must be > 0, got {c}")
        self.X = X
        self.c = float(c)
        if sample_weight is None:
            self._weights = None
            gram = X.T @ X
        else:
            weights = np.asarray(sample_weight, dtype=np.float64).ravel()
            if weights.shape[0] != X.shape[0]:
                raise ModelError(
                    f"{weights.shape[0]} weights for {X.shape[0]} samples"
                )
            if np.any(weights < 0):
                raise ModelError("sample weights must be >= 0")
            self._weights = weights
            gram = (X.T * weights) @ X
        self._gram_solver = GramRidgeSolver(gram, c=self.c)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Return ``w = c (I + c XᵀΩX)⁻¹ XᵀΩ y`` for the given labels.

        The right-hand side is formed as ``Xᵀ (Ωy)``, the same
        arithmetic as :class:`~repro.ml.backends.RidgeBackend`, so a fit
        over a one-block source agrees with this solver bit for bit.
        """
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.shape[0] != self.X.shape[0]:
            raise ModelError(
                f"label vector length {y.shape[0]} does not match "
                f"{self.X.shape[0]} samples"
            )
        target = y if self._weights is None else y * self._weights
        return self._gram_solver.solve_rhs(self.X.T @ target)

    def predict(self, w: np.ndarray, X: np.ndarray = None) -> np.ndarray:
        """Raw scores ``ŷ = Xw`` (training X by default)."""
        design = self.X if X is None else np.asarray(X, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64).ravel()
        if design.shape[1] != w.shape[0]:
            raise ModelError(
                f"weight length {w.shape[0]} does not match "
                f"{design.shape[1]} features"
            )
        return design @ w


def ridge_fit(X: np.ndarray, y: np.ndarray, c: float = 1.0) -> np.ndarray:
    """One-shot ridge fit (see :class:`RidgeSolver` for the reusable form)."""
    return RidgeSolver(X, c=c).solve(y)
