"""Delta evaluation of count expressions under base-matrix updates.

The paper's incremental argument is *linearity*: matrix product and
Hadamard product both distribute over addition, so for any count
expression that references the anchor matrix ``A`` once,

    count(A + ΔA) = count(A) + count(ΔA).

This module generalizes that seam from the anchor-only special case to
a **delta algebra over arbitrary leaves**.  Any set of base matrices may
change at once — new posts grow ``W1``/``W2``, edge churn patches
``F1``/``F2``, query rounds grow ``A`` — and the exact change of every
count expression is obtained by telescoping the update through the
expression tree:

    (a + Δa)(b + Δb) - ab  =  Δa·(b + Δb) + a·Δb,

applied per Chain segment and (with Hadamard products) per Parallel
branch.  Every term contains at least one Δ factor, so each term's cost
is proportional to the delta's reach, not the matrix sizes; static
sub-expressions are fetched from the session's memoizing
:class:`CountingEngine`, so the expensive attribute products are never
recomputed.  Repeated occurrences of a changed leaf (both sides of a
chain, nested stackings) need no special casing — the telescoping is
exact for polynomial dependence, not just linear.

Because network growth also changes matrix *shapes* (new users append
rows/columns), cached old values are padded on the fly:
:func:`pad_csr` grows a CSR matrix to a larger shape without touching
its entries — node order is append-only, so old indices stay valid.

All base matrices are 0/1 and path counts are integers well below
2**53, so every delta is *bit-exact*: the incremental and from-scratch
paths produce byte-identical count and feature matrices.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import MetaStructureError
from repro.meta.algebra import (
    Chain,
    CountingEngine,
    Expr,
    Leaf,
    Parallel,
    expr_shape,
    pad_csr,
)
from repro.meta.proximity import csr_values_at

__all__ = [
    "DeltaEvaluator",
    "apply_delta",
    "csr_rows",
    "entries_to_csr",
    "leaf_occurrences",
    "pad_csr",
    "supports_delta",
]


def entries_to_csr(
    rows, cols, values, shape: Tuple[int, int]
) -> sparse.csr_matrix:
    """Canonical CSR delta from event-sourced entry lists.

    The session's event fold accumulates one ``(row, col, ±1)`` entry per
    applied mutation; duplicate coordinates **sum** (an edge removed and
    re-added in one event telescopes to zero) and exact cancellations
    are pruned, so the result is the minimal sparse change of the leaf
    matrix — ready for :class:`DeltaEvaluator` without any re-export or
    matrix diff.
    """
    delta = sparse.csr_matrix(
        (
            np.asarray(values, dtype=np.float64),
            (
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
            ),
        ),
        shape=shape,
    )
    delta.sum_duplicates()
    delta.eliminate_zeros()
    delta.sort_indices()
    return delta


def csr_rows(matrix: sparse.csr_matrix) -> np.ndarray:
    """The row of every stored entry, in storage order (COO's ``row``)."""
    return np.repeat(
        np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr)
    )


def leaf_occurrences(expr: Expr, name: str) -> int:
    """How many times matrix ``name`` appears as a leaf of ``expr``."""
    return sum(1 for leaf in expr.leaves() if leaf == name)


def supports_delta(expr: Expr, name: str = "A") -> bool:
    """Whether the delta algebra can update ``expr`` under a ``name`` delta.

    The generalized evaluator telescopes the update through the
    expression tree, so *any* expression built from the standard node
    types — including those repeating the matrix (both sides of a chain,
    nested stackings) — is covered exactly.  Only expression trees
    containing unknown node types must fall back to full re-evaluation.
    """
    del name  # any occurrence pattern is supported; only the tree matters
    if isinstance(expr, Leaf):
        return True
    if isinstance(expr, Chain):
        return all(supports_delta(segment) for segment in expr.segments)
    if isinstance(expr, Parallel):
        return all(supports_delta(branch) for branch in expr.branches)
    return False


#: What :class:`DeltaEvaluator` accepts as its delta argument: a single
#: sparse change (paired with a ``name``) or a name -> change mapping.
DeltaSpec = Union[sparse.spmatrix, Mapping[str, sparse.spmatrix]]


class DeltaEvaluator:
    """Evaluate the exact change of a count matrix under leaf deltas.

    Parameters
    ----------
    engine:
        The session's counting engine, still holding the *old* base
        matrices; supplies (cached) old values of every sub-expression.
        Callers must delta-evaluate **before** pushing the new matrices
        into the engine.
    deltas:
        Either a ``{name: change}`` mapping — sparse changes of several
        base matrices at once, each given at the matrix's *new* shape —
        or (legacy anchor form) a single matrix name with the change
        passed as ``delta=``.
    delta:
        The sparse change when ``deltas`` is a single name (``+1``
        entries for additions, ``-1`` for removals).
    shapes:
        Optional ``{name: (rows, cols)}`` of *new* leaf shapes.  Needed
        when a network evolution grew matrices that have no content
        delta (pure padding, e.g. ``A`` after new users); defaults to
        the delta shapes plus the engine's current shapes.

    Notes
    -----
    The recursion telescopes the update through the tree: a Chain's
    change is the sum over its delta-carrying segments of
    ``old(prefix) @ Δ(segment) @ new(suffix)``; a Parallel's change is
    the analogous Hadamard telescoping, evaluated by targeted lookups
    at exactly the delta entries (the product's support is contained in
    the delta branch's support).  Each instance memoizes per
    sub-expression, so shared anchored sub-chains are evaluated once
    per update.
    """

    def __init__(
        self,
        engine: CountingEngine,
        deltas: DeltaSpec,
        delta: Optional[sparse.spmatrix] = None,
        shapes: Optional[Mapping[str, Tuple[int, int]]] = None,
    ) -> None:
        self._engine = engine
        if isinstance(deltas, str):
            if delta is None:
                raise MetaStructureError(
                    f"a delta matrix is required with name {deltas!r}"
                )
            deltas = {deltas: delta}
        elif delta is not None:
            raise MetaStructureError(
                "pass either a name/delta pair or a deltas mapping, not both"
            )
        self._deltas: Dict[str, sparse.csr_matrix] = {
            name: change.tocsr() for name, change in deltas.items()
        }
        if not self._deltas:
            raise MetaStructureError("at least one leaf delta is required")
        self._names = frozenset(self._deltas)
        self._shapes: Dict[str, Tuple[int, int]] = {
            name: engine.matrix(name).shape for name in engine.matrix_names
        }
        for name, change in self._deltas.items():
            self._shapes[name] = change.shape
        if shapes is not None:
            self._shapes.update(
                {name: tuple(shape) for name, shape in shapes.items()}
            )
        self._delta_memo: Dict[str, Optional[sparse.csr_matrix]] = {}
        self._entries_memo: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._expr_memo: Dict[str, Expr] = {}
        self._value_memo: Dict[str, sparse.csr_matrix] = {}
        self._new_memo: Dict[str, Tuple[Expr, sparse.csr_matrix]] = {}

    @property
    def names(self) -> frozenset:
        """The base-matrix names this evaluator carries deltas for."""
        return self._names

    def evaluate(self, expr: Expr) -> sparse.csr_matrix:
        """The change of ``expr``'s count matrix caused by the deltas.

        An expression touching none of the delta'd leaves changes by
        exactly nothing; its change is the empty matrix at the
        expression's (new) shape.
        """
        if not supports_delta(expr):
            raise MetaStructureError(
                f"unknown expression type in {expr.key()}; "
                "delta evaluation covers Leaf/Chain/Parallel trees only"
            )
        change = self._delta(expr)
        if change is None:
            return sparse.csr_matrix(self._shape(expr))
        return change

    # ------------------------------------------------------------------
    def _shape(self, expr: Expr) -> Tuple[int, int]:
        """The expression's shape under the new leaf shapes."""
        return expr_shape(expr, self._shapes)

    def _old(self, expr: Expr) -> sparse.csr_matrix:
        """Old value from the engine, padded to the new shape."""
        key = expr.key()
        value = self._value_memo.get(key)
        if value is None:
            value = pad_csr(self._engine.evaluate(expr), self._shape(expr))
            self._value_memo[key] = value
        return value

    def _new(self, expr: Expr) -> sparse.csr_matrix:
        """New value: padded old value plus the expression's change."""
        change = self._delta(expr)
        if change is None:
            return self._old(expr)
        key = expr.key()
        memoized = self._new_memo.get(key)
        if memoized is None:
            memoized = (expr, (self._old(expr) + change).tocsr())
            self._new_memo[key] = memoized
        return memoized[1]

    def updated_changes(self):
        """``(expr, change)`` for every delta-carrying sub-expression.

        Changes are exact (integer telescoping), so the caller can
        :meth:`~repro.meta.algebra.CountingEngine.seed_change` the
        engine with them — the expensive products a naive invalidation
        would recompute on the next update (or the next extraction)
        stay warm, and the O(nnz) folds are deferred until a full
        matrix is actually demanded.  Leaves are excluded (the engine
        serves them from the bag).
        """
        changes = []
        for key, change in self._delta_memo.items():
            if change is None:
                continue
            expr = self._expr_memo[key]
            if not isinstance(expr, Leaf):
                changes.append((expr, change))
        return changes

    def _delta(self, expr: Expr) -> Optional[sparse.csr_matrix]:
        """The expression's change, or ``None`` for provably zero."""
        if not expr.depends_on(self._names):
            return None
        key = expr.key()
        if key in self._delta_memo:
            return self._delta_memo[key]
        if isinstance(expr, Leaf):
            change = self._deltas[expr.name]
            result = change.transpose().tocsr() if expr.transpose else change
        elif isinstance(expr, Chain):
            result = self._delta_chain(expr)
        elif isinstance(expr, Parallel):
            result = self._delta_parallel(expr)
        else:  # pragma: no cover - guarded by supports_delta
            raise MetaStructureError(
                f"unknown expression type {type(expr).__name__}"
            )
        self._delta_memo[key] = result
        self._expr_memo[key] = expr
        return result

    def _delta_chain(self, expr: Chain) -> Optional[sparse.csr_matrix]:
        """Telescoped product delta: one term per delta-carrying segment.

        Term ``i`` is ``old(s_0..s_{i-1}) @ Δ(s_i) @ new(s_{i+1}..s_k)``;
        folding outward from the (sparse) delta factor keeps every
        multiply proportional to the delta's reach.
        """
        segments = expr.segments
        terms = []
        for i, segment in enumerate(segments):
            change = self._delta(segment)
            if change is None:
                continue
            term = change
            for later in segments[i + 1:]:
                term = (term @ self._new(later)).tocsr()
            for earlier in reversed(segments[:i]):
                term = (self._old(earlier) @ term).tocsr()
            terms.append(term)
        return self._sum_terms(terms)

    def _delta_parallel(self, expr: Parallel) -> Optional[sparse.csr_matrix]:
        """Telescoped Hadamard delta via targeted value lookups.

        Each term's support is contained in its delta branch's support,
        so instead of scipy's O(nnz(static)) elementwise multiplies the
        sibling branches' values are read at exactly the delta entries —
        an m-entry branch delta reads only the sibling entries in the
        rows those m entries touch.  Branches left of the
        delta branch contribute old values, branches right of it new
        values, which telescopes exactly to ``new(∘) - old(∘)``.

        A term keeps its branch change's sparsity pattern, so it is a
        CSR on *copies* of that change's index arrays: :meth:`_sum_terms`
        prunes in place, and the change stays memoized and seeded.
        """
        branches = expr.branches
        shape = self._shape(expr)
        changes = [self._delta(branch) for branch in branches]
        terms = []
        for i, (branch, change) in enumerate(zip(branches, changes)):
            if change is None or change.nnz == 0:
                continue
            entries = self._entries_memo.get(branch.key())
            if entries is None:
                entries = (csr_rows(change), change.indices.astype(np.int64))
                self._entries_memo[branch.key()] = entries
            rows, cols = entries
            data = change.data.astype(np.float64, copy=True)
            for j, other in enumerate(branches):
                if j == i:
                    continue
                values = self._lookup_old(other, rows, cols)
                if j > i and changes[j] is not None:
                    values += csr_values_at(changes[j], rows, cols)
                data *= values
            terms.append(
                sparse.csr_matrix(
                    (data, change.indices.copy(), change.indptr.copy()),
                    shape=shape,
                )
            )
        return self._sum_terms(terms)

    def _lookup_old(
        self, expr: Expr, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Old values of ``expr`` at positions, without forcing a fold.

        A sub-expression the engine holds in seeded ``(base, pending)``
        form is read component-wise — padding and folding are both
        avoided; positions outside a smaller (pre-growth) component are
        zeros by construction.  One it does not hold (the branch of a
        face-split stack, whose product the engine never builds) is
        computed at the rows the positions touch only, and neither
        materialized nor cached.
        """
        component_view = self._engine.components(expr)
        if component_view is None:
            touched, at = np.unique(rows, return_inverse=True)
            return csr_values_at(self._old_rows(expr, touched), at, cols)
        base, pending = component_view
        values = self._masked_values_at(base, rows, cols)
        if pending is not None:
            values += self._masked_values_at(pending, rows, cols)
        return values

    def _old_rows(self, expr: Expr, rows: np.ndarray) -> sparse.csr_matrix:
        """``old(expr)[rows]``; a chain is multiplied outward from them."""
        if not isinstance(expr, Chain):
            return self._old(expr)[rows]
        value = self._old_rows(expr.segments[0], rows)
        for segment in expr.segments[1:]:
            value = (value @ self._old(segment)).tocsr()
        return value

    @staticmethod
    def _masked_values_at(
        matrix: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Entry lookup tolerating positions beyond the matrix's shape."""
        inside = (rows < matrix.shape[0]) & (cols < matrix.shape[1])
        if inside.all():
            return csr_values_at(matrix, rows, cols)
        values = np.zeros(rows.size, dtype=np.float64)
        values[inside] = csr_values_at(matrix, rows[inside], cols[inside])
        return values

    @staticmethod
    def _sum_terms(terms) -> Optional[sparse.csr_matrix]:
        if not terms:
            return None
        result = terms[0]
        for term in terms[1:]:
            result = (result + term).tocsr()
        result.eliminate_zeros()
        result.sort_indices()
        return result


def apply_delta(
    base: Optional[sparse.csr_matrix], change: sparse.csr_matrix
) -> sparse.csr_matrix:
    """Add a delta count matrix onto the cached base counts.

    Cancelled entries (an anchor removed then re-added elsewhere) are
    pruned so the stored matrix stays canonical.
    """
    if base is None:
        updated = change.tocsr().copy()
    else:
        updated = (base + change).tocsr()
    updated.eliminate_zeros()
    return updated
