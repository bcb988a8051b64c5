"""Sparse count algebra for meta paths and meta diagrams.

A meta structure's instance-count matrix is expressible as a small
expression tree over the network's typed adjacency matrices:

* :class:`Leaf` — one typed adjacency (optionally transposed);
* :class:`Chain` — concatenation of segments: sparse matrix product
  (counts paths through a shared junction node type);
* :class:`Parallel` — stacking of segments between the *same* pair of
  junction node types: Hadamard (elementwise) product, because a diagram
  instance must realize every stacked branch through the same junction
  nodes.

This algebra realizes Definition 5's meta diagrams for counting purposes:
``count(P1 x P2) = (F1 ∘ F1ᵀ) · A · (F2ᵀ ∘ F2)`` and so on, and is
validated against brute-force subgraph enumeration in the test suite.

Expressions have canonical structural keys so a memoizing evaluator can
share subresults between diagrams — the covering-set reuse optimization
of Section III-B.3 (a diagram containing an already-computed diagram
reuses its product).
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from scipy import sparse

from repro.exceptions import MetaStructureError

#: A bag of named typed adjacency matrices, e.g. ``{"F1": csr, "A": csr}``.
MatrixBag = Dict[str, sparse.csr_matrix]


class Expr:
    """Base class of count-algebra expressions.

    Nodes are never mutated after construction, so each one stores its
    canonical key and its leaf names once, when it is built
    (:meth:`_identify`).
    """

    def _identify(self, key: str, leaves: Tuple[str, ...]) -> None:
        self._key = key
        self._leaves = leaves
        self._leaf_set = frozenset(leaves)

    def key(self) -> str:
        """Canonical structural key; equal keys imply equal matrices."""
        return self._key

    def evaluate(self, matrices: MatrixBag) -> sparse.csr_matrix:
        """Evaluate without memoization (see :class:`CountingEngine`)."""
        raise NotImplementedError

    def leaves(self) -> Tuple[str, ...]:
        """All leaf matrix names referenced by this expression."""
        return self._leaves

    def depends_on(self, names: Union[str, Iterable[str]]) -> bool:
        """Whether any of the named matrices appears as a leaf.

        This is the dirty-propagation primitive of the delta algebra: a
        delta on matrix ``name`` can only change the value of
        expressions for which ``depends_on(name)`` holds — everything
        else keeps its cached counts verbatim.
        """
        if isinstance(names, str):
            names = (names,)
        return not self._leaf_set.isdisjoint(names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.key()})"


class Leaf(Expr):
    """Reference to one named typed adjacency matrix.

    Parameters
    ----------
    name:
        Key into the matrix bag (e.g. ``"F1"``).
    transpose:
        Whether to use the transposed matrix.
    """

    def __init__(self, name: str, transpose: bool = False) -> None:
        if not name:
            raise MetaStructureError("leaf matrix name must be non-empty")
        self.name = name
        self.transpose = transpose
        self._identify(f"{name}^T" if transpose else name, (name,))

    def evaluate(self, matrices: MatrixBag) -> sparse.csr_matrix:
        try:
            matrix = matrices[self.name]
        except KeyError:
            raise MetaStructureError(
                f"matrix {self.name!r} missing from the matrix bag"
            ) from None
        if self.transpose:
            return matrix.transpose().tocsr()
        return matrix.tocsr()

    @property
    def T(self) -> "Leaf":
        """The transposed leaf."""
        return Leaf(self.name, transpose=not self.transpose)


class Chain(Expr):
    """Matrix product of two or more segments (path concatenation)."""

    def __init__(self, segments: Sequence[Expr]) -> None:
        flattened = []
        for segment in segments:
            if isinstance(segment, Chain):
                flattened.extend(segment.segments)
            else:
                flattened.append(segment)
        if len(flattened) < 2:
            raise MetaStructureError("Chain needs at least two segments")
        self.segments: Tuple[Expr, ...] = tuple(flattened)
        self._identify(
            "(" + "@".join(segment.key() for segment in self.segments) + ")",
            sum((segment.leaves() for segment in self.segments), ()),
        )

    def evaluate(self, matrices: MatrixBag) -> sparse.csr_matrix:
        result = self.segments[0].evaluate(matrices)
        for segment in self.segments[1:]:
            operand = segment.evaluate(matrices)
            if result.shape[1] != operand.shape[0]:
                raise MetaStructureError(
                    f"chain shape mismatch: {result.shape} @ {operand.shape} "
                    f"in {self.key()}"
                )
            result = (result @ operand).tocsr()
        return result


class Parallel(Expr):
    """Hadamard product of two or more branches (path stacking).

    Branch order is canonicalized (Hadamard is commutative) so logically
    identical stackings share a memoization key.
    """

    def __init__(self, branches: Sequence[Expr]) -> None:
        flattened = []
        for branch in branches:
            if isinstance(branch, Parallel):
                flattened.extend(branch.branches)
            else:
                flattened.append(branch)
        if len(flattened) < 2:
            raise MetaStructureError("Parallel needs at least two branches")
        self.branches: Tuple[Expr, ...] = tuple(
            sorted(flattened, key=lambda branch: branch.key())
        )
        self._identify(
            "(" + "*".join(branch.key() for branch in self.branches) + ")",
            sum((branch.leaves() for branch in self.branches), ()),
        )

    def evaluate(self, matrices: MatrixBag) -> sparse.csr_matrix:
        result = self.branches[0].evaluate(matrices)
        for branch in self.branches[1:]:
            operand = branch.evaluate(matrices)
            if result.shape != operand.shape:
                raise MetaStructureError(
                    f"parallel shape mismatch: {result.shape} vs {operand.shape} "
                    f"in {self.key()}"
                )
            result = result.multiply(operand).tocsr()
        return result


def pad_csr(
    matrix: sparse.spmatrix, shape: Tuple[int, int]
) -> sparse.csr_matrix:
    """Grow a CSR matrix to ``shape``, keeping every entry in place.

    Node additions append to the end of each type's order, so growing a
    matrix exported before the addition is pure padding: new rows are
    empty (extend ``indptr``), new columns are a shape change.  Never
    copies the data arrays.
    """
    matrix = matrix.tocsr()
    rows, cols = matrix.shape
    if (rows, cols) == tuple(shape):
        return matrix
    if shape[0] < rows or shape[1] < cols:
        raise MetaStructureError(
            f"cannot pad a {matrix.shape} matrix down to {tuple(shape)}"
        )
    indptr = matrix.indptr
    if shape[0] > rows:
        indptr = np.concatenate(
            [
                indptr,
                np.full(shape[0] - rows, indptr[-1], dtype=indptr.dtype),
            ]
        )
    padded = sparse.csr_matrix(
        (matrix.data, matrix.indices, indptr), shape=tuple(shape), copy=False
    )
    padded.has_sorted_indices = matrix.has_sorted_indices
    return padded


def add_padded(
    left: sparse.csr_matrix, right: sparse.csr_matrix
) -> sparse.csr_matrix:
    """Sum of two CSR matrices, each padded to the larger shape."""
    shape = (
        max(left.shape[0], right.shape[0]),
        max(left.shape[1], right.shape[1]),
    )
    return (pad_csr(left, shape) + pad_csr(right, shape)).tocsr()


def expr_shape(
    expr: Expr, shapes: Mapping[str, Tuple[int, int]]
) -> Tuple[int, int]:
    """Infer the shape of ``expr``'s value from leaf matrix shapes.

    Used by the delta algebra to pad cached values when a network
    evolution grows the underlying matrices: the *new* leaf shapes
    determine every sub-expression's new shape without evaluating
    anything.
    """
    if isinstance(expr, Leaf):
        try:
            rows, cols = shapes[expr.name]
        except KeyError:
            raise MetaStructureError(
                f"no shape known for leaf matrix {expr.name!r}"
            ) from None
        return (cols, rows) if expr.transpose else (rows, cols)
    if isinstance(expr, Chain):
        first = expr_shape(expr.segments[0], shapes)
        last = expr_shape(expr.segments[-1], shapes)
        return (first[0], last[1])
    if isinstance(expr, Parallel):
        return expr_shape(expr.branches[0], shapes)
    raise MetaStructureError(f"unknown expression type {type(expr).__name__}")


def dirty_expressions(
    named_exprs: Mapping[str, Expr], changed: Iterable[str]
) -> Tuple[str, ...]:
    """Names of the expressions a delta on the given leaves touches.

    The dirty-propagation report of the delta algebra: given the family's
    ``{feature name -> count expression}`` map and the set of base
    matrices a network update changed, returns (in input order) exactly
    the expressions whose counts can differ — the rest are provably
    unchanged and keep their caches.
    """
    changed = set(changed)
    return tuple(
        name
        for name, expr in named_exprs.items()
        if expr.depends_on(changed)
    )


def _chain_product(
    operands: Sequence[sparse.csr_matrix], key: str
) -> sparse.csr_matrix:
    """A chain's product, multiplied in its cheapest estimated order.

    The matrix-chain DP: multiplying ``X`` by ``Y`` is estimated at
    ``nnz(X)·nnz(Y)/inner`` flops (entries spread evenly), and a
    product's entry count at that estimate capped by its dense size.
    Ties keep the left-to-right order.  ``P5 = W1 T1 T2ᵀ W2ᵀ`` becomes
    ``(W1 T1)(T2ᵀ W2ᵀ)``, which never builds the users × posts
    intermediate.  Counts are integers, so every order gives the same
    entries.
    """
    for left, right in zip(operands, operands[1:]):
        if left.shape[1] != right.shape[0]:
            raise MetaStructureError(
                f"chain shape mismatch: {left.shape} @ {right.shape} in {key}"
            )
    nnz = {(i, i): float(operand.nnz) for i, operand in enumerate(operands)}
    cost = {(i, i): 0.0 for i in range(len(operands))}
    split: Dict[Tuple[int, int], int] = {}
    for length in range(2, len(operands) + 1):
        for i in range(len(operands) - length + 1):
            j = i + length - 1
            best = None
            for k in range(j - 1, i - 1, -1):
                flops = (
                    nnz[i, k] * nnz[k + 1, j] / max(operands[k].shape[1], 1)
                )
                total = cost[i, k] + cost[k + 1, j] + flops
                if best is None or total < best[0]:
                    best = (total, k, flops)
            cost[i, j], split[i, j], flops = best
            nnz[i, j] = min(
                flops, float(operands[i].shape[0] * operands[j].shape[1])
            )

    def product(i: int, j: int) -> sparse.csr_matrix:
        if i == j:
            return operands[i]
        k = split[i, j]
        return (product(i, k) @ product(k + 1, j)).tocsr()

    return product(0, len(operands) - 1)


def _row_kron(
    a: sparse.csr_matrix, b: sparse.csr_matrix
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries of the row-wise Kronecker product ``a • b``.

    Returns each entry's row, its column key ``col_a * b.shape[1] +
    col_b`` (int64) and its value, row by row.
    """
    a_counts = np.diff(a.indptr).astype(np.int64)
    b_counts = np.diff(b.indptr).astype(np.int64)
    per_row = a_counts * b_counts
    rows = np.repeat(np.arange(a.shape[0], dtype=np.int64), per_row)
    within = np.arange(rows.size, dtype=np.int64) - np.repeat(
        np.cumsum(per_row) - per_row, per_row
    )
    width = np.repeat(b_counts, per_row)
    a_at = np.repeat(a.indptr[:-1].astype(np.int64), per_row) + within // width
    b_at = np.repeat(b.indptr[:-1].astype(np.int64), per_row) + within % width
    keys = a.indices[a_at].astype(np.int64) * b.shape[1] + b.indices[b_at]
    return rows, keys, a.data[a_at] * b.data[b_at]


def _face_split_pair(
    left: sparse.csr_matrix,
    right: sparse.csr_matrix,
    x: sparse.csr_matrix,
    y: sparse.csr_matrix,
) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Fold the product ``x @ y.T`` into a stack ``left @ right.T``.

    Returns ``(left • x, right • y)`` with their column pairs renumbered
    over the pairs both sides hold: a pair on one side only adds
    nothing, and the inner index stays below either side's entry count.
    """
    left_rows, left_keys, left_data = _row_kron(left, x)
    right_rows, right_keys, right_data = _row_kron(right, y)
    keys = np.concatenate([left_keys, right_keys])
    # One sort groups equal column pairs across both sides.
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    group = np.empty(keys.size, dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    split = left_keys.size
    on_left = np.zeros(int(starts.sum()), dtype=bool)
    on_left[group[:split]] = True
    shared = np.zeros_like(on_left)
    shared[group[split:]] = True
    shared &= on_left
    code = np.cumsum(shared) - 1
    inner = int(shared.sum())

    def factor(rows, groups, data, n_rows):
        held = shared[groups]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[held], minlength=n_rows), out=indptr[1:])
        return sparse.csr_matrix(
            (data[held], code[groups[held]], indptr), shape=(n_rows, inner)
        )

    return (
        factor(left_rows, group[:split], left_data, left.shape[0]),
        factor(right_rows, group[split:], right_data, right.shape[0]),
    )


class CountingEngine:
    """Memoizing evaluator for count-algebra expressions.

    Evaluating the full diagram family naively recomputes shared
    sub-chains (every attribute diagram contains ``W1 @ ... @ W2ᵀ``
    pieces; every follow diagram contains products with ``A``).  The
    engine caches every sub-expression by canonical key, which implements
    the covering-set reuse described at the end of Section III-B.3.

    Each node is computed in its cheapest exact form.  A chain is
    multiplied in the order with the fewest estimated flops, and a stack
    whose branches are all two-segment products goes through the
    face-splitting identity, so neither the chain's intermediates nor
    the stack's branch products are built or stored.  Counts are
    integers, so every result is byte-identical to left-to-right
    evaluation (:meth:`Expr.evaluate`).

    Parameters
    ----------
    matrices:
        The named typed adjacency matrices of one aligned pair.
    arena:
        Optional :class:`~repro.store.arena.MatrixArena`.  When given,
        every memoized product (chains and Hadamards; leaves are served
        from the bag) is spilled to the arena and the cache holds only
        its memory-mapped view — the engine's resident set becomes the
        pages actually read instead of every intermediate ever
        computed.  Results are byte-identical either way.
    arena_prefix:
        Namespace for the engine's arena entries, so one arena can be
        shared with a session's own count-matrix slots.
    """

    def __init__(
        self, matrices: MatrixBag, arena=None, arena_prefix: str = "engine/"
    ) -> None:
        self._matrices = dict(matrices)
        # Canonicalize up front: every published matrix has sorted
        # indices, so later (possibly concurrent) batched lookups never
        # trigger a lazy in-place sort of a shared matrix.
        for matrix in self._matrices.values():
            matrix.sort_indices()
        self._cache: Dict[str, sparse.csr_matrix] = {}
        self._deps: Dict[str, FrozenSet[str]] = {}
        # key -> the exact unfolded change of the cached value (the sum
        # of every change the delta algebra seeded since the last fold);
        # folded lazily when the full matrix is demanded, served
        # component-wise for targeted lookups.  The lock keeps (cache
        # value, pending change) consistent for concurrent readers:
        # unlike the write-once product cache (where duplicate
        # evaluation is benign), a torn read across a fold would
        # silently drop seeded changes.
        self._pending: Dict[str, sparse.csr_matrix] = {}
        self._pending_lock = threading.Lock()
        self._arena = arena
        self._arena_prefix = arena_prefix

    def _spill(self, key: str, result: sparse.csr_matrix) -> sparse.csr_matrix:
        """Swap an in-RAM product for its arena-served memory map."""
        if self._arena is None:
            return result
        slot = self._arena_prefix + key
        self._arena.put(slot, result)
        return self._arena.get(slot)

    @property
    def cache_size(self) -> int:
        """Number of memoized sub-expression results."""
        return len(self._cache)

    @property
    def stored_entries(self) -> int:
        """Stored entries across the memoized results, leaves included."""
        return sum(matrix.nnz for matrix in list(self._cache.values()))

    def matrix(self, name: str) -> sparse.csr_matrix:
        """The named base matrix currently held by the engine.

        Callers must treat the result as read-only — it is the very
        matrix cached evaluations were computed from.
        """
        try:
            return self._matrices[name]
        except KeyError:
            raise MetaStructureError(
                f"matrix {name!r} missing from the matrix bag"
            ) from None

    @property
    def matrix_names(self) -> Tuple[str, ...]:
        """Sorted names of the base matrices in the bag."""
        return tuple(sorted(self._matrices))

    def dependents(self, name: str) -> Tuple[str, ...]:
        """Cached expression keys whose value depends on matrix ``name``.

        Dependency is tracked from each expression's leaf set at cache
        time, so partial invalidation never has to re-parse keys.
        """
        return tuple(
            key for key, leaves in self._deps.items() if name in leaves
        )

    def evaluate(self, expr: Expr) -> sparse.csr_matrix:
        """Evaluate ``expr`` with memoization of all sub-expressions."""
        key = expr.key()
        # Pending membership is checked BEFORE the cache read: the fold
        # path publishes the folded value to the cache and only then
        # removes the pending entry, so a lock-free reader that sees no
        # pending is guaranteed to see either the folded value or a
        # pre-seed base — never a base missing its seeded changes.
        if key in self._pending:
            with self._pending_lock:
                pending = self._pending.get(key)
                if pending is not None:
                    cached = self._fold(key, self._cache[key], pending)
                    del self._pending[key]
                else:
                    cached = self._cache.get(key)
            if cached is not None:
                return cached
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, Leaf):
            result = expr.evaluate(self._matrices)
        elif isinstance(expr, Chain):
            result = _chain_product(
                [self.evaluate(segment) for segment in expr.segments], key
            )
        elif isinstance(expr, Parallel) and all(
            isinstance(branch, Chain) and len(branch.segments) == 2
            for branch in expr.branches
        ):
            result = self._face_split(expr)
        elif isinstance(expr, Parallel):
            result = self.evaluate(expr.branches[0])
            for branch in expr.branches[1:]:
                operand = self.evaluate(branch)
                if result.shape != operand.shape:
                    raise MetaStructureError(
                        f"parallel shape mismatch: {result.shape} vs "
                        f"{operand.shape} in {key}"
                    )
                result = result.multiply(operand).tocsr()
        else:
            raise MetaStructureError(f"unknown expression type {type(expr).__name__}")
        # Sort before publishing (still thread-private): concurrent
        # evaluations of the same key may duplicate work, but every
        # matrix that lands in the cache is already canonical, so
        # readers never mutate it.  Counts are integers, so the sort
        # cannot perturb any downstream floating-point result.
        result.sort_indices()
        if not isinstance(expr, Leaf):
            # Leaves are the bag's own matrices; spilling them would
            # only duplicate what the caller already holds.
            result = self._spill(key, result)
        self._cache[key] = result
        self._deps[key] = frozenset(expr.leaves())
        return result

    def _face_split(self, expr: Parallel) -> sparse.csr_matrix:
        """A stack of two-segment products, its branch products unbuilt.

        With branch ``i`` the product ``X_i @ Y_i``, the face-splitting
        identity ``(X1 Y1) ∘ (X2 Y2) = (X1 • X2)(Y1ᵀ • Y2ᵀ)ᵀ``, ``•`` the
        row-wise Kronecker product, counts the stack through one product
        whose inner index runs over the value pairs both sides hold; more
        branches fold in pairwise.  A post has one timestamp and one
        location, so ``T1 • L1`` has at most one entry per row and the
        stack costs about its own entry count, where the branch products
        it replaces hold millions.  The factors are memoized like any
        operand; the branch products are never built.
        """
        left = right = None
        for branch in expr.branches:
            first, second = branch.segments
            x = self.evaluate(first)
            # Y_iᵀ: a leaf's transpose is its bag matrix, not a copy.
            y = (
                self.evaluate(second.T)
                if isinstance(second, Leaf)
                else self.evaluate(second).transpose().tocsr()
            )
            if x.shape[1] != y.shape[1]:
                raise MetaStructureError(
                    f"chain shape mismatch: {x.shape} @ {y.shape[::-1]} "
                    f"in {branch.key()}"
                )
            if left is None:
                left, right = x, y
                continue
            if (x.shape[0], y.shape[0]) != (left.shape[0], right.shape[0]):
                raise MetaStructureError(
                    f"parallel shape mismatch: {(left.shape[0], right.shape[0])} "
                    f"vs {(x.shape[0], y.shape[0])} in {expr.key()}"
                )
            left, right = _face_split_pair(left, right, x, y)
        return (left @ right.T).tocsr()

    def _fold(
        self, key: str, base: sparse.csr_matrix, pending: sparse.csr_matrix
    ) -> sparse.csr_matrix:
        """Materialize a seeded value: padded base plus the exact change.

        The change may sit at a larger shape than the base when growth
        events seeded before the fold; both pad to the larger.
        """
        result = add_padded(base, pending)
        result.eliminate_zeros()
        result.sort_indices()
        result = self._spill(key, result)
        self._cache[key] = result
        return result

    def seed_change(
        self, expr: Expr, change: sparse.csr_matrix
    ) -> bool:
        """Register the exact change of a cached sub-expression value.

        The delta algebra hands back the change of every sub-expression
        it telescoped through
        (:meth:`~repro.engine.incremental.DeltaEvaluator.updated_changes`)
        — exact by integer arithmetic — so after a matrix update the
        cache stays warm instead of re-running the expensive products.
        The O(nnz) fold is **deferred**: each key keeps one pending
        change, the sum of everything seeded since the last fold, which
        :meth:`components` serves to targeted lookups and
        :meth:`evaluate` folds only when the full matrix is demanded.
        The sum sits at the largest shape seeded so far and is kept
        even when it cancels to zero, because that shape carries the
        growth the fold must pad the base to.  Returns whether a cached
        value existed to seed — an uncached expression has nothing to
        keep warm.
        """
        key = expr.key()
        change = change.tocsr()
        with self._pending_lock:
            if key not in self._cache:
                self._pending.pop(key, None)
                return False
            pending = self._pending.get(key)
            self._pending[key] = (
                change if pending is None else add_padded(pending, change)
            )
            self._deps[key] = frozenset(expr.leaves())
        return True

    def components(
        self, expr: Expr
    ) -> Optional[Tuple[sparse.csr_matrix, Optional[sparse.csr_matrix]]]:
        """Cached value of ``expr`` as ``(base, pending change)``.

        The pending change is ``None`` when nothing was seeded since
        the last fold.  The base may be at a smaller (pre-growth) shape
        than the change; callers doing targeted lookups mask positions
        outside each component's shape instead of paying the fold.
        ``None`` when nothing is cached.
        """
        key = expr.key()
        with self._pending_lock:
            base = self._cache.get(key)
            if base is None:
                return None
            return base, self._pending.get(key)

    def invalidate(self) -> None:
        """Drop all memoized results (call after the anchor matrix changes)."""
        if self._arena is not None:
            for key in self._cache:
                self._arena.drop(self._arena_prefix + key)
        self._cache.clear()
        self._deps.clear()
        self._pending.clear()

    def update_matrix(self, name: str, matrix: sparse.csr_matrix) -> None:
        """Replace one named matrix and drop every result depending on it.

        Used by models that refresh the anchor matrix ``A`` after label
        queries: attribute-only diagrams (which never touch ``A``) keep
        their cached counts.
        """
        self.update_matrices({name: matrix})

    def update_matrices(
        self,
        updates: Mapping[str, sparse.csr_matrix],
        preserve: Iterable[str] = (),
    ) -> None:
        """Replace several named matrices in one invalidation pass.

        The generalized-delta entry point: a network evolution changes
        ``W1``/``W2``/adjacency (and pads ``A``) together, and every
        cached product depending on *any* of them must go — one sweep
        over the cache instead of one per matrix.  ``preserve`` names
        cache keys the caller has just brought current through
        :meth:`seed_change` (their seeded state equals the value over
        the new matrices, so purging them would only force a recount).
        Results cached before dependency tracking existed (none in
        normal operation) fall back to key parsing.
        """
        if not updates:
            return
        for name, matrix in updates.items():
            matrix.sort_indices()
            self._matrices[name] = matrix
        names = set(updates)
        preserved = set(preserve)
        stale = [
            key
            for key in self._cache
            if key not in preserved
            and (
                bool(names & self._deps[key])
                if key in self._deps
                else any(_key_mentions(key, name) for name in names)
            )
        ]
        for key in stale:
            del self._cache[key]
            self._deps.pop(key, None)
            self._pending.pop(key, None)
            if self._arena is not None:
                self._arena.drop(self._arena_prefix + key)


def _key_mentions(key: str, name: str) -> bool:
    """Whether a canonical expression key references matrix ``name``.

    Keys are built from matrix names joined by ``( ) @ * ^`` tokens, so a
    name occurrence is always delimited by one of those or string ends.
    """
    start = 0
    while True:
        index = key.find(name, start)
        if index < 0:
            return False
        before_ok = index == 0 or key[index - 1] in "(@*"
        end = index + len(name)
        after_ok = end == len(key) or key[end] in ")@*^"
        if before_ok and after_ok:
            return True
        start = index + 1
