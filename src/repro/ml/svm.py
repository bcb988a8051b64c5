"""From-scratch linear support vector machines.

The paper's SVM-MP / SVM-MPMD baselines are classic supervised linear
SVMs.  Because this environment has no sklearn, we implement two
optimizers for the soft-margin linear SVM

    min_w  (1/2)||w||² + C Σ max(0, 1 - ỹ_i w·x_i),   ỹ ∈ {-1, +1}

* :class:`LinearSVC` — dual coordinate descent (the LIBLINEAR algorithm
  of Hsieh et al., ICML 2008); deterministic given a seed, converges to
  the dual optimum, the default everywhere.  It trains from a dense
  matrix (:meth:`~LinearSVC.fit`), a list of row blocks
  (:meth:`~LinearSVC.fit_blocks`) or a re-readable block source
  (:meth:`~LinearSVC.fit_source`); ``StreamedLinearSVC`` is another
  name for the same class.
* :class:`PegasosSVC` — primal stochastic subgradient (Shalev-Shwartz et
  al., 2007); kept as an independent implementation for cross-checks.

Both accept ``{0, 1}`` labels (the paper's label set) and remap them to
``{-1, +1}`` internally; ``predict`` returns ``{0, 1}``.

The dual coordinate descent reads the design matrix one row at a time
and never needs it contiguous.  Every floating-point operation is
per-row, so the weights depend only on the seed and the concatenated
row order — never on how the rows are chopped into blocks or where
they are held.

Shrinking (``shrink=True``, the default) adds a LIBLINEAR-style working
set on top without giving up that guarantee.  The classic heuristic
shrinks bound-pinned duals and accepts a slightly different iterate; we
instead *certify* every skipped visit as an exact no-op of the unshrunk
sweep: when a visit finds a dual pinned at a bound with the gradient
pointing outward by more than the adaptive tolerance window, the exact
computed gradient is cached together with a snapshot of the cumulative
weight drift ``Σ |Δalpha_i| · ||x_i||``.  Because a later visit's
gradient can move by at most ``||x_i||`` times the drift accumulated
since the snapshot (Cauchy–Schwarz), any visit whose cached slack still
exceeds that bound (plus a floating-point guard) would compute a
projected gradient of exactly ``0.0`` — no update, no contribution to
the convergence measure — so it can be skipped without touching the
row.  Epochs still shuffle the *full* index order (identical RNG
stream), skips are resolved in bulk with a vectorized mask, and a final
unshrink+verify pass re-reads every shrunk row to validate the
certificates, making the shrunk solver bit-identical to ``shrink=False``
for the same seed and row order while doing near-zero work per pinned
dual at convergence.

That certified sweep (:func:`_certified_sweep`) reads rows through a
*row store*, and the input type picks the store: a block list keeps
every row resident in its block (:class:`_BlockRows`), while a block
source keeps only the rows the sweep can still visit
(:class:`_SourceRows`) — certificate-covered rows are evicted at each
epoch start and re-read from their home block only when needed again,
so blocks whose every dual is screened are never read again.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError, NotFittedError


# ----------------------------------------------------------------------
# Block-source reads
# ----------------------------------------------------------------------
def _source_spans(source) -> List[Tuple[int, int]]:
    """``(offset, length)`` partition of a block source.

    Sources exposing :meth:`block_spans` (the streamed task, the dense
    adapter) answer without reading features; anything else pays one
    metadata-only pass over ``feature_blocks()``.
    """
    if hasattr(source, "block_spans"):
        return [(int(o), int(n)) for o, n in source.block_spans()]
    return [
        (int(offset), int(X.shape[0]))
        for offset, X in source.feature_blocks()
    ]


def _selected_blocks(source, block_indices, spans):
    """Selective block pass with a filtered-sweep fallback.

    Sources without :meth:`selected_feature_blocks` stream everything
    and drop unrequested blocks — correct, just without the read
    savings.  Requested blocks are yielded in stream order either way.
    """
    wanted = sorted(int(b) for b in block_indices)
    if not wanted:
        return
    if hasattr(source, "selected_feature_blocks"):
        yield from source.selected_feature_blocks(wanted)
        return
    offsets = {spans[b][0] for b in wanted}
    for offset, X in source.feature_blocks():
        if int(offset) in offsets:
            yield offset, X


# ----------------------------------------------------------------------
# Input checks shared by every fit
# ----------------------------------------------------------------------
def _checked_blocks(blocks):
    """Yield ``(offset, block)`` pairs as float64 2-D blocks of one width.

    Once the last block is through, raises if any row holds a NaN or
    inf: a non-finite feature would turn every weight to NaN while the
    sweep still reported convergence.
    """
    width = None
    n_rows = n_bad = 0
    for offset, block in blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2:
            raise ModelError("design blocks must be 2-D")
        if width is None:
            width = block.shape[1]
        elif block.shape[1] != width:
            raise ModelError(
                f"inconsistent block widths: {block.shape[1]} vs {width}"
            )
        n_rows += block.shape[0]
        n_bad += int(np.count_nonzero(~np.isfinite(block).all(axis=1)))
        yield offset, block
    if n_bad:
        raise ModelError(
            f"{n_bad} of {n_rows} design rows hold NaN or inf features"
        )


def _signed_labels(y, n_samples: int) -> np.ndarray:
    """``{0, 1}`` labels as ``{-1.0, +1.0}``."""
    y = np.asarray(y).ravel()
    if y.shape[0] != n_samples:
        raise ModelError(f"{y.shape[0]} labels for {n_samples} samples")
    unique = set(np.unique(y).tolist())
    if not unique <= {0, 1}:
        raise ModelError(f"labels must be in {{0, 1}}, got {sorted(unique)}")
    return np.where(y > 0, 1.0, -1.0)


def _checked_costs(values, n_samples: int, name: str) -> np.ndarray:
    """Per-sample weights or costs: one finite, non-negative value each."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.shape[0] != n_samples:
        raise ModelError(
            f"{name} has {values.shape[0]} entries for {n_samples} samples"
        )
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ModelError(f"{name} entries must be finite and >= 0")
    return values


def _with_bias(Z: np.ndarray, fit_intercept: bool) -> np.ndarray:
    """Append the constant bias column (the augmented-feature trick)."""
    if fit_intercept:
        return np.hstack([Z, np.ones((Z.shape[0], 1))])
    return Z


def _split_bias(w: np.ndarray, fit_intercept: bool) -> Tuple[np.ndarray, float]:
    """``(coef, intercept)`` from augmented weights."""
    if fit_intercept:
        return w[:-1].copy(), float(w[-1])
    return w.copy(), 0.0


# ----------------------------------------------------------------------
# Row stores
# ----------------------------------------------------------------------
def _row_lookup(blocks, offsets, single):
    """Row accessor shared by the shrunk and unshrunk sweeps."""

    def lookup(i: int) -> np.ndarray:
        if single is not None:
            return single[i]
        block_index = int(np.searchsorted(offsets, i, side="right") - 1)
        return blocks[block_index][i - offsets[block_index]]

    return lookup


class _BlockRows:
    """An in-memory block list: every row stays resident in its block."""

    #: Every row is always at hand, so nothing is ever evicted.
    evicts = False

    def __init__(self, blocks: Sequence[np.ndarray]) -> None:
        self.blocks = blocks
        self.offsets = np.concatenate(
            [[0], np.cumsum([block.shape[0] for block in blocks])]
        ).astype(np.int64)
        self.dim = blocks[0].shape[1]
        # Squared norms; the sweeps skip zero rows, so division is safe.
        self.q_diag = np.concatenate(
            [np.einsum("ij,ij->i", block, block) for block in blocks]
        )
        self.row = _row_lookup(
            blocks, self.offsets, blocks[0] if len(blocks) == 1 else None
        )

    def gather(self, cand: np.ndarray):
        """``(indices, rows)`` for the candidate rows, one part per block."""
        for b, block in enumerate(self.blocks):
            lo = int(self.offsets[b])
            hi = int(self.offsets[b + 1])
            sel = cand[(cand >= lo) & (cand < hi)]
            if sel.size:
                yield sel, block[sel - lo]

    def verify_blocks(self, screened: np.ndarray):
        """Every ``(offset, block)``: all rows are resident anyway."""
        return zip(self.offsets.tolist(), self.blocks)


class _SourceRows:
    """A re-readable block source: only the working set stays resident.

    Pass 0 (``design``) holds every prepared row, because the first
    epoch visits everything.  At each later epoch start the sweep keeps
    only the rows it may still visit (:meth:`keep`); a row needed again
    mid-epoch (an expired certificate) is re-read from its home block
    into an overlay until the next rebuild.  ``prep`` maps a raw block
    to design rows; ``counter`` (optional) counts the blocks each
    rebuild leaves unread.
    """

    #: Certificate-covered rows give up their memory at epoch starts.
    evicts = True

    def __init__(self, source, spans, prep, design, counter=None) -> None:
        self._source = source
        self._spans = spans
        self._span_offsets = np.array(
            [offset for offset, _ in spans], dtype=np.int64
        )
        self._prep = prep
        self._counter = counter
        self._resident = design
        self._pos = np.arange(design.shape[0])
        self._overlay: Dict[int, np.ndarray] = {}
        self.dim = design.shape[1]
        self.q_diag = np.einsum("ij,ij->i", design, design)
        self.blocks_read = len(spans)  # pass 0
        self.blocks_skipped = 0
        self.row_fetches = 0
        self.resident_peak = design.shape[0]

    def _homes(self, indices: np.ndarray) -> np.ndarray:
        """Indices of the blocks holding ``indices``."""
        return np.unique(
            np.searchsorted(self._span_offsets, indices, side="right") - 1
        )

    def _fetch(self, missing: np.ndarray):
        """Re-read ``missing`` rows: ``(indices, rows)`` per home block."""
        homes = self._homes(missing)
        for offset, X in _selected_blocks(
            self._source, homes.tolist(), self._spans
        ):
            Z = self._prep(X)
            lo = int(offset)
            sel = missing[(missing >= lo) & (missing < lo + Z.shape[0])]
            self.row_fetches += int(sel.size)
            yield sel, Z[sel - lo]
        self.blocks_read += int(homes.size)

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` for a sweep visit: resident, else in the overlay."""
        slot = self._pos[i]
        return self._resident[slot] if slot >= 0 else self._overlay[i]

    def held(self) -> np.ndarray:
        """Mask of the rows at hand (resident or in the overlay)."""
        local = self._pos >= 0
        if self._overlay:
            local[np.fromiter(self._overlay, dtype=np.int64)] = True
        return local

    def gather(self, cand: np.ndarray):
        """``(indices, rows)`` for the candidates, fetching absent rows.

        Fetched rows join the overlay, so the sweep can visit them.
        """
        slots = self._pos[cand]
        res = cand[slots >= 0]
        if res.size:
            yield res, self._resident[self._pos[res]]
        rest = cand[slots < 0].tolist()
        in_overlay = [i for i in rest if i in self._overlay]
        missing = np.asarray(
            [i for i in rest if i not in self._overlay], dtype=np.int64
        )
        if in_overlay:
            yield (
                np.asarray(in_overlay, dtype=np.int64),
                np.stack([self._overlay[i] for i in in_overlay]),
            )
        if missing.size:
            for sel, rows in self._fetch(missing):
                for k, i in enumerate(sel.tolist()):
                    self._overlay[i] = rows[k]
                yield sel, rows

    def keep(self, needed: np.ndarray) -> None:
        """Rebuild the resident store as exactly the ``needed`` rows."""
        resident = np.empty((needed.size, self.dim))
        pos = np.full(self._pos.shape[0], -1, dtype=np.int64)
        pos[needed] = np.arange(needed.size)
        held = needed[self._pos[needed] >= 0]
        resident[pos[held]] = self._resident[self._pos[held]]
        missing = []
        for i in needed[self._pos[needed] < 0].tolist():
            row = self._overlay.get(i)
            if row is not None:
                resident[pos[i]] = row
            else:
                missing.append(i)
        if missing:
            for sel, rows in self._fetch(np.asarray(missing, dtype=np.int64)):
                resident[pos[sel]] = rows
        skipped = len(self._spans) - int(self._homes(needed).size)
        self.blocks_skipped += skipped
        if self._counter is not None and skipped:
            self._counter.inc(skipped)
        self._resident = resident
        self._pos = pos
        self._overlay = {}
        self.resident_peak = max(self.resident_peak, needed.size)

    def verify_blocks(self, screened: np.ndarray):
        """``(offset, rows)`` of just the blocks holding a screened dual."""
        homes = self._homes(screened)
        self.blocks_read += int(homes.size)
        return (
            (offset, self._prep(X))
            for offset, X in _selected_blocks(
                self._source, homes.tolist(), self._spans
            )
        )

    def stats(self) -> Dict[str, int]:
        """Read and residency telemetry for ``shrink_stats_``."""
        return {
            "n_samples": int(self._pos.shape[0]),
            "blocks_total": len(self._spans),
            "blocks_read": self.blocks_read,
            "blocks_skipped": self.blocks_skipped,
            "row_fetches": self.row_fetches,
            "resident_peak": int(self.resident_peak),
            "resident_final": int(self._resident.shape[0])
            + len(self._overlay),
        }


def _read_design(source, spans, prep) -> np.ndarray:
    """Pass 0: every prepared row of ``source`` in one array."""
    n_samples = sum(length for _, length in spans)
    design = None
    for offset, Z in _checked_blocks(
        (offset, prep(X))
        for offset, X in _selected_blocks(source, range(len(spans)), spans)
    ):
        if design is None:
            design = np.empty((n_samples, Z.shape[1]))
        design[offset:offset + Z.shape[0]] = Z
    return design


# ----------------------------------------------------------------------
# Dual coordinate descent
# ----------------------------------------------------------------------
def dual_coordinate_descent(
    blocks: Sequence[np.ndarray],
    signed: np.ndarray,
    C: float,
    max_iter: int,
    tol: float,
    seed: int,
    sample_C: Optional[np.ndarray] = None,
    shrink: bool = True,
    stats: Optional[Dict[str, float]] = None,
) -> Tuple[np.ndarray, int]:
    """LIBLINEAR dual coordinate descent over row blocks.

    ``blocks`` hold the (already augmented) design rows; their
    concatenation is the design matrix, which is never materialized —
    each update reads exactly one row from its home block.  Every
    floating-point operation is per-row, so the result depends only on
    the concatenated row order, never on the block partition: any
    chopping of the same rows yields bit-identical weights.

    ``sample_C`` optionally gives each sample its own box constraint
    ``0 <= alpha_i <= C_i`` (the standard per-sample cost weighting);
    ``None`` uses the shared ``C`` and reproduces the unweighted
    optimizer exactly.

    ``shrink=True`` runs the certified working-set sweep described in
    the module docstring: bit-identical weights and iteration count to
    ``shrink=False``, but visits to provably-pinned duals are skipped in
    bulk.  ``stats``, when given a dict, is filled with shrink telemetry
    (``epochs``, ``active_visits``, ``skipped_visits``, ``rescreens``,
    ``screened_final``, ``verify_checked``, ``verify_max_residual``,
    ``drift``).

    Returns ``(w, n_iter)`` in the augmented design space.
    """
    rows = _BlockRows(blocks)
    n_samples = int(rows.offsets[-1])
    if signed.shape[0] != n_samples:
        raise ModelError(
            f"{signed.shape[0]} labels for {n_samples} design rows"
        )
    box = np.full(n_samples, C) if sample_C is None else sample_C
    sweep = _certified_sweep if shrink else _plain_sweep
    w, n_iter, _, sweep_stats = sweep(rows, signed, box, max_iter, tol, seed)
    if stats is not None:
        stats.update(sweep_stats)
    return w, n_iter


def _plain_sweep(
    rows, signed, box, max_iter, tol, seed,
) -> Tuple[np.ndarray, int, bool, Dict[str, float]]:
    """The plain full sweep: every dual visited every epoch.

    Returns ``(w, n_iter, converged, {})``, the shape of
    :func:`_certified_sweep`'s result; ``converged`` is whether an
    epoch met ``tol`` (``False`` means the fit stopped at
    ``max_iter``).
    """
    n_samples = signed.shape[0]
    q_diag = rows.q_diag
    row_at = rows.row
    alpha = np.zeros(n_samples)
    w = np.zeros(rows.dim)
    rng = np.random.default_rng(seed)
    order = np.arange(n_samples)
    converged_at, converged = max_iter, False
    for iteration in range(max_iter):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            if q_diag[i] == 0.0 or box[i] == 0.0:
                continue
            row = row_at(i)
            margin = signed[i] * (row @ w)
            gradient = margin - 1.0
            # Projected gradient for the box 0<=alpha<=C_i.
            if alpha[i] == 0.0:
                projected = min(gradient, 0.0)
            elif alpha[i] == box[i]:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            max_violation = max(max_violation, abs(projected))
            if projected != 0.0:
                old_alpha = alpha[i]
                alpha[i] = min(
                    max(old_alpha - gradient / q_diag[i], 0.0), box[i]
                )
                delta = (alpha[i] - old_alpha) * signed[i]
                if delta != 0.0:
                    w += delta * row
        if max_violation < tol:
            converged_at, converged = iteration + 1, True
            break
    return w, converged_at, converged, {}


def _certified_sweep(
    rows, signed, box, max_iter, tol, seed, histogram=None,
) -> Tuple[np.ndarray, int, bool, Dict[str, float]]:
    """The certified working-set sweep over a row store.

    ``rows`` is a :class:`_BlockRows` or :class:`_SourceRows`; the
    visits, updates and certificates are the same either way, so the
    weights, iteration count and convergence flag are bit-identical to
    :func:`_plain_sweep`'s for the same seed and row order.
    ``histogram`` (optional) observes each epoch's wall time.  Returns
    ``(w, n_iter, converged, stats)``.
    """
    n_samples = signed.shape[0]
    dim = rows.dim
    q_diag = rows.q_diag
    row_at = rows.row
    eps = float(np.finfo(np.float64).eps)
    row_norm = np.sqrt(q_diag)
    # Guard absorbs rounding of the row@w dot products; scaled by dim
    # and the weight-norm bound (||w|| <= drift_total).
    guard_unit = 64.0 * eps * dim * row_norm
    dead = (q_diag == 0.0) | (box == 0.0)
    alpha = np.zeros(n_samples)
    w = np.zeros(dim)
    # Certificate state: a dual recorded pinned with an outward gradient
    # of magnitude ``screen_slack`` at cumulative drift ``screen_snap``
    # is an exact no-op of the unshrunk sweep for any visit while
    # drift <= snap + slack/||x_i||.  Certificates are refreshed in bulk
    # (one matvec over pinned duals) at the start of each screening
    # round, so slack only has to outlive one round's drift budget —
    # the adaptive tolerance window — not a whole epoch.
    screenable = np.zeros(n_samples, dtype=bool)
    screen_slack = np.zeros(n_samples)
    screen_snap = np.zeros(n_samples)
    drift_total = 0.0
    budget = 0.0  # drift headroom granted to each screening round
    rng = np.random.default_rng(seed)
    order = np.arange(n_samples)
    epochs_run = 0
    active_visits = 0
    skipped_visits = 0
    rescreens = 0

    def covered(allowance: float) -> np.ndarray:
        """Duals whose certificate holds while drift <= ``allowance``."""
        return screenable & (
            screen_slack - row_norm * (allowance - screen_snap)
            > guard_unit * (allowance + 1.0)
        )

    def refresh_certificates(cand: np.ndarray) -> None:
        """Recompute certificates for the given duals (vectorized)."""
        for sel, block in rows.gather(cand):
            grads = signed[sel] * (block @ w) - 1.0
            slack = np.where(alpha[sel] == 0.0, grads, -grads)
            fresh = slack > 0.0
            sub = sel[fresh]
            screenable[sub] = True
            screen_slack[sub] = slack[fresh]
            screen_snap[sub] = drift_total
            screenable[sel[~fresh]] = False

    converged_at, converged = max_iter, False
    for iteration in range(max_iter):
        if histogram is not None:
            epoch_started = time.perf_counter()
        rng.shuffle(order)
        max_violation = 0.0
        epoch_start_drift = drift_total
        if iteration and rows.evicts:
            # Keep only the rows whose certificate fails to cover
            # several epochs of drift at the current rate (16 * budget
            # is last epoch's drift), so evicted rows do not bounce
            # straight back through a block fetch.  Pinned rows at hand
            # get a free certificate refresh first — slack is measured
            # at eviction time, where it is largest.
            horizon = drift_total + 128.0 * budget
            lasting = covered(horizon)
            pinned = ~dead & ((alpha == 0.0) | (alpha == box))
            stale = pinned & rows.held() & ~lasting
            if stale.any():
                refresh_certificates(np.flatnonzero(stale))
                lasting = covered(horizon)
            rows.keep(np.flatnonzero(~dead & ~lasting))
        pos = 0
        rounds = 0
        while pos < n_samples:
            rounds += 1
            if rounds > 1:
                rescreens += 1
            if rounds % 32 == 0:
                budget *= 2.0  # runaway-round safeguard
            allowance = drift_total + budget
            # Refresh only the pinned duals whose certificate no longer
            # covers this round; still-covered ones keep their cert.
            certified = covered(allowance)
            stale = (
                ~dead & ((alpha == 0.0) | (alpha == box)) & ~certified
            )
            if stale.any():
                refresh_certificates(np.flatnonzero(stale))
                certified = covered(allowance)
            visits = order[pos:]
            if not certified[visits].any():
                # Only dead duals are skipped; those never expire, so
                # this round cannot be invalidated by drift.
                allowance = np.inf
            active_rel = np.flatnonzero(~(dead | certified)[visits])
            breached = False
            for k in range(active_rel.size):
                rel = int(active_rel[k])
                i = int(visits[rel])
                active_visits += 1
                row = row_at(i)
                margin = signed[i] * (row @ w)
                gradient = margin - 1.0
                a = alpha[i]
                if a == 0.0:
                    projected = min(gradient, 0.0)
                elif a == box[i]:
                    projected = max(gradient, 0.0)
                else:
                    projected = gradient
                max_violation = max(max_violation, abs(projected))
                if projected != 0.0:
                    screenable[i] = False
                    alpha[i] = min(
                        max(a - gradient / q_diag[i], 0.0), box[i]
                    )
                    delta = (alpha[i] - a) * signed[i]
                    if delta != 0.0:
                        w += delta * row
                        drift_total += abs(delta) * row_norm[i]
                        if drift_total > allowance:
                            # Certificates past this visit may have
                            # expired: re-screen the rest of the epoch.
                            skipped_visits += rel - k
                            pos += rel + 1
                            breached = True
                            break
                elif a == 0.0 or a == box[i]:
                    # Pinned with an outward (or zero) gradient: the
                    # exact no-op branch of the unshrunk sweep; refresh
                    # the certificate from the exact per-row value.
                    slack = gradient if a == 0.0 else -gradient
                    if slack > 0.0:
                        screenable[i] = True
                        screen_slack[i] = slack
                        screen_snap[i] = drift_total
                    else:
                        screenable[i] = False
            if not breached:
                skipped_visits += visits.size - active_rel.size
                pos = n_samples
        epochs_run += 1
        # Next epoch's round window: a fraction of this epoch's drift,
        # so ~16 cheap vectorized re-screens replace per-row visits.
        budget = (drift_total - epoch_start_drift) / 16.0
        if histogram is not None:
            histogram.observe(time.perf_counter() - epoch_started)
        if max_violation < tol:
            converged_at, converged = iteration + 1, True
            break

    screened = np.flatnonzero(screenable)
    verify_checked, verify_max_residual = 0, 0.0
    if screened.size:
        verify_checked, verify_max_residual = _unshrink_verify(
            rows.verify_blocks(screened), screened,
            signed, w, alpha, box, row_norm,
            screen_slack, screen_snap, drift_total, dim, eps,
        )
    stats = {
        "epochs": epochs_run,
        "active_visits": active_visits,
        "skipped_visits": skipped_visits,
        "rescreens": rescreens,
        "screened_final": int(screened.size),
        "verify_checked": verify_checked,
        "verify_max_residual": verify_max_residual,
        "drift": drift_total,
    }
    return w, converged_at, converged, stats


def _unshrink_verify(
    design_blocks, idx, signed, w, alpha, box, row_norm,
    screen_slack, screen_snap, drift_total, dim, eps,
) -> Tuple[int, float]:
    """Full unshrink pass over every shrunk dual at the final weights.

    ``design_blocks`` is an iterator of ``(offset, block)`` design rows
    covering every index in ``idx`` (the shrunk duals).  Recomputes
    each shrunk dual's gradient from its row and validates the
    certificate invariant: the
    dual is still pinned at a bound and its outward slack has decayed by
    no more than the drift bound allows.  A violation means the
    screening bookkeeping is broken (it cannot arise from the
    mathematics), so it raises ``ModelError`` rather than silently
    diverging from the unshrunk solver.  Returns
    ``(n_checked, max_kkt_residual)``; the residual is informational —
    a shrunk dual's violation at the *final* weights is shared by the
    unshrunk solver's output, whose stopping rule also measures
    violations at visit time.
    """
    max_residual = 0.0
    for offset, block in design_blocks:
        lo = int(offset)
        hi = lo + block.shape[0]
        sel = idx[(idx >= lo) & (idx < hi)]
        if sel.size == 0:
            continue
        rows = block[sel - lo]
        grads = signed[sel] * (rows @ w) - 1.0
        at_low = alpha[sel] == 0.0
        at_high = alpha[sel] == box[sel]
        if not bool(np.all(at_low | at_high)):
            raise ModelError(
                "shrinking invariant violated: shrunk dual left its bound"
            )
        slack_now = np.where(at_low, grads, -grads)
        decay = row_norm[sel] * (drift_total - screen_snap[sel])
        guard = 256.0 * eps * dim * row_norm[sel] * (drift_total + 1.0)
        if bool(np.any(slack_now < screen_slack[sel] - decay - guard)):
            raise ModelError(
                "shrinking invariant violated: certificate decayed past "
                "its drift bound"
            )
        residual = np.maximum(0.0, -slack_now)
        if residual.size:
            max_residual = max(max_residual, float(residual.max()))
    return int(idx.size), max_residual


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
class LinearSVC:
    """Soft-margin linear SVM trained by dual coordinate descent.

    Three entry points share one fit: :meth:`fit` takes a dense matrix,
    :meth:`fit_blocks` a list of row blocks (never concatenated), and
    :meth:`fit_source` a re-readable block source, holding only the
    rows the certified sweep still visits.  Each validates its input,
    short-cuts a single-class label set, and runs the same sweep, so
    all three are bit-identical given the seed and the concatenated
    row order, for any block partition.  ``StreamedLinearSVC`` names
    the same class.

    Parameters
    ----------
    C:
        Inverse regularization strength (larger = less regularization).
    max_iter:
        Maximum full passes over the data.
    tol:
        Stop when the largest projected-gradient violation in a pass
        falls below this threshold.
    fit_intercept:
        Learn a bias via the standard augmented-feature trick.
    seed:
        Seed for coordinate-order shuffling (training is deterministic
        given the seed).
    shrink:
        Run the certified working-set sweep (bit-identical to the full
        sweep, near-zero work per pinned dual); ``False`` forces the
        plain full-sweep reference.

    After a fit, ``n_iter_`` is the number of epochs run and
    ``converged_`` is whether one of them met ``tol``: ``False`` means
    the fit stopped at ``max_iter`` short of the tolerance.  A
    single-class label set needs no epoch and counts as converged.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 1000,
        tol: float = 1e-4,
        fit_intercept: bool = True,
        seed: int = 0,
        shrink: bool = True,
    ) -> None:
        if C <= 0:
            raise ModelError(f"C must be > 0, got {C}")
        if max_iter < 1:
            raise ModelError("max_iter must be >= 1")
        self.C = float(C)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.fit_intercept = bool(fit_intercept)
        self.seed = int(seed)
        self.shrink = bool(shrink)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self.converged_: bool = False
        self.shrink_stats_: Dict = {}

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "LinearSVC":
        """Fit on ``{0, 1}``-labeled data; returns self.

        ``sample_weight`` optionally reweights each sample's hinge-loss
        cost: sample ``i`` trains under the box constraint
        ``0 <= alpha_i <= C * sample_weight[i]`` (the standard
        cost-weighted SVM, via the per-sample ``sample_C`` path of
        :func:`dual_coordinate_descent`).  Uniform weights of 1.0
        reproduce the unweighted fit bit-for-bit; a zero weight removes
        the sample from the margin entirely.
        """
        return self.fit_blocks([X], y, sample_weight=sample_weight)

    def fit_blocks(
        self,
        blocks: Sequence[np.ndarray],
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "LinearSVC":
        """Fit on ``{0, 1}``-labeled rows held as a block list."""
        design = [
            _with_bias(block, self.fit_intercept)
            for _, block in _checked_blocks(enumerate(blocks))
        ]
        n_samples = sum(block.shape[0] for block in design)

        def solve(signed, box):
            sweep = _certified_sweep if self.shrink else _plain_sweep
            return sweep(
                _BlockRows(design), signed, box,
                self.max_iter, self.tol, self.seed,
            )

        return self._fit(
            n_samples, y, sample_weight, None,
            lambda: design[0].shape[1] - self.fit_intercept, solve,
        )

    def fit_source(
        self,
        source,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        sample_C: Optional[np.ndarray] = None,
        prepare=None,
        registry=None,
    ) -> "LinearSVC":
        """Working-set fit straight off a re-readable block source.

        ``source`` is anything with ``feature_blocks()`` (ideally also
        ``block_spans()``/``selected_feature_blocks()`` so unneeded
        blocks are never extracted); ``prepare`` optionally maps each
        raw block to design rows (feature map + scaling).  ``sample_C``
        gives per-sample box constraints directly (overrides
        ``sample_weight``'s ``C * w_i``).

        The certified sweep holds only the rows it can still visit:
        after each epoch the resident store is rebuilt with
        certificate-covered rows evicted, and only blocks owning a
        still-needed row are re-read.  ``registry`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`) receives the
        ``svm.blocks_skipped`` counter and ``phase.svm_epoch``
        histogram.  Bit-identical to :meth:`fit_blocks` on the
        materialized stream for the same seed and row order.
        """
        spans = _source_spans(source)

        def prep(X: np.ndarray) -> np.ndarray:
            Z = np.asarray(X, dtype=np.float64)
            if prepare is not None:
                Z = np.asarray(prepare(Z), dtype=np.float64)
            return _with_bias(Z, self.fit_intercept)

        def width() -> int:
            # One block read: the design width of a single-class fit.
            for _, X in _selected_blocks(source, [0], spans):
                return prep(X).shape[1] - self.fit_intercept

        def solve(signed, box):
            design = _read_design(source, spans, prep)
            if not self.shrink:
                return _plain_sweep(
                    _BlockRows([design]), signed, box,
                    self.max_iter, self.tol, self.seed,
                )
            rows = _SourceRows(
                source, spans, prep, design,
                counter=(
                    registry.counter("svm.blocks_skipped")
                    if registry is not None else None
                ),
            )
            w, n_iter, converged, stats = _certified_sweep(
                rows, signed, box, self.max_iter, self.tol, self.seed,
                histogram=(
                    registry.histogram("phase.svm_epoch")
                    if registry is not None else None
                ),
            )
            stats.update(rows.stats())
            return w, n_iter, converged, stats

        return self._fit(
            sum(length for _, length in spans), y, sample_weight, sample_C,
            width, solve,
        )

    def _fit(self, n_samples, y, sample_weight, sample_C, width, solve):
        """The fit every entry point shares.

        Checks labels and per-sample costs, short-cuts a single-class
        label set, then runs ``solve(signed, box)`` — which returns
        ``(w, n_iter, converged, shrink_stats)`` in the augmented space
        — and splits off the intercept.  ``width()`` gives the feature
        count for the single-class case.
        """
        if n_samples == 0:
            raise ModelError("cannot fit on zero samples")
        signed = _signed_labels(y, n_samples)
        if sample_C is not None:
            box = _checked_costs(sample_C, n_samples, "sample_C")
        elif sample_weight is not None:
            box = self.C * _checked_costs(
                sample_weight, n_samples, "sample_weight"
            )
        else:
            box = np.full(n_samples, self.C)
        if len(set(signed.tolist())) < 2:
            # Degenerate single-class training set: behave like the
            # majority-class predictor (hyperplane pushed to one side).
            self.coef_ = np.zeros(width())
            self.intercept_ = float(signed[0])
            self.n_iter_ = 0
            self.converged_ = True
            self.shrink_stats_ = {}
            return self
        w, self.n_iter_, self.converged_, self.shrink_stats_ = solve(
            signed, box
        )
        self.coef_, self.intercept_ = _split_bias(w, self.fit_intercept)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distances ``w·x + b``."""
        if self.coef_ is None:
            raise NotFittedError("LinearSVC.fit has not been called")
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted ``{0, 1}`` labels."""
        return (self.decision_function(X) > 0).astype(np.int64)


#: The block-streaming name of :class:`LinearSVC` (one class).
StreamedLinearSVC = LinearSVC


class PegasosSVC:
    """Primal SGD linear SVM (Pegasos), for cross-validation of LinearSVC.

    Parameters
    ----------
    lam:
        Regularization strength (Pegasos λ ≈ 1 / (C · n_samples)).
    n_epochs:
        Passes over the data.
    fit_intercept:
        Learn an (unregularized) bias term.
    seed:
        Seed for sampling order.
    """

    def __init__(
        self,
        lam: float = 1e-3,
        n_epochs: int = 50,
        fit_intercept: bool = True,
        seed: int = 0,
    ) -> None:
        if lam <= 0:
            raise ModelError(f"lam must be > 0, got {lam}")
        if n_epochs < 1:
            raise ModelError("n_epochs must be >= 1")
        self.lam = float(lam)
        self.n_epochs = int(n_epochs)
        self.fit_intercept = bool(fit_intercept)
        self.seed = int(seed)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "PegasosSVC":
        """Fit on ``{0, 1}``-labeled data; returns self.

        The bias is folded into the (regularized) weight vector via a
        constant feature — a slight deviation from the textbook
        unregularized intercept that keeps the 1/(λt) step sizes stable —
        and the standard ``1/√λ``-ball projection step is applied.

        ``sample_weight`` scales each sample's hinge subgradient (the
        step becomes ``eta * weight_i * y_i * x_i``); the regularization
        shrink and step-count schedule are unchanged, so uniform weights
        of 1.0 reproduce the unweighted fit bit-for-bit and a zero
        weight removes the sample's pull on the margin.
        """
        [(_, X)] = _checked_blocks([(0, X)])
        n_samples = X.shape[0]
        if n_samples == 0:
            raise ModelError("cannot fit on zero samples")
        signed = _signed_labels(y, n_samples)
        weights = None
        if sample_weight is not None:
            weights = _checked_costs(sample_weight, n_samples, "sample_weight")
        design = _with_bias(X, self.fit_intercept)
        rng = np.random.default_rng(self.seed)
        w = np.zeros(design.shape[1])
        radius = 1.0 / np.sqrt(self.lam)
        t = 0
        for _ in range(self.n_epochs):
            for i in rng.permutation(n_samples):
                t += 1
                eta = 1.0 / (self.lam * t)
                margin = signed[i] * (design[i] @ w)
                w *= 1.0 - eta * self.lam
                if margin < 1.0:
                    step = eta if weights is None else eta * weights[i]
                    w += step * signed[i] * design[i]
                norm = np.linalg.norm(w)
                if norm > radius:
                    w *= radius / norm
        self.coef_, self.intercept_ = _split_bias(w, self.fit_intercept)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distances ``w·x + b``."""
        if self.coef_ is None:
            raise NotFittedError("PegasosSVC.fit has not been called")
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted ``{0, 1}`` labels."""
        return (self.decision_function(X) > 0).astype(np.int64)
