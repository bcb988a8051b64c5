"""Run one workload of the end-to-end ActiveIter benchmark.

    python3 e2ebench/run.py --workload paper-dense --seed 0 --seconds 55 --trace 0

``--seed`` orders the protocol folds the run rotates through; the
dataset and protocol seeds (defaults 7 and 13, whose output digests are
recorded in ``e2ebench/reference.json``) are arguments of their own, so
a claim can be re-checked on an unseen seed.  The run repeats whole
alignments until ``--seconds`` have passed and the workload's minimum
count is reached, checks every alignment's outputs outside the timed
region, and prints the metrics — the last line is one JSON object.

``--trace 0`` reports the end-to-end metrics, measured untraced, each
timing as the fastest of the run's repeats of the same fold (or round).
``--trace 1`` alternates an untraced and a traced alignment of each fold
and reports per-layer self time and work counts from the traced ones,
plus the tracing overhead between the two.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: A run stops starting alignments after this long, whatever its minimum.
HARD_STOP_S = 140.0
#: The traced run must attribute at least this share of wall time.
MIN_COVERAGE = 0.95


def fold_order(seed: int, n_folds: int) -> List[int]:
    """The seeded order in which a run rotates through its folds."""
    import numpy as np

    return [int(f) for f in np.random.default_rng(seed).permutation(n_folds)]


def load_reference(workload: str, dataset_seed: int, protocol_seed: int):
    """Recorded fold digests for these seeds, or ``None`` if unrecorded."""
    if not REFERENCE.exists():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if (
        entry is None
        or entry["dataset_seed"] != dataset_seed
        or entry["protocol_seed"] != protocol_seed
    ):
        return None
    return entry["digests"]


def parse_args(argv=None):
    from e2ebench.workloads import DATASET_SEED, PROTOCOL_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dataset-seed", type=int, default=DATASET_SEED)
    parser.add_argument("--protocol-seed", type=int, default=PROTOCOL_SEED)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="align every fold once and record its digest as the reference",
    )
    return parser.parse_args(argv)


class Runner:
    """Runs and checks the alignments of one benchmark invocation."""

    def __init__(self, args) -> None:
        from e2ebench import workloads

        self.workloads = workloads
        self.args = args
        self.spec = workloads.WORKLOADS[args.workload]
        self.inputs = workloads.build_inputs(
            self.spec, args.dataset_seed, args.protocol_seed
        )
        self.reference = load_reference(
            args.workload, args.dataset_seed, args.protocol_seed
        )
        self.order = fold_order(args.seed, workloads.ROTATION)
        self.attempted = 0
        self.failed = 0
        self.replayed = not self.spec.streamed
        #: Facts about the run printed next to its metrics.
        self.notes: Dict[str, object] = {}

    def align(self, fold: int, root=nullcontext):
        """One checked alignment; ``None`` when it raised or failed."""
        self.attempted += 1
        gc.collect()
        try:
            outcome = self.workloads.run_alignment(self.inputs, fold, root)
            problems = self.workloads.check_outcome(
                self.inputs, outcome, self.reference
            )
            if not problems and not self.replayed:
                problems = self.workloads.replay_check(self.inputs, outcome)
                self.replayed = True
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"fold {fold}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        return outcome

    def folds(self, group: int, minimum_groups: int = 1):
        """Fold numbers, in groups of ``group``, while the next group is
        expected to end within ``--seconds`` (and at least
        ``minimum_groups`` groups)."""
        started = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            groups = index // group
            if index % group == 0 and groups >= minimum_groups:
                per_group = elapsed / groups
                if elapsed + per_group > self.args.seconds:
                    return
            if elapsed >= HARD_STOP_S:
                return
            yield self.order[index % len(self.order)]
            index += 1


def end_to_end(runner: Runner) -> Dict[str, tuple]:
    """Untraced alignments: the metrics a user of the system sees."""
    from repro.store.memory import peak_rss_bytes

    # Whole rotations only: every run times the same folds, in its seed's
    # order, so fold-to-fold differences cannot move a median.
    outcomes = []
    for fold in runner.folds(len(runner.order), minimum_groups=2):
        outcome = runner.align(fold)
        if outcome is not None:
            outcomes.append(outcome)
            outcome.session = None  # keep only one session alive
    from e2ebench.workloads import TAIL_PERCENTILE, best_of_repeats, tail_percentile

    best = best_of_repeats(outcomes)
    waits = [wait for fold in best.values() for wait in fold.waits]
    percentile = TAIL_PERCENTILE
    try:
        tail = tail_percentile(waits, percentile)
    except ValueError as error:  # only after failed alignments
        print(error, file=sys.stderr)
        return {}
    runner.notes.update(
        alignments=len(outcomes),
        folds=[outcome.fold for outcome in outcomes],
        repeats={fold: value.repeats for fold, value in sorted(best.items())},
        waits=len(waits),
        waits_per_alignment=len(outcomes[0].waits),
        rounds_per_alignment=outcomes[0].n_rounds,
        tail_percentile=percentile,
    )
    return {
        "align_s": (statistics.median(b.align_s for b in best.values()), "s"),
        "round_p50_ms": (1e3 * statistics.median(waits), "ms"),
        "round_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(b.setup_s for b in best.values()), "s"),
        "peak_rss_mb": (peak_rss_bytes() / 2**20, "MB"),
        "f1": (
            statistics.fmean(
                runner.workloads.f1_score(runner.inputs, o) for o in outcomes
            ),
            "f1",
        ),
    }


def per_layer(runner: Runner) -> Dict[str, tuple]:
    """Paired untraced/traced alignments: per-layer self time and work."""
    from e2ebench.layers import LAYERS, ROOT, LayerProbe, self_times
    from repro.obs.metrics import global_registry

    probe = LayerProbe()
    plain_s: List[float] = []
    traced_s: List[float] = []
    totals: Dict[str, float] = dict.fromkeys(LAYERS + (ROOT,), 0.0)
    counts: collections.Counter = collections.Counter()
    root_elapsed = 0.0
    delta_updates = fallbacks = space = 0
    # Dense SVM fits count skipped blocks in the process-wide registry,
    # session-bound ones in the session's.
    global_skips = global_registry().counter("svm.blocks_skipped")
    for fold in runner.folds(1, minimum_groups=2):
        plain = runner.align(fold)
        skips_before = global_skips.value
        with probe.installed():
            traced = runner.align(fold, root=probe.root)
        records, traced_counts = probe.drain()
        traced_counts["svm.blocks_skipped"] += (
            global_skips.value - skips_before
        )
        if plain is None or traced is None:
            continue
        if plain.digest() != traced.digest():
            print(f"fold {fold}: traced outputs differ", file=sys.stderr)
            runner.failed += 1
            continue
        plain_s.append(plain.align_s)
        traced_s.append(traced.align_s)
        for name, value in self_times(records).items():
            totals[name] += value
        root_elapsed += sum(r["elapsed"] for r in records if r["name"] == ROOT)
        stats = traced.session.stats
        delta_updates += stats.delta_updates
        fallbacks += stats.fallback_invalidations
        traced_counts["svm.blocks_skipped"] += traced.session.metrics.counter(
            "svm.blocks_skipped"
        ).value
        traced_counts["candidates.selected"] += len(traced.swept)
        counts.update(traced_counts)
        space += traced.space
    n = len(traced_s)
    if n == 0:
        return {}
    metrics = {f"{name}.self_s": (totals[name] / n, "s") for name in LAYERS}
    for name in (
        "counting.evaluations",
        "delta_fold.calls",
        "extract.rows",
        "stream.block_passes",
        "fit.solves",
        "matching.calls",
        "select.calls",
        "candidates.pairs",
        "candidates.selected",
        "dispatch.maps",
    ):
        metrics[name] = (counts[name] / n, "count")
    if runner.spec.model == "svm":  # the count is 0 without the SVM
        metrics["svm.blocks_skipped"] = (counts["svm.blocks_skipped"] / n, "count")
    metrics["delta_fold.fallback_ratio"] = (
        fallbacks / delta_updates if delta_updates else 0.0,
        "ratio",
    )
    metrics["candidates.kept_ratio"] = (
        counts["candidates.pairs"] / space if space else 0.0,
        "ratio",
    )
    metrics["unattributed.self_s"] = (totals[ROOT] / n, "s")
    coverage = 1.0 - totals[ROOT] / root_elapsed
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s),
        "ratio",
    )
    runner.notes.update(traced_alignments=n, untraced_align_s=plain_s)
    if coverage < MIN_COVERAGE:
        print(
            f"trace coverage {coverage:.3f} is below {MIN_COVERAGE}",
            file=sys.stderr,
        )
        runner.failed += 1
    return metrics


def write_reference(args) -> int:
    """Record every fold's digest at the given seeds."""
    from e2ebench import workloads

    spec = workloads.WORKLOADS[args.workload]
    inputs = workloads.build_inputs(spec, args.dataset_seed, args.protocol_seed)
    digests = {}
    for fold in range(workloads.N_FOLDS):
        outcome = workloads.run_alignment(inputs, fold)
        problems = workloads.check_outcome(inputs, outcome, None)
        if problems:
            print(f"fold {fold}: " + "; ".join(problems), file=sys.stderr)
            return 1
        digests[str(fold)] = outcome.digest()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference[args.workload] = {
        "dataset_seed": args.dataset_seed,
        "protocol_seed": args.protocol_seed,
        "digests": digests,
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {args.workload}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference:
        return write_reference(args)
    import numpy
    import scipy

    runner = Runner(args)
    metrics = (per_layer if args.trace else end_to_end)(runner)
    pair = runner.inputs.pair
    base = {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "dataset_seed": args.dataset_seed,
        "protocol_seed": args.protocol_seed,
        "reference_checked": runner.reference is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "U1": len(pair.left_users()),
        "U2": len(pair.right_users()),
        "U1xU2": len(pair.left_users()) * len(pair.right_users()),
        "H": runner.inputs.n_candidates,
        **runner.notes,
    }
    print("base " + json.dumps(base, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    error_rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{'error_rate':<28} {error_rate:>14.6g} ratio "
          f"({runner.failed} of {runner.attempted} alignments)")
    correct = runner.failed == 0 and bool(metrics) and runner.replayed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    # One BLAS thread: the run is single-threaded, so its CPU-time clock
    # reads as wall time without the host's steal (see workloads.clock).
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
