"""Engine benchmark: threaded execution layer vs the serial path.

Races the session's parallel execution layer (``workers=4``) against
the serial reference over the anchor-round workload at large scale
(:func:`repro.eval.timing.run_anchor_rounds`): one full feature
extraction over the split's candidate space, several batched anchor
arrivals handled by delta updates with in-place feature refresh, and a
block-scored streamed selection over the support-pruned candidate
stream.

Two guarantees are asserted:

* **bit-exactness** — always: the executor only reschedules independent
  per-structure and per-block work and merges results in deterministic
  order, so feature matrices and streamed selections must be
  byte-identical between the serial and threaded runs;
* **speedup** — only on multi-core hosts outside smoke mode: scipy's
  spgemm and numpy's searchsorted release the GIL, so four workers must
  deliver >= 1.5x wall clock at large scale.

Smoke mode (for CI exactness gating on shared runners):
``ENGINE_BENCH_SCALE=small ENGINE_BENCH_EXACT_ONLY=1`` runs a quick
small-scale race and skips the timing assertion.
"""

import os

from conftest import EXACT_ONLY, engine_scale, publish
from repro.datasets import foursquare_twitter_like
from repro.eval.timing import Race, anchor_rounds, run_anchor_rounds

SCALE = engine_scale("large")
WORKERS = 4
NP_RATIO = 20
ROUNDS = 10
BATCH = 3
SEED = 13


def test_engine_parallel_threaded_vs_serial():
    pair = foursquare_twitter_like(SCALE, seed=7)
    rounds = anchor_rounds(
        pair, NP_RATIO, rounds=ROUNDS, batch_size=BATCH, seed=SEED
    )
    race = Race.between(
        (
            f"Parallel execution layer ({SCALE}, workers={WORKERS}, "
            f"{len(rounds.arrivals)} anchor rounds, cpus={os.cpu_count()})"
        ),
        ("serial", "threaded"),
        run_anchor_rounds(rounds),
        run_anchor_rounds(rounds, workers=WORKERS),
    )
    publish("engine_parallel", race.render())

    assert race.identical, (
        "threaded extraction, refresh and block scoring must be "
        f"byte-identical to serial:\n{race.render()}"
    )
    cpus = os.cpu_count() or 1
    if EXACT_ONLY or cpus < 2:
        # Single-core hosts (and smoke mode) cannot show wall-clock
        # gains from threading; exactness is the gate there.
        return
    assert race.speedup >= 1.5, (
        f"threaded path must be >= 1.5x faster on {cpus} cpus, got "
        f"{race.speedup:.2f}x (serial {race.seconds[0]:.3f}s "
        f"vs threaded {race.seconds[1]:.3f}s)"
    )
