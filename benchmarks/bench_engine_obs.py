"""Engine benchmark: tracing overhead and output-exactness gate.

Runs the anchor-round workload (:func:`repro.eval.timing.run_anchor_rounds`)
twice under identical configuration — once with the default
:data:`repro.obs.NULL_TRACER` and once with an enabled
:class:`~repro.obs.Tracer` streaming every span to a JSONL sink — and
gates the observability layer on two claims:

* **bit-exactness** — always: tracing only observes; the feature
  matrix and the streamed selection of the traced run must be
  byte-identical to the untraced run;
* **overhead** — outside smoke mode: instrumentation is per round /
  per dispatch, never per matrix cell, so the enabled tracer (sink
  included) must cost < 5% wall clock (best-of-``REPS`` on each side).

Smoke mode (for CI gating on shared runners):
``ENGINE_BENCH_SCALE=small ENGINE_BENCH_EXACT_ONLY=1`` runs a quick
small-scale pass and skips the timing assertion.  The traced run's
span file is left at ``benchmarks/results/engine_obs_trace.jsonl`` —
CI uploads it, and ``python -m repro.cli trace summarize`` reads it.
"""

from conftest import EXACT_ONLY, RESULTS_DIR, engine_scale, publish

from repro.datasets import foursquare_twitter_like
from repro.eval.timing import Race, anchor_rounds, run_anchor_rounds
from repro.obs import configure_tracing, set_tracer
from repro.obs.report import load_spans

SCALE = engine_scale("medium")
WORKERS = 4
NP_RATIO = 20
ROUNDS = 8
BATCH = 3
REPS = 3
SEED = 13
TRACE_PATH = RESULTS_DIR / "engine_obs_trace.jsonl"


def test_engine_obs_exactness_and_overhead():
    pair = foursquare_twitter_like(SCALE, seed=7)
    rounds = anchor_rounds(
        pair, NP_RATIO, rounds=ROUNDS, batch_size=BATCH, seed=SEED
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    TRACE_PATH.unlink(missing_ok=True)
    plain, traced = [], []
    # Interleave off/on reps so drift on a shared host hits both sides.
    for _ in range(REPS):
        set_tracer(None)
        plain.append(run_anchor_rounds(rounds, workers=WORKERS))
        tracer = configure_tracing(TRACE_PATH)
        try:
            with tracer.span("bench.engine_obs"):
                traced.append(run_anchor_rounds(rounds, workers=WORKERS))
        finally:
            set_tracer(None)

    def fastest(runs):
        return min(runs, key=lambda run: run.seconds)

    race = Race.between(
        (
            f"Tracing overhead ({SCALE}, workers={WORKERS}, "
            f"{len(rounds.arrivals)} anchor rounds, reps={REPS})"
        ),
        ("untraced", "traced"),
        fastest(plain),
        fastest(traced),
    )
    untraced_s, traced_s = race.seconds
    overhead = traced_s / untraced_s
    spans = load_spans(TRACE_PATH)

    publish(
        "engine_obs",
        "\n".join(
            [
                race.render(),
                f"  overhead {overhead:6.3f}x",
                f"  spans recorded: {len(spans)} -> {TRACE_PATH.name}",
            ]
        ),
        record={
            "flags": {
                "identical_features": race.outputs["features"],
                "identical_selection": race.outputs["selection"],
            },
            "metrics": {
                "untraced_seconds": untraced_s,
                "traced_seconds": traced_s,
                "overhead_ratio": overhead,
                "spans_recorded": len(spans),
            },
        },
    )

    assert race.identical, (
        f"the traced run's outputs must be byte-identical:\n{race.render()}"
    )
    assert spans, "the enabled tracer must have recorded spans"
    if EXACT_ONLY:
        return
    assert overhead < 1.05, (
        f"enabled tracing must cost < 5% wall clock, got {overhead:.3f}x "
        f"(untraced {untraced_s:.3f}s vs traced {traced_s:.3f}s)"
    )
