"""Shared benchmark fixtures and configuration.

Benchmarks regenerate every table and figure of the paper on the
synthetic Foursquare/Twitter-like dataset.  Two knobs via environment
variables:

* ``REPRO_BENCH_SCALE`` — dataset scale preset (default ``small``);
* ``REPRO_BENCH_FULL=1`` — run the paper's full parameter grids instead
  of the abbreviated default grids (slower by an order of magnitude).

The engine benchmarks (``bench_engine_*.py``) each default to their
own scale and assert their timing and memory gates.  Smoke mode, for
exactness gating on shared runners, overrides every one of them with
one pair: ``ENGINE_BENCH_SCALE=small ENGINE_BENCH_EXACT_ONLY=1`` sets
the scale and skips the timing and memory assertions.

Every benchmark prints its paper-style table and also writes it to
``benchmarks/results/<name>.txt`` so the artifacts survive pytest's
output capture.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.datasets import foursquare_twitter_like

RESULTS_DIR = Path(__file__).parent / "results"

#: Paper grids (Tables III/IV, Figures 3-5) vs abbreviated defaults.
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

NP_RATIOS = list(range(5, 55, 5)) if FULL else [5, 10, 20, 50]
SAMPLE_RATIOS = (
    [round(0.1 * i, 1) for i in range(1, 11)] if FULL else [0.2, 0.6, 1.0]
)
BUDGETS = [10, 25, 50, 75, 100] if FULL else [10, 25, 50]
N_REPEATS = 10 if FULL else 3
TABLE_BUDGETS = (50, 25)
SEED = 13

#: Engine-bench smoke knobs (see the module docstring).
ENGINE_SCALE = os.environ.get("ENGINE_BENCH_SCALE", "")
EXACT_ONLY = os.environ.get("ENGINE_BENCH_EXACT_ONLY", "") == "1"


def engine_scale(default: str) -> str:
    """An engine bench's scale: ``ENGINE_BENCH_SCALE``, else ``default``."""
    return ENGINE_SCALE or default


@pytest.fixture(scope="session")
def pair():
    """The benchmark dataset (session-cached)."""
    return foursquare_twitter_like(SCALE, seed=7)


def publish(name: str, text: str, record: dict = None) -> None:
    """Print a result table and persist it under benchmarks/results/.

    ``record`` additionally lands as ``<name>.json`` — the
    machine-readable side channel ``benchmarks/report_trend.py``
    consolidates.  Convention: ``record["flags"]`` holds boolean
    exactness gates (all must be true; the trend report fails
    otherwise) and ``record["metrics"]`` holds numeric measurements.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if record is not None:
        payload = {"benchmark": name, **record}
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
