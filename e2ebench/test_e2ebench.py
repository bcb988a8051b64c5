"""Tests of the benchmark's own arithmetic, plus a tiny-scale smoke of
each workload (run with ``PYTHONPATH=src python -m pytest e2ebench``)."""

from __future__ import annotations

import dataclasses

import pytest

from e2ebench import workloads
from e2ebench.layers import ROOT, LayerProbe, self_times, union_length
from e2ebench.run import fold_order


def span(span_id, name, start, end, parent=None):
    return {
        "span": span_id,
        "parent": parent,
        "name": name,
        "ts": float(start),
        "elapsed": float(end - start),
    }


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4.0
    assert union_length([]) == 0.0


def test_self_time_subtracts_nested_and_back_to_back_children():
    records = [
        span("r", ROOT, 0, 10),
        span("a", "fit", 1, 4, parent="r"),
        span("g", "stream", 2, 3, parent="a"),
        span("b", "select", 4, 6, parent="r"),
        span("c", "select", 6, 7, parent="r"),
    ]
    totals = self_times(records)
    assert totals == {ROOT: 4.0, "fit": 2.0, "stream": 1.0, "select": 3.0}
    # The layers and the unattributed rest add up to the whole.
    assert sum(totals.values()) == 10.0


def test_self_time_sees_through_program_spans_and_clips_children():
    records = [
        span("r", ROOT, 0, 10),
        span("p", "active.round", 0, 9, parent="r"),
        span("a", "extract", 1, 5, parent="p"),
        # A child reported past its parent's end only covers the overlap.
        span("c", "counting", 4, 6, parent="a"),
    ]
    totals = self_times(records)
    assert totals["extract"] == 3.0
    assert totals["counting"] == 2.0
    assert totals[ROOT] == 6.0
    assert "active.round" not in totals


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert workloads.tail_percentile(values, 90) == 90
    with pytest.raises(ValueError):
        workloads.tail_percentile(values[:99], 90)
    assert workloads.highest_tail_percentile(100) == 90
    assert workloads.highest_tail_percentile(99) == 75
    assert workloads.highest_tail_percentile(20) == 50
    assert workloads.highest_tail_percentile(19) is None
    assert workloads.TAIL_PERCENTILE == 75


def test_best_of_repeats_takes_each_timing_minimum_per_fold():
    def outcome(fold, setup_s, align_s, waits):
        return workloads.Outcome(
            fold=fold, setup_s=setup_s, align_s=align_s, waits=waits,
            labels=None, queried=(), swept=[], n_rounds=len(waits),
            session=None, candidates=[],
        )

    best = workloads.best_of_repeats([
        outcome(0, 0.3, 2.0, [0.1, 0.4]),
        outcome(1, 0.5, 9.0, [0.9, 0.9]),
        outcome(0, 0.2, 2.5, [0.3, 0.2]),
    ])
    assert best[0] == workloads.Best(0.2, 2.0, [0.1, 0.2], repeats=2)
    assert best[1] == workloads.Best(0.5, 9.0, [0.9, 0.9], repeats=1)


def test_fold_order_is_a_seeded_permutation():
    assert fold_order(3, 10) == fold_order(3, 10)
    assert sorted(fold_order(3, 10)) == list(range(10))


def test_timed_oracle_records_one_wait_per_batch():
    oracle = workloads.TimedOracle({("a", "x")}, budget=3)
    oracle.start()
    assert oracle.query_batch([("a", "x"), ("b", "y")]) == [
        (("a", "x"), 1),
        (("b", "y"), 0),
    ]
    oracle.query_batch([("c", "z")])
    assert len(oracle.waits) == 2
    assert all(wait >= 0 for wait in oracle.waits)


def tiny_inputs(name):
    spec = dataclasses.replace(workloads.WORKLOADS[name], scale="tiny")
    return workloads.build_inputs(spec)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_smoke(name):
    inputs = tiny_inputs(name)
    outcome = workloads.run_alignment(inputs, fold=0)
    assert workloads.check_outcome(inputs, outcome, None) == []
    assert len(outcome.waits) == workloads.WAITS_PER_ALIGNMENT
    assert outcome.setup_s > 0 and outcome.align_s > 0
    assert 0.0 <= workloads.f1_score(inputs, outcome) <= 1.0
    if inputs.spec.streamed:
        assert outcome.swept
        assert workloads.replay_check(inputs, outcome) == []
    reference = {"0": outcome.digest()}
    assert workloads.check_outcome(inputs, outcome, reference) == []
    wrong = {"0": "0" * 64}
    assert workloads.check_outcome(inputs, outcome, wrong) != []


def test_digest_is_stable_across_identical_alignments():
    inputs = tiny_inputs("drift-streamed")
    first = workloads.run_alignment(inputs, fold=1)
    second = workloads.run_alignment(inputs, fold=1)
    other = workloads.run_alignment(inputs, fold=2)
    assert first.digest() == second.digest()
    assert first.digest() != other.digest()


def test_traced_alignment_matches_untraced_and_unpatches():
    from repro.engine import AlignmentSession

    inputs = tiny_inputs("drift-streamed")
    plain = workloads.run_alignment(inputs, fold=0)
    extract = AlignmentSession.__dict__["extract"]
    probe = LayerProbe()
    with probe.installed():
        traced = workloads.run_alignment(inputs, fold=0, root=probe.root)
    records, counts = probe.drain()
    assert AlignmentSession.__dict__["extract"] is extract
    assert traced.digest() == plain.digest()
    totals = self_times(records)
    root = sum(r["elapsed"] for r in records if r["name"] == ROOT)
    assert sum(totals.values()) == pytest.approx(root, rel=1e-3)
    for layer in ("counting", "delta_fold", "extract", "stream", "fit",
                  "matching", "select", "candidates", "dispatch"):
        assert totals.get(layer, 0.0) > 0.0, layer
    assert counts["select.calls"] == workloads.WAITS_PER_ALIGNMENT
    assert counts["candidates.pairs"] > 0
