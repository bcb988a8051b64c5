"""Trace-context propagation across the process-executor boundary.

The acceptance bar for the tracing subsystem: process-pool workers must
parent their job spans on the dispatching process's active span, under
its trace id.
"""

import numpy as np
import pytest

from repro.engine import AlignmentSession, ProcessExecutor
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.obs import configure_tracing
from repro.obs.report import load_spans
from repro.store import BlockDescriptor, extract_block_job

N_JOBS = 8


@pytest.fixture(scope="module")
def workload(tiny_synthetic_pair):
    pair = tiny_synthetic_pair
    config = ProtocolConfig(np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=13)
    split = next(iter(build_splits(pair, config)))
    candidates = list(split.candidates)
    assert len(candidates) >= N_JOBS
    return pair, split, candidates


def _block_bounds(n_pairs):
    edges = np.linspace(0, n_pairs, N_JOBS + 1).astype(int)
    return list(zip(edges[:-1], edges[1:]))


def _descriptors(pair, candidates):
    left, right = pair.pairs_to_indices(candidates)
    return [
        BlockDescriptor(
            offset=int(start),
            left_indices=left[start:stop],
            right_indices=right[start:stop],
        )
        for start, stop in _block_bounds(len(candidates))
    ]


class TestProcessPoolPropagation:
    def test_worker_spans_carry_driver_trace(self, workload, tmp_path):
        pair, split, candidates = workload
        trace_path = tmp_path / "driver.jsonl"
        tracer = configure_tracing(trace_path)

        with AlignmentSession(
            pair,
            known_anchors=split.train_positive_pairs,
            store=tmp_path / "store",
        ) as session:
            X = session.extract(candidates)
            with tracer.span("driver.block_extract") as root:
                spec = session.flush_store()
                assert spec.trace is not None
                assert spec.trace.trace_id == root.trace_id
                assert spec.trace.sink_dir == str(tmp_path)
                jobs = [
                    (spec, descriptor)
                    for descriptor in _descriptors(pair, candidates)
                ]
                with ProcessExecutor(2) as executor:
                    results = list(
                        executor.map(extract_block_job, jobs)
                    )

        for (offset, block), (start, stop) in zip(
            results, _block_bounds(len(candidates))
        ):
            assert offset == start
            assert np.array_equal(block, X[start:stop])

        # Pool workers appended their own span files next to the
        # driver's, on the driver's trace, under live driver spans.
        assert list(tmp_path.glob("trace-worker-*.jsonl"))
        driver_ids = {
            s["span"]
            for s in load_spans(trace_path, include_workers=False)
        }
        extracts = [
            s
            for s in load_spans(trace_path)
            if s["name"] == "procwork.extract_block"
        ]
        assert len(extracts) == N_JOBS
        for span in extracts:
            assert span["trace"] == root.trace_id
            assert span["parent"] in driver_ids
            assert "offset" in span["attributes"]
