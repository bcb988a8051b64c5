"""Tests for repro.eval.persistence."""

import re

import pytest

from repro.eval.experiment import MethodSpec, run_experiment
from repro.eval.persistence import (
    load_outcome,
    outcome_from_dict,
    outcome_to_dict,
    save_outcome,
)
from repro.eval.protocol import ProtocolConfig
from repro.exceptions import ExperimentError

#: The multi-host executor's runtime counters of formats 5-7.
_V5_RPC_KEYS = (
    "rpc_jobs_shipped",
    "rpc_bytes_synced",
    "rpc_cache_hits",
    "rpc_retries",
    "rpc_stragglers",
)
_V7_RPC_KEYS = _V5_RPC_KEYS + (
    "rpc_bytes_shipped",
    "rpc_jobs_batched",
    "rpc_fn_cache_hits",
)


@pytest.fixture(scope="module")
def outcome(request):
    pair = request.getfixturevalue("tiny_synthetic_pair")
    config = ProtocolConfig(np_ratio=5, n_repeats=2, seed=3)
    return run_experiment(
        pair,
        config,
        [
            MethodSpec(name="Iter-MPMD", kind="iterative"),
            MethodSpec(name="SVM-MPMD", kind="svm"),
        ],
    )


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self, outcome):
        restored = outcome_from_dict(outcome_to_dict(outcome))
        assert restored.config == outcome.config
        assert set(restored.methods) == set(outcome.methods)
        for name in outcome.methods:
            original = outcome.methods[name]
            copy = restored.methods[name]
            assert copy.reports == original.reports
            assert copy.runtimes == original.runtimes
            assert copy.mean("f1") == original.mean("f1")

    def test_file_roundtrip(self, outcome, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome(outcome, path)
        restored = load_outcome(path)
        assert restored.method("Iter-MPMD").mean("accuracy") == outcome.method(
            "Iter-MPMD"
        ).mean("accuracy")

    def test_unknown_version_rejected(self, outcome):
        payload = outcome_to_dict(outcome)
        payload["format_version"] = 42
        with pytest.raises(ExperimentError, match="format version"):
            outcome_from_dict(payload)

    def test_tables_render_from_restored(self, outcome):
        from repro.eval.report import format_single_outcome

        restored = outcome_from_dict(outcome_to_dict(outcome))
        assert format_single_outcome("t", restored) == format_single_outcome(
            "t", outcome
        )


class TestRuntimeMetadata:
    def test_outcome_records_runtime(self, outcome):
        runtime = outcome.runtime
        assert runtime is not None
        assert runtime.workers == 1
        assert runtime.executor == "serial"
        assert runtime.store_dir is None
        # RSS is best-effort: positive on POSIX, 0 where unsupported.
        assert runtime.peak_rss_bytes >= 0

    def test_runtime_round_trips(self, outcome):
        payload = outcome_to_dict(outcome)
        assert payload["format_version"] == 8
        assert payload["runtime"]["executor"] == "serial"
        assert payload["runtime"]["fallback_invalidations"] >= 0
        restored = outcome_from_dict(payload)
        assert restored.runtime == outcome.runtime

    def test_runtime_carries_metrics_snapshot(self, outcome):
        payload = outcome_to_dict(outcome)
        metrics = payload["runtime"]["metrics"]
        assert metrics is not None
        # The legacy flat counters and the registry snapshot agree.
        assert (
            metrics["counters"]["session.full_recounts"]
            == payload["runtime"]["full_recounts"]
        )
        restored = outcome_from_dict(payload)
        assert restored.runtime.metrics == metrics

    def test_version6_payload_without_dispatch_counters_loads(self, outcome):
        payload = outcome_to_dict(outcome)
        payload["format_version"] = 6
        payload["runtime"].update({key: 0 for key in _V5_RPC_KEYS})
        restored = outcome_from_dict(payload)
        assert restored.runtime == outcome.runtime

    def test_version5_payload_without_metrics_loads(self, outcome):
        payload = outcome_to_dict(outcome)
        payload["format_version"] = 5
        payload["runtime"].pop("metrics")
        restored = outcome_from_dict(payload)
        assert restored.runtime.metrics is None
        assert restored.runtime.executor == "serial"

    def test_store_run_records_store_dir(self, request, tmp_path):
        pair = request.getfixturevalue("tiny_synthetic_pair")
        config = ProtocolConfig(np_ratio=5, n_repeats=1, seed=3)
        stored = run_experiment(
            pair,
            config,
            [MethodSpec(name="Iter-MPMD", kind="iterative")],
            store=tmp_path,
        )
        assert stored.runtime.store_dir == str(tmp_path)

    def test_version1_payload_still_loads(self, outcome):
        payload = outcome_to_dict(outcome)
        payload["format_version"] = 1
        payload.pop("runtime", None)
        restored = outcome_from_dict(payload)
        assert restored.runtime is None
        assert set(restored.methods) == set(outcome.methods)
        for name in outcome.methods:
            assert restored.methods[name].reports == outcome.methods[name].reports

    def test_version7_payload_with_rpc_counters_loads(self, outcome):
        payload = outcome_to_dict(outcome)
        payload["format_version"] = 7
        payload["runtime"].update(
            {key: 10 + i for i, key in enumerate(_V7_RPC_KEYS)}
        )
        restored = outcome_from_dict(payload)
        # Every other runtime field, the metrics snapshot included,
        # survives the dropped keys.
        assert restored.runtime.metrics is not None
        assert restored.runtime == outcome.runtime


class TestMalformedPayloads:
    """Every unknown or missing key fails at the boundary, by name."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("config"), "outcome is missing key 'config'"),
            (lambda p: p.pop("methods"), "outcome is missing key 'methods'"),
            (lambda p: p.update(extra=1), "outcome has unknown key 'extra'"),
            (
                lambda p: p["config"].update(alpha=0.5),
                "config has unknown key 'alpha'",
            ),
            (
                lambda p: p["config"].pop("seed"),
                "config is missing key 'seed'",
            ),
            (
                lambda p: p["methods"]["SVM-MPMD"].pop("runtimes"),
                "method 'SVM-MPMD' is missing key 'runtimes'",
            ),
            (
                lambda p: p["methods"]["SVM-MPMD"]["reports"][0].update(auc=1),
                "method 'SVM-MPMD' report 0 has unknown key 'auc'",
            ),
            (
                lambda p: p["methods"]["SVM-MPMD"]["reports"][1].pop("f1"),
                "method 'SVM-MPMD' report 1 is missing key 'f1'",
            ),
            (
                lambda p: p["runtime"].update(bogus=3),
                "runtime has unknown key 'bogus'",
            ),
            (
                lambda p: p["runtime"].pop("metrics"),
                "runtime is missing key 'metrics'",
            ),
            (
                lambda p: p["runtime"].update(rpc_retries=0),
                "runtime has unknown key 'rpc_retries'",
            ),
            (lambda p: p.update(config=[5]), "config must be an object"),
        ],
    )
    def test_rejected_with_section_and_key(self, outcome, edit, message):
        payload = outcome_to_dict(outcome)
        edit(payload)
        with pytest.raises(ExperimentError, match=re.escape(message)):
            outcome_from_dict(payload)

    def test_runtime_key_newer_than_the_format_may_be_absent(self, outcome):
        payload = outcome_to_dict(outcome)
        payload["format_version"] = 3
        for key in ("removal_updates", "compactions", "metrics"):
            payload["runtime"].pop(key)
        restored = outcome_from_dict(payload)
        assert restored.runtime.compactions == 0
        assert restored.runtime.metrics is None

    def test_rpc_keys_dropped_only_from_formats_five_to_seven(self, outcome):
        payload = outcome_to_dict(outcome)
        payload["format_version"] = 4
        payload["runtime"].pop("metrics")
        payload["runtime"]["rpc_retries"] = 2
        with pytest.raises(ExperimentError, match="unknown key 'rpc_retries'"):
            outcome_from_dict(payload)
