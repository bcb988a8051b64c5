"""JSON persistence of experiment outcomes.

Long sweeps are expensive; this module serializes
:class:`~repro.eval.experiment.ExperimentOutcome` objects (per-fold
reports and runtimes, not just aggregates) so results can be archived,
diffed across runs and re-rendered into tables without recomputation.

Format history:

* **1** — config + per-method reports/runtimes;
* **2** — adds the optional ``runtime`` block
  (:class:`~repro.eval.experiment.RuntimeMetadata`: executor kind,
  workers, store directory, peak RSS).  Version-1 files load fine —
  their outcomes simply carry no runtime metadata.
* **3** — the runtime block gains the session's full-recount counters
  (``full_recounts``, ``fallback_invalidations``), so archived results
  show when a run silently fell off the sparse delta path.  Version-1
  and -2 files load fine — the new counters default to zero.
* **4** — the runtime block gains the churn counters
  (``removal_updates``, ``compactions``) of the event-sourced removal/
  compaction path.  Older files load fine — the counters default to
  zero.
* **5** — the runtime block gains the RPC transport counters
  (``rpc_jobs_shipped``, ``rpc_bytes_synced``, ``rpc_cache_hits``,
  ``rpc_retries``, ``rpc_stragglers``) of the multi-host executor.
  That executor is gone: the loader drops these keys.
* **6** — the runtime block carries the full ``repro.obs`` metrics
  registry snapshot (``metrics``: every named counter/gauge/histogram
  of the session and its executor), superseding the hand-picked
  counter subset above — which remains populated for compatibility.
  Older files load fine — their ``metrics`` is ``None``.
* **7** — the runtime block gains the multi-host executor's dispatch
  counters (``rpc_bytes_shipped``, ``rpc_jobs_batched``,
  ``rpc_fn_cache_hits``).  The loader drops these keys too.
* **8** — the runtime block carries no ``rpc_*`` keys.  Every section
  is checked on load: an unknown key, or a key the file's format
  writes but the file lacks, raises :class:`ExperimentError` naming
  the section and the key.  A runtime key newer than the file's
  format takes the field's default.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import AbstractSet, Dict, Union

from repro.eval.experiment import (
    ExperimentOutcome,
    MethodResult,
    RuntimeMetadata,
)
from repro.eval.protocol import ProtocolConfig
from repro.exceptions import ExperimentError
from repro.ml.metrics import ClassificationReport

_FORMAT_VERSION = 8

#: Versions :func:`outcome_from_dict` can read.
_READABLE_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8)

#: Runtime keys newer than the block itself (format 2), with the format
#: that introduced each; an older file may lack them.
_RUNTIME_SINCE = {
    "full_recounts": 3,
    "fallback_invalidations": 3,
    "removal_updates": 4,
    "compactions": 4,
    "metrics": 6,
}

#: Runtime keys of formats 5-7 whose fields no longer exist.
_DROPPED_RUNTIME_KEYS = frozenset(
    {
        "rpc_jobs_shipped",
        "rpc_bytes_synced",
        "rpc_cache_hits",
        "rpc_retries",
        "rpc_stragglers",
        "rpc_bytes_shipped",
        "rpc_jobs_batched",
        "rpc_fn_cache_hits",
    }
)


def outcome_to_dict(outcome: ExperimentOutcome) -> Dict:
    """Serialize an outcome (full per-fold detail) to a plain dict."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "config": {
            "np_ratio": outcome.config.np_ratio,
            "sample_ratio": outcome.config.sample_ratio,
            "n_folds": outcome.config.n_folds,
            "n_repeats": outcome.config.n_repeats,
            "seed": outcome.config.seed,
        },
        "methods": {
            name: {
                "reports": [report.as_dict() for report in result.reports],
                "runtimes": list(result.runtimes),
            }
            for name, result in outcome.methods.items()
        },
    }
    if outcome.runtime is not None:
        payload["runtime"] = asdict(outcome.runtime)
    return payload


def _section(
    name: str,
    data,
    known: AbstractSet[str],
    optional: AbstractSet[str] = frozenset(),
    dropped: AbstractSet[str] = frozenset(),
) -> Dict:
    """``data`` without its ``dropped`` keys, once checked to be a dict
    with no key outside ``known`` and every known key not ``optional``."""
    if not isinstance(data, dict):
        raise ExperimentError(
            f"{name} must be an object, got {type(data).__name__}"
        )
    for key in data:
        if key not in known and key not in dropped:
            raise ExperimentError(f"{name} has unknown key {key!r}")
    for key in sorted(known - optional):
        if key not in data:
            raise ExperimentError(f"{name} is missing key {key!r}")
    return {key: value for key, value in data.items() if key not in dropped}


def _field_names(cls) -> AbstractSet[str]:
    return frozenset(field.name for field in fields(cls))


def outcome_from_dict(payload: Dict) -> ExperimentOutcome:
    """Inverse of :func:`outcome_to_dict` (reads every format in
    ``_READABLE_VERSIONS``)."""
    version = payload.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ExperimentError(
            f"unsupported outcome format version {version!r}"
        )
    payload = _section(
        "outcome",
        payload,
        {"format_version", "config", "methods", "runtime"},
        optional={"runtime"},
    )
    config = ProtocolConfig(
        **_section("config", payload["config"], _field_names(ProtocolConfig))
    )
    if not isinstance(payload["methods"], dict):
        raise ExperimentError(
            f"methods must be an object, got {type(payload['methods']).__name__}"
        )
    report_keys = _field_names(ClassificationReport)
    methods: Dict[str, MethodResult] = {}
    for name, data in payload["methods"].items():
        section = f"method {name!r}"
        data = _section(section, data, {"reports", "runtimes"})
        result = MethodResult(name=name)
        result.reports = [
            ClassificationReport(
                **_section(f"{section} report {i}", report, report_keys)
            )
            for i, report in enumerate(data["reports"])
        ]
        result.runtimes = list(data["runtimes"])
        methods[name] = result
    runtime = None
    if payload.get("runtime") is not None:
        runtime = RuntimeMetadata(
            **_section(
                "runtime",
                payload["runtime"],
                _field_names(RuntimeMetadata),
                optional={
                    key for key, since in _RUNTIME_SINCE.items() if since > version
                },
                dropped=_DROPPED_RUNTIME_KEYS if 5 <= version <= 7 else frozenset(),
            )
        )
    return ExperimentOutcome(config=config, methods=methods, runtime=runtime)


def save_outcome(outcome: ExperimentOutcome, path: Union[str, Path]) -> None:
    """Write an outcome to a JSON file."""
    Path(path).write_text(json.dumps(outcome_to_dict(outcome), indent=2))


def load_outcome(path: Union[str, Path]) -> ExperimentOutcome:
    """Read an outcome from a JSON file."""
    return outcome_from_dict(json.loads(Path(path).read_text()))
