"""Tests for the opt-in logging configuration (repro.obs.logsetup)."""

import io
import json
import logging

import pytest

from repro.obs import logging_setup


@pytest.fixture(autouse=True)
def _clean_repro_logger():
    """Remove any handler this test run installs on the repro logger."""
    yield
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True


def test_text_format_emits_aligned_lines():
    stream = io.StringIO()
    logging_setup(level=logging.INFO, stream=stream)
    logging.getLogger("repro.engine.session").info("hello %s", "world")
    line = stream.getvalue().strip()
    assert "INFO" in line
    assert "repro.engine.session" in line
    assert line.endswith("hello world")


def test_json_format_carries_extra_fields():
    stream = io.StringIO()
    logging_setup(level="debug", fmt="json", stream=stream)
    logging.getLogger("repro.engine.parallel").debug(
        "synced", extra={"worker": "h:1", "blobs": 3}
    )
    record = json.loads(stream.getvalue())
    assert record["level"] == "DEBUG"
    assert record["logger"] == "repro.engine.parallel"
    assert record["message"] == "synced"
    assert record["worker"] == "h:1"
    assert record["blobs"] == 3


def test_reconfiguring_replaces_rather_than_stacks():
    first, second = io.StringIO(), io.StringIO()
    logging_setup(stream=first)
    logging_setup(stream=second)
    logging.getLogger("repro.anything").info("once")
    assert first.getvalue() == ""
    assert second.getvalue().count("once") == 1


def test_level_gates_records():
    stream = io.StringIO()
    logging_setup(level=logging.WARNING, stream=stream)
    logging.getLogger("repro.quiet").info("suppressed")
    logging.getLogger("repro.quiet").warning("loud")
    assert "suppressed" not in stream.getvalue()
    assert "loud" in stream.getvalue()


def test_bad_arguments_rejected():
    with pytest.raises(ValueError, match="format"):
        logging_setup(fmt="xml")
    with pytest.raises(ValueError, match="level"):
        logging_setup(level="blaring")
