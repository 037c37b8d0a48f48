"""The CLI reproduces the output digests recorded by
``tests/record_cli_digests.py``: ``hha classify --format json`` on every
catalog export and on the seed-pinned ``dense`` and ``quadratic`` bench
inputs, exact and ``--float``, in the standard frame and the rotated pairs
(``tests/data/cli_digests.json``); and, exact only, ``hha catalog run all
--verbose`` and ``hha check`` and ``classify --format text`` on the same
documents (``tests/data/cli_gate_digests.json``)."""
import json

import pytest

from record_cli_digests import (
    CATALOG_RUN,
    DIGESTS_PATH,
    GATE_PATH,
    cli_digests,
    gate_digests,
    write_documents,
)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HHA_DEFAULT_FIELD", raising=False)
        yield write_documents(tmp_path_factory.mktemp("documents"))


@pytest.fixture(scope="module")
def gate(documents):
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HHA_DEFAULT_FIELD", raising=False)
        yield gate_digests(documents)


@pytest.fixture(scope="module")
def recorded_gate():
    return json.loads(GATE_PATH.read_text())


def test_classify_reports_match_the_recorded_digests(documents, monkeypatch):
    monkeypatch.delenv("HHA_DEFAULT_FIELD", raising=False)
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert cli_digests(documents) == recorded


def test_verbose_catalog_run_matches_its_recorded_digest(gate, recorded_gate):
    key = " ".join(CATALOG_RUN)
    assert gate[key] == recorded_gate[key]


def test_check_outputs_match_the_recorded_digests(gate, recorded_gate):
    assert len(gate["check"]) == 45
    assert gate["check"] == recorded_gate["check"]


def test_text_reports_match_the_recorded_digests(gate, recorded_gate):
    assert gate["classify --format text"] == recorded_gate["classify --format text"]
