"""``hha classify --format json`` on every catalog export and on the seed-pinned
``dense`` and ``quadratic`` bench inputs, exact and ``--float``, in the
standard frame and the rotated pair, reproduces the report digests recorded
in ``tests/data/cli_digests.json`` (re-pin with
``tests/record_cli_digests.py``)."""
import json

from record_cli_digests import DIGESTS_PATH, cli_digests


def test_classify_reports_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("HHA_DEFAULT_FIELD", raising=False)
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert cli_digests(tmp_path) == recorded
