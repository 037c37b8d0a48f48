"""Verdict oracle: the paper's known answers and the recorded report digests.

Every check returns a list of problems; an empty list is a correct verdict.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "digests.json"

# The seed whose report bytes are pinned by data/digests.json.  Catalog and
# construct inputs do not depend on the seed, so their digests always apply.
DEFAULT_SEED = 1

# Flags that hold for every invariant hyperhermitian metric of the family.
_ALL_FLAGS = ("hyperkaehler", "hkt", "strong_hkt", "q_balanced",
              "q_strongly_gauduchon", "q_gauduchon", "balanced", "gauduchon")
KNOWN_ANSWERS = {
    # flat: every condition holds for every metric
    "abelian": {name: True for name in _ALL_FLAGS},
    # nilpotent, not abelian: never HKT
    "qbal": {"hkt": False},
    "qsg": {"hkt": False, "q_balanced": False},
    "qgau": {"hkt": False, "q_gauduchon": True, "q_strongly_gauduchon": False},
    # nilpotent non-abelian direct sums and gluings
    "nilpotent": {"hkt": False},
}


def family(name: str) -> str | None:
    """Family of a catalog algebra or of an input named after one."""
    for prefix in ("abelian", "qbal", "qsg", "qgau"):
        if name.startswith(prefix):
            return prefix
    return None


def check_flags(flags: dict, fam: str | None, known=KNOWN_ANSWERS) -> list:
    """Flags (name -> bool) against the known answers of the family."""
    problems = []
    for name, want in known.get(fam, {}).items():
        got = flags.get(name)
        if got is not want:
            problems.append(f"flag {name} is {got}, the paper says {want}")
    return problems


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def check_digest(recorded: dict, workload: str, seed: int, input_id: str,
                 data: bytes, seed_dependent: bool) -> list:
    if seed_dependent and seed != DEFAULT_SEED:
        return []
    want = recorded.get(workload, {}).get(input_id)
    if want is None:
        return [f"no recorded digest for {workload}/{input_id}"]
    got = digest(data)
    if got != want:
        return [f"report bytes changed: sha256 {got[:12]} != recorded {want[:12]}"]
    return []
