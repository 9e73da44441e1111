"""Byte-for-byte guards on the CLI output.

``tests/golden`` holds the ``group --format json`` output of every group
document in ``sample_inputs`` and the ``details`` of ``verify-paper
--criteria 1,2,3,4,5``.  The pass flags are left out of the latter: they
carry wall-time bounds.  After an intended output change, rewrite the files
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qnbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GROUP_DOCUMENTS = ["f2_cyclic", "f2_index_two", "infinite_dihedral", "lattice_rank_two",
                   "shift_tail"]
PAPER_CRITERIA = "1,2,3,4,5"


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def group_output(name: str) -> str:
    return _run(["group", str(ROOT / "sample_inputs" / f"{name}.json"), "--format", "json"])


def paper_details() -> str:
    doc = json.loads(_run(["verify-paper", "--criteria", PAPER_CRITERIA, "--format", "json"]))
    pinned = [{"criterion": c["criterion"], "details": c["details"]} for c in doc["criteria"]]
    return json.dumps(pinned, separators=(",", ":")) + "\n"


def test_golden_set_covers_every_group_document():
    names = sorted(p.stem for p in (ROOT / "sample_inputs").glob("*.json")
                   if "family" in json.loads(p.read_text()))
    assert names == GROUP_DOCUMENTS


@pytest.mark.parametrize("name", GROUP_DOCUMENTS)
def test_group_output_matches_golden_bytes(name):
    assert group_output(name) == (GOLDEN / f"{name}.json").read_text()


def test_verify_paper_details_match_golden_bytes():
    assert paper_details() == (GOLDEN / "verify_paper_details.json").read_text()


if __name__ == "__main__":
    for name in GROUP_DOCUMENTS:
        (GOLDEN / f"{name}.json").write_text(group_output(name))
    (GOLDEN / "verify_paper_details.json").write_text(paper_details())
