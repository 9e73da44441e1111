"""Byte-for-byte guards on the CLI output.

``tests/golden`` holds the ``group --format json`` output of every group
document in ``sample_inputs`` and the ``details`` of ``verify-paper
--criteria 1,2,3,4,5``.  The pass flags are left out of the latter: they
carry wall-time bounds.

The ``vn`` output of every matrix document is pinned as ``vn_<name>.json``
with each ``identities.*.residual`` masked to ``null``: a residual is
rounding noise, so it is checked only against its own tolerance, and every
other float must match to 1e-12.

After an intended output change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
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
VN_DOCUMENTS = ["diag_m2", "full_m2", "rescaled_weights"]
PAPER_CRITERIA = "1,2,3,4,5"


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def group_output(name: str) -> str:
    return _run(["group", str(ROOT / "sample_inputs" / f"{name}.json"), "--format", "json"])


def vn_output(name: str) -> dict:
    return json.loads(_run(["vn", str(ROOT / "sample_inputs" / f"{name}.json"), "--format", "json"]))


def mask_residuals(doc: dict) -> dict:
    return {**doc, "identities": {name: {**row, "residual": None}
                                  for name, row in doc["identities"].items()}}


def assert_close(got, want, path="$"):
    """Equal structure and non-float values; floats equal to 1e-12."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        assert abs(got - want) <= 1e-12, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


def paper_details() -> str:
    doc = json.loads(_run(["verify-paper", "--criteria", PAPER_CRITERIA, "--format", "json"]))
    pinned = [{"criterion": c["criterion"], "details": c["details"]} for c in doc["criteria"]]
    return json.dumps(pinned, separators=(",", ":")) + "\n"


def test_golden_set_covers_every_group_document():
    names = sorted(p.stem for p in (ROOT / "sample_inputs").glob("*.json")
                   if "family" in json.loads(p.read_text()))
    assert names == GROUP_DOCUMENTS


def test_golden_set_covers_every_matrix_document():
    names = sorted(p.stem for p in (ROOT / "sample_inputs").glob("*.json")
                   if "blocks" in json.loads(p.read_text()))
    assert names == VN_DOCUMENTS


@pytest.mark.parametrize("name", VN_DOCUMENTS)
def test_vn_output_matches_golden_up_to_residual_digits(name):
    doc = vn_output(name)
    for identity, row in doc["identities"].items():
        assert row["residual"] <= row["tolerance"], identity
    want = json.loads((GOLDEN / f"vn_{name}.json").read_text())
    assert_close(mask_residuals(doc), want)


@pytest.mark.parametrize("name", GROUP_DOCUMENTS)
def test_group_output_matches_golden_bytes(name):
    assert group_output(name) == (GOLDEN / f"{name}.json").read_text()


def test_verify_paper_details_match_golden_bytes():
    assert paper_details() == (GOLDEN / "verify_paper_details.json").read_text()


if __name__ == "__main__":
    for name in GROUP_DOCUMENTS:
        (GOLDEN / f"{name}.json").write_text(group_output(name))
    for name in VN_DOCUMENTS:
        (GOLDEN / f"vn_{name}.json").write_text(
            json.dumps(mask_residuals(vn_output(name)), separators=(",", ":")) + "\n")
    (GOLDEN / "verify_paper_details.json").write_text(paper_details())
