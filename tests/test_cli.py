import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnbench
from qnbench.cli import main

SAMPLES = "sample_inputs"


def run_cli(argv):
    captured = io.StringIO()
    old = sys.stdout
    sys.stdout = captured
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, captured.getvalue()


def test_group_command_on_shift_file():
    code, out = run_cli(["group", f"{SAMPLES}/shift_tail.json", "--radius", "2", "--budget", "200"])
    assert code == 0
    doc = json.loads(out)
    rows = {row["element"]: row for row in doc["gamma_ball"]}
    assert rows["t^-1"]["qn1_status"] == "certified_in"
    assert rows["t^-1"]["cover_size"] == 1
    assert rows["t"]["qn1_status"] == "certified_out"
    assert rows["t"]["tier"] == "exact"
    assert doc["c3"]["counterexample"] == "t^-1"
    assert doc["diagnosis"]["tier"] == "exact"


GROUP_SAMPLES = sorted(
    path.name for path in (Path(__file__).resolve().parent.parent / SAMPLES).glob("*.json")
    if "family" in json.loads(path.read_text())
)


@pytest.mark.parametrize("name", GROUP_SAMPLES)
def test_group_samples_decide_every_row(name):
    code, out = run_cli(["group", f"{SAMPLES}/{name}", "--radius", "2"])
    assert code == 0
    statuses = {row["qn1_status"] for row in json.loads(out)["gamma_ball"]}
    assert not statuses & {"skipped", "unknown"}


def test_group_command_free_file_masa_evidence():
    code, out = run_cli(["group", f"{SAMPLES}/f2_cyclic.json", "--budget", "200"])
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnosis"]["singular_evidence"] is True
    assert doc["diagnosis"]["tier"] == "exact"


def test_group_command_dihedral_cartan():
    code, out = run_cli(["group", f"{SAMPLES}/infinite_dihedral.json", "--radius", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnosis"]["cartan_evidence"] is True
    assert doc["diagnosis"]["singular_evidence"] is False


def test_group_command_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "free"}')
    code, _ = run_cli(["group", str(bad)])
    assert code == 2


def test_group_command_text_format():
    code, out = run_cli(["group", f"{SAMPLES}/f2_cyclic.json", "--radius", "1",
                         "--budget", "50", "--format", "text"])
    assert code == 0
    assert "diagnosis" in out and "singular_evidence" in out


def test_vn_command_diag_gap_half():
    code, out = run_cli(["vn", f"{SAMPLES}/diag_m2.json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gap"]["objective_value"] - 0.5) < 1e-6
    assert all(entry["ok"] for entry in doc["identities"].values())


def test_vn_command_full_subalgebra_gap_zero():
    code, out = run_cli(["vn", f"{SAMPLES}/full_m2.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"]["subalgebra_dim"] == 4
    assert doc["gap"]["objective_value"] == 0.0
    assert doc["gap"]["exact_zero"] is True


def test_vn_command_rescaled_weights_flagged():
    code, out = run_cli(["vn", f"{SAMPLES}/rescaled_weights.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"]["rescaled"] is True


def test_vn_command_tolerance_override():
    code, out = run_cli(["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "trace_identity=1e-6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["identities"]["trace_identity"]["tolerance"] == 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "nope=1"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "commutation=1"],
        ["group", f"{SAMPLES}/f2_cyclic.json", "--tolerance", "nope=1"],
        ["verify-paper", "--tolerance", "nope=1"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--budget", "10"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--radius", "1"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--threshold", "5"],
        ["group", f"{SAMPLES}/f2_cyclic.json", "--seed", "1"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "reconstruction=abc"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "trace_identity=nan"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "trace_identity=inf"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "reconstruction=-inf"],
        ["verify-paper", "--criteria", "5,x"],
        ["verify-paper", "--criteria", "11"],
        ["verify-paper", "--criteria", "0"],
    ],
    ids=["vn_unknown_key", "vn_unread_key", "group_tolerance", "verify_tolerance",
         "vn_budget", "vn_radius", "vn_threshold", "group_seed", "vn_tolerance_not_float",
         "vn_tolerance_nan", "vn_tolerance_inf", "vn_tolerance_minus_inf",
         "verify_criterion_not_int", "verify_criterion_11", "verify_criterion_0"],
)
def test_rejected_invocation_exits_2(argv):
    # bad values exit 2 from the handler, flags a subcommand does not read exit
    # 2 from the parser; either way main returns the code instead of raising
    code, _ = run_cli(argv)
    assert code == 2


def test_document_nan_tolerance_exits_2(tmp_path):
    # a NaN bound would pass every residual check, the build-time
    # Pimsner-Popa check included
    doc = json.loads(Path(SAMPLES, "diag_m2.json").read_text())
    doc["tolerances"] = {"reconstruction": float("nan")}
    path = tmp_path / "nan_tolerance.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["vn", str(path)])
    assert code == 2


BAD_GENERATOR = [[[["a", 0], [0, 0]], [[0, 0], [0, 0]]]]


@pytest.mark.parametrize(
    "change",
    [
        {"tolerances": {"reconstruction": "abc"}},
        {"blocks": ["x"]},
        {"weights": [None]},
        {"subalgebra_generators": [BAD_GENERATOR]},
    ],
    ids=["tolerance_string", "block_string", "weight_null", "entry_string"],
)
def test_document_bad_number_exits_2(tmp_path, capsys, change):
    # a value that is not a number is an input error, not a traceback
    doc = json.loads(Path(SAMPLES, "diag_m2.json").read_text())
    doc.update(change)
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["vn", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_help_returns_0():
    code, out = run_cli(["--help"])
    assert code == 0
    assert "usage: qnbench" in out


def test_cli_import_leaves_scipy_unloaded():
    # only the gap optimizer needs scipy, so the CLI must start without it
    script = "import sys, qnbench.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(qnbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_verify_paper_single_criterion():
    code, out = run_cli(["verify-paper", "--criteria", "5", "--format", "text"])
    assert code == 0
    assert "PASS criterion 5" in out


def test_verify_paper_json_deterministic():
    code1, out1 = run_cli(["verify-paper", "--criteria", "5,7", "--format", "json"])
    code2, out2 = run_cli(["verify-paper", "--criteria", "5,7", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True
    assert [c["criterion"] for c in doc["criteria"]] == [5, 7]


def test_missing_file_exit_code():
    code, _ = run_cli(["group", "does_not_exist.json"])
    assert code == 2


def test_resource_limit_exit_code(monkeypatch):
    import qnbench.cli as cli
    from qnbench.errors import ResourceLimitError

    def boom(args):
        raise ResourceLimitError("ball exceeds the cap")

    monkeypatch.setattr(cli, "run_group_analysis", boom)
    code = cli.main(["group", f"{SAMPLES}/f2_cyclic.json"])
    assert code == 3


def test_group_command_byte_identical_reruns():
    args = ["group", f"{SAMPLES}/f2_cyclic.json", "--radius", "2", "--budget", "100"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2
