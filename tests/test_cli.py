import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
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
    # the functional is 1/2 on every diagonal unitary: restarts that land
    # lower by rounding noise alone do not replace the restart-0 unitary 1
    assert doc["gap"]["minimizer"] == [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]


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


def test_vn_command_tolerance_override_keeps_document_tolerances(tmp_path):
    doc = json.loads(Path(SAMPLES, "diag_m2.json").read_text())
    doc["tolerances"] = {"reconstruction": 1e-3}
    path = tmp_path / "loose_reconstruction.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["vn", str(path), "--tolerance", "trace_identity=1e-6"])
    assert code == 0
    identities = json.loads(out)["identities"]
    assert identities["trace_identity"]["tolerance"] == 1e-6
    assert identities["module_reconstruction"]["tolerance"] == 1e-3


# what the message of a rejected tolerance names: a kept unnormalized trace
# and a zero rank cutoff each failed in the closure with an unrelated message
NAMED_IN_MESSAGE = {"vn_tolerance_loose_weight_sum": ("weight_sum", "tau(1) = 2"),
                    "vn_tolerance_zero_closure": ("subalgebra_closure",)}


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
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "subalgebra_closure=1e300"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "weight_sum=-5"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "subalgebra_closure=-1"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "pull_down=1"],
        ["vn", f"{SAMPLES}/rescaled_weights.json", "--tolerance", "weight_sum=1"],
        ["vn", f"{SAMPLES}/diag_m2.json", "--tolerance", "subalgebra_closure=0"],
        ["verify-paper", "--criteria", "5,x"],
        ["verify-paper", "--criteria", "11"],
        ["verify-paper", "--criteria", "0"],
        ["verify-paper", "--criteria", "5", "--threshold", "1"],
        ["verify-paper", "--criteria", "5", "--threshold", "-5"],
        ["verify-paper", "--criteria", "6", "--budget", "0"],
        ["verify-paper", "--criteria", "1", "--radius", "-1"],
    ],
    ids=["vn_unknown_key", "vn_unread_key", "group_tolerance", "verify_tolerance",
         "vn_budget", "vn_radius", "vn_threshold", "group_seed", "vn_tolerance_not_float",
         "vn_tolerance_nan", "vn_tolerance_inf", "vn_tolerance_minus_inf",
         "vn_tolerance_squares_to_inf", "vn_tolerance_negative_weight_sum",
         "vn_tolerance_negative_closure", "vn_pull_down_is_a_constant",
         "vn_tolerance_loose_weight_sum", "vn_tolerance_zero_closure",
         "verify_criterion_not_int", "verify_criterion_11", "verify_criterion_0",
         "verify_threshold_1", "verify_threshold_negative", "verify_budget_0",
         "verify_radius_negative"],
)
def test_rejected_invocation_exits_2(argv, request, capsys):
    # bad values exit 2 from the handler, flags a subcommand does not read exit
    # 2 from the parser; either way main returns the code instead of raising
    code, _ = run_cli(argv)
    assert code == 2
    err = capsys.readouterr().err
    for name in NAMED_IN_MESSAGE.get(request.node.callspec.id, ()):
        assert name in err, (name, err)


def test_document_nan_tolerance_exits_2(tmp_path):
    # a NaN bound would pass every residual check, the build-time
    # Pimsner-Popa check included
    doc = json.loads(Path(SAMPLES, "diag_m2.json").read_text())
    doc["tolerances"] = {"reconstruction": float("nan")}
    path = tmp_path / "nan_tolerance.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["vn", str(path)])
    assert code == 2


def test_block_weight_below_the_closure_floor_exits_2(tmp_path, capsys):
    # C + C with weights (1e-30, 1): the minimal projection of block 0 has
    # trace norm 1e-15, under the closure's 1e-10 rank cutoff
    doc = {"blocks": [1, 1], "weights": [1e-30, 1.0],
           "subalgebra_generators": [[[[[0, 0]]], [[[1, 0]]]]]}
    path = tmp_path / "tiny_weight.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["vn", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: block 0 has normalized weight 1e-30, below subalgebra_closure^2 = 1e-20\n")


BAD_GENERATOR = [[[["a", 0], [0, 0]], [[0, 0], [0, 0]]]]


@pytest.mark.parametrize(
    "change",
    [
        {"tolerances": {"reconstruction": "abc"}},
        {"blocks": ["x"]},
        {"weights": [None]},
        {"subalgebra_generators": [BAD_GENERATOR]},
        {"tolerances": {"subalgebra_closure": 1e200}},
        {"tolerances": {"trace_identity": -1e-10}},
        {"tolerances": {"subalgebra_closure": 0}},
    ],
    ids=["tolerance_string", "block_string", "weight_null", "entry_string",
         "tolerance_squares_to_inf", "tolerance_negative", "tolerance_zero_closure"],
)
def test_document_bad_number_exits_2(tmp_path, capsys, change):
    # a value that is not a number, or not a usable bound, is an input
    # error, not a traceback
    doc = json.loads(Path(SAMPLES, "diag_m2.json").read_text())
    doc.update(change)
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["vn", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err



@pytest.mark.parametrize("command, doc", [
    ("vn", {**json.loads(Path(SAMPLES, "diag_m2.json").read_text()), "seed": 10**400}),
    ("group", {"family": "shift_extension", "generator_window": 10**400, "subgroup": "K0"}),
], ids=["vn_seed", "group_generator_window"])
def test_document_integer_beyond_float_range_exits_2(tmp_path, capsys, command, doc):
    # math.isfinite overflows on such an int; it is an input error like inf
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli([command, str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an integer" in err


@pytest.mark.parametrize("doc", [
    {"family": "free", "generators": ["a", "b"], "subgroup_generators": ["a^100000000000"]},
    {"family": "shift_extension", "generator_window": 1, "subgroup_generators": ["g0^100000000000"]},
    {"family": "free", "generators": ["a"], "subgroup_generators": ["a^" + "9" * 5000]},
], ids=["free", "shift_extension", "beyond_int_conversion"])
def test_word_power_beyond_the_cap_exits_2_at_once(tmp_path, capsys, doc):
    # a power token used to be expanded letter by letter, so the first two
    # never finished; 5000 digits exceed the interpreter's int conversion
    # limit, which raised ValueError out of main
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _ = run_cli(["group", str(path)])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "exceeds 10000 in size" in capsys.readouterr().err

S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
            [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
S3_DOC = {"family": "finite_table", "table": S3_TABLE, "subgroup_generators": ["x1"]}
FREE_DOC = {"family": "free", "generators": ["a", "b"], "subgroup_generators": ["a"]}
FP_DOC = {"family": "fp", "generators": ["a", "r"], "relators": ["r r", "r a r a"],
          "rewriting_rules": [["r^-1", "r"], ["r r", ""], ["r a", "a^-1 r"], ["r a^-1", "a r"]],
          "subgroup_generators": ["a"]}
GROUP_DOCS = {
    "free": FREE_DOC,
    "fp": FP_DOC,
    "finite_table": S3_DOC,
    "shift_extension": {"family": "shift_extension", "generator_window": 1, "subgroup": "K0"},
    "shift_generators": {"family": "shift_extension", "generator_window": 1,
                         "subgroup_generators": ["g0", "g1"]},
    "direct_product": {"family": "direct_product", "left": FREE_DOC, "right": S3_DOC},
}


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("flags", [["--threshold", "1"], ["--threshold", "-5"],
                                   ["--budget", "0"], ["--budget", "-3"]],
                         ids=["threshold_1", "threshold_negative", "budget_0", "budget_negative"])
@pytest.mark.parametrize("family", sorted(GROUP_DOCS))
def test_group_vacuous_search_settings_exit_2(tmp_path, capsys, family, flags):
    # a threshold below 2 made C1 hold with one conjugate; budget 0 exited 2
    # on some families only
    code, out = run_cli(["group", write_doc(tmp_path, GROUP_DOCS[family]), "--radius", "1",
                         *flags])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("family", sorted(GROUP_DOCS))
def test_group_documents_of_every_family_run(tmp_path, family):
    code, out = run_cli(["group", write_doc(tmp_path, GROUP_DOCS[family]), "--radius", "1",
                         "--threshold", "2", "--budget", "1"])
    assert code == 0
    assert json.loads(out)["config"] == {"radius": 1, "budget": 1, "threshold": 2}


@pytest.mark.parametrize(
    "doc",
    [
        {**FREE_DOC, "generators": ["a", 2]},
        {**FREE_DOC, "generators": "ab"},
        {**FREE_DOC, "subgroup_generators": [1]},
        {**GROUP_DOCS["shift_generators"], "subgroup_generators": [["g0"]]},
        {**S3_DOC, "subgroup_generators": [[1]]},
        {**FP_DOC, "relators": [["r", "r"]]},
        {**FP_DOC, "rewriting_rules": [["r^-1", 1]]},
        {**FP_DOC, "rewriting_rules": [["r^-1", "r", "r"]]},
        {**FP_DOC, "rewriting_rules": "r^-1 r"},
        {**S3_DOC, "element_names": ["e", "x1", 2, 3, 4, 5]},
        {**S3_DOC, "table": [["x"] * 6] + S3_TABLE[1:]},
        {**S3_DOC, "table": [0, 1]},
        {"family": "direct_product", "left": FREE_DOC,
         "right": {**S3_DOC, "table": [[None] * 6] + S3_TABLE[1:]}},
        {**FREE_DOC, "subgroup_generators": [" ".join(["a^10000 b"] * 5)]},
        {**FREE_DOC, "subgroup_generators": ["a^10000 b"] * 100},
    ],
    ids=["generators_entry", "generators_string", "subgroup_generators_free",
         "subgroup_generators_shift", "subgroup_generators_table", "relators",
         "rewriting_rule_entry", "rewriting_rule_length", "rewriting_rules_string",
         "element_names", "table_entry", "table_row", "product_table_entry",
         "word_letters", "document_letters"],
)
def test_group_document_bad_value_exits_2(tmp_path, capsys, doc):
    # values of the wrong type are input errors, not tracebacks
    code, _ = run_cli(["group", write_doc(tmp_path, doc), "--radius", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_group_shift_tail_product_c1_counts_the_whole_tail(tmp_path):
    # K0 lists only g0 in window 0; conjugating (g0, x3) by the listed
    # generators closes at two elements, but g1 in K0 moves g0 to infinitely many
    doc = {"family": "direct_product",
           "left": {"family": "shift_extension", "generator_window": 0, "subgroup": "K0"},
           "right": S3_DOC}
    code, out = run_cli(["group", write_doc(tmp_path, doc), "--radius", "2"])
    assert code == 0
    rows = {row["element"]: row for row in json.loads(out)["c1"]["results"]}
    assert rows["(g0, x3)"] == {"element": "(g0, x3)", "kind": "at_least", "count": 100}
    assert rows["(1, x3)"]["kind"] == "finite"  # a class of the S3 factor alone
    assert all(row["kind"] == "at_least" for name, row in rows.items() if "g0" in name)


def test_help_returns_0():
    code, out = run_cli(["--help"])
    assert code == 0
    assert "usage: qnbench" in out


def _fresh_interpreter(script: str) -> str:
    """Stdout of ``script`` in a new interpreter that imports qnbench from src."""
    src = str(Path(qnbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # the package depends on numpy alone: neither the import nor a gap run
    # (diag_m2 has witness pairs) loads scipy
    script = ("import contextlib, io, sys\n"
              "from qnbench.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    assert main(['vn', '{SAMPLES}/diag_m2.json']) == 0\n"
              "print([m for m in sys.modules if m.startswith('scipy')])")
    assert _fresh_interpreter(script) == "[]"


MATRIX_ENGINE = ["numpy"] + [f"qnbench.{name}" for name in (
    "matrixalg", "expectations", "basic", "bimodule", "corners", "wahp", "acceptance",
    "group_algebra")]


@pytest.mark.parametrize("document", [None, "f2_cyclic", "shift_tail"],
                         ids=["import", "group_f2_cyclic", "group_shift_tail"])
def test_group_side_leaves_the_matrix_engine_unloaded(document):
    # each command imports only the engine it runs: the cli import and a
    # group run on a free or shift document load neither numpy nor a matrix
    # module
    assert all(importlib.util.find_spec(name) for name in MATRIX_ENGINE)
    script = "import contextlib, io, sys\nfrom qnbench.cli import main\n"
    if document is not None:
        script += ("with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert main(['group', '{SAMPLES}/{document}.json']) == 0\n")
    script += f"print([name for name in {MATRIX_ENGINE!r} if name in sys.modules])"
    assert _fresh_interpreter(script) == "[]"


def test_package_exports_resolve_to_their_home_modules():
    # qnbench.X loads X's home module on first access and is its object
    table = qnbench._EXPORTS
    assert len(qnbench.__all__) == len(set(qnbench.__all__)) == sum(map(len, table.values()))
    for module, names in table.items():
        home = importlib.import_module(f"qnbench.{module}")
        for name in names:
            assert getattr(qnbench, name) is getattr(home, name), name
    assert set(qnbench.__all__) <= set(dir(qnbench))
    with pytest.raises(AttributeError, match="no_such_export"):
        qnbench.no_such_export


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
