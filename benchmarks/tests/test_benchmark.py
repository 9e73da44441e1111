"""Self-tests of the benchmark: generator, output checks, metric names, tracer.

Run from the repository root with ``python3 -m pytest benchmarks/tests -q``.
"""

import itertools
import json
import re
from pathlib import Path

import pytest

import checks
import run
import tracer as tracing
from workloads import WORKLOADS, build_jobs

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _docs(jobs):
    return {job.doc.name: job.doc.read_bytes() for job in jobs if job.doc is not None}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    first = build_jobs(workload, 7, tmp_path / "a")
    second = build_jobs(workload, 7, tmp_path / "b")
    assert [j.argv[0] for j in first] == [j.argv[0] for j in second]
    assert _docs(first) == _docs(second)


@pytest.mark.parametrize("workload", ["group-orbit", "group-exact", "vn-large"])
def test_seed_changes_generated_documents(workload, tmp_path):
    a = _docs(build_jobs(workload, 1, tmp_path / "a"))
    b = _docs(build_jobs(workload, 2, tmp_path / "b"))
    assert a.keys() == b.keys()
    assert any(a[name] != b[name] for name in a)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == [name for name, _ in tracing.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    for name in end_to_end + per_layer + list(WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)


# -- output checks ----------------------------------------------------------------


def _fake_group_output(ref):
    output = {key: None for key in ref["keys"]}
    output["gamma_ball"] = [
        {"element": e, "in_subgroup": "no", "qn1_status": s, "cover_size": c, "tier": "exact"}
        for e, s, c in ref["rows"]
    ]
    return output


def _failures(jobs, workload, outputs):
    """Run fake jobs whose main prints the given outputs; return the failure count."""
    by_argv = {tuple(job.argv): text for job, text in zip(jobs, outputs)}

    def fake_main(argv):
        text = by_argv[tuple(argv)]
        if isinstance(text, BaseException):
            raise text
        if isinstance(text, int):
            return text
        print(text)
        return 0

    records = [run.run_job(fake_main, job) for job in jobs]
    return run.check_records(records, checks.load_reference(workload))


@pytest.fixture
def f2_cyclic(tmp_path):
    jobs = build_jobs("group-exact", 42, tmp_path)
    job = next(j for j in jobs if j.name == "f2_cyclic.r5")
    return job, checks.load_reference("group-exact")[job.name]


def test_reference_output_passes(f2_cyclic):
    job, ref = f2_cyclic
    assert _failures([job], "group-exact", [json.dumps(_fake_group_output(ref))]) == 0


def test_flipped_verdict_is_a_failed_job(f2_cyclic):
    job, ref = f2_cyclic
    output = _fake_group_output(ref)
    row = next(r for r in output["gamma_ball"] if r["qn1_status"] == "certified_in")
    row["qn1_status"], row["cover_size"] = "certified_out", None
    assert _failures([job], "group-exact", [json.dumps(output)]) == 1


def test_decided_row_turning_unknown_is_a_failed_job(f2_cyclic):
    job, ref = f2_cyclic
    output = _fake_group_output(ref)
    row = next(r for r in output["gamma_ball"] if r["qn1_status"] == "certified_out")
    row["qn1_status"] = "unknown"
    assert _failures([job], "group-exact", [json.dumps(output)]) == 1


def test_reordered_top_level_fields_fail(f2_cyclic):
    job, ref = f2_cyclic
    output = _fake_group_output(ref)
    reordered = dict(reversed(list(output.items())))
    assert _failures([job], "group-exact", [json.dumps(reordered)]) == 1


def test_unknown_row_may_become_decided(tmp_path):
    jobs = build_jobs("group-orbit", 42, tmp_path)
    job = next(j for j in jobs if j.name == "shift_tail.r3")
    ref = checks.load_reference("group-orbit")[job.name]
    output = _fake_group_output(ref)
    row = next(r for r in output["gamma_ball"] if r["qn1_status"] == "unknown")
    row["qn1_status"], row["cover_size"] = "certified_in", 1
    assert _failures([job], "group-orbit", [json.dumps(output)]) == 0


def test_other_seed_is_checked_as_a_multiset(tmp_path):
    jobs = build_jobs("group-exact", 5, tmp_path)
    job = next(j for j in jobs if j.name == "f2_commutator.r5")
    ref = checks.load_reference("group-exact")[job.name]
    output = _fake_group_output(ref)
    for i, row in enumerate(output["gamma_ball"]):
        row["element"] = f"x{i}"  # other element names, same verdicts
    assert _failures([job], "group-exact", [json.dumps(output)]) == 0
    row = next(r for r in output["gamma_ball"] if r["qn1_status"] == "certified_in")
    row["qn1_status"], row["cover_size"] = "certified_out", None
    assert _failures([job], "group-exact", [json.dumps(output)]) == 1


def test_raising_nonzero_or_malformed_jobs_fail(f2_cyclic):
    job, _ = f2_cyclic
    assert _failures([job], "group-exact", [RuntimeError("boom")]) == 1
    assert _failures([job], "group-exact", [3]) == 1
    assert _failures([job], "group-exact", ['{"gamma": []}']) == 1


def _s3_doc():
    from workloads import _cycle, perm_name

    elements = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[tuple(p[x] for x in q)] for q in elements] for p in elements]
    return {"family": "finite_table", "table": table,
            "element_names": [perm_name(p) for p in elements],
            "subgroup_generators": [perm_name(_cycle(0, 1, degree=3))]}


def test_double_coset_count_is_independent_of_the_program():
    sizes = checks.double_coset_sizes(_s3_doc())
    assert sizes["p012"] == (1, True) and sizes["p102"] == (1, True)
    assert all(size == (2, False) for name, size in sizes.items() if name not in ("p012", "p102"))


def test_wrong_finite_cover_size_fails():
    doc = _s3_doc()
    sizes = checks.double_coset_sizes(doc)
    output = {"gamma_ball": [
        {"element": name, "in_subgroup": "yes" if member else "no",
         "qn1_status": "certified_in", "cover_size": cover}
        for name, (cover, member) in sizes.items()]}
    checks.check_table_rows(output, doc)
    output["gamma_ball"][-1]["cover_size"] += 1
    with pytest.raises(checks.CheckFailure):
        checks.check_table_rows(output, doc)


def _vn_output(ref, ok=True):
    output = {key: None for key in ref["keys"]}
    output["identities"] = {name: {"ok": True} for name in checks.IDENTITIES}
    if not ok:
        del output["identities"]["vector_norm_match"]["ok"]
    return output


def test_dropped_identity_ok_is_a_failed_job(tmp_path):
    jobs = build_jobs("vn-large", 42, tmp_path)[:1]
    ref = checks.load_reference("vn-large")[jobs[0].name]
    assert _failures(jobs, "vn-large", [json.dumps(_vn_output(ref))]) == 0
    assert _failures(jobs, "vn-large", [json.dumps(_vn_output(ref, ok=False))]) == 1


def test_failing_criterion_is_a_failed_job(tmp_path):
    jobs = build_jobs("paper", 42, tmp_path)[:1]
    good = {"criteria": [{"criterion": 1, "passed": True}], "all_passed": True}
    bad = {"criteria": [{"criterion": 1, "passed": False}], "all_passed": False}
    assert _failures(jobs, "paper", [json.dumps(good)]) == 0
    assert _failures(jobs, "paper", [json.dumps(bad)]) == 1


# -- timing helpers and tracer -------------------------------------------------------------


class _Rec:
    def __init__(self, seconds):
        self.seconds = seconds


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([_Rec(1.0)] * 19)[0] is None
    p, _, n = run.tail([_Rec(float(i)) for i in range(200)])
    assert (p, n) == (95.0, 200)


def test_tracer_wraps_imported_names_and_restores_them(tmp_path):
    import qnbench.certificates as certificates
    import qnbench.subgroups as subgroups
    from qnbench.cli import main

    original = subgroups.coset_key
    assert certificates.coset_key is original
    jobs = build_jobs("group-exact", 42, tmp_path)
    job = next(j for j in jobs if j.name == "s4_klein.r1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert certificates.coset_key is not original
        record = run.run_job(main, job)
    finally:
        tracer.uninstall()
    assert record.rc == 0
    assert subgroups.coset_key is original and certificates.coset_key is original
    summary = tracer.summary()
    diag = summary["conditions.diagnose_inclusion"]
    assert diag["calls"] == 1 and 0 <= diag["self_s"] <= diag["total_s"]
    metrics = tracing.per_layer_metrics(tracer, 0.0)
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    assert metrics["orbits.qn1_membership.calls"] > 0
    assert metrics["groups.ball_elements"] >= 24
