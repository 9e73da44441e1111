"""The acceptance suite: ten checks combining both engines.

Criteria one to nine are declared with ``@criterion(number, name, seconds)``
on a check that builds its own inputs, runs the relevant operations at their
stated tolerances and returns ``(passed, details)``.  The decorator registers
the criterion in ``CRITERIA`` and is the one place that times it: the
criterion passes only when the check passed and finished within ``seconds``
of wall time.  The result record's canonical form (number, name, pass flag,
detail values) is deterministic for a fixed seed; the wall time is kept in
``elapsed``, outside the canonical form, so that two runs serialize
identically.  Criterion ten reruns the other nine and compares those bytes.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basic import (basic_construction, left_operator, left_operators, module_projection,
                    qn1_module_test, right_operator)
from .bimodule import orthonormal_basis
from .certificates import compose_certificates, product_compose
from .conditions import (
    DiagnosisConfig,
    check_c1,
    check_search_settings,
    diagnose_inclusion,
    normality_test,
)
from .corners import cutdown_comparison, tensor_module_check
from .expectations import (
    central_projections,
    conditional_expectation,
    diagonal_subalgebra,
    full_subalgebra,
    matrix_units,
    scalar_subalgebra,
    subalgebra_closure,
)
from .groups import (
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    Trit,
    enumerate_ball,
    infinite_dihedral,
)
from .matrixalg import build_algebra
from .orbits import orbit_bfs, qn1_membership
from .stallings import free_qn1_decide
from .subgroups import shift_tail_subgroup, subgroup
from .wahp import OptimizerConfig, wahp_gap, wahp_witness_search
from .words import Word, concat, exp_of, gen_of, generator, invert_word, letter, reduce_word


@dataclass
class AcceptanceConfig:
    seed: int = 42
    budget: int = 1000
    radius: int = 3
    threshold: int = 100

    def __post_init__(self):
        check_search_settings(self.radius, self.budget, self.threshold)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed: float = 0.0

    def canonical(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


CRITERIA: dict[int, Callable[[AcceptanceConfig], CriterionResult]] = {}


def criterion(number: int, name: str, seconds: float):
    """Declare acceptance criterion ``number``: register it in ``CRITERIA``.

    The decorated check takes the config and returns ``(passed, details)``;
    the criterion it becomes returns the ``CriterionResult``, passing only
    when the check passed within ``seconds`` of wall time.
    """
    def declare(check):
        @functools.wraps(check)
        def run(config: AcceptanceConfig) -> CriterionResult:
            start = time.perf_counter()
            passed, details = check(config)
            elapsed = time.perf_counter() - start
            return CriterionResult(number, name, passed and elapsed < seconds, details, elapsed)
        CRITERIA[number] = run
        return run
    return declare


def _f2():
    return FreeGroupDescriptor.of_rank(2)


def _shift(window=1):
    group = ShiftExtensionDescriptor(window=window)
    return group, shift_tail_subgroup(group, 0)


# -- criterion 1: shift-extension reproduction ---------------------------------------


@criterion(1, "shift extension: certified stable-letter cover and budget-honest orbit growth",
           seconds=30.0)
def criterion_1(config: AcceptanceConfig) -> tuple:
    group, tail = _shift(window=1)
    t_inv = group.stable_letter(-1)

    cert_start = time.perf_counter()
    verdict = qn1_membership(tail, t_inv, config.budget)
    cert_seconds = time.perf_counter() - cert_start
    cover_ok = verdict.certified_in and verdict.certificate.cover_size == 1

    sweep = []
    t = group.stable_letter()
    for budget in (10, 100, 1000, 10000):
        orbit = orbit_bfs(tail, t, budget)
        sweep.append(
            {"budget": budget, "closed": orbit.closed, "explored": orbit.explored,
             "ok": (not orbit.closed) and orbit.explored >= budget}
        )
    passed = cover_ok and cert_seconds < 1.0 and all(s["ok"] for s in sweep)
    return passed, {
        "stable_letter_inverse_certified": verdict.certified_in,
        "cover_size": verdict.certificate.cover_size if verdict.certificate else None,
        "budget_sweep": sweep,
    }


# -- criterion 2: free-group exactness -------------------------------------------------


def _all_letter_words(radius: int) -> list:
    """Every generator word of bounded length, reducible ones included."""
    letters = range(letter(2))  # the letters of generators 0 and 1
    return [w for k in range(radius + 1) for w in itertools.product(letters, repeat=k)]


@criterion(2, "free group: exact backend agreement and singular position evidence",
           seconds=10.0)
def criterion_2(config: AcceptanceConfig) -> tuple:
    group = _f2()
    spec = subgroup(group, [group.element(generator(0))], label="<a>")
    graph = spec.graph

    words = _all_letter_words(4)
    agreement_failures = 0
    for raw in words:
        word = reduce_word(raw)
        kind, index = free_qn1_decide(graph, word)
        orbit = orbit_bfs(spec, group.element(word), budget=24)
        if kind == "in":
            if not (orbit.closed and orbit.size == index) and index <= 24:
                agreement_failures += 1
        else:
            if orbit.closed:
                agreement_failures += 1

    ball = enumerate_ball(group, 4)
    gamma_mismatch = 0
    for g in ball:
        verdict = qn1_membership(spec, g, config.budget)
        expected_in = all(gen_of(x) == 0 for x in g.payload)
        if verdict.certified_in != expected_in or verdict.unknown:
            gamma_mismatch += 1

    report = diagnose_inclusion(spec, DiagnosisConfig(
        radius=config.radius, budget=config.budget, threshold=config.threshold))
    passed = (
        agreement_failures == 0
        and len(words) == 341
        and gamma_mismatch == 0
        and len(ball) == 161
        and report.singular_evidence
        and report.tier == "exact"
    )
    return passed, {
        "words_checked": len(words),
        "distinct_elements": len(ball),
        "agreement_failures": agreement_failures,
        "gamma_mismatches": gamma_mismatch,
        "singular_evidence": report.singular_evidence,
        "tier": report.tier,
    }


# -- criterion 3: finite-index commensuration ---------------------------------------------


# generators of the index-two subgroup of F2 that ``_even_a_exponent`` decides
_INDEX_TWO_WORDS = (concat(generator(0), generator(0)), generator(1),
                   concat(generator(0), generator(1), generator(0, -1)))


def _even_a_exponent(word: Word) -> bool:
    """Independent membership oracle for the index-two subgroup: the kernel
    of the mod-two exponent count of the first generator."""
    return sum(exp_of(x) for x in word if gen_of(x) == 0) % 2 == 0


def _oracle_orbit_size(word: Word, cap: int = 8) -> tuple:
    moves = [w for g in _INDEX_TWO_WORDS for w in (g, invert_word(g))]
    reps = [reduce_word(word)]
    frontier = [reduce_word(word)]
    while frontier and len(reps) <= cap:
        rep = frontier.pop(0)
        for move in moves:
            cand = concat(move, rep)
            if not any(_even_a_exponent(concat(invert_word(r), cand)) for r in reps):
                reps.append(cand)
                frontier.append(cand)
    return len(reps), not frontier


@criterion(3, "finite index: every ball element certified with oracle-matched covers",
           seconds=10.0)
def criterion_3(config: AcceptanceConfig) -> tuple:
    group = _f2()
    spec = subgroup(group, [group.element(w) for w in _INDEX_TWO_WORDS], label="index-two")
    ball = enumerate_ball(group, config.radius)
    failures = 0
    max_cover = 0
    for g in ball:
        verdict = qn1_membership(spec, g, budget=10)
        size, closed = _oracle_orbit_size(g.payload)
        ok = (
            verdict.certified_in
            and verdict.certificate.cover_size <= 2
            and closed
            and size == verdict.certificate.cover_size
        )
        max_cover = max(max_cover, verdict.certificate.cover_size if verdict.certificate else 99)
        if not ok:
            failures += 1
    passed = failures == 0 and max_cover <= 2
    return passed, {"ball_size": len(ball), "failures": failures, "max_cover": max_cover}


# -- criterion 4: certificate algebra ---------------------------------------------------------


@criterion(4, "certificate algebra: one thousand replayed compositions", seconds=60.0)
def criterion_4(config: AcceptanceConfig) -> tuple:
    rng = np.random.default_rng(config.seed)
    group = _f2()
    free_spec = subgroup(group, [group.element(w) for w in _INDEX_TWO_WORDS])
    free_ball = enumerate_ball(group, 3)
    free_certs = [qn1_membership(free_spec, g, 10).certificate for g in free_ball]

    shift_group, tail = _shift(window=1)
    shift_elements = [
        shift_group.stable_letter(-1),
        shift_group.multiply(shift_group.base_generator(0), shift_group.stable_letter(-1)),
        shift_group.base_generator(0),
        shift_group.base_generator(1),
        shift_group.identity(),
    ]
    shift_certs = [qn1_membership(tail, g, 64).certificate for g in shift_elements]

    done = {compose_certificates: 0, product_compose: 0}
    failures = {compose_certificates: 0, product_compose: 0}
    for count, left, right, compose in ((600, free_certs, free_certs, compose_certificates),
                                        (200, shift_certs, shift_certs, compose_certificates),
                                        (200, free_certs, shift_certs, product_compose)):
        for _ in range(count):
            c1 = left[rng.integers(0, len(left))]
            c2 = right[rng.integers(0, len(right))]
            try:
                cert = compose(c1, c2)
                done[compose] += 1
                if cert.cover_size > c1.cover_size * c2.cover_size:
                    failures[compose] += 1
            except Exception:
                failures[compose] += 1
    passed = not any(failures.values()) and sum(done.values()) == 1000
    return passed, {
        "compositions": done[compose_certificates],
        "product_compositions": done[product_compose],
        "compose_failures": failures[compose_certificates],
        "product_failures": failures[product_compose],
    }


# -- criterion 5: normal case ------------------------------------------------------------------


@criterion(5, "infinite dihedral: exact normality, conjugate growth, Cartan evidence",
           seconds=5.0)
def criterion_5(config: AcceptanceConfig) -> tuple:
    group = infinite_dihedral()
    a, r = group.generators()
    spec = subgroup(group, [a], label="<a>")
    normal = normality_test(spec)
    c1 = check_c1(spec, r, threshold=config.threshold)
    report = diagnose_inclusion(spec, DiagnosisConfig(
        radius=2, budget=config.budget, threshold=config.threshold, claim_abelian=True))
    passed = (
        normal is Trit.YES
        and c1.kind == "at_least"
        and c1.count >= config.threshold
        and report.cartan_evidence
        and not report.singular_evidence
        and report.tier == "exact"
    )
    return passed, {
        "normality": normal.value,
        "c1_kind": c1.kind,
        "c1_count": c1.count,
        "cartan_evidence": report.cartan_evidence,
        "tier": report.tier,
    }


# -- criterion 6: identity suite -----------------------------------------------------------------


_DIM_POOL = [
    [2], [1, 1], [2, 1], [1, 1, 1], [2, 2], [3], [2, 1, 1], [3, 1], [2, 2, 1], [3, 2],
    [4], [3, 3], [4, 2], [3, 2, 2],
]


def _random_inclusion(rng: np.random.Generator, with_mid: bool, pool=None):
    pool = pool if pool is not None else _DIM_POOL
    dims = pool[rng.integers(0, len(pool))]
    raw = rng.random(len(dims)) + 0.2
    weights = raw / np.dot(raw, dims)
    algebra = build_algebra(dims, list(weights))
    sub = subalgebra_closure(algebra, [algebra.random_selfadjoint(rng)])
    mid = None
    if with_mid:
        mid = subalgebra_closure(algebra, sub.basis + [algebra.random_selfadjoint(rng)])
    return algebra, sub, mid


# criterion 6's identities, each with the bound its worst residual must meet
_IDENTITY_BOUNDS = {
    "trace_identity": 1e-10,
    "compression": 1e-12,
    "pull_down_welldefined": 1e-10,
    "vector_norm": 1e-9,
    "pull_down_factorization": 1e-9,
    "reconstruction": 1e-9,
    "gram_identity": 1e-9,
    "projection": 1e-9,
    "commutation": 1e-10,
}


@criterion(6, "identity suite: expectation and extension identities on random inclusions",
           seconds=60.0)
def criterion_6(config: AcceptanceConfig) -> tuple:
    rng = np.random.default_rng(config.seed)
    worst = dict.fromkeys(_IDENTITY_BOUNDS, 0.0)

    def note(key, *residuals):
        worst[key] = max(worst[key], *residuals)

    for _ in range(20):
        algebra, sub, _ = _random_inclusion(rng, with_mid=False)
        c = basic_construction(sub)
        expect = conditional_expectation(sub)
        note("trace_identity", c.trace_residual)
        note("compression", *c.compression_residuals(left_operators(
            algebra, algebra.stack([algebra.random_element(rng) for _ in range(5)]))).tolist())
        note("pull_down_welldefined", c.pimsner_popa_defect)
        ws = [c.basic_operator(algebra.random_element(rng), algebra.random_element(rng))
              + left_operator(algebra.random_element(rng)) for _ in range(5)]
        note("vector_norm", *c.vector_norm_residuals(np.stack(ws)).tolist())
        for _ in range(3):
            w = c.basic_operator(algebra.random_element(rng), algebra.random_element(rng))
            eta = algebra.from_vector(w @ algebra.to_vector(algebra.one()))
            pulled = c.pull_down(w @ c.e_sub @ w.conj().T)
            note("pull_down_factorization", (pulled - eta @ eta.adjoint()).norm2())
        for _ in range(5):
            note("reconstruction",
                 c.trace_vectors.reconstruction_residual(algebra.random_element(rng)))
        note("gram_identity", c.trace_vectors.gram_defect())
        module = qn1_module_test(sub, algebra.random_element(rng))
        p = module_projection(orthonormal_basis(sub, expect, module.projection))
        note("projection", float(np.linalg.norm(p @ p - p, 2)),
             float(np.linalg.norm(p - p.conj().T, 2)))
        for b in sub.basis:
            note("commutation",
                 float(np.linalg.norm(p @ right_operator(b) - right_operator(b) @ p, 2)),
                 float(np.linalg.norm(p @ left_operator(b) - left_operator(b) @ p, 2)))
    details = {k: {"worst": worst[k], "bound": bound, "ok": worst[k] <= bound}
               for k, bound in _IDENTITY_BOUNDS.items()}
    return all(row["ok"] for row in details.values()), details


# -- criterion 7: quantitative gaps --------------------------------------------------------------


@criterion(7, "gap values: half for the off-diagonal pair, quarter for the scalar witness",
           seconds=30.0)
def criterion_7(config: AcceptanceConfig) -> tuple:
    m2 = build_algebra([2], [0.5])
    diag = diagonal_subalgebra(m2)
    pair = (m2.matrix_unit(0, 0, 1), m2.matrix_unit(0, 1, 0))
    opt = OptimizerConfig(seed=config.seed, restarts=8, oracle_points=10000)
    report_diag = wahp_gap(diag, diag, [pair], config=opt)

    scalars = scalar_subalgebra(m2)
    x = m2.element([np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)])
    closed_form = abs((x @ x).trace()) ** 2  # hand oracle: |tau(x y)|^2
    report_scalar = wahp_gap(scalars, scalars, [(x, x)], config=opt)
    passed = (
        abs(report_diag.objective_value - 0.5) < 1e-6
        and abs(report_diag.oracle_value - 0.5) < 1e-6
        and abs(closed_form - 0.25) < 1e-12
        and abs(report_scalar.objective_value - closed_form) < 1e-6
        and abs(report_scalar.oracle_value - closed_form) < 1e-6
    )
    return passed, {
        "diagonal_pair": {"optimizer": report_diag.objective_value,
                          "oracle": report_diag.oracle_value, "expected": 0.5},
        "scalar_pair": {"optimizer": report_scalar.objective_value,
                        "oracle": report_scalar.oracle_value, "expected": closed_form},
    }


# -- criterion 8: gap dichotomy --------------------------------------------------------------------


def _dichotomy_inclusions():
    """(name, algebra, sub, mid) with mid None meaning the full algebra."""
    out = []

    def add(name, dims, weights, sub_of, mid_of=None):
        algebra = build_algebra(dims, weights)
        sub = sub_of(algebra)
        mid = mid_of(algebra) if mid_of else None
        out.append((name, algebra, sub, mid))

    # mid = full algebra: the gap must vanish exactly
    add("m2/diag/full", [2], [0.5], diagonal_subalgebra)
    add("m2/scalars/full", [2], [0.5], scalar_subalgebra)
    add("c2/scalars/full", [1, 1], [0.5, 0.5], scalar_subalgebra)
    add("m3/diag/full", [3], [1 / 3], diagonal_subalgebra)
    add("m2+c/diag/full", [2, 1], [1 / 3, 1 / 3], diagonal_subalgebra)
    add("m2+c/scalars/full", [2, 1], [1 / 3, 1 / 3], scalar_subalgebra)
    add("m2/full/full", [2], [0.5], full_subalgebra)
    add("m3/scalars/full", [3], [1 / 3], scalar_subalgebra)
    add("m2+m2/diag/full", [2, 2], [1 / 8, 3 / 8], diagonal_subalgebra)
    add("c3/scalars/full", [1, 1, 1], [0.25, 0.25, 0.5], scalar_subalgebra)

    # proper mid: the witness search must find a positive gap
    add("m2/diag/diag", [2], [0.5], diagonal_subalgebra, diagonal_subalgebra)
    add("m2/scalars/scalars", [2], [0.5], scalar_subalgebra, scalar_subalgebra)
    add("m2/scalars/diag", [2], [0.5], scalar_subalgebra, diagonal_subalgebra)
    add("m3/diag/diag", [3], [1 / 3], diagonal_subalgebra, diagonal_subalgebra)
    add("m3/scalars/scalars", [3], [1 / 3], scalar_subalgebra, scalar_subalgebra)
    add("m2+c/diag/diag", [2, 1], [1 / 3, 1 / 3], diagonal_subalgebra, diagonal_subalgebra)
    add("c2/scalars/scalars", [1, 1], [0.5, 0.5], scalar_subalgebra, scalar_subalgebra)
    add("m2+m2/diag/diag", [2, 2], [1 / 8, 3 / 8], diagonal_subalgebra, diagonal_subalgebra)
    add("m2+c/scalars/diag", [2, 1], [1 / 3, 1 / 3], scalar_subalgebra, diagonal_subalgebra)
    add("m2/diag/m2+scalars", [2, 2], [1 / 8, 3 / 8], scalar_subalgebra, diagonal_subalgebra)
    return out


@criterion(8, "gap dichotomy: exact zero at the top, positive below", seconds=300.0)
def criterion_8(config: AcceptanceConfig) -> tuple:
    opt = OptimizerConfig(seed=config.seed)
    rows = []
    for name, algebra, sub, mid in _dichotomy_inclusions():
        mid_handle = mid if mid is not None else full_subalgebra(algebra)
        report = wahp_witness_search(sub, mid_handle, opt)
        expects_zero = mid is None
        if expects_zero:
            ok = report.exact_zero and report.objective_value == 0.0
        else:
            ok = report.objective_value > 0.01 and report.converged
        rows.append({"inclusion": name, "gap": report.objective_value,
                     "expects_zero": expects_zero, "ok": ok})
    return all(r["ok"] for r in rows), {"inclusions": rows}


# -- criterion 9: tensor and corner shadows ----------------------------------------------------------


def _summands_in_cut_order(sub) -> list:
    """``(key, z)`` per simple summand: ``z`` its minimal central projection,
    ``key`` its size and the rank of its ``E_11`` in each block of ``M``,
    sorted by key.  A cut keeps a prefix, so the corner it compares does not
    depend on the order units come in; equal keys give the same corner type."""
    keys = [(len(grid), tuple(int(round(np.trace(b).real)) for b in grid[0][0].blocks))
            for grid in matrix_units(sub)]
    return sorted(zip(keys, central_projections(sub)), key=lambda pair: pair[0])


@criterion(9, "tensor and corner shadows: multiplicative dimensions, corner span match",
           seconds=60.0)
def criterion_9(config: AcceptanceConfig) -> tuple:
    rng = np.random.default_rng(config.seed)

    tensor_failures = 0
    small_pool = _DIM_POOL[:10]  # keep the tensor-product dimension moderate
    for _ in range(50):
        a1, s1, _ = _random_inclusion(rng, with_mid=False, pool=small_pool)
        a2, s2, _ = _random_inclusion(rng, with_mid=False, pool=small_pool)
        check = tensor_module_check(s1, a1.random_element(rng), s2, a2.random_element(rng))
        if not check.multiplicative:
            tensor_failures += 1

    worst_cut = 0.0
    cut_count = 0
    while cut_count < 20:
        algebra, sub, _ = _random_inclusion(rng, with_mid=False)
        summands = _summands_in_cut_order(sub)
        if len(summands) < 2:
            continue
        keep = rng.integers(1, len(summands))
        e = summands[0][1]
        for _, p in summands[1:keep]:
            e = e + p
        report = cutdown_comparison(sub, e, [algebra.random_element(rng) for _ in range(2)])
        worst_cut = max(worst_cut, report.worst_residual)
        cut_count += 1
    return tensor_failures == 0 and worst_cut < 1e-9, {
        "tensor_pairs": 50,
        "tensor_failures": tensor_failures,
        "cutdown_pairs": cut_count,
        "worst_cutdown_residual": worst_cut,
    }


# -- suite ---------------------------------------------------------------------------------------------


def run_criteria(config: AcceptanceConfig, numbers=None) -> list:
    numbers = sorted(numbers) if numbers else sorted(CRITERIA)
    return [CRITERIA[n](config) for n in numbers]


def canonical_bytes(results: list) -> bytes:
    return json.dumps([r.canonical() for r in results], indent=None,
                      separators=(",", ":")).encode()


def criterion_10(config: AcceptanceConfig, first_pass: Optional[list] = None) -> tuple:
    """Determinism: rerunning the whole suite reproduces identical bytes."""
    start = time.perf_counter()
    first = first_pass if first_pass is not None else run_criteria(config)
    second = run_criteria(config)
    b1, b2 = canonical_bytes(first), canonical_bytes(second)
    elapsed = time.perf_counter() - start
    result = CriterionResult(
        number=10,
        name="determinism: repeated runs serialize byte-identically",
        passed=b1 == b2,
        details={"bytes": len(b1), "identical": b1 == b2},
        elapsed=elapsed,
    )
    return result, first


def verify_paper(config: Optional[AcceptanceConfig] = None, numbers=None) -> list:
    """Run the acceptance criteria; criterion 10 reruns criteria one to nine."""
    config = config or AcceptanceConfig()
    wanted = sorted(numbers) if numbers else list(range(1, 11))
    others = [n for n in wanted if n != 10]
    results = run_criteria(config, others) if others else []
    if 10 in wanted:
        first_full = results if others == list(range(1, 10)) else run_criteria(config)
        ten, _ = criterion_10(config, first_pass=first_full)
        results = results + [ten]
    return results
