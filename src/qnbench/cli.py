"""Command-line interface: group analyses, matrix analyses, acceptance runs.

Exit codes: 0 success, 1 acceptance-criterion failure, 2 input or validation
error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .conditions import DiagnosisConfig, diagnose_inclusion
from .errors import (
    ConstructionError,
    GroupValidationError,
    InputFormatError,
    QnbenchError,
    ResourceLimitError,
)
from .files import encode_matrix_element, load_group_inclusion, load_matrix_inclusion
from .tolerances import Tolerances


def _tolerance_overrides(pairs) -> dict:
    """The ``KEY=VALUE`` pairs of ``--tolerance`` as numbers by key."""
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputFormatError(f"--tolerance expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        if key not in Tolerances.field_names():
            raise InputFormatError(f"unknown tolerance {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise InputFormatError(f"tolerance {key!r} needs a number, got {value!r}") from None
    return overrides


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=None, separators=(",", ":")) + "\n")
    else:
        _render_text(doc, indent=0)


def _render_text(value, indent: int, label: Optional[str] = None) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if label is not None:
            sys.stdout.write(f"{pad}{label}:\n")
        for key, item in value.items():
            _render_text(item, indent + (label is not None), str(key))
    elif isinstance(value, list):
        if label is not None:
            sys.stdout.write(f"{pad}{label}:\n")
        for i, item in enumerate(value):
            _render_text(item, indent + (label is not None), f"[{i}]")
    else:
        sys.stdout.write(f"{pad}{label}: {value}\n")


def run_group_analysis(args) -> int:
    doc = load_group_inclusion(args.file)
    config = DiagnosisConfig(
        radius=args.radius,
        budget=args.budget,
        threshold=args.threshold,
        claim_abelian=doc.claim_abelian,
    )
    report = diagnose_inclusion(doc.subgroup, config)
    _emit(report.to_dict(), args.format)
    return 0


def run_vn_analysis(args) -> int:
    # the matrix engine and numpy load with the commands that run them
    import numpy as np

    from .basic import basic_construction
    from .expectations import subalgebra_closure
    from .matrixalg import build_algebra
    from .wahp import OptimizerConfig, wahp_gap

    doc = load_matrix_inclusion(args.file)
    tolerances = doc.tolerances.override(**_tolerance_overrides(args.tolerance))
    seed = args.seed if args.seed is not None else (doc.seed if doc.seed is not None else 42)
    algebra = build_algebra(doc.blocks, doc.weights, tolerances)
    sub = subalgebra_closure(algebra, [algebra.element(g) for g in doc.subalgebra_generators])
    mid = None
    if doc.intermediate_generators is not None:
        mid = subalgebra_closure(
            algebra, sub.basis + [algebra.element(g) for g in doc.intermediate_generators])
    construction = basic_construction(sub)
    rng = np.random.default_rng(seed)
    identity_summary = _identity_summary(construction, rng)
    output = {
        "algebra": {
            "blocks": list(algebra.block_dims),
            "weights": list(algebra.block_weights),
            "rescaled": algebra.rescaled,
            "subalgebra_dim": sub.dim,
            "intermediate_dim": mid.dim if mid else None,
        },
        "identities": identity_summary,
        "gap": None,
        "seed": seed,
    }
    if doc.witness_pairs:
        pairs = [
            (algebra.element(x), algebra.element(y)) for x, y in doc.witness_pairs
        ]
        mid_handle = mid if mid is not None else sub
        report = wahp_gap(sub, mid_handle, pairs, config=OptimizerConfig(seed=seed))
        gap_doc = report.to_dict()
        gap_doc["minimizer"] = encode_matrix_element(report.minimizer)
        gap_doc["tier"] = "numerical"
        output["gap"] = gap_doc
    _emit(output, args.format)
    return 0


def _identity_summary(construction, rng) -> dict:
    """The build's trace residual, then the compression and vector-norm
    identities at five random pairs and module reconstruction at five random
    samples, each as one stacked call: reconstruction is the Pimsner-Popa
    operator ``P`` the build kept, so its residual is ``|(1 - P) v|``.  The
    bounds are the algebra's tolerances."""
    import numpy as np  # the matrix engine, which run_vn_analysis has loaded

    from .basic import left_operators

    algebra, e = construction.algebra, construction.e_sub
    tolerances = algebra.tolerances
    xs, ys = zip(*[(algebra.random_element(rng), algebra.random_element(rng)) for _ in range(5)])
    lefts = [left_operators(algebra, algebra.stack(side)) for side in (xs, ys)]
    worst_compression = float(np.max(construction.compression_residuals(lefts[0])))
    worst_norm = float(np.max(construction.vector_norm_residuals(lefts[0] @ e @ lefts[1])))  # x e y
    samples = algebra.vectors_of(algebra.stack([algebra.random_element(rng) for _ in range(5)]))
    misses = samples - construction.pimsner_popa @ samples
    worst_recon = float(np.max(np.linalg.norm(misses, axis=0)))
    rows = (("trace_identity", construction.trace_residual, tolerances.trace_identity),
            ("compression_identity", worst_compression, tolerances.compression_identity),
            ("vector_norm_match", worst_norm, tolerances.vector_norm_match),
            ("module_reconstruction", worst_recon, tolerances.reconstruction))
    return {name: {"residual": residual, "tolerance": bound, "ok": residual <= bound,
                   "tier": "numerical"} for name, residual, bound in rows}


def run_verify_paper(args) -> int:
    from .acceptance import AcceptanceConfig, verify_paper  # it loads both engines

    numbers = None
    if args.criteria:
        try:
            numbers = sorted({int(part) for part in args.criteria.split(",")})
        except ValueError:
            numbers = []
        if not numbers or not 1 <= numbers[0] <= numbers[-1] <= 10:
            raise InputFormatError(f"--criteria expects numbers from 1 to 10, got {args.criteria!r}")
    config = AcceptanceConfig(
        seed=args.seed if args.seed is not None else 42,
        budget=args.budget,
        radius=args.radius,
        threshold=args.threshold,
    )
    results = verify_paper(config, numbers)
    if args.format == "json":
        _emit({"criteria": [r.canonical() for r in results],
               "all_passed": all(r.passed for r in results)}, "json")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{status} criterion {r.number}: {r.name} ({r.elapsed:.2f}s)\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnbench",
        description="Coset-cover certificates for group inclusions and "
        "finite-dimensional expectation identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--budget", type=int, default=1000)
        p.add_argument("--radius", type=int, default=3)
        p.add_argument("--threshold", type=int, default=100)

    group_cmd = sub.add_parser("group", help="analyze a group inclusion document")
    group_cmd.add_argument("file")
    add_search_flags(group_cmd)

    vn_cmd = sub.add_parser("vn", help="analyze a matrix inclusion document")
    vn_cmd.add_argument("file")
    vn_cmd.add_argument("--tolerance", action="append", default=None, metavar="KEY=VAL")

    verify_cmd = sub.add_parser("verify-paper", help="run the acceptance suite")
    verify_cmd.add_argument("--criteria", default=None,
                            help="comma-separated criterion numbers (default: all)")
    add_search_flags(verify_cmd)

    # each subcommand gets exactly the flags its handler reads
    for p in (vn_cmd, verify_cmd):
        p.add_argument("--seed", type=int, default=None)
    for p in (group_cmd, vn_cmd, verify_cmd):
        p.add_argument("--format", choices=["text", "json"], default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse has written its usage message
        return exit_.code
    try:
        if args.command == "group":
            return run_group_analysis(args)
        if args.command == "vn":
            return run_vn_analysis(args)
        return run_verify_paper(args)
    except (InputFormatError, GroupValidationError, ConstructionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ResourceLimitError as err:
        sys.stderr.write(f"resource limit: {err}\n")
        return 3
    except QnbenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
