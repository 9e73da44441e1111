"""Dual-engine workbench for group inclusions and matrix-algebra inclusions.

Group side: exact arithmetic over five group families, folded subgroup
graphs for free groups, coset-orbit enumeration with replayable coset-cover
certificates, and structure-condition diagnosis for inclusions.

Matrix side: multi-matrix algebras with a normalized trace, conditional
expectations, the basic construction with its canonical trace and pull-down
map, module bases over a subalgebra, corner compressions, and the
homomorphism-gap optimizer over the unitary group of a subalgebra.

The exports below load with their home module on first access (PEP 562), so
``import qnbench`` loads no submodule and a command loads only its engine.
"""

import importlib

_EXPORTS = {
    "basic": ("basic_construction", "module_projection", "qn1_module_test"),
    "bimodule": ("orthonormal_basis",),
    "certificates": ("QnCertificate", "compose_certificates", "product_compose",
                     "replay_certificate", "translate_certificate"),
    "conditions": ("DiagnosisConfig", "InclusionReport", "check_c1", "check_c2",
                   "diagnose_inclusion", "normality_test"),
    "corners": ("cutdown", "cutdown_comparison", "tensor_module_check"),
    "expectations": ("SubalgebraHandle", "conditional_expectation", "diagonal_subalgebra",
                     "full_subalgebra", "scalar_subalgebra", "subalgebra_closure"),
    "group_algebra": ("group_algebra_inclusion",),
    "groups": ("DirectProductDescriptor", "FiniteTableGroup", "FpGroupDescriptor",
               "FreeGroupDescriptor", "GroupElement", "ShiftExtensionDescriptor", "Trit",
               "elements_equal", "enumerate_ball", "identity", "infinite_dihedral", "invert",
               "multiply"),
    "matrixalg": ("AlgebraElement", "MultiMatrixAlgebra", "build_algebra"),
    "orbits": ("CosetOrbit", "MembershipVerdict", "orbit_bfs", "product_verdict",
               "qn1_membership"),
    "stallings": ("SubgroupGraph", "build_subgroup_graph", "conjugate_graph",
                  "free_qn1_decide", "graph_index"),
    "subgroups": ("SubgroupSpec", "coset_equal", "is_subgroup_member", "product_subgroup",
                  "shift_tail_subgroup", "subgroup", "subgroup_ball"),
    "tolerances": ("Tolerances",),
    "wahp": ("OptimizerConfig", "WahpGapReport", "wahp_gap", "wahp_witness_search"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
