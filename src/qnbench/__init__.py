"""Dual-engine workbench for group inclusions and matrix-algebra inclusions.

Group side: exact arithmetic over five group families, folded subgroup
graphs for free groups, coset-orbit enumeration with replayable coset-cover
certificates, and structure-condition diagnosis for inclusions.

Matrix side: multi-matrix algebras with a normalized trace, conditional
expectations, the basic construction with its canonical trace and pull-down
map, module bases over a subalgebra, corner compressions, and the
homomorphism-gap optimizer over the unitary group of a subalgebra.
"""

from .basic import basic_construction, module_projection, qn1_module_test
from .bimodule import orthonormal_basis
from .certificates import (
    QnCertificate,
    compose_certificates,
    product_compose,
    replay_certificate,
    translate_certificate,
)
from .conditions import (
    DiagnosisConfig,
    InclusionReport,
    check_c1,
    check_c2,
    diagnose_inclusion,
    normality_test,
)
from .corners import cutdown, cutdown_comparison, tensor_module_check
from .expectations import (
    SubalgebraHandle,
    conditional_expectation,
    diagonal_subalgebra,
    full_subalgebra,
    scalar_subalgebra,
    subalgebra_closure,
)
from .group_algebra import group_algebra_inclusion
from .groups import (
    DirectProductDescriptor,
    FiniteTableGroup,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    GroupElement,
    ShiftExtensionDescriptor,
    Trit,
    elements_equal,
    enumerate_ball,
    identity,
    infinite_dihedral,
    invert,
    multiply,
)
from .matrixalg import AlgebraElement, MultiMatrixAlgebra, build_algebra
from .orbits import (
    CosetOrbit,
    MembershipVerdict,
    orbit_bfs,
    product_verdict,
    qn1_membership,
)
from .stallings import (
    SubgroupGraph,
    build_subgroup_graph,
    conjugate_graph,
    free_qn1_decide,
    graph_index,
)
from .subgroups import (
    SubgroupSpec,
    coset_equal,
    is_subgroup_member,
    product_subgroup,
    shift_tail_subgroup,
    subgroup,
    subgroup_ball,
)
from .tolerances import Tolerances
from .wahp import OptimizerConfig, WahpGapReport, wahp_gap, wahp_witness_search

__version__ = "0.1.0"
