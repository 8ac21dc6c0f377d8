"""Exact-arithmetic workbench for Novikov and pre-Novikov algebra structures.

Structure constants, representations, matched pairs, double constructions,
bialgebras, and the quadratic tensor equation machinery, all over the exact
rationals; every theorem-level construction re-verifies what it builds.
"""

from .algebras import (
    FormMatrix,
    NovikovAlgebra,
    PreNovikovAlgebra,
    check_novikov,
    check_pre_novikov,
    check_quasi_frobenius,
    enumerate_dim2_pre_novikov,
    form_iso,
    pre_novikov_from_qf,
)
from .bialgebra import (
    PreNovikovBialgebra,
    PreNovikovCoalgebra,
    check_bialgebra,
    check_coalgebra,
    check_compatibility,
    coalgebra_to_dual_algebra,
)
from .core import (
    InputError,
    InternalCheckError,
    RefusalError,
    Scalar,
    StructureConstants,
    frac,
)
from .matched_double import (
    DoubleConstruction,
    MatchedPair,
    check_matched_pair,
    direct_sum_algebra,
    double_from_bialgebra,
    double_matched_bialgebra_verdicts,
    has_double_construction,
    induced_matched_pair,
    standard_form,
)
from .report import Report, Violation
from .representations import (
    NovikovRep,
    PreNovikovRep,
    adjoint_reps,
    associated_novikov,
    check_novikov_rep,
    check_pre_novikov_rep,
    dual_novikov_rep,
    dual_pre_novikov_rep,
    novikov_adjoint_rep,
    semidirect_pre_novikov,
    verify_novikov_rep,
    verify_pre_novikov_rep,
)
from .yang_baxter import (
    DiagnosticsReport,
    OOperator,
    bialgebra_from_r,
    check_o_operator_novikov,
    check_o_operator_pre_novikov,
    co2_equivalence,
    coboundary_diagnostics,
    coboundary_maps,
    lift_o_operator,
    o_operator_novikov,
    o_operator_pre_novikov,
    pre_novikov_from_o,
    search_symmetric_ybe,
    t_r_from_tensor,
    ybe_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
