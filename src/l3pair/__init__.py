"""Exact computational engine for the L<=3 homotopy Lie algebra of a Lie pair.

Given a finite-dimensional Lie algebra with a chosen subalgebra and
complement, the package builds the graded space of subalgebra-forms valued
in the complement, equips it with its unary/binary/ternary brackets, realizes
the action of the derivation algebra on it, and runs exact (rational)
verification of every identity involved, including Maurer-Cartan gauge
calculus over truncated polynomial coefficients.
"""

from .scalars import Rational, TruncatedPoly, ideal_valuation, parse_rational, format_rational
from .graded import GradedBasis, GradedElement, MultiTable, ShiftedBasis, shift_table
from .linfty import (
    Coderivation,
    LInfinityStructure,
    brackets_to_codifferential,
    check_codifferential,
    commutator,
    compose,
    jacobi_sweep,
)
from .liepair import LieAlgebra, LiePair, build_l3, validate_lie
from .deraction import (
    ActionMaps,
    Derivation,
    ad,
    check_action_axioms,
    check_theta_gamma,
    cohomology,
    derivations,
    extend_sum,
    induced_action,
    to_theta_gamma,
)
from .mc import (
    MCContext,
    MCElement,
    Obstruction,
    check_gauge_coincidence,
    gauge_getzler,
    gauge_h,
    mc_defect,
    mc_extend,
    twisted_bracket,
)

__all__ = [
    "Rational",
    "TruncatedPoly",
    "ideal_valuation",
    "parse_rational",
    "format_rational",
    "GradedBasis",
    "GradedElement",
    "MultiTable",
    "ShiftedBasis",
    "shift_table",
    "Coderivation",
    "LInfinityStructure",
    "brackets_to_codifferential",
    "check_codifferential",
    "commutator",
    "compose",
    "jacobi_sweep",
    "LieAlgebra",
    "LiePair",
    "build_l3",
    "validate_lie",
    "ActionMaps",
    "Derivation",
    "ad",
    "derivations",
    "induced_action",
    "check_action_axioms",
    "to_theta_gamma",
    "check_theta_gamma",
    "extend_sum",
    "cohomology",
    "MCContext",
    "MCElement",
    "Obstruction",
    "check_gauge_coincidence",
    "gauge_getzler",
    "gauge_h",
    "mc_defect",
    "mc_extend",
    "twisted_bracket",
]
