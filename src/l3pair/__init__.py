"""Exact computational engine for the L<=3 homotopy Lie algebra of a Lie pair.

Given a finite-dimensional Lie algebra with a chosen subalgebra and
complement, the package builds the graded space of subalgebra-forms valued
in the complement, equips it with its unary/binary/ternary brackets, realizes
the action of the derivation algebra on it, and runs exact (rational)
verification of every identity involved, including Maurer-Cartan gauge
calculus over R = Q[t]/(t^(N+1)), whose values are integer t-layers over one
denominator.

The public names below resolve on first access (PEP 562), so importing the
package, or one of its modules, loads only what that caller uses: ``LiePair``
imports the input model alone, and ``l3pair.cli`` imports the form engine
only for ``check`` and ``compute``, the derivation action and the gauge
calculus only for the suites that run them.
"""

from importlib import import_module

_EXPORTS = {
    "scalars": ("parse_rational", "format_rational"),
    "vectors": ("GradedBasis", "GradedElement"),
    "graded": ("MultiTable", "shift_table"),
    "linfty": (
        "Coderivation",
        "LInfinityStructure",
        "brackets_to_codifferential",
        "compose",
        "jacobi_square",
    ),
    "lie": ("LieAlgebra", "LiePair", "validate_lie"),
    "liepair": ("L3Pair",),
    "deraction": (
        "ActionMaps",
        "Derivation",
        "ad",
        "derivations",
        "induced_action",
        "check_action_axioms",
        "ThetaGamma",
        "check_theta_gamma",
        "ExtendedStructure",
        "CohomologyModel",
    ),
    "mc": (
        "MCContext",
        "MCElement",
        "Obstruction",
        "check_gauge_coincidence",
        "gauge_getzler",
        "gauge_h",
        "mc_defect",
        "mc_extend",
        "twisted_bracket",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """Import the module of a public name on first access and keep the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
