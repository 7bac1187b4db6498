"""Shipped example pairs.

The collection jointly exercises every branch of the structure maps:
nonzero beta (sl2, sl3-cartan, heisenberg), a nonzero complement product
pr_B[b,b'] (sl3-cartan, sl3-borel-complement), a nonzero differential
(sl2, sl3-*, aff1), and the fully degenerate case (abelian:n).

The rank-2 simple algebra uses the integer structure constants of its
standard root-space basis: h1, h2 span the diagonal subalgebra, e1, e2, e3
the raising vectors (e3 = [e1, e2]) and f1, f2, f3 the lowering ones.
"sl3-borel-complement" splits off the span of the lowering vectors, so the
complement is the Borel half and pr_B[b, b'] is nonzero there.
"""

from __future__ import annotations

from .lie import LieAlgebra, LiePair

EXAMPLE_NAMES = ("sl2", "sl3-cartan", "sl3-borel-complement", "heisenberg", "aff1", "abelian:3")


def _sl2() -> LieAlgebra:
    return LieAlgebra(
        ["h", "e", "f"],
        {
            ("h", "e"): {"e": 2},
            ("h", "f"): {"f": -2},
            ("e", "f"): {"h": 1},
        },
    )


def _sl3() -> LieAlgebra:
    names = ["h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3"]
    br = {
        ("h1", "e1"): {"e1": 2},
        ("h1", "e2"): {"e2": -1},
        ("h1", "e3"): {"e3": 1},
        ("h2", "e1"): {"e1": -1},
        ("h2", "e2"): {"e2": 2},
        ("h2", "e3"): {"e3": 1},
        ("h1", "f1"): {"f1": -2},
        ("h1", "f2"): {"f2": 1},
        ("h1", "f3"): {"f3": -1},
        ("h2", "f1"): {"f1": 1},
        ("h2", "f2"): {"f2": -2},
        ("h2", "f3"): {"f3": -1},
        ("e1", "e2"): {"e3": 1},
        ("e1", "f1"): {"h1": 1},
        ("e1", "f3"): {"f2": -1},
        ("e2", "f2"): {"h2": 1},
        ("e2", "f3"): {"f1": 1},
        ("e3", "f1"): {"e2": -1},
        ("e3", "f2"): {"e1": 1},
        ("e3", "f3"): {"h1": 1, "h2": 1},
        ("f1", "f2"): {"f3": -1},
    }
    return LieAlgebra(names, br)


def _heisenberg() -> LieAlgebra:
    return LieAlgebra(["x", "y", "z"], {("x", "y"): {"z": 1}})


def _aff1() -> LieAlgebra:
    return LieAlgebra(["a", "b"], {("a", "b"): {"b": 1}})


def _abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise ValueError("abelian rank must be >= 1")
    return LieAlgebra(["v%d" % i for i in range(1, n + 1)], {})


def make_pair(name: str) -> LiePair:
    """Build a shipped pair by catalog name (abelian:N is parameterized)."""
    if name == "sl2":
        return LiePair(_sl2(), ["h"])
    if name == "sl3-cartan":
        return LiePair(_sl3(), ["h1", "h2"])
    if name == "sl3-borel-complement":
        return LiePair(_sl3(), ["f1", "f2", "f3"])
    if name == "heisenberg":
        return LiePair(_heisenberg(), ["z"])
    if name == "aff1":
        return LiePair(_aff1(), ["a"])
    n = name[len("abelian:"):] if name.startswith("abelian:") else ""
    if n.isascii() and n.isdigit():  # ASCII digits only, as ``parse_rational`` reads them
        alg = _abelian(int(n))
        return LiePair(alg, [alg.names[0]])
    raise ValueError("unknown example %r" % (name,))

