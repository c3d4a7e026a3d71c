"""Standard operators, monoids, and semirings, plus a name registry.

These mirror the GraphBLAS "built-ins" the paper assumes: the arithmetic
semiring for counting walks and NMF, the tropical (min-plus) semiring
for shortest paths, the boolean semiring for reachability/BFS, and
structural semirings (``plus_pair``) for triangle/support counting.
"""

from __future__ import annotations

import numpy as np

from repro.semiring.ops import BinaryOp, Monoid, Semiring, UnaryOp

_INF = float("inf")


# ---------------------------------------------------------------------------
# Unary operators (for Apply)
# ---------------------------------------------------------------------------

IDENTITY = UnaryOp("identity", lambda x: x)
AINV = UnaryOp("ainv", np.negative)  # additive inverse
ABS = UnaryOp("abs", np.abs)
ONE = UnaryOp("one", lambda x: np.ones_like(np.asarray(x)))


def _minv(x):
    with np.errstate(divide="ignore"):
        return 1.0 / np.asarray(x, dtype=np.float64)


MINV = UnaryOp("minv", _minv)  # multiplicative inverse


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------

def _first(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return np.broadcast_arrays(x, y)[0]


def _second(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return np.broadcast_arrays(x, y)[1]


def _pair(x, y):
    x, y = np.asarray(x), np.asarray(y)
    shape = np.broadcast_shapes(x.shape, y.shape)
    return np.ones(shape, dtype=np.result_type(x, y))


PLUS = BinaryOp("plus", np.add, commutative=True, associative=True)
TIMES = BinaryOp("times", np.multiply, commutative=True, associative=True)
MINUS = BinaryOp("minus", np.subtract)


def _safe_div(x, y):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, y)


DIV = BinaryOp("div", _safe_div)
MIN = BinaryOp("min", np.minimum, commutative=True, associative=True)
MAX = BinaryOp("max", np.maximum, commutative=True, associative=True)
LOR = BinaryOp("lor", np.logical_or, commutative=True, associative=True)
LAND = BinaryOp("land", np.logical_and, commutative=True, associative=True)
LXOR = BinaryOp("lxor", np.logical_xor, commutative=True, associative=True)
EQ = BinaryOp("eq", np.equal, commutative=True)
FIRST = BinaryOp("first", _first, associative=True)
SECOND = BinaryOp("second", _second, associative=True)
PAIR = BinaryOp("pair", _pair, commutative=True)
#: "any" picks an arbitrary operand; implemented as max, which is a valid
#: refinement (deterministic and associative) for the structural uses here.
ANY = BinaryOp("any", np.maximum, commutative=True, associative=True)

#: every built-in binary operator by name — the fixed table a name
#: that crossed the wire (TableMult's ⊗) is resolved against
BINARY_OPS = {op.name: op for op in (PLUS, TIMES, MINUS, DIV, MIN, MAX,
                                     LOR, LAND, LXOR, EQ, FIRST, SECOND,
                                     PAIR, ANY)}


# ---------------------------------------------------------------------------
# Monoids
# ---------------------------------------------------------------------------

PLUS_MONOID = Monoid.from_binaryop(PLUS, identity=0.0)
TIMES_MONOID = Monoid.from_binaryop(TIMES, identity=1.0, terminal=0.0)
MIN_MONOID = Monoid.from_binaryop(MIN, identity=_INF, terminal=-_INF)
MAX_MONOID = Monoid.from_binaryop(MAX, identity=-_INF, terminal=_INF)
LOR_MONOID = Monoid.from_binaryop(LOR, identity=False, terminal=True)
LAND_MONOID = Monoid.from_binaryop(LAND, identity=True, terminal=False)
ANY_MONOID = Monoid.from_binaryop(ANY, identity=-_INF)


# ---------------------------------------------------------------------------
# Semirings
# ---------------------------------------------------------------------------

#: Ordinary arithmetic — walk counting, NMF, Jaccard numerators.
PLUS_TIMES = Semiring("plus_times", PLUS_MONOID, TIMES, one=1.0)
#: Tropical semiring — single/all-pairs shortest paths (paper §I).
MIN_PLUS = Semiring("min_plus", MIN_MONOID, PLUS, one=0.0)
#: Longest-path / critical-path algebra.
MAX_PLUS = Semiring("max_plus", MAX_MONOID, PLUS, one=0.0)
MIN_TIMES = Semiring("min_times", MIN_MONOID, TIMES, one=1.0)
MAX_TIMES = Semiring("max_times", MAX_MONOID, TIMES, one=1.0)
#: Bottleneck ("widest path") algebras.
MAX_MIN = Semiring("max_min", MAX_MONOID, MIN, one=_INF)
MIN_MAX = Semiring("min_max", MIN_MONOID, MAX, one=-_INF)
#: Boolean semiring — reachability, BFS frontiers.
LOR_LAND = Semiring("lor_land", LOR_MONOID, LAND, one=True)
#: Structural semirings — count/aggregate over the intersection pattern.
PLUS_PAIR = Semiring("plus_pair", PLUS_MONOID, PAIR, one=1.0)
ANY_PAIR = Semiring("any_pair", ANY_MONOID, PAIR, one=1.0)
PLUS_MIN = Semiring("plus_min", PLUS_MONOID, MIN, one=_INF)
PLUS_LAND = Semiring("plus_land", PLUS_MONOID, LAND, one=True)
#: Parent-selection semirings for BFS trees / Bellman-Ford predecessors.
MIN_FIRST = Semiring("min_first", MIN_MONOID, FIRST)
MIN_SECOND = Semiring("min_second", MIN_MONOID, SECOND)


_REGISTRY = {
    s.name: s
    for s in (
        PLUS_TIMES,
        MIN_PLUS,
        MAX_PLUS,
        MIN_TIMES,
        MAX_TIMES,
        MAX_MIN,
        MIN_MAX,
        LOR_LAND,
        PLUS_PAIR,
        ANY_PAIR,
        PLUS_MIN,
        PLUS_LAND,
        MIN_FIRST,
        MIN_SECOND,
    )
}


def get_semiring(name: str) -> Semiring:
    """Look up a built-in semiring by name (e.g. ``"min_plus"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown semiring {name!r}; known: {known}") from None


def list_semirings() -> list:
    """Names of all registered built-in semirings, sorted."""
    return sorted(_REGISTRY)
