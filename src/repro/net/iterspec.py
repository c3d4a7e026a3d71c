"""Wire-serializable iterator-stack specs — server-side push-down.

The paper's central mechanism is that graph kernels run *inside* the
tablet servers' iterator stacks, not client-side over raw cells.  This
module is the spec language that makes that safe over RPC: a scan
request may attach a declarative, validated description of an iterator
chain — column projection, regex / numeric-predicate / age-off
filters, versioning limits, the Summing/Min/Max combiners, named Apply
ops, and a Reduce/fold terminal — and the server builds the
matching chain of :mod:`repro.dbsim.iterators` layers from a whitelist
of op names.  **No code ever crosses the wire**: the spec is plain JSON
(a list of ``{"op": name, ...}`` dicts), every name and argument is
validated on both ends, and anything outside the whitelist is rejected
with a typed :class:`IterSpecError` before a stack is built.

Each op builds one :class:`~repro.dbsim.iterators.Layer` — the batch
stage that implements it, plus its wire form — and
:func:`scan_layers` is the one place a scan's layer tuple is put
together, for the local client and the tablet server alike.  Both then
make the same ``Tablet.scan_columns`` call with it, so a spec executed
server-side is bit-identical (timestamps included) to its in-process
execution — the contract the test suite enforces under fault injection.

Spec grammar (wire form — ``IterSpec.to_wire()`` / ``from_wire()``)::

    [{"op": "column",       "qualifiers": ["q1", ...]},
     {"op": "regex",        "row": R?, "qualifier": Q?, "value": V?},
     {"op": "value_filter", "cmp": "gt|ge|lt|le|eq|ne", "threshold": x},
     {"op": "age_off",      "cutoff": ts},
     {"op": "versions",     "max_versions": n},
     {"op": "combiner",     "fn": "sum|min|max"},
     {"op": "apply",        "name": N, "args": [...], "drop_zero": b},
     {"op": "reduce",       "fn": "sum|min|max", "family": f,
                            "qualifier": q, "count": b},
     {"op": "distinct",     "seen": [q, ...]},
     {"op": "jaccard",      "degrees": {row: d, ...}}]

Ops apply top-to-bottom in list order; ``reduce`` (one output cell per
row — Graphulo's fold terminal, ``fn`` naming the semiring ⊕) must be
the last op.  So must ``distinct``, which keeps the first cell of each
qualifier among the cells one tablet's scan returns — a BFS hop's new
neighbours, deduplicated where they are stored — less any qualifier in
its optional ``seen`` list.  Its output is a subset of its input in key
order, but its state crosses rows: a tablet scan holding it resumes
with ``seen`` set to the qualifiers that tablet already delivered (see
:class:`~repro.dbsim.backend.TabletRead`), and a tablet re-planned in
its place starts from them (``ConnectorBackend.scan_columns``).  Being
last, its output is exactly what was delivered.  Apply ops come from the
:data:`APPLY_OPS` registry of named unary numeric functions.  ``jaccard`` turns a common-neighbour
count ``cn`` at (i, j), i < j, into ``cn / (dᵢ + dⱼ − cn)`` at (i, j)
and at (j, i), from the degree vector it carries (a missing vertex has
degree 0): Jaccard's last step (the paper's Algorithm 2), O(n) on the
wire for n vertices.  Its output is not in key order, so only a
two-table op's ``post`` may hold it; a scan refuses it.
"""

from __future__ import annotations

import operator
import re
from functools import partial
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dbsim.iterators import (
    COMBINERS,
    Layer,
    age_off_stage,
    apply_stage,
    column_stage,
    distinct_stage,
    reduce_stage,
    regex_stage,
    select_stage,
    versions_stage,
    visibility_stage,
)


class IterSpecError(ValueError):
    """An iterator spec failed validation: unknown op or apply name,
    missing / mistyped argument, or a misplaced ``reduce`` terminal.
    Raised client-side at build time and server-side before a stack is
    installed — the server never executes an unvalidated spec."""


class NonSerializableIteratorError(ValueError):
    """A local callable was given where only wire data may go (an
    ``iterspec``, or a cluster TableMult's ``mul`` or one-table op's
    stage): only whitelisted names cross the wire.  Express the stack as an :class:`IterSpec`,
    or run the code client-side as a ``Layer(stage)`` scan iterator."""


# -- named Apply ops --------------------------------------------------------

#: name → (arity, maker(*args) → unary fn).  The only value transforms
#: a spec may name; arbitrary callables never cross the wire.
APPLY_OPS: Dict[str, Tuple[int, Callable[..., Callable[[float], float]]]] = {
    "abs": (0, lambda: abs),
    "negate": (0, lambda: lambda v: -v),
    "sign": (0, lambda: lambda v: (v > 0) - (v < 0)),
    "square": (0, lambda: lambda v: v * v),
    "invert": (0, lambda: lambda v: 1.0 / v if v else 0.0),
    "scale": (1, lambda k: lambda v: v * k),
    "add": (1, lambda k: lambda v: v + k),
    "pow": (1, lambda k: lambda v: v ** k),
    "clip": (2, lambda lo, hi: lambda v: min(max(v, lo), hi)),
}

#: cmp name → the operator with its operands swapped, so that
#: ``_CMPS[cmp](threshold, value)`` is ``value <cmp> threshold`` and
#: the threshold can be bound with ``partial``
_CMPS = {"gt": operator.lt, "ge": operator.le, "lt": operator.gt,
         "le": operator.ge, "eq": operator.eq, "ne": operator.ne}

_MONOIDS = ("sum", "min", "max")



# -- validation -------------------------------------------------------------


def _want(op: dict, field: str, kinds, what: str):
    if field not in op:
        raise IterSpecError(f"op {op.get('op')!r} missing field {field!r}")
    val = op[field]
    if not isinstance(val, kinds) or isinstance(val, bool) and bool not in (
            kinds if isinstance(kinds, tuple) else (kinds,)):
        raise IterSpecError(
            f"op {op.get('op')!r} field {field!r} must be {what}, "
            f"got {val!r}")
    return val


def _check_column(op: dict) -> dict:
    quals = _want(op, "qualifiers", (list, tuple), "a list of strings")
    if not quals or not all(isinstance(q, str) for q in quals):
        raise IterSpecError(
            f"column op needs a non-empty list of string qualifiers, "
            f"got {quals!r}")
    return {"op": "column", "qualifiers": [str(q) for q in quals]}


def _check_regex(op: dict) -> dict:
    out: dict = {"op": "regex"}
    any_set = False
    for field in ("row", "qualifier", "value"):
        pat = op.get(field)
        if pat is None:
            out[field] = None
            continue
        if not isinstance(pat, str):
            raise IterSpecError(
                f"regex op field {field!r} must be a string pattern, "
                f"got {pat!r}")
        try:
            re.compile(pat)
        except re.error as exc:
            raise IterSpecError(
                f"regex op field {field!r} does not compile: {exc}")
        out[field] = pat
        any_set = True
    if not any_set:
        raise IterSpecError("regex op needs at least one of "
                            "row/qualifier/value")
    return out


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_value_filter(op: dict) -> dict:
    cmp = _want(op, "cmp", str, "a comparison name")
    if cmp not in _CMPS:
        raise IterSpecError(f"unknown value_filter cmp {cmp!r}; "
                            f"known: {sorted(_CMPS)}")
    threshold = op.get("threshold")
    if not _is_num(threshold):
        raise IterSpecError(f"value_filter threshold must be a number, "
                            f"got {threshold!r}")
    return {"op": "value_filter", "cmp": cmp, "threshold": threshold}


def _check_age_off(op: dict) -> dict:
    cutoff = op.get("cutoff")
    if not isinstance(cutoff, int) or isinstance(cutoff, bool):
        raise IterSpecError(f"age_off cutoff must be an integer "
                            f"timestamp, got {cutoff!r}")
    return {"op": "age_off", "cutoff": cutoff}


def _check_versions(op: dict) -> dict:
    mv = op.get("max_versions")
    if not isinstance(mv, int) or isinstance(mv, bool) or mv < 1:
        raise IterSpecError(f"versions max_versions must be an integer "
                            f">= 1, got {mv!r}")
    return {"op": "versions", "max_versions": mv}


def _check_combiner(op: dict) -> dict:
    fn = _want(op, "fn", str, "a combiner name")
    if fn not in COMBINERS:
        raise IterSpecError(f"unknown combiner fn {fn!r}; "
                            f"known: {sorted(COMBINERS)}")
    return {"op": "combiner", "fn": fn}


def _check_apply(op: dict) -> dict:
    name = _want(op, "name", str, "an apply-op name")
    if name not in APPLY_OPS:
        raise IterSpecError(f"unknown apply op {name!r}; "
                            f"known: {sorted(APPLY_OPS)}")
    arity, _ = APPLY_OPS[name]
    args = op.get("args", [])
    if not isinstance(args, (list, tuple)) or len(args) != arity \
            or not all(_is_num(a) for a in args):
        raise IterSpecError(
            f"apply op {name!r} takes {arity} numeric arg(s), "
            f"got {args!r}")
    drop_zero = op.get("drop_zero", True)
    if not isinstance(drop_zero, bool):
        raise IterSpecError(f"apply drop_zero must be a bool, "
                            f"got {drop_zero!r}")
    return {"op": "apply", "name": name, "args": list(args),
            "drop_zero": drop_zero}


def _check_reduce(op: dict) -> dict:
    fn = _want(op, "fn", str, "a monoid name")
    if fn not in _MONOIDS:
        raise IterSpecError(f"unknown reduce fn {fn!r}; "
                            f"known: {sorted(_MONOIDS)}")
    family = op.get("family", "")
    qualifier = op.get("qualifier", "deg")
    if not isinstance(family, str) or not isinstance(qualifier, str):
        raise IterSpecError(f"reduce family/qualifier must be strings, "
                            f"got {family!r}/{qualifier!r}")
    count = op.get("count", False)
    if not isinstance(count, bool):
        raise IterSpecError(f"reduce count must be a bool, got {count!r}")
    return {"op": "reduce", "fn": fn, "family": family,
            "qualifier": qualifier, "count": count}


def _check_distinct(op: dict) -> dict:
    if "seen" not in op:
        return {"op": "distinct"}
    seen = _want(op, "seen", (list, tuple), "a list of strings")
    if not all(isinstance(q, str) for q in seen):
        raise IterSpecError(f"distinct op's seen must hold strings, "
                            f"got {seen!r}")
    return {"op": "distinct", "seen": list(seen)}


def _check_jaccard(op: dict) -> dict:
    degrees = _want(op, "degrees", dict, "a {row: number} map")
    for row, degree in degrees.items():
        if not isinstance(row, str) or not _is_num(degree):
            raise IterSpecError(f"jaccard degrees must map row strings to "
                                f"numbers, got {row!r}: {degree!r}")
    return {"op": "jaccard", "degrees": dict(degrees)}


_CHECKS = {
    "column": _check_column,
    "regex": _check_regex,
    "value_filter": _check_value_filter,
    "age_off": _check_age_off,
    "versions": _check_versions,
    "combiner": _check_combiner,
    "apply": _check_apply,
    "reduce": _check_reduce,
    "distinct": _check_distinct,
    "jaccard": _check_jaccard,
}


# -- layer builders ---------------------------------------------------------


def _value_mask(cmp: str, threshold: float) -> Callable:
    """The ``value_filter`` mask: ``value <cmp> threshold``, text
    decoded; non-numeric text never satisfies a value cmp."""
    test = partial(_CMPS[cmp], threshold)

    def one(value: str) -> bool:
        try:
            return test(float(value))
        except ValueError:
            return False

    def mask(batch):
        try:  # the whole column at C speed when it is all numbers
            return map(test, batch.numbers())
        except ValueError:
            return map(one, batch.text())
    return mask


def _jaccard_stage(degrees: Dict[str, float]):
    """J(i, j) = cn / (dᵢ + dⱼ − cn) for every cell (i, j) of a
    strict-upper common-neighbour table, i < j, whose denominator is
    positive; the rest are dropped.  Each input batch yields its kept
    cells, then the same cells transposed to (j, i) — the same value:
    the sum in the denominator commutes exactly — as a second batch
    sorted by key.  Each batch is in key order, the stream is not, so
    the op runs as a two-table op's ``post`` and never in a scan."""
    def stage(batches):
        import numpy as np  # a post runs in a step: the multiply loaded it

        def degree(keys):
            return np.fromiter(map(degrees.get, keys, repeat(0.0)), float)
        for batch in batches:
            cn = np.array(batch.numbers())
            denom = degree(batch.rows) + degree(batch.qualifiers) - cn
            keep = np.flatnonzero((denom > 0) & np.fromiter(
                map(operator.lt, batch.rows, batch.qualifiers), bool))
            if len(keep):
                if len(keep) < len(batch):
                    batch = batch.select(keep.tolist())
                batch.set_numbers(cn[keep] / denom[keep])
                batch.text()  # encoded once: the mirror selects the text
                yield batch
                yield _transposed(batch)
    return stage


def _transposed(batch):
    """``batch`` with rows and qualifiers swapped, sorted by key."""
    keys = list(zip(batch.qualifiers, batch.families, batch.rows,
                    batch.visibilities, map(operator.neg, batch.timestamps)))
    swapped = batch.select(sorted(range(len(keys)), key=keys.__getitem__))
    swapped.rows, swapped.qualifiers = swapped.qualifiers, swapped.rows
    return swapped


def _build(op: dict) -> Layer:
    kind = op["op"]
    if kind == "combiner":
        return COMBINERS[op["fn"]]
    if kind == "column":
        stage = column_stage(op["qualifiers"])
    elif kind == "regex":
        stage = regex_stage(op["row"], op["qualifier"], op["value"])
    elif kind == "value_filter":
        stage = select_stage(_value_mask(op["cmp"], op["threshold"]))
    elif kind == "age_off":
        stage = age_off_stage(op["cutoff"])
    elif kind == "versions":
        stage = versions_stage(op["max_versions"])
    elif kind == "apply":
        _, maker = APPLY_OPS[op["name"]]
        stage = apply_stage(maker(*op["args"]), op["drop_zero"])
    elif kind == "reduce":
        stage = reduce_stage(op["fn"], op["family"], op["qualifier"],
                             op["count"])
    elif kind == "distinct":
        stage = distinct_stage(op.get("seen", ()))
    elif kind == "jaccard":
        stage = _jaccard_stage(op["degrees"])
    else:
        raise IterSpecError(f"unknown op {kind!r}")  # pragma: no cover
    return Layer(stage, op)


# -- the spec ---------------------------------------------------------------


class IterSpec:
    """An immutable, validated iterator-stack spec.

    Build fluently — each method returns a *new* spec with one more op
    appended (validation runs on every append)::

        spec = (IterSpec()
                .column_filter(["w"])
                .value_gt(2.0)
                .reduce("sum", qualifier="deg", count=True))

    ``to_wire()`` / ``from_wire()`` round-trip the JSON wire form;
    ``build_factories()`` yields the ``scan_iterators`` tuple both
    backends run — one stage-carrying layer per op.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: Sequence[dict] = ()):
        normalized: List[dict] = []
        n = len(ops)
        for i, op in enumerate(ops):
            if not isinstance(op, dict):
                raise IterSpecError(f"spec op #{i} must be a dict, "
                                    f"got {op!r}")
            kind = op.get("op")
            check = _CHECKS.get(kind)
            if check is None:
                raise IterSpecError(f"unknown iterspec op {kind!r}; "
                                    f"known: {sorted(_CHECKS)}")
            if kind in ("reduce", "distinct") and i != n - 1:
                raise IterSpecError(f"{kind} must be the last op in a spec")
            normalized.append(check(op))
        object.__setattr__(self, "ops", tuple(normalized))

    def __setattr__(self, name, value):  # immutable after __init__
        raise AttributeError("IterSpec is immutable")

    # -- fluent builders ----------------------------------------------------

    def _with(self, op: dict) -> "IterSpec":
        return IterSpec(self.ops + (op,))

    def column_filter(self, qualifiers: Sequence[str]) -> "IterSpec":
        return self._with({"op": "column", "qualifiers": list(qualifiers)})

    def regex(self, row: Optional[str] = None,
              qualifier: Optional[str] = None,
              value: Optional[str] = None) -> "IterSpec":
        return self._with({"op": "regex", "row": row,
                           "qualifier": qualifier, "value": value})

    def where_value(self, cmp: str, threshold: float) -> "IterSpec":
        return self._with({"op": "value_filter", "cmp": cmp,
                           "threshold": threshold})

    def value_gt(self, t: float) -> "IterSpec":
        return self.where_value("gt", t)

    def value_ge(self, t: float) -> "IterSpec":
        return self.where_value("ge", t)

    def value_lt(self, t: float) -> "IterSpec":
        return self.where_value("lt", t)

    def value_le(self, t: float) -> "IterSpec":
        return self.where_value("le", t)

    def value_eq(self, t: float) -> "IterSpec":
        return self.where_value("eq", t)

    def value_ne(self, t: float) -> "IterSpec":
        return self.where_value("ne", t)

    def age_off(self, cutoff: int) -> "IterSpec":
        return self._with({"op": "age_off", "cutoff": cutoff})

    def versions(self, max_versions: int) -> "IterSpec":
        return self._with({"op": "versions", "max_versions": max_versions})

    def combiner(self, fn: str = "sum") -> "IterSpec":
        return self._with({"op": "combiner", "fn": fn})

    def apply(self, name: str, *args: float,
              drop_zero: bool = True) -> "IterSpec":
        return self._with({"op": "apply", "name": name,
                           "args": list(args), "drop_zero": drop_zero})

    def reduce(self, fn: str = "sum", family: str = "",
               qualifier: str = "deg", count: bool = False) -> "IterSpec":
        return self._with({"op": "reduce", "fn": fn, "family": family,
                           "qualifier": qualifier, "count": count})

    def distinct(self) -> "IterSpec":
        return self._with({"op": "distinct"})

    def jaccard(self, degrees: Dict[str, float]) -> "IterSpec":
        return self._with({"op": "jaccard", "degrees": degrees})

    # -- wire + execution ---------------------------------------------------

    def to_wire(self) -> List[dict]:
        """The JSON-serializable wire form (a list of op dicts)."""
        return [dict(op) for op in self.ops]

    @classmethod
    def from_wire(cls, obj: Any) -> "IterSpec":
        """Validate a wire form back into a spec (raises
        :class:`IterSpecError` on anything outside the whitelist)."""
        if not isinstance(obj, (list, tuple)):
            raise IterSpecError(f"iterspec wire form must be a list of "
                                f"op dicts, got {type(obj).__name__}")
        return cls(obj)

    def build_factories(self) -> Tuple[Layer, ...]:
        """The ``scan_iterators`` tuple this spec describes: one
        :class:`~repro.dbsim.iterators.Layer` per op."""
        return tuple(_build(op) for op in self.ops)

    # -- ergonomics ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __eq__(self, other) -> bool:
        return isinstance(other, IterSpec) and self.ops == other.ops

    def __hash__(self) -> int:
        import json
        return hash(json.dumps(self.to_wire(), sort_keys=True))

    def __repr__(self) -> str:
        return f"IterSpec({list(self.ops)!r})"


# -- module helpers ---------------------------------------------------------


def coerce(spec: Optional[Any]) -> Optional[IterSpec]:
    """Normalize ``spec`` to an :class:`IterSpec` (or ``None``)."""
    if spec is None or isinstance(spec, IterSpec):
        return spec
    if callable(spec):
        raise NonSerializableIteratorError(
            f"scan iterators must be wire-serializable IterSpecs on the "
            f"remote backend; got a local callable {spec!r} which cannot "
            f"cross the wire")
    return IterSpec.from_wire(spec)


def post_layers(post: Optional[Sequence]) -> Tuple[Layer, ...]:
    """A two-table op's ``post`` as layers: its wire ops built, or the
    :class:`Layer`\\ s an in-process post may hold, as they are."""
    if post and all(isinstance(layer, Layer) for layer in post):
        return tuple(post)
    return IterSpec.from_wire(post or ()).build_factories()


def scan_layers(auths, spec: Optional[Any] = None) -> Tuple[Layer, ...]:
    """The stage-carrying layers of one scan, bottom-up: the visibility
    filter for ``auths``, then the ops of ``spec`` (an
    :class:`IterSpec`, a wire form, or ``None``) — visibility *below*
    the spec, the Accumulo ordering (system filter below user
    iterators), so a combiner or reduce never folds cells the scan may
    not see.  The local client and the tablet server both build their
    ``scan_iterators`` here, so both refuse a spec holding the
    ``jaccard`` op with :class:`IterSpecError`."""
    spec = coerce(spec)
    if spec and any(op["op"] == "jaccard" for op in spec.ops):
        raise IterSpecError("the jaccard op's output is not in key order: "
                            "it runs as a two-table op's post, not in a "
                            "scan")
    visibility = Layer(visibility_stage(auths),
                       {"op": "visibility", "auths": sorted(auths.tokens)})
    return (visibility,) + (spec.build_factories() if spec else ())
