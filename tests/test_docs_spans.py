"""The kernel spans docs/OBSERVABILITY.md lists are the spans the kernels
record.

For each span name below, the "Extra attrs" cell of its row in the
instrumented-call-sites table (``a/b/c`` groups expanded, comma
separated) must equal the attribute keys a traced call records — so
adding, renaming or dropping a span attribute fails here until the doc
follows.  And every `` `kernel.*` `` row in that table names a span
called here, so a deleted span's row cannot outlive it.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.obs import InMemorySink, trace
from repro.sparse import Vector, from_dense, mxm, mxv, mxv_sparse, vxm

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def documented_attrs(span_name):
    """Attribute names in the doc's table row for ``span_name``."""
    prefix = f"| `{span_name}` |"
    (row,) = [line for line in DOC.read_text(encoding="utf-8").splitlines()
              if line.startswith(prefix)]
    extra = row.rstrip(" |").rsplit(" | ", 1)[1]
    return {name for group in extra.split(", ") for name in group.split("/")}


def _square():
    rng = np.random.default_rng(0)
    return from_dense(np.where(rng.random((12, 12)) < 0.3, 1.0, 0.0))


CALLS = {
    "kernel.spgemm": lambda a: mxm(a, a, mask=a, expansion_budget=8),
    "kernel.spmv": lambda a: mxv(a, np.ones(a.ncols)),
    "kernel.vxm": lambda a: vxm(np.ones(a.nrows), a),
    "kernel.spmspv": lambda a: mxv_sparse(
        a, Vector.sparse_ones(a.ncols, [0, 5])),
}


def test_every_documented_kernel_span_is_called():
    rows = [line for line in DOC.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `kernel.")]
    assert {row.split("`")[1] for row in rows} == set(CALLS)


@pytest.mark.parametrize("span_name", sorted(CALLS))
def test_documented_span_attrs_are_recorded(span_name):
    sink = InMemorySink()
    trace.enable(sink)
    try:
        CALLS[span_name](_square())
    finally:
        trace.disable()
    recorded = {key for span in sink.spans(span_name)
                for key in span["attrs"]}
    assert recorded == documented_attrs(span_name)
