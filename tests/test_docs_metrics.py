"""The per-table metrics docs/OBSERVABILITY.md lists are the ones a tablet
registers.

The ``dbsim.table.<table>.*`` entries of the doc's dbsim naming block
(``a | b | c`` alternatives, continued on indented ``| d`` lines) must
equal the names a freshly bound tablet pre-registers — so adding,
renaming or dropping a per-table counter or gauge fails here until the
doc follows.
"""

import re
from pathlib import Path

from repro.dbsim.key import Range
from repro.dbsim.tablet import Tablet
from repro.obs.metrics import MetricsRegistry

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
PREFIX = "dbsim.table.<table>."


def documented_table_metrics():
    """Short names of the doc's ``dbsim.table.<table>.*`` entries."""
    names, inside = set(), False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith(PREFIX):
            inside, listed = True, line[len(PREFIX):]
        elif inside and re.match(r"\s+\|", line):
            listed = line  # a continuation: more alternatives
        else:
            inside = inside and line.startswith(" ")
            continue
        names.update(name.strip() for name in
                     listed.split("(", 1)[0].split("|") if name.strip())
    return names


def test_documented_table_metrics_are_preregistered():
    registry = MetricsRegistry()
    Tablet(Range()).bind_metrics(registry, "t")
    registered = {name[len("dbsim.table.t."):] for name in registry.export()
                  if name.startswith("dbsim.table.t.")}
    assert registered == documented_table_metrics()
