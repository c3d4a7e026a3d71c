"""Simulated Accumulo: a single-process NoSQL tablet-server substrate.

The paper's thesis is that GraphBLAS kernels can execute *inside* a
NoSQL database because its sorted key-value storage is isomorphic to
sparse-triple storage.  Real Apache Accumulo is a distributed Java
system; this package simulates the parts the thesis depends on, with
the same architecture:

* :mod:`repro.dbsim.key` — ``Key(row, family, qualifier, visibility,
  timestamp) → Value`` cells with Accumulo's sort order (timestamps
  descend);
* :mod:`repro.dbsim.memtable` / :mod:`repro.dbsim.sstable` — an
  in-memory write buffer flushed into immutable sorted runs;
* :mod:`repro.dbsim.iterators` — the server-side iterator layers:
  each a batch stage (``Layer(stage)``) over a tablet's sorted, merged
  stream — versioning, visibility, filtering, combining, transforming,
  the row reduce — the exact extension point Graphulo uses;
* :mod:`repro.dbsim.tablet` / :mod:`repro.dbsim.server` — tablets with
  split points hosted across simulated tablet servers, plus an
  ``Instance`` with table configuration (combiners, splits);
* :mod:`repro.dbsim.client` — Connector / Scanner / BatchScanner /
  BatchWriter;
* :mod:`repro.dbsim.graphulo` — the Graphulo server-side operations:
  TableMult (SpGEMM through iterators), degree tables, apply/filter,
  and table-level BFS;
* :mod:`repro.dbsim.d4m_bridge` — AssocArray ↔ table binding;
* :mod:`repro.dbsim.stats` — the cost model (seeks, entries
  read/written) reported by the benchmark harness in lieu of
  cluster wall-clock numbers.
"""

from repro.dbsim.backend import ConnectorBackend
from repro.dbsim.errors import (
    MutationsRejectedError,
    NotHostedError,
    ServerCrashedError,
    TabletServerError,
)
from repro.dbsim.key import Cell, Key, Range, decode_number, encode_number
from repro.dbsim.iterators import (
    Layer,
    SummingCombiner,
    MinCombiner,
    MaxCombiner,
    select_stage,
)
from repro.dbsim.sstable import RowBloomFilter, SSTable
from repro.dbsim.tablet import Tablet
from repro.dbsim.server import Instance, TabletServer, TableConfig
from repro.dbsim.client import BatchScanner, BatchWriter, Connector, Scanner
from repro.dbsim.graphulo import (
    apply_to_table,
    degree_table,
    filter_table,
    table_bfs,
    table_mult,
)
from repro.dbsim.graphulo_algorithms import (
    table_intersect,
    table_jaccard,
    table_ktruss,
    table_pagerank,
    table_triangles,
)
from repro.dbsim.d4m_bridge import assoc_to_table, table_to_assoc
from repro.dbsim.stats import OpStats
from repro.dbsim.visibility import (
    PUBLIC,
    Authorizations,
    VisibilityError,
    check_expression,
    parse_visibility,
)

__all__ = [
    "ConnectorBackend",
    "TabletServerError",
    "ServerCrashedError",
    "NotHostedError",
    "MutationsRejectedError",
    "Cell",
    "Key",
    "Range",
    "decode_number",
    "encode_number",
    "Layer",
    "SummingCombiner",
    "MinCombiner",
    "MaxCombiner",
    "select_stage",
    "RowBloomFilter",
    "SSTable",
    "Tablet",
    "Instance",
    "TabletServer",
    "TableConfig",
    "BatchScanner",
    "BatchWriter",
    "Connector",
    "Scanner",
    "apply_to_table",
    "degree_table",
    "filter_table",
    "table_bfs",
    "table_intersect",
    "table_jaccard",
    "table_ktruss",
    "table_mult",
    "table_pagerank",
    "table_triangles",
    "assoc_to_table",
    "table_to_assoc",
    "OpStats",
    "PUBLIC",
    "Authorizations",
    "VisibilityError",
    "check_expression",
    "parse_visibility",
]
