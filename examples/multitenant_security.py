#!/usr/bin/env python3
"""Multi-tenant graph analytics with cell-level security.

A unique property of running graph kernels *inside* a NoSQL database
(the paper's motivation) is that the database's security model composes
with the analytics for free: one physical edge table carries
compartment labels, and each analyst's TableMult / BFS / degree query
sees only their authorized subgraph — no per-tenant copies.

This example stores one graph with a public spine plus two classified
compartments, then runs the same server-side operations under three
authorization sets.

Run:  python examples/multitenant_security.py
"""

from repro.dbsim import (
    Authorizations,
    Connector,
    degree_table,
    table_bfs,
    table_to_assoc,
)
from repro.dbsim.key import Range, decode_number
from repro.dbsim.server import Instance


def put_edge(w, u, v, vis=""):
    w.put(f"v{u}", "", f"v{v}", 1, visibility=vis)
    w.put(f"v{v}", "", f"v{u}", 1, visibility=vis)


def main() -> None:
    conn = Connector(Instance(n_servers=2))
    conn.create_table("edges")
    with conn.batch_writer("edges") as w:
        # public spine
        put_edge(w, 0, 1)
        put_edge(w, 1, 2)
        # "red" compartment extends the graph past v2
        put_edge(w, 2, 3, "red")
        put_edge(w, 3, 4, "red")
        # "blue" compartment hangs off v0
        put_edge(w, 0, 5, "blue")
        # an edge only joint-cleared analysts may see
        put_edge(w, 4, 5, "red&blue")

    analysts = {
        "public   (no auths)": None,
        "red      ": Authorizations(["red"]),
        "blue     ": Authorizations(["blue"]),
        "red+blue ": Authorizations(["red", "blue"]),
    }

    print("one physical table, four analysts, BFS from v0 (3 hops):")
    for name, auths in analysts.items():
        dist = table_bfs(conn, "edges", ["v0"], hops=4,
                         authorizations=auths)
        reach = ", ".join(f"{v}@{h}" for v, h in sorted(dist.items()))
        print(f"  {name}: {reach}")

    print("\nper-analyst degree tables (entry counts):")
    for suffix, auths in (("pub", None), ("red", analysts["red      "])):
        degree_table(conn, "edges", f"deg_{suffix}", count_entries=True,
                     authorizations=auths)
        degs = {c.key.row: int(decode_number(c.value))
                for c in conn.scanner(f"deg_{suffix}")}
        print(f"  deg_{suffix}: {degs}")

    print("\nthe same table through a scanner, two clearances:")
    for name, auths in (("public", None),
                        ("red,blue", analysts["red+blue "])):
        print(f"  scan ({name}):")
        scanner = conn.scanner("edges", authorizations=auths)
        lines = [f"{c.key.row} {c.key.family}:{c.key.qualifier} "
                 f"[{c.key.visibility}]\t{c.value}"
                 for c in scanner.set_range(Range("v4", "v6"))]
        for line in lines or ["  (nothing)"]:
            print(f"    {line}")


if __name__ == "__main__":
    main()
