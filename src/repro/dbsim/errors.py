"""Typed failure modes of the (simulated or remote) tablet-server fleet.

These are the exceptions a distributed client's retry policy keys off,
so they live in one dependency-free module shared by the in-process
simulator (:mod:`repro.dbsim`) and the RPC fabric (:mod:`repro.net`):

* :class:`ServerCrashedError` — the server holding the data is down;
  the operation may succeed after ``recover()``.  Remote clients back
  off and retry; in-process callers see the same typed error instead
  of silently reading a dead server's tablets.
* :class:`NotHostedError` — the addressed server no longer hosts a
  tablet covering the requested rows (a split migrated it, or the
  client's tablet-location cache is stale).  Remote clients re-locate
  through the manager and re-route; retrying the same server is
  pointless.
* :class:`BusyError` — the server's per-connection admission queue is
  full; the request was rejected *before* running, so a backoff retry
  is always safe (no dedup interaction).
* :class:`MutationsRejectedError` — a ``BatchWriter`` batch was refused
  (any failure but ``NotHostedError``, which re-routes): the writer
  stays failed, and raises this from every later call.
"""

from __future__ import annotations

from typing import Dict


class TabletServerError(RuntimeError):
    """Base class for tablet-server-side failures surfaced to clients."""


class ServerCrashedError(TabletServerError):
    """A data operation reached a crashed (not yet recovered) server."""


class NotHostedError(TabletServerError):
    """The addressed server hosts no tablet covering the requested rows."""


class BusyError(TabletServerError):
    """The server shed this request at admission (bounded in-flight
    queue full).  Never applied — retry after backoff."""


class MutationsRejectedError(TabletServerError):
    """A ``BatchWriter`` whose batch was refused stays failed: every
    later ``put``, ``flush`` and ``close`` raises this, as Accumulo's
    writer raises ``MutationsRejectedException``, so a caller cannot
    miss the loss.  ``refused`` maps each refusing tablet's id to the
    cells it refused; the batches that were applied stay applied."""

    def __init__(self, table: str, refused: Dict[str, int]):
        self.table = table
        self.refused = dict(refused)
        super().__init__(
            f"a writer to {table!r} had batches refused: " + ", ".join(
                f"{n} cells by tablet {tablet_id!r}"
                for tablet_id, n in sorted(self.refused.items())))
