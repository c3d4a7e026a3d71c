"""Boot and drive a localhost dbsim cluster.

:class:`LocalCluster` spawns N tablet-server processes plus one
manager process (multiprocessing ``spawn``) — all launched together,
so their start-up overlaps — tells the manager where its servers
listen, and hands out :class:`~repro.net.client.RemoteConnector`\\ s.  It also
exposes the failure-simulation controls tests build scenarios from:
``crash(i)`` / ``recover(i)`` flip one server's crash flag over RPC
(memtables lost, WAL durable — exactly the in-process semantics), and
fault plans passed at construction ride into every server process.

``processes=False`` runs the same services on daemon threads inside
the calling process — same sockets, same wire protocol, none of the
spawn cost; used by fine-grained unit tests, while integration tests
and the CLI run real processes.

Used by the ``repro cluster`` CLI command and by ``tests/net``.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Union

from repro.net.client import (
    Addr,
    RemoteConnector,
    RetryPolicy,
    format_addr,
)
from repro.net.server import (
    ManagerProcess,
    ManagerService,
    TabletServerProcess,
    TabletServerService,
)
from repro.net.faults import FaultPlan
from repro.obs import sampling as _sampling
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry


class LocalCluster:
    """N tablet servers + 1 manager on 127.0.0.1, as processes or
    in-process service threads.  Context manager::

        with LocalCluster(n_servers=3).start() as cluster:
            conn = cluster.connect()
            ...
    """

    def __init__(self, n_servers: int = 3,
                 fault_specs: Sequence[str] = (), fault_seed: int = 0,
                 trace_dir: Optional[str] = None,
                 processes: bool = True,
                 host: str = "127.0.0.1", manager_port: int = 0,
                 sample_rate: float = 1.0):
        if n_servers < 1:
            raise ValueError(f"need at least one tablet server, "
                             f"got {n_servers}")
        self.n_servers = n_servers
        self.host = host
        self.manager_port = manager_port
        self.fault_specs = list(fault_specs)
        self.fault_seed = fault_seed
        self.trace_dir = trace_dir
        self.processes = processes
        self.sample_rate = sample_rate
        self.server_names = [f"tserver{i}" for i in range(n_servers)]
        self._servers: List = []          # process handles or services
        self._manager = None
        self.server_addrs: List[Addr] = []
        self.manager_addr: Optional[Addr] = None
        self._started = False
        self._owns_trace = False
        self._owns_sampling = False

    # -- lifecycle --------------------------------------------------------

    def _trace_path(self, who: str) -> Optional[str]:
        if not self.trace_dir:
            return None
        os.makedirs(self.trace_dir, exist_ok=True)
        return os.path.join(self.trace_dir, f"trace.{who}.jsonl")

    def start(self) -> "LocalCluster":
        if self._started:
            raise RuntimeError("cluster already started")
        try:
            if self.processes:
                self._start_processes()
            else:
                self._start_threads()
        except BaseException:
            # a child that could not start (say, its port is taken)
            # must not leave the ones that did running
            self._teardown(timeout=0.0)
            raise
        self._started = True
        return self

    def _start_processes(self) -> None:
        # launch everything, then wait: a child's start-up is mostly
        # its imports, and this way they overlap — the cluster is up as
        # fast as its slowest child, not the sum of them.  A handle is
        # kept only once its child started, so a failed launch leaves
        # _teardown the children that exist and nothing else
        for i, name in enumerate(self.server_names):
            proc = TabletServerProcess(
                name, fault_specs=self.fault_specs,
                # salt per server: same seed on every server would make
                # the fault streams fire in lockstep
                fault_seed=self.fault_seed + i,
                trace_path=self._trace_path(name), host=self.host,
                sample_rate=self.sample_rate)
            proc.launch()
            self._servers.append(proc)
        manager = ManagerProcess(
            (), trace_path=self._trace_path("manager"),
            host=self.host, port=self.manager_port,
            sample_rate=self.sample_rate)
        manager.launch()
        self._manager = manager
        # in server_names order whichever child listened first: the
        # manager places tablets by position in this list
        self.server_addrs = [proc.wait_addr() for proc in self._servers]
        self._manager.servers = list(zip(self.server_names,
                                         self.server_addrs))
        self.manager_addr = self._manager.wait_addr()

    def _start_threads(self) -> None:
        # thread-mode services share this process, so they share one
        # trace file (each child process gets its own in process mode);
        # never stomp a tracer the caller already enabled (CLI --trace)
        if self.trace_dir and not _trace.is_enabled():
            _trace.enable(_trace.JSONLSink(self._trace_path("cluster"),
                                           process="cluster"))
            self._owns_trace = True
        # one process -> one sampling config; only install it if the
        # caller (CLI / test) hasn't already
        if self.sample_rate < 1.0 and _sampling.active_tail() is None:
            _sampling.configure(self.sample_rate)
            self._owns_sampling = True
        for i, name in enumerate(self.server_names):
            faults = (FaultPlan.from_specs(self.fault_specs,
                                           seed=self.fault_seed + i)
                      if self.fault_specs else None)
            service = TabletServerService(name, faults=faults)
            self.server_addrs.append(service.start(host=self.host))
            self._servers.append(service)
        self._manager = ManagerService(
            list(zip(self.server_names, self.server_addrs)))
        self.manager_addr = self._manager.start(host=self.host,
                                                port=self.manager_port)

    def stop(self) -> None:
        if not self._started:
            return
        try:
            # best effort: orderly shutdown through the manager tears
            # down the server listeners too
            conn = self.connect(retry=RetryPolicy(attempts=1,
                                                  deadline=2.0))
            try:
                conn.instance.shutdown_cluster()
            finally:
                conn.close()
        except Exception:  # noqa: BLE001 - teardown is best-effort
            pass
        self._teardown()
        self._started = False

    def _teardown(self, timeout: float = 5.0) -> None:
        """Stop the manager and every server launched so far, and undo
        what a thread-mode start installed.  Child processes get
        ``timeout`` seconds to exit by themselves first (0 when nobody
        asked them to)."""
        services = ([self._manager] if self._manager else []) + self._servers
        self._manager = None
        self._servers = []
        self.server_addrs = []
        for service in services:
            if self.processes:
                service.stop(timeout)
            else:
                service.stop()
        if self._owns_trace:
            _trace.disable(close=True)
            self._owns_trace = False
        if self._owns_sampling:
            _sampling.unconfigure()
            self._owns_sampling = False

    def __enter__(self) -> "LocalCluster":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- clients ----------------------------------------------------------

    def connect(self, metrics: Optional[MetricsRegistry] = None,
                retry: Optional[RetryPolicy] = None,
                seed: int = 0) -> RemoteConnector:
        """A fresh client."""
        if self.manager_addr is None:
            raise RuntimeError("cluster is not started")
        return RemoteConnector(self.manager_addr, metrics=metrics,
                               retry=retry, seed=seed)

    @property
    def manager_addr_str(self) -> str:
        if self.manager_addr is None:
            raise RuntimeError("cluster is not started")
        return format_addr(self.manager_addr)

    # -- failure simulation -----------------------------------------------

    def _name(self, server: Union[int, str]) -> str:
        if isinstance(server, int):
            return self.server_names[server]
        return server

    def crash(self, server: Union[int, str]) -> None:
        """Simulated crash of one server: its memtables are lost, its
        WALs survive, and every data op against it fails typed until
        :meth:`recover`."""
        conn = self.connect(retry=RetryPolicy(attempts=2))
        try:
            conn.instance.crash_server(self._name(server))
        finally:
            conn.close()

    def recover(self, server: Union[int, str],
                replay_wal: bool = True) -> None:
        conn = self.connect(retry=RetryPolicy(attempts=2))
        try:
            conn.instance.recover_server(self._name(server), replay_wal)
        finally:
            conn.close()
