"""``RpcCore.judge``: what one failed attempt calls for.

A unary call and a scan's stream judge a failed attempt by the same
function, so each failure is retried, re-located or raised — and
counted — the same way on both paths.  What must hold:

* a late answer, a shed stream, an admission shed, a corrupt frame, a
  dropped socket and a crashed server are retried after backoff, each
  bumping its own counter (if it has one) and nothing else;
* a moved tablet (``NotHostedError``) is re-located, counted in
  ``relocates``;
* any other typed error is raised and counted in ``errors`` once; a
  protocol error (version skew, garbage framing) is raised uncounted.

Pure unit tests: no cluster, no socket.
"""

import random

import pytest

from repro.dbsim.errors import BusyError, NotHostedError, ServerCrashedError
from repro.net import wire
from repro.net.client import (RELOCATE, RETRY, RetryPolicy, RpcCore,
                              StreamOverrunError)
from repro.net.iterspec import IterSpecError
from repro.obs.metrics import MetricsRegistry

#: every counter judge may bump
COUNTERS = ("timeouts", "stream_overruns", "busy_retries", "relocates",
            "errors", "retries")


def counts(registry):
    exported = registry.export()
    return {name: exported.get(f"net.client.{name}", 0) for name in COUNTERS}


@pytest.mark.parametrize("exc, verdict, counter", [
    (TimeoutError("late"), RETRY, "timeouts"),
    (StreamOverrunError("shed"), RETRY, "stream_overruns"),
    (BusyError("busy"), RETRY, "busy_retries"),
    (wire.FrameCorruptError("crc"), RETRY, None),
    (wire.ConnectionClosedError("eof"), RETRY, None),
    (ConnectionResetError("reset"), RETRY, None),
    (ServerCrashedError("crashed"), RETRY, None),
    (NotHostedError("moved"), RELOCATE, "relocates"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_recoverable_failures(exc, verdict, counter):
    registry = MetricsRegistry()
    core = RpcCore(metrics=registry)
    before = counts(registry)
    assert core.judge(exc) is verdict
    after = counts(registry)
    for name in COUNTERS:
        assert after[name] - before[name] == (1 if name == counter else 0), \
            name


@pytest.mark.parametrize("exc, counted", [
    (IterSpecError("bad spec"), True),
    (KeyError("no such table"), True),
    (wire.RpcError("remote failure"), True),
    (wire.ProtocolError("version skew"), False),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_other_failures_are_raised(exc, counted):
    registry = MetricsRegistry()
    core = RpcCore(metrics=registry)
    before = counts(registry)
    with pytest.raises(type(exc)) as raised:
        core.judge(exc)
    assert raised.value is exc
    after = counts(registry)
    for name in COUNTERS:
        want = 1 if (name == "errors" and counted) else 0
        assert after[name] - before[name] == want, name


def test_exhausted_counts_one_error():
    registry = MetricsRegistry()
    core = RpcCore(metrics=registry)
    err = core.exhausted("SCAN t", 8)
    assert isinstance(err, wire.RpcError)
    assert str(err) == "SCAN t failed after 8 attempts"
    assert counts(registry)["errors"] == 1


def test_backoff_counts_each_retry_and_follows_the_policy():
    registry = MetricsRegistry()
    policy = RetryPolicy(base=0.001, cap=0.004)
    core = RpcCore(metrics=registry, retry=policy, seed=7)
    rng = random.Random(7)
    sleep = None
    for n in range(1, 5):
        want = policy.next_sleep(sleep, rng)
        sleep = core.backoff(sleep)
        assert sleep == want
        assert policy.base <= sleep <= policy.cap
        assert counts(registry)["retries"] == n
