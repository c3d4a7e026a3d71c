"""Fault-rule parsing, seeded determinism, and frame corruption."""

import random
import socket

import pytest

from repro.net import wire
from repro.net.faults import (
    FaultPlan,
    FaultRule,
    apply_fault,
    corrupt_frame,
)
from repro.obs.metrics import MetricsRegistry


class TestSpecs:
    def test_parse_full_spec(self):
        rule = FaultRule.from_spec("scan:delay:0.05:0.02")
        assert (rule.op, rule.kind, rule.rate, rule.param) == \
            (wire.SCAN, "delay", 0.05, 0.02)

    def test_parse_wildcard(self):
        rule = FaultRule.from_spec("*:reset:0.01")
        assert rule.op is None
        assert rule.param == 0.0

    def test_spec_roundtrip(self):
        for spec in ("scan:delay:0.05:0.02", "*:reset:0.01",
                     "write_batch:drop:0.1"):
            assert FaultRule.from_spec(spec).spec() == spec

    @pytest.mark.parametrize("bad", [
        "scan:delay",              # too few fields
        "scan:delay:0.1:1:extra",  # too many
        "scan:explode:0.1",        # unknown kind
        "nosuchop:drop:0.1",       # unknown op
        "ok:drop:0.1",             # response codes can't be targeted
        "scan:drop:1.5",           # rate out of range
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultRule.from_spec(bad)

    def test_plan_specs_roundtrip(self):
        specs = ["scan:delay:0.05:0.02", "write_batch:drop:0.01"]
        assert FaultPlan.from_specs(specs, seed=9).specs() == specs


def _numbered(ops, sender=0):
    """``(op, sender, number)`` per request of ``ops``, as the reader of
    the connection that was ``sender``-th to send each op numbers them:
    each op's requests count from 0."""
    counts = {}
    for op in ops:
        counts[op] = counts.get(op, -1) + 1
        yield op, sender, counts[op]


def _kinds(plan, draws):
    return [getattr(plan.draw(*draw), "kind", None) for draw in draws]


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        specs = ["scan:drop:0.3", "*:delay:0.2:0"]
        seq = list(_numbered(
            [wire.SCAN, wire.PING, wire.SCAN, wire.WRITE_BATCH] * 50))

        def run():
            return _kinds(FaultPlan.from_specs(specs, seed=7), seq)

        first, second = run(), run()
        assert first == second
        assert any(first)  # the rates above must actually fire sometimes

    def test_decisions_do_not_depend_on_answer_order(self):
        # a connection's threads answer its requests in any order (and
        # a stream's frames interleave with other answers): each frame's
        # fault is the same whatever order the draws come in
        specs = ["scan:corrupt:0.3", "*:delay:0.2:0"]
        draws = [(*request, frame) for request in _numbered(
            [wire.SCAN, wire.PING, wire.SCAN, wire.WRITE_BATCH] * 25)
            for frame in range(3 if request[0] == wire.SCAN else 1)]
        shuffled = random.Random(5).sample(range(len(draws)), len(draws))
        in_order = _kinds(FaultPlan.from_specs(specs, seed=7), draws)
        plan = FaultPlan.from_specs(specs, seed=7)
        by_draw = dict(zip(shuffled, _kinds(plan, map(draws.__getitem__,
                                                       shuffled))))
        assert [by_draw[i] for i in range(len(draws))] == in_order
        assert {"corrupt", "delay", None} <= set(in_order)

    def test_a_fresh_connection_decides_anew(self):
        # a retry on a fresh connection is numbered from 0 again, but
        # the connection takes the op's next sender place: its draws
        # are not its first attempt's, so no fault repeats forever
        plan = FaultPlan.from_specs(["scan:drop:0.5"], seed=11)
        requests = [wire.SCAN] * 200
        first = _kinds(plan, _numbered(requests))
        again = _kinds(plan, _numbered(requests, sender=1))
        assert first != again
        # and nothing was remembered: the draws replay, on this plan
        # and on a fresh one of the same seed
        replay = FaultPlan.from_specs(["scan:drop:0.5"], seed=11)
        for each in (plan, replay):
            assert _kinds(each, _numbered(requests)) == first
            assert _kinds(each, _numbered(requests, sender=1)) == again

    def test_senders_take_places_per_op(self):
        plan = FaultPlan.from_specs(["scan:drop:0.5"], seed=11)
        assert [plan.sender(op) for op in
                (wire.SCAN, wire.SCAN, wire.PING, wire.SCAN, wire.PING)] \
            == [0, 1, 0, 2, 1]

    def test_draws_consumed_even_when_not_firing(self):
        # a rule matching only SCAN must not shift the decisions seen
        # by other ops' requests: each rule decides on its own
        plan_a = FaultPlan.from_specs(["scan:drop:0.0", "*:delay:0.5:0"],
                                      seed=3)
        plan_b = FaultPlan.from_specs(["scan:drop:1.0", "*:delay:0.5:0"],
                                      seed=3)
        seq = list(_numbered([wire.SCAN, wire.PING] * 40))
        kinds_a = _kinds(plan_a, seq)
        kinds_b = _kinds(plan_b, seq)
        # where a drop fired in b the first matching rule wins, but the
        # delay decisions (second rule) line up one for one
        delays_a = [k == "delay" for k in kinds_a]
        delays_b = [k in ("delay", "drop") for k in kinds_b]
        pings_a = [d for (op, *_), d in zip(seq, delays_a) if op == wire.PING]
        pings_b = [d for (op, *_), d in zip(seq, delays_b) if op == wire.PING]
        assert len(pings_a) == 40 and any(pings_a)
        assert pings_a == pings_b

    def test_zero_rate_never_fires(self):
        plan = FaultPlan.from_specs(["*:drop:0.0"], seed=1)
        assert all(plan.draw(wire.SCAN, n % 3, n % 7) is None
                   for n in range(200))

    def test_unit_rate_always_fires(self):
        plan = FaultPlan.from_specs(["*:drop:1.0"], seed=1)
        assert all(plan.draw(wire.SCAN, n % 3, n % 7).kind == "drop"
                   for n in range(50))


class TestApplication:
    def _deliver(self, rule, frame):
        a, b = socket.socketpair()
        metrics = MetricsRegistry()
        try:
            delivered = apply_fault(rule, a, frame, metrics)
            a.close()
            received = b""
            while True:
                chunk = b.recv(65536)
                if not chunk:
                    break
                received += chunk
            return delivered, received, metrics
        finally:
            b.close()

    def test_corrupt_frame_fails_crc_but_parses(self):
        frame = wire.encode_frame(wire.OK, {"rows": 5})
        damaged = corrupt_frame(frame)
        assert len(damaged) == len(frame)
        # length prefix intact: the stream stays parseable
        assert damaged[:4] == frame[:4]
        with pytest.raises(wire.FrameCorruptError):
            wire.decode_body(damaged[4:])

    def test_drop_delivers_nothing(self):
        frame = wire.encode_frame(wire.OK, {})
        delivered, received, metrics = self._deliver(
            FaultRule(None, "drop", 1.0), frame)
        assert not delivered
        assert received == b""
        assert metrics.export()["net.server.faults.drop"] == 1

    def test_delay_still_delivers_intact(self):
        frame = wire.encode_frame(wire.OK, {"x": 1})
        delivered, received, _ = self._deliver(
            FaultRule(None, "delay", 1.0, param=0.0), frame)
        assert delivered
        assert received == frame

    def test_slowdrip_delivers_every_byte(self):
        frame = wire.encode_frame(wire.OK, {"x": "y" * 40})
        delivered, received, _ = self._deliver(
            FaultRule(None, "slowdrip", 1.0, param=7), frame)
        assert delivered
        assert received == frame

    def test_corrupt_delivers_damaged_copy(self):
        frame = wire.encode_frame(wire.OK, {"x": 1})
        delivered, received, _ = self._deliver(
            FaultRule(None, "corrupt", 1.0), frame)
        assert delivered
        assert received != frame
        assert len(received) == len(frame)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(None, "nope", 0.5)
        with pytest.raises(ValueError):
            FaultRule(None, "drop", -0.1)
