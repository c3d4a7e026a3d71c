"""``submit`` + ``answers``: the one way a request is sent and awaited.

A server handle's ``submit("write_tablet", …)`` returns the batch's
answer as a callable; ``dbsim.server.answers`` awaits a fan-out of
them.  In process a server applies the batch at submission, so the
answer is already known — the idiom is the same one a remote server's
handle follows.
"""

import pytest

from repro.dbsim.key import Range, field_columns
from repro.dbsim.server import TableConfig, TabletServer, answers
from repro.dbsim.tablet import Tablet
from repro.obs.metrics import MetricsRegistry


def _muts(*rows):
    return [(row, "", "q", "", 0, False, "1") for row in rows]


def _hosting():
    """A server hosting tablet ``t!0001`` of ``t``, and that tablet."""
    server = TabletServer("tserver0", MetricsRegistry())
    server.host_tablet("t", "t!0001", Range(), TableConfig())
    return server, server.tablet("t", "t!0001")


def _submit(server, muts):
    return server.submit("write_tablet", "t", "t!0001",
                         field_columns(muts, 7))


class TestAnswers:
    def test_in_call_order(self):
        assert answers([lambda: 3, lambda: 1, lambda: 2]) == [3, 1, 2]

    def test_no_calls(self):
        assert answers([]) == []

    def test_every_call_is_made_and_the_first_error_raised(self):
        made = []

        def ok(n):
            def call():
                made.append(n)
                return n
            return call

        def fail(n):
            def call():
                made.append(n)
                raise ValueError(f"batch {n}")
            return call

        with pytest.raises(ValueError, match="batch 1"):
            answers([ok(0), fail(1), ok(2), fail(3), ok(4)])
        assert made == [0, 1, 2, 3, 4]


class TestServerSubmit:
    def test_applied_before_the_answer_is_asked(self):
        server, tablet = _hosting()
        answer = _submit(server, _muts("a", "b", "c"))
        assert [cell.key.row for cell in tablet.scan()] == ["a", "b", "c"]
        assert answer() == 3
        assert answer() == 3  # asking again re-applies nothing
        assert len(tablet.scan()) == 3

    def test_same_cells_as_a_blocking_write(self):
        (server, submitted), written = _hosting(), Tablet(Range())
        batches = [_muts("b", "a"), _muts("c"), _muts("a", "d")]
        calls = [_submit(server, b) for b in batches]
        assert answers(calls) == [2, 1, 2]
        for b in batches:
            written.write_raw_batch(b)
        assert submitted.scan() == written.scan()
