"""``submit`` + ``answers``: the one way a request is sent and awaited.

A ``submit_raw_batch`` returns the batch's answer as a callable;
``dbsim.server.answers`` awaits a fan-out of them.  In process a tablet
applies the batch at submission, so the answer is already known — the
idiom is the same one a remote tablet's proxy follows.
"""

import pytest

from repro.dbsim.key import Range
from repro.dbsim.server import answers
from repro.dbsim.tablet import Tablet


def _muts(*rows):
    return [(row, "", "q", "", 0, False, "1") for row in rows]


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


class TestTabletSubmit:
    def test_applied_before_the_answer_is_asked(self):
        tablet = Tablet(Range())
        answer = tablet.submit_raw_batch(_muts("a", "b", "c"))
        assert [cell.key.row for cell in tablet.scan()] == ["a", "b", "c"]
        assert answer() == 3
        assert answer() == 3  # asking again re-applies nothing
        assert len(tablet.scan()) == 3

    def test_same_cells_as_a_blocking_write(self):
        submitted, written = Tablet(Range()), Tablet(Range())
        batches = [_muts("b", "a"), _muts("c"), _muts("a", "d")]
        calls = [submitted.submit_raw_batch(b) for b in batches]
        assert answers(calls) == [2, 1, 2]
        for b in batches:
            written.write_raw_batch(b)
        assert submitted.scan() == written.scan()
