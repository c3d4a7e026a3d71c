"""Framing, codecs and error mapping for the wire protocol (v3)."""

import socket
import struct
import threading
import zlib

import pytest

from repro.dbsim.errors import (
    BusyError,
    NotHostedError,
    ServerCrashedError,
)
from repro.dbsim.iterators import Layer, SummingCombiner
from repro.dbsim.key import Cell, Key, Range
from repro.dbsim.server import TableConfig
from repro.net import cells, wire
from tests.net import blocks


class TestFrames:
    def test_roundtrip(self):
        frame = wire.encode_frame(wire.SCAN, {"table": "t", "n": 3})
        code, payload, tc, req = wire.decode_body(frame[4:])
        assert code == wire.SCAN
        assert payload == {"table": "t", "n": 3}
        assert tc is None  # no trace context attached
        assert req == 0  # unmultiplexed

    def test_request_id_roundtrip(self):
        frame = wire.encode_frame(wire.OK, {"applied": 7},
                                  req=0x1122334455667788)
        code, payload, tc, req = wire.decode_body(frame[4:])
        assert (code, payload) == (wire.OK, {"applied": 7})
        assert req == 0x1122334455667788

    def test_payload_may_be_any_json_value(self):
        for payload in (None, 7, "x", [1, "a", None], {"k": [1, 2]}):
            code, got, _, _ = wire.decode_body(
                wire.encode_frame(wire.OK, payload)[4:])
            assert got == payload

    def test_trace_context_roundtrip(self):
        # a 2-tuple means "sampled" (the pre-sampling sender shape);
        # the decoder always yields the explicit 3-tuple
        frame = wire.encode_frame(wire.PING, {"x": 1},
                                  tc=("ab" * 16, "cd" * 8), req=9)
        code, payload, got, req = wire.decode_body(frame[4:])
        assert (code, payload, req) == (wire.PING, {"x": 1}, 9)
        assert got == ("ab" * 16, "cd" * 8, True)

    def test_trace_context_sampled_flag_roundtrip(self):
        for sampled in (True, False):
            tc = ("12" * 16, "34" * 8, sampled)
            frame = wire.encode_frame(wire.PING, None, tc=tc)
            _, _, got, _ = wire.decode_body(frame[4:])
            assert got == tc

    def test_corrupt_trace_context_detected(self):
        frame = bytearray(wire.encode_frame(wire.PING, {},
                                            tc=("ab" * 16, "cd" * 8)))
        frame[12] ^= 0xFF  # damage the trace-context block
        with pytest.raises(wire.FrameCorruptError):
            wire.decode_body(bytes(frame[4:]))

    def test_corrupt_request_id_detected(self):
        # the req id sits right before the payload, inside the CRC
        frame = bytearray(wire.encode_frame(wire.OK, {"n": 1}, req=42))
        frame[wire.FRAME_OVERHEAD - 1] ^= 0xFF
        with pytest.raises(wire.FrameCorruptError):
            wire.decode_body(bytes(frame[4:]))

    def test_corrupt_payload_detected(self):
        frame = bytearray(wire.encode_frame(wire.OK, {"rows": 10}))
        frame[-2] ^= 0xFF  # damage the payload in flight
        with pytest.raises(wire.FrameCorruptError):
            wire.decode_body(bytes(frame[4:]))

    def test_wrong_version_rejected(self):
        frame = bytearray(wire.encode_frame(wire.OK, {}))
        frame[4] = wire.WIRE_VERSION + 1
        with pytest.raises(wire.ProtocolError):
            wire.decode_body(bytes(frame[4:]))

    def test_unknown_flags_rejected(self):
        frame = bytearray(wire.encode_frame(wire.OK, {"n": 1}))
        # flip an undefined flag bit and re-CRC so only the flag is bad
        frame[6] |= 0x80
        body = bytes(frame[4:])
        tc_req_payload = body[wire._BODY.size:]
        crc = zlib.crc32(tc_req_payload[wire._TC.size + wire._REQ.size:],
                         zlib.crc32(
                             tc_req_payload[wire._TC.size:
                                            wire._TC.size + wire._REQ.size],
                             zlib.crc32(tc_req_payload[:wire._TC.size])))
        body = wire._BODY.pack(wire.WIRE_VERSION, wire.OK, 0x80 | 0,
                               crc) + tc_req_payload
        with pytest.raises(wire.ProtocolError, match="flags"):
            wire.decode_body(body)

    def test_truncated_body_rejected(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode_body(b"\x01\x02")

    def test_oversized_frame_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
            with pytest.raises(wire.ProtocolError):
                wire.FrameReader(b).read()
        finally:
            a.close()
            b.close()

    def test_send_recv_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            frame = wire.encode_frame(wire.PING, {"hello": True}, req=3)
            a.sendall(frame)
            code, payload, nbytes, _, req = wire.FrameReader(b).read()
            assert (code, payload, req) == (wire.PING, {"hello": True}, 3)
            assert nbytes == len(frame)
        finally:
            a.close()
            b.close()

    def test_peer_close_mid_frame(self):
        a, b = socket.socketpair()
        try:
            frame = wire.encode_frame(wire.OK, {"big": "x" * 100})
            a.sendall(frame[: len(frame) // 2])
            a.close()
            with pytest.raises(wire.ConnectionClosedError):
                wire.FrameReader(b).read()
        finally:
            b.close()

    def test_streamed_frames_keep_boundaries(self):
        # many frames written back to back parse one at a time through
        # one reused FrameReader (the recv_into path)
        a, b = socket.socketpair()
        try:
            def writer():
                for i in range(20):
                    a.sendall(wire.encode_frame(wire.CHUNK, {"i": i}, req=5))
                a.sendall(wire.encode_frame(wire.DONE, None, req=5))

            t = threading.Thread(target=writer)
            t.start()
            reader = wire.FrameReader(b)
            seen = []
            while True:
                code, payload, _, _, req = reader.read()
                assert req == 5
                if code == wire.DONE:
                    break
                seen.append(payload["i"])
            t.join()
            assert seen == list(range(20))
        finally:
            a.close()
            b.close()


class TestBinaryPayloads:
    MUTS = [
        ("r1", "f", "q", "", 11, False, "v1"),
        ("r2", "", "", "a&b", 0, True, ""),
        ("rösti", "fäm", "qüal", "", -3, False, "välue ☃"),
    ]

    def test_cells_payload_roundtrip(self):
        payload = wire.CellsPayload({"table": "t", "seq": 4},
                                    cells.encode_block(self.MUTS))
        frame = wire.encode_frame(wire.WRITE_BATCH, payload, req=2)
        code, got, _, req = wire.decode_body(frame[4:])
        assert (code, req) == (wire.WRITE_BATCH, 2)
        assert isinstance(got, wire.CellsPayload)
        assert got.meta == {"table": "t", "seq": 4}
        assert blocks.decode_mutations(got.block) == self.MUTS

    def test_unknown_payload_flag_is_refused(self):
        # only FLAG_CELLS is a payload flag: any other bit is refused
        # before a byte of the payload is interpreted
        frame = bytearray(wire.encode_frame(wire.CHUNK, wire.CellsPayload(
            {}, cells.encode_block(self.MUTS))))
        frame[6] |= 0x02  # flags byte: outside the CRC-covered region
        with pytest.raises(wire.ProtocolError,
                           match="unknown payload flags 0x03") as err:
            wire.decode_body(bytes(frame[4:]))
        assert not isinstance(err.value, wire.FrameCorruptError)


class TestCellBlocks:
    def test_empty_block(self):
        assert blocks.decode_mutations(cells.encode_block([])) == []

    def test_columns_zero_copy_views(self):
        block = cells.encode_block([("r", "f", "q", "v1|v2", 9, False,
                                     "val")])
        rows, fams, quals, vis, ts, dels, vals = \
            cells.decode_columns(block)
        assert rows == ["r"] and vals == ["val"]
        assert ts == [9] and dels == [False] and vis == ["v1|v2"]

    def test_cells_roundtrip(self):
        cs = [Cell(Key("r1", "f", "q", "", 4), "x"),
              Cell(Key("r2", "f", "q", "a", 5, delete=True), "")]
        assert blocks.block_to_cells(blocks.cells_to_block(cs)) == cs

    def test_negative_and_large_timestamps(self):
        muts = [("r", "f", "q", "", -(1 << 62), False, "v"),
                ("r", "f", "q", "", (1 << 62), False, "v")]
        assert blocks.decode_mutations(cells.encode_block(muts)) == muts

    def test_truncated_block_is_typed(self):
        block = cells.encode_block([("r", "f", "q", "", 1, False, "v")])
        with pytest.raises(cells.BlockFormatError):
            blocks.decode_mutations(block[:-3])

    def test_bad_format_byte_is_typed(self):
        block = bytearray(cells.encode_block([]))
        block[0] = 99
        with pytest.raises(cells.BlockFormatError):
            blocks.decode_mutations(bytes(block))


class TestErrorFrames:
    @pytest.mark.parametrize("exc", [
        KeyError("no such table 'x'"),
        ValueError("bad split row"),
        ServerCrashedError("tserver0 is down"),
        NotHostedError("tablet t!0001 is not hosted here"),
        BusyError("admission queue full"),
    ])
    def test_same_type_comes_back(self, exc):
        payload = wire.error_payload(exc)
        with pytest.raises(type(exc)) as ei:
            wire.raise_error(payload)
        assert str(exc.args[0]) in str(ei.value)

    def test_unknown_type_degrades_to_rpcerror(self):
        class Weird(Exception):
            pass

        payload = wire.error_payload(Weird("odd"))
        assert payload["type"] == "RpcError"
        with pytest.raises(wire.RpcError, match="odd"):
            wire.raise_error(payload)

    def test_subclass_maps_to_nearest_known(self):
        class MyCrash(ServerCrashedError):
            pass

        payload = wire.error_payload(MyCrash("gone"))
        assert payload["type"] == "ServerCrashedError"


class TestCodecs:
    def test_range_roundtrip(self):
        for rng in (Range(), Range("a", "m"), Range(None, "z"),
                    Range("a", None)):
            got = wire.wire_to_range(wire.range_to_wire(rng))
            assert (got.start_row, got.stop_row) == \
                (rng.start_row, rng.stop_row)

    def test_config_roundtrip_with_named_combiner(self):
        config = TableConfig(max_versions=3,
                             table_iterators=(SummingCombiner,))
        got = wire.wire_to_config(wire.config_to_wire(config))
        assert got.max_versions == 3
        assert got.table_iterators == (SummingCombiner,)

    def test_none_config_passes_through(self):
        assert wire.config_to_wire(None) is None
        assert wire.wire_to_config(None) is None

    def test_arbitrary_table_iterator_rejected_with_clear_error(self):
        config = TableConfig(
            table_iterators=(Layer(lambda batches: batches),))
        with pytest.raises(ValueError, match="not wire-serializable"):
            wire.config_to_wire(config)

    def test_unknown_iterator_name_rejected(self):
        with pytest.raises(ValueError, match="unknown table iterator"):
            wire.wire_to_config({"max_versions": 1,
                                 "table_iterators": ["median"],
                                 "flush_bytes": 1 << 20})
