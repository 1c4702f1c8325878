"""Property tests for the wire format: encode/decode are exact inverses.

Hypothesis drives the mirror-image validation contract: every report
``encode_report`` accepts decodes back to an equal report, every report it
rejects raises :class:`ProtocolError` (never a bare ``struct.error``), and
decodable bytes re-encode canonically to the same frame.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.federated.client import BitReport
from repro.federated.fleet import read_message
from repro.federated.wire import (
    MAGIC,
    MAX_MESSAGE_SIZE,
    MESSAGE_HEADER_SIZE,
    MSG_ABORT,
    MSG_ANNOUNCE,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    MSG_TELEMETRY,
    REPORT_SIZE,
    TELEMETRY_VERSION,
    TRACE_CONTEXT_VERSION,
    ClientTelemetry,
    MessageFramer,
    TraceContext,
    decode_announce,
    decode_batch,
    decode_batch_array,
    decode_message_header,
    decode_report,
    decode_telemetry,
    encode_announce,
    encode_announcements,
    encode_batch,
    encode_message,
    encode_report,
    encode_telemetry,
)

MESSAGE_KINDS = (
    MSG_HELLO,
    MSG_ANNOUNCE,
    MSG_REPORTS,
    MSG_RESULT,
    MSG_ABORT,
    MSG_TELEMETRY,
)

valid_reports = st.builds(
    BitReport,
    client_id=st.integers(min_value=0, max_value=2**64 - 1),
    bit_index=st.integers(min_value=0, max_value=63),
    bit=st.integers(min_value=0, max_value=1),
)


class TestRoundTrip:
    @given(report=valid_reports, rr=st.booleans())
    def test_single_report_round_trips(self, report, rr):
        decoded, decoded_rr = decode_report(encode_report(report, rr))
        assert decoded == report
        assert decoded_rr == rr

    @given(reports=st.lists(valid_reports, max_size=20), rr=st.booleans())
    def test_batch_round_trips(self, reports, rr):
        data = encode_batch(reports, rr)
        assert len(data) == REPORT_SIZE * len(reports)
        decoded = decode_batch(data)
        assert [r for r, _ in decoded] == reports
        assert all(flag == rr for _, flag in decoded)

    @given(report=valid_reports, rr=st.booleans())
    def test_decoded_reports_reencode_to_the_same_frame(self, report, rr):
        frame = encode_report(report, rr)
        decoded, decoded_rr = decode_report(frame)
        assert encode_report(decoded, decoded_rr) == frame

    @given(report=valid_reports)
    def test_numpy_integer_fields_encode_like_python_ints(self, report):
        np_report = BitReport(
            client_id=np.uint64(report.client_id),
            bit_index=np.int64(report.bit_index),
            bit=np.int8(report.bit),
        )
        assert encode_report(np_report) == encode_report(report)

    @given(encoded=st.integers(min_value=0, max_value=2**64 - 1), bit_index=st.integers(0, 63))
    def test_columnar_extracted_numpy_bool_bits_encode(self, encoded, bit_index):
        # The columnar client plane's shift-mask-compare extraction yields
        # np.bool_ scalars; those must frame identically to Python ints.
        extracted = (np.uint64(encoded) >> np.uint64(bit_index)) & np.uint64(1) != 0
        assert isinstance(extracted, np.bool_)
        frame = encode_report(BitReport(client_id=3, bit_index=bit_index, bit=extracted))
        assert frame == encode_report(
            BitReport(client_id=3, bit_index=bit_index, bit=int(extracted))
        )
        report, _rr = decode_report(frame)
        assert report.bit == int(extracted)


class TestEncodeRejectsWhatDecodeWouldReject:
    @given(report=valid_reports, bit=st.integers().filter(lambda b: b not in (0, 1)))
    def test_non_binary_bit(self, report, bit):
        with pytest.raises(ProtocolError):
            encode_report(BitReport(report.client_id, report.bit_index, bit))

    @given(
        report=valid_reports,
        bit_index=st.one_of(
            st.integers(min_value=64), st.integers(max_value=-1)
        ),
    )
    def test_out_of_range_bit_index(self, report, bit_index):
        with pytest.raises(ProtocolError):
            encode_report(BitReport(report.client_id, bit_index, report.bit))

    @given(
        report=valid_reports,
        client_id=st.one_of(
            st.integers(min_value=2**64), st.integers(max_value=-1)
        ),
    )
    def test_client_id_outside_64_bits(self, report, client_id):
        with pytest.raises(ProtocolError):
            encode_report(BitReport(client_id, report.bit_index, report.bit))

    @given(report=valid_reports)
    @settings(max_examples=20)
    def test_non_integer_fields_raise_protocol_error_not_struct_error(self, report):
        for bad in (BitReport("c7", report.bit_index, report.bit),
                    BitReport(report.client_id, 1.5, report.bit),
                    BitReport(report.client_id, report.bit_index, None)):
            with pytest.raises(ProtocolError):
                encode_report(bad)


class TestDecodeRejectsMalformedFrames:
    @given(report=valid_reports, cut=st.integers(min_value=1, max_value=REPORT_SIZE - 1))
    @settings(max_examples=25)
    def test_truncated_frame(self, report, cut):
        with pytest.raises(ProtocolError):
            decode_report(encode_report(report)[:cut])

    @given(report=valid_reports)
    @settings(max_examples=25)
    def test_corrupted_magic(self, report):
        frame = encode_report(report)
        with pytest.raises(ProtocolError):
            decode_report(b"XXXX" + frame[len(MAGIC):])

    @given(reports=st.lists(valid_reports, min_size=1, max_size=5),
           extra=st.integers(min_value=1, max_value=REPORT_SIZE - 1))
    @settings(max_examples=25)
    def test_ragged_batch(self, reports, extra):
        with pytest.raises(ProtocolError):
            decode_batch(encode_batch(reports) + b"\x00" * extra)


class TestPerReportFlags:
    @given(reports=st.lists(valid_reports, max_size=20), data=st.data())
    def test_per_report_flag_sequence_round_trips(self, reports, data):
        flags = data.draw(
            st.lists(st.booleans(), min_size=len(reports), max_size=len(reports))
        )
        decoded = decode_batch(encode_batch(reports, flags))
        assert [r for r, _ in decoded] == reports
        assert [f for _, f in decoded] == flags

    @given(reports=st.lists(valid_reports, max_size=10), rr=st.booleans())
    def test_numpy_bool_scalar_flag_broadcasts(self, reports, rr):
        assert encode_batch(reports, np.bool_(rr)) == encode_batch(reports, rr)

    @given(
        reports=st.lists(valid_reports, max_size=10),
        delta=st.integers(min_value=1, max_value=3),
        longer=st.booleans(),
    )
    @settings(max_examples=25)
    def test_flag_sequence_length_mismatch_rejected(self, reports, delta, longer):
        n = len(reports) + delta if longer else max(0, len(reports) - delta)
        if n == len(reports):
            return
        with pytest.raises(ProtocolError, match="randomized_response sequence"):
            encode_batch(reports, [True] * n)


#: (frame byte offset, replacement byte) for each way one frame can go bad.
_FRAME_CORRUPTIONS = [
    (0, 0x58),  # magic -> b"XPSH"
    (4, 9),  # unsupported version
    (5, 200),  # bit_index outside [0, 64)
    (6, 2),  # non-binary bit
    (7, 0xFE),  # unknown flag bits
]


class TestVectorizedBatchDecode:
    @given(reports=st.lists(valid_reports, max_size=30), data=st.data())
    def test_twin_of_scalar_decode_batch(self, reports, data):
        flags = data.draw(
            st.lists(st.booleans(), min_size=len(reports), max_size=len(reports))
        )
        payload = encode_batch(reports, flags)
        batch = decode_batch_array(payload)
        assert len(batch) == len(reports)
        assert batch.to_reports() == decode_batch(payload)

    @given(
        reports=st.lists(valid_reports, min_size=1, max_size=10),
        which=st.integers(min_value=0),
        corruption=st.sampled_from(_FRAME_CORRUPTIONS),
    )
    @settings(max_examples=50)
    def test_malformed_batches_raise_the_scalar_error(self, reports, which, corruption):
        payload = bytearray(encode_batch(reports))
        offset_in_frame, bad_byte = corruption
        position = (which % len(reports)) * REPORT_SIZE + offset_in_frame
        payload[position] = bad_byte
        corrupted = bytes(payload)
        with pytest.raises(ProtocolError) as scalar_err:
            decode_batch(corrupted)
        with pytest.raises(ProtocolError) as vector_err:
            decode_batch_array(corrupted)
        assert str(vector_err.value) == str(scalar_err.value)

    @given(reports=st.lists(valid_reports, max_size=5),
           extra=st.integers(min_value=1, max_value=REPORT_SIZE - 1))
    @settings(max_examples=25)
    def test_ragged_batch_raises_the_scalar_error(self, reports, extra):
        corrupted = encode_batch(reports) + b"\x00" * extra
        with pytest.raises(ProtocolError) as scalar_err:
            decode_batch(corrupted)
        with pytest.raises(ProtocolError) as vector_err:
            decode_batch_array(corrupted)
        assert str(vector_err.value) == str(scalar_err.value)


class TestMessageFraming:
    @given(
        kind=st.sampled_from(MESSAGE_KINDS),
        seq=st.integers(min_value=0, max_value=2**16 - 1),
        payload=st.binary(max_size=64),
    )
    def test_header_round_trips(self, kind, seq, payload):
        message = encode_message(kind, payload, seq=seq)
        decoded_kind, decoded_seq, length = decode_message_header(
            message[:MESSAGE_HEADER_SIZE]
        )
        assert (decoded_kind, decoded_seq) == (kind, seq)
        assert length == len(payload)
        assert message[MESSAGE_HEADER_SIZE:] == payload

    @given(kind=st.integers().filter(lambda k: k not in MESSAGE_KINDS))
    @settings(max_examples=25)
    def test_unknown_kind_rejected_on_encode(self, kind):
        with pytest.raises(ProtocolError):
            encode_message(kind, b"")

    @given(seq=st.one_of(st.integers(min_value=2**16), st.integers(max_value=-1)))
    @settings(max_examples=25)
    def test_out_of_range_seq_rejected(self, seq):
        with pytest.raises(ProtocolError):
            encode_message(MSG_HELLO, b"", seq=seq)

    @given(cut=st.integers(min_value=0, max_value=MESSAGE_HEADER_SIZE - 1))
    @settings(max_examples=25)
    def test_truncated_header_rejected(self, cut):
        header = encode_message(MSG_HELLO, b"")[:MESSAGE_HEADER_SIZE]
        with pytest.raises(ProtocolError):
            decode_message_header(header[:cut])

    def test_bad_magic_version_kind_and_length_rejected(self):
        good = bytearray(encode_message(MSG_REPORTS, b"x" * 4))
        for mutation in (
            (0, 0x58),  # magic
            (4, 9),  # version
            (5, 0),  # kind 0 is not a MSG_* constant
        ):
            bad = bytearray(good)
            bad[mutation[0]] = mutation[1]
            with pytest.raises(ProtocolError):
                decode_message_header(bytes(bad[:MESSAGE_HEADER_SIZE]))
        oversized = bytearray(good)
        oversized[8:12] = (MAX_MESSAGE_SIZE + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message_header(bytes(oversized[:MESSAGE_HEADER_SIZE]))


def _stream_read(data: bytes) -> tuple[list[tuple[int, int, bytes]], str | None]:
    """What repeated ``read_message`` calls yield over ``data``, then why they stop."""

    async def read_all():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        while True:
            try:
                messages.append(await read_message(reader))
            except ProtocolError as exc:
                return messages, str(exc)
            except asyncio.IncompleteReadError:
                return messages, None

    return asyncio.run(read_all())


def _framer_read(data: bytes, cuts: list[int]) -> tuple[list[tuple[int, int, bytes]], str | None]:
    """What one ``MessageFramer`` yields when ``data`` arrives split at ``cuts``."""
    framer = MessageFramer()
    messages = []
    start = 0
    for stop in [*sorted(cuts), len(data)]:
        messages.extend(framer.feed(data[start:stop]))
        start = stop
    return messages, None if framer.error is None else str(framer.error)


messages = st.lists(
    st.tuples(
        st.sampled_from(MESSAGE_KINDS),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.binary(max_size=40),
    ),
    max_size=8,
)


class TestMessageFramer:
    @given(sent=messages, tail=st.binary(max_size=2 * MESSAGE_HEADER_SIZE), data=st.data())
    @settings(max_examples=150)
    def test_any_chunking_yields_what_the_stream_reader_yields(self, sent, tail, data):
        # ``tail`` is anything: a corrupt header, a truncated message, or a
        # header whose payload never arrives.  The framer must deliver the
        # same messages and stop for the same reason, at any chunk boundary.
        if data.draw(st.booleans(), label="truncated message tail"):
            whole = encode_message(MSG_TELEMETRY, tail)
            tail = whole[: data.draw(st.integers(min_value=0, max_value=len(whole) - 1))]
        stream = b"".join(encode_message(kind, payload, seq=seq) for kind, seq, payload in sent)
        stream += tail
        if data.draw(st.booleans(), label="one byte per feed"):
            cuts = list(range(1, len(stream)))
        else:
            cuts = data.draw(st.lists(st.integers(min_value=0, max_value=len(stream))))
        expected = _stream_read(stream)
        assert expected[0][: len(sent)] == sent
        assert _framer_read(stream, cuts) == expected

    def test_messages_before_a_corrupt_header_are_delivered_first(self):
        hello = encode_message(MSG_HELLO, b'{"client_id": 1}')
        report = encode_message(MSG_REPORTS, b"x" * REPORT_SIZE, seq=1)
        garbage = b"XXXX" + bytes(MESSAGE_HEADER_SIZE - 4)
        framer = MessageFramer()
        chunk = hello + report + garbage + encode_message(MSG_REPORTS, b"", seq=2)
        assert framer.feed(chunk) == [
            (MSG_HELLO, 0, b'{"client_id": 1}'),
            (MSG_REPORTS, 1, b"x" * REPORT_SIZE),
        ]
        assert "bad message magic" in str(framer.error)
        # The stream is desynchronized for good: nothing after the reject.
        assert framer.feed(hello) == []

    def test_oversized_length_rejected_before_its_payload_is_buffered(self):
        header = bytearray(encode_message(MSG_REPORTS, b""))
        header[8:12] = (MAX_MESSAGE_SIZE + 1).to_bytes(4, "big")
        framer = MessageFramer()
        assert framer.feed(bytes(header[:-1])) == []
        assert framer.error is None
        # The header's last byte alone triggers the reject: no payload byte
        # has been fed, let alone buffered.
        assert framer.feed(bytes(header[-1:])) == []
        assert "exceeds" in str(framer.error)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

announce_fields = st.dictionaries(
    st.text(max_size=10).filter(lambda key: key != "trace"),
    json_scalars,
    max_size=6,
)

trace_contexts = st.builds(
    TraceContext,
    trace_id=st.text(min_size=1, max_size=32),
    parent_span_id=st.integers(min_value=0, max_value=2**53),
    clock_s=st.floats(allow_nan=False, allow_infinity=False),
)


class TestAnnounceTraceContext:
    @given(fields=announce_fields, context=trace_contexts)
    def test_round_trips_with_context(self, fields, context):
        decoded_fields, decoded_context = decode_announce(
            encode_announce(fields, context)
        )
        assert decoded_fields == fields
        assert decoded_context == context

    @given(fields=announce_fields)
    def test_round_trips_without_context(self, fields):
        decoded_fields, decoded_context = decode_announce(encode_announce(fields))
        assert decoded_fields == fields
        assert decoded_context is None

    @given(
        fields=announce_fields,
        version=st.one_of(
            st.integers().filter(lambda v: v != TRACE_CONTEXT_VERSION),
            st.text(max_size=4),
            st.none(),
        ),
    )
    def test_unknown_version_runs_untraced_without_dropping_fields(
        self, fields, version
    ):
        # A future server's trace sub-object of a version this decoder does
        # not speak: the round parameters parse unchanged, context is None.
        payload = json.dumps(
            {**fields, "trace": {"v": version, "anything": "goes"}}
        ).encode()
        decoded_fields, decoded_context = decode_announce(payload)
        assert decoded_fields == fields
        assert decoded_context is None

    @given(fields=announce_fields, context=trace_contexts, data=st.data())
    @settings(max_examples=30)
    def test_malformed_known_version_context_rejected(self, fields, context, data):
        corruption = data.draw(
            st.sampled_from(
                [
                    {"id": ""},  # empty trace id
                    {"id": 7},  # non-string trace id
                    {"span": -1},  # negative span id
                    {"span": True},  # bool is not a span id
                    {"span": "3"},  # non-int span id
                    {"clock_s": "now"},  # non-numeric clock
                    {"clock_s": None},
                ]
            )
        )
        payload = json.dumps(
            {**fields, "trace": {**context.to_wire(), **corruption}}
        ).encode()
        with pytest.raises(ProtocolError):
            decode_announce(payload)

    @given(junk=st.one_of(st.binary(max_size=32), st.just(b"[1, 2]")))
    @settings(max_examples=30)
    def test_non_object_payloads_rejected(self, junk):
        try:
            json.loads(junk)
        except (json.JSONDecodeError, UnicodeDecodeError):
            with pytest.raises(ProtocolError):
                decode_announce(junk)
        else:
            if not isinstance(json.loads(junk), dict):
                with pytest.raises(ProtocolError):
                    decode_announce(junk)


class TestAnnouncementTable:
    @given(
        context=st.one_of(st.none(), trace_contexts),
        attempt=st.integers(min_value=1, max_value=2**16 - 1),
        n_bits=st.integers(min_value=1, max_value=64),
        epsilon=st.one_of(st.none(), st.floats(min_value=0.1, max_value=10.0)),
    )
    @settings(max_examples=50)
    def test_entry_j_is_the_per_client_announce_for_bit_j(self, context, attempt, n_bits, epsilon):
        base = {
            "attempt": attempt,
            "n_bits": n_bits,
            "scale": 1.0,
            "offset": 0.0,
            "epsilon": epsilon,
            "deadline_s": 30.0,
        }
        table = encode_announcements(base, n_bits, context, seq=attempt)
        assert len(table) == n_bits
        for j, message in enumerate(table):
            per_client = encode_announce(dict(base, bit_index=j), context)
            assert message == encode_message(MSG_ANNOUNCE, per_client, seq=attempt)
            kind, seq, length = decode_message_header(message[:MESSAGE_HEADER_SIZE])
            assert (kind, seq, length) == (MSG_ANNOUNCE, attempt, len(per_client))
            fields, decoded_context = decode_announce(message[MESSAGE_HEADER_SIZE:])
            assert fields == dict(base, bit_index=j)
            assert decoded_context == context


span_dicts = st.fixed_dictionaries(
    {
        "name": st.text(min_size=1, max_size=16),
        "span_id": st.integers(min_value=0, max_value=2**53),
        "parent_id": st.one_of(st.none(), st.integers(min_value=0, max_value=2**53)),
        "start_time_s": st.floats(
            min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
        ),
        "duration_s": st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        "status": st.sampled_from(["ok", "error"]),
        "attributes": st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
    }
)

metric_snapshots = st.dictionaries(st.text(max_size=8), json_scalars, max_size=4)


class TestTelemetryRoundTrip:
    @given(
        client_id=st.integers(min_value=0, max_value=2**53),
        spans=st.lists(span_dicts, max_size=8),
        metrics=metric_snapshots,
    )
    def test_round_trips(self, client_id, spans, metrics):
        telemetry = decode_telemetry(encode_telemetry(client_id, spans, metrics))
        assert isinstance(telemetry, ClientTelemetry)
        assert telemetry.client_id == client_id
        assert list(telemetry.spans) == spans
        assert telemetry.metrics == metrics

    @given(
        client_id=st.integers(min_value=0, max_value=2**53),
        spans=st.lists(span_dicts, min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=50)
    def test_truncated_payloads_always_raise_protocol_error(
        self, client_id, spans, data
    ):
        payload = encode_telemetry(client_id, spans)
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        with pytest.raises(ProtocolError):
            decode_telemetry(payload[:cut])

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=50)
    def test_arbitrary_bytes_never_raise_anything_but_protocol_error(self, junk):
        # Ingestion safety: whatever arrives in a TELEMETRY frame either
        # decodes cleanly or raises ProtocolError -- never ValueError,
        # KeyError, or a crash the server's reject path would not catch.
        try:
            telemetry = decode_telemetry(junk)
        except ProtocolError:
            return
        assert isinstance(telemetry, ClientTelemetry)

    @given(
        spans=st.lists(span_dicts, max_size=2),
        version=st.integers().filter(lambda v: v != TELEMETRY_VERSION),
    )
    @settings(max_examples=25)
    def test_unknown_version_rejected(self, spans, version):
        payload = json.dumps(
            {"v": version, "client_id": 0, "spans": spans, "metrics": {}}
        ).encode()
        with pytest.raises(ProtocolError, match="version"):
            decode_telemetry(payload)

    @given(spans=st.lists(span_dicts, min_size=1, max_size=3), data=st.data())
    @settings(max_examples=40)
    def test_per_span_defects_rejected(self, spans, data):
        corruption = data.draw(
            st.sampled_from(
                [
                    {"name": 7},
                    {"span_id": "x"},
                    {"span_id": True},
                    {"start_time_s": "soon"},
                    {"duration_s": None},
                    {"parent_id": "root"},
                    {"attributes": [1, 2]},
                ]
            )
        )
        which = data.draw(st.integers(min_value=0, max_value=len(spans) - 1))
        bad = [dict(span) for span in spans]
        bad[which].update(corruption)
        payload = json.dumps(
            {"v": TELEMETRY_VERSION, "client_id": 0, "spans": bad, "metrics": {}}
        ).encode()
        with pytest.raises(ProtocolError, match=f"telemetry span {which}"):
            decode_telemetry(payload)
