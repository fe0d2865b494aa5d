"""Unit tests for the report-stream wire protocol."""

import json

import pytest

from repro.errors import ProtocolError, StreamError
from repro.experiments.presets import small_scenario
from repro.streaming import protocol


def _session_frames(scenario=None, seed=3):
    scenario = scenario or small_scenario()
    hello = protocol.hello_frame(scenario, seed=seed)
    reports = protocol.reports_frame(1, 1, [])
    end = protocol.end_frame(2, periods=1, total_reports=0)
    return hello, reports, end


class TestEncoding:
    def test_encode_frame_is_canonical_one_line_json(self):
        encoded = protocol.encode_frame({"b": 1, "a": 2, "type": "x"})
        assert encoded == b'{"a":2,"b":1,"type":"x"}\n'

    def test_session_id_is_deterministic_and_seed_sensitive(self):
        assert protocol.session_id("abc", 1) == protocol.session_id("abc", 1)
        assert protocol.session_id("abc", 1) != protocol.session_id("abc", 2)
        assert len(protocol.session_id("abc", 1)) == 12

    def test_reports_wire_round_trip(self):
        from repro.detection.reports import DetectionReport
        from repro.geometry.shapes import Point

        reports = [
            DetectionReport(4, 7, Point(1.5, -2.0)),
            DetectionReport(9, 7, Point(0.0, 3.25)),
        ]
        wire = protocol.reports_to_wire(reports)
        assert wire == [[4, 1.5, -2.0], [9, 0.0, 3.25]]
        back = protocol.reports_from_wire(wire, 7)
        assert back == reports

    @pytest.mark.parametrize(
        "wire",
        [
            "nope",
            [[1, 2]],
            [[1, 2, 3, 4]],
            [["a", 1.0, 2.0]],
            [[True, 1.0, 2.0]],
            [[1.5, 1.0, 2.0]],
            [[1, "x", 2.0]],
            [[3, True, 1.0]],
            [[3, 1.0, False]],
            [[3, float("nan"), 1.0]],
            [[3, 1.0, float("inf")]],
            [[3, float("-inf"), 1.0]],
            [[3, 10**400, 1.0]],
        ],
    )
    def test_malformed_wire_reports_raise_typed_error(self, wire):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.reports_from_wire(wire, 1)
        assert excinfo.value.code == "reports"

    @pytest.mark.parametrize(
        "entry",
        ["[3,NaN,1.0]", "[3,Infinity,1.0]", "[3,1e400,1.0]", "[3,true,1.0]"],
    )
    def test_non_finite_or_bool_coordinates_on_the_wire_are_rejected(
        self, entry
    ):
        # json.loads accepts NaN and Infinity and reads 1e400 as inf.
        hello, _, _ = _session_frames()
        line = (
            '{"period":1,"reports":[' + entry + '],"seq":1,"type":"reports"}\n'
        )
        validator = protocol.SessionValidator()
        validator.validate(hello)
        (frame,) = protocol.FrameDecoder().feed(line.encode("ascii"))
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate(frame)
        assert excinfo.value.code == "reports"

    def test_validator_keeps_the_parsed_reports(self):
        from repro.detection.reports import DetectionReport
        from repro.geometry.shapes import Point

        reports = [DetectionReport(4, 1, Point(1.5, -2.0))]
        hello, _, _ = _session_frames()
        validator = protocol.SessionValidator()
        validator.validate(hello)
        validator.validate(protocol.reports_frame(1, 1, reports))
        assert validator.reports == reports
        validator.validate(protocol.heartbeat_frame(2))
        assert validator.reports == reports


class TestFrameDecoder:
    def test_frames_split_across_arbitrary_boundaries(self):
        frames = [{"type": "a", "n": i} for i in range(5)]
        data = b"".join(protocol.encode_frame(f) for f in frames)
        for chunk_size in (1, 2, 3, 7, len(data)):
            decoder = protocol.FrameDecoder()
            out = []
            for i in range(0, len(data), chunk_size):
                out.extend(decoder.feed(data[i : i + chunk_size]))
            assert out == frames
            assert decoder.buffered_bytes == 0

    def test_oversized_line_with_newline_is_rejected(self):
        decoder = protocol.FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ProtocolError) as excinfo:
            decoder.feed(b'{"pad":"' + b"x" * 100 + b'"}\n')
        assert excinfo.value.code == "oversized"

    def test_oversized_line_without_newline_does_not_buffer_forever(self):
        decoder = protocol.FrameDecoder(max_frame_bytes=64)
        decoder.feed(b"x" * 64)  # at the cap: still waiting
        with pytest.raises(ProtocolError) as excinfo:
            decoder.feed(b"y")  # one byte over, still no newline
        assert excinfo.value.code == "oversized"

    def test_non_json_line_is_a_typed_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.FrameDecoder().feed(b"not json\n")
        assert excinfo.value.code == "json"

    def test_non_object_json_is_a_typed_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.FrameDecoder().feed(b"[1,2,3]\n")
        assert excinfo.value.code == "json"

    def test_blank_lines_are_ignored(self):
        decoder = protocol.FrameDecoder()
        assert decoder.feed(b"\n  \n" + protocol.encode_frame({"a": 1})) == [
            {"a": 1}
        ]


class TestSessionValidator:
    def test_valid_session_passes(self):
        validator = protocol.SessionValidator()
        for frame in _session_frames():
            assert validator.validate(frame) is frame
        assert validator.ended
        assert validator.total_reports == 0

    def test_first_frame_must_be_hello(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.SessionValidator().validate(protocol.heartbeat_frame(1))
        assert excinfo.value.code == "handshake"

    def test_duplicate_hello_rejected(self):
        validator = protocol.SessionValidator()
        hello, _, _ = _session_frames()
        validator.validate(hello)
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate(dict(hello))
        assert excinfo.value.code == "handshake"

    def test_unsupported_protocol_version(self):
        hello, _, _ = _session_frames()
        hello = dict(hello, protocol=99)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.SessionValidator().validate(hello)
        assert excinfo.value.code == "version"

    def test_fingerprint_must_match_scenario(self):
        hello, _, _ = _session_frames()
        hello = dict(hello, fingerprint="0" * 64)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.SessionValidator().validate(hello)
        assert excinfo.value.code == "fingerprint"

    def test_seq_must_increment_by_exactly_one(self):
        validator = protocol.SessionValidator()
        hello, _, _ = _session_frames()
        validator.validate(hello)
        validator.validate(protocol.reports_frame(1, 1, []))
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate(protocol.reports_frame(3, 2, []))
        assert excinfo.value.code == "seq"

    def test_duplicated_seq_rejected(self):
        validator = protocol.SessionValidator()
        hello, _, _ = _session_frames()
        validator.validate(hello)
        validator.validate(protocol.reports_frame(1, 1, []))
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate(protocol.reports_frame(1, 2, []))
        assert excinfo.value.code == "seq"

    def test_periods_strictly_increasing(self):
        validator = protocol.SessionValidator()
        hello, _, _ = _session_frames()
        validator.validate(hello)
        validator.validate(protocol.reports_frame(1, 5, []))
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate(protocol.reports_frame(2, 5, []))
        assert excinfo.value.code == "period"

    def test_unknown_frame_type(self):
        validator = protocol.SessionValidator()
        hello, _, _ = _session_frames()
        validator.validate(hello)
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate({"type": "mystery", "seq": 1})
        assert excinfo.value.code == "type"

    def test_end_report_count_cross_check(self):
        validator = protocol.SessionValidator()
        hello, _, _ = _session_frames()
        validator.validate(hello)
        validator.validate(protocol.reports_frame(1, 1, []))
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate(
                protocol.end_frame(2, periods=1, total_reports=5)
            )
        assert excinfo.value.code == "end"

    def test_nothing_after_end(self):
        validator = protocol.SessionValidator()
        for frame in _session_frames():
            validator.validate(frame)
        with pytest.raises(ProtocolError) as excinfo:
            validator.validate(protocol.heartbeat_frame(3))
        assert excinfo.value.code == "trailing"

    def test_heartbeats_advance_seq_but_not_period(self):
        validator = protocol.SessionValidator()
        hello, _, _ = _session_frames()
        validator.validate(hello)
        validator.validate(protocol.reports_frame(1, 1, []))
        validator.validate(protocol.heartbeat_frame(2))
        validator.validate(protocol.reports_frame(3, 2, []))
        assert validator.last_period == 2


class TestDecodeSession:
    def test_round_trip(self):
        scenario = small_scenario()
        frames = _session_frames(scenario)
        data = b"".join(protocol.encode_frame(f) for f in frames)
        hello, rest = protocol.decode_session(data)
        assert hello["fingerprint"] == frames[0]["fingerprint"]
        assert [f["type"] for f in rest] == ["reports", "end"]

    def test_missing_end_is_an_error(self):
        hello, reports, _ = _session_frames()
        data = protocol.encode_frame(hello) + protocol.encode_frame(reports)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_session(data)
        assert excinfo.value.code == "end"

    def test_trailing_bytes_are_an_error(self):
        frames = _session_frames()
        data = b"".join(protocol.encode_frame(f) for f in frames)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_session(data + b"garbage-without-newline")
        assert excinfo.value.code == "trailing"

    def test_empty_session_is_an_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_session(b"")
        assert excinfo.value.code == "handshake"

    def test_protocol_error_is_stream_error(self):
        with pytest.raises(StreamError):
            protocol.decode_session(b"")
