"""Unit tests for stream recording and replaying."""

import json

import numpy as np
import pytest

from repro.errors import ProtocolError, StreamError
from repro.experiments.presets import small_scenario
from repro.detection.reports import DetectionReport
from repro.geometry.shapes import Point
from repro.simulation.streams import simulate_report_stream
from repro.streaming.recorder import (
    MANIFEST_SUFFIX,
    StreamRecorder,
    StreamReplayer,
)
from tests.support import record_episode


def _report(node, period, x=0.0, y=0.0):
    return DetectionReport(node, period, Point(x, y))


@pytest.fixture
def scenario():
    return small_scenario()


@pytest.fixture
def recording(tmp_path, scenario):
    path = tmp_path / "episode.jsonl"
    with StreamRecorder(path, scenario, seed=5, meta={"tag": "unit"}) as rec:
        rec.write_period(1, [_report(1, 1), _report(2, 1, 1.0, 1.0)])
        rec.write_period(2, [])
        rec.write_period(4, [_report(3, 4, 2.0, 2.0)])
    manifest = rec.close()
    return path, manifest


class TestRecorder:
    def test_manifest_contents(self, recording, scenario):
        path, manifest = recording
        assert manifest["periods"] == 4
        assert manifest["total_reports"] == 3
        assert manifest["seed"] == 5
        assert manifest["meta"] == {"tag": "unit"}
        assert manifest["scenario"] == scenario.to_dict()
        assert len(manifest["event_digest"]) == 64
        assert len(manifest["frame_digest"]) == 64
        sidecar = path.with_name(path.name + MANIFEST_SUFFIX)
        assert json.loads(sidecar.read_text()) == manifest

    def test_close_is_idempotent(self, recording):
        _, manifest = recording

        # The fixture closed once via the context manager and once
        # explicitly; a recorder must return the same manifest both times.
        assert manifest["periods"] == 4

    def test_write_after_close_raises(self, recording, scenario, tmp_path):
        path = tmp_path / "again.jsonl"
        recorder = StreamRecorder(path, scenario)
        recorder.close()
        with pytest.raises(StreamError):
            recorder.write_period(1, [])

    def test_out_of_order_periods_rejected_at_write(self, tmp_path, scenario):
        recorder = StreamRecorder(tmp_path / "bad.jsonl", scenario)
        recorder.write_period(3, [])
        with pytest.raises(ProtocolError):
            recorder.write_period(2, [])

    def test_same_inputs_produce_byte_identical_recordings(
        self, tmp_path, scenario
    ):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            with StreamRecorder(path, scenario, seed=9) as rec:
                rec.write_period(1, [_report(1, 1)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestReplayer:
    def test_replay_exposes_the_recorded_stream(self, recording):
        path, manifest = recording
        replayer = StreamReplayer(path)
        recorded = replayer.recorded
        assert [p for p, _ in recorded.periods] == [1, 2, 4]
        assert recorded.total_reports == 3
        assert recorded.seed == 5
        assert recorded.meta == {"tag": "unit"}
        assert replayer.frame_digest == manifest["frame_digest"]

    def test_corrupted_bytes_fail_the_manifest_check(self, recording):
        path, _ = recording
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"seq":1', b'"seq":1 ', 1))
        with pytest.raises(StreamError):
            StreamReplayer(path)

    def test_tampered_event_digest_fails(self, recording):
        path, manifest = recording
        sidecar = path.with_name(path.name + MANIFEST_SUFFIX)
        tampered = dict(manifest, event_digest="0" * 64)
        # Keep frame_digest valid so the behavioural check is what trips.
        sidecar.write_text(json.dumps(tampered))
        with pytest.raises(StreamError) as excinfo:
            StreamReplayer(path)
        assert "event digest" in str(excinfo.value)

    def test_verify_can_be_disabled(self, recording):
        path, manifest = recording
        sidecar = path.with_name(path.name + MANIFEST_SUFFIX)
        sidecar.write_text(json.dumps(dict(manifest, frame_digest="0" * 64)))
        replayer = StreamReplayer(path, verify_manifest=False)
        assert replayer.recorded.total_reports == 3

    def test_missing_manifest_is_tolerated(self, recording):
        path, _ = recording
        path.with_name(path.name + MANIFEST_SUFFIX).unlink()
        replayer = StreamReplayer(path)
        assert replayer.manifest is None

    def test_missing_file_is_a_stream_error(self, tmp_path):
        with pytest.raises(StreamError):
            StreamReplayer(tmp_path / "nope.jsonl")

    def test_rerecord_round_trip_byte_identical(self, recording, tmp_path):
        path, _ = recording
        copy = tmp_path / "copy.jsonl"
        StreamReplayer(path).rerecord(copy)
        assert copy.read_bytes() == path.read_bytes()


class TestRecordEpisode:
    def test_simulated_episode_round_trip(self, tmp_path, scenario):
        episode = simulate_report_stream(
            scenario, rng=np.random.default_rng(5)
        )
        path = tmp_path / "sim.jsonl"
        manifest = record_episode(episode, path, seed=5)
        assert manifest["total_reports"] == episode.total_report_count
        meta = manifest["meta"]
        assert meta["true_report_count"] == episode.true_report_count
        assert meta["false_report_count"] == episode.false_report_count
        replayed = StreamReplayer(path).recorded
        assert replayed.total_reports == episode.total_report_count
        assert replayed.scenario == scenario
