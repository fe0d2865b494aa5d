"""Unit tests for the distributed sweep tier.

Three layers, in increasing realism: the pure
:class:`~repro.distributed.leases.LeaseBook` scheduling state machine,
the wire-protocol validators, and a real coordinator + thread-hosted
workers over localhost TCP (same code path as the process fleet, minus
the fork).
"""

import json
import socket
import threading
import time

import pytest

from repro.distributed import (
    LeaseBook,
    LocalFleet,
    SweepCoordinator,
    distributed_sweep,
    run_worker,
    resolve_spec,
)
from repro.distributed import orchestrator, protocol
from repro.distributed.worker import worker_main
from repro.errors import (
    ProtocolError,
    SimulationError,
    StreamError,
)
from repro.experiments.sweeps import (
    _points_fingerprint,
    analytical_grid_sweep,
    canonical_row,
    distributed_grid_sweep,
    simulated_grid_sweep,
)
from repro import parallel
from repro.parallel import parallel_map, split_trials
from repro.simulation.fused import FusedMonteCarloEngine
from repro.simulation.runner import MonteCarloSimulator
from tests.support import fake_coordinator


def double_point(**point):
    """Module-level so `callable` specs can import it by name."""
    return {"x": point["x"], "value": point["x"] * 2}


DOUBLE_SPEC = {
    "kind": "callable",
    "function": "tests.unit.test_distributed:double_point",
}


def slow_point(**point):
    """A point that outlasts a short fleet ``timeout``."""
    time.sleep(0.25)
    return {"x": point["x"]}


SLOW_SPEC = {
    "kind": "callable",
    "function": "tests.unit.test_distributed:slow_point",
}


class TestLeaseBook:
    def test_initial_grants_split_pool_near_evenly(self):
        book = LeaseBook(10)
        for name in ("a", "b", "c"):
            book.register(name)
        grants = [book.request(name)[0] for name in ("a", "b", "c")]
        assert [g[0] for g in grants] == ["grant"] * 3
        # First grant is the largest shard (ceil(10/3) = 4); each later
        # grant re-splits the remaining pool over all three workers, so
        # no worker ever hoards the tail.
        assert grants[0][2:] == (0, 4)
        sizes = [stop - start for _, _, start, stop in grants]
        assert sizes == [4, 2, 2]
        # The leftovers are served when the first worker drains.
        for index in range(4):
            book.result("a", index)
        ((kind, worker, start, stop),) = book.request("a")
        assert (kind, worker) == ("grant", "a") and stop - start >= 1

    def test_every_lease_is_contiguous_and_disjoint(self):
        book = LeaseBook(13)
        for name in ("a", "b", "c", "d"):
            book.register(name)
        for name in ("a", "b", "c", "d"):
            book.request(name)
        seen = set()
        for name in ("a", "b", "c", "d"):
            pending = book.pending(name)
            assert pending == list(range(pending[0], pending[-1] + 1))
            assert not seen.intersection(pending)
            seen.update(pending)

    def test_steal_revokes_tail_half_of_slowest(self):
        book = LeaseBook(8)
        book.register("slow")
        directives = book.request("slow")  # takes all 8
        assert directives == [("grant", "slow", 0, 8)]
        book.register("thief")
        directives = book.request("thief")
        assert directives == [("revoke", "slow", 4)]
        directives = book.ack_revoke("slow", 4)
        assert ("grant", "thief", 4, 8) in directives
        assert book.pending("slow") == [0, 1, 2, 3]
        assert book.pending("thief") == [4, 5, 6, 7]
        assert book.stats["steals"] == 1

    def test_victim_outruns_revoke(self):
        book = LeaseBook(6)
        book.register("fast")
        book.request("fast")
        book.register("idle")
        assert book.request("idle") == [("revoke", "fast", 3)]
        # The victim computed 0..4 before the revoke landed; it acks at
        # its true frontier and the thief steals only what remains.
        for index in range(5):
            book.result("fast", index)
        directives = book.ack_revoke("fast", 5)
        assert ("grant", "idle", 5, 6) in directives
        assert book.pending("fast") == []

    def test_completed_points_are_never_leased(self):
        book = LeaseBook(6, completed=[0, 2, 4])
        book.register("w")
        ((kind, worker, start, stop),) = book.request("w")
        assert kind == "grant"
        # Pool is [1, 3, 5]; grants are contiguous runs, so the first
        # grant is the singleton run [1].
        assert (start, stop) == (1, 2)

    def test_crash_returns_lease_to_pool_and_reserves_parked(self):
        book = LeaseBook(6)
        book.register("a")
        book.request("a")
        book.register("b")
        book.request("b")  # parks, revoke in flight to a
        directives = book.crash("a")
        assert ("grant", "b", 0, 6) in directives
        assert "a" not in book.workers()
        assert book.stats["crashes"] == 1

    def test_exactly_once_enforced(self):
        book = LeaseBook(4)
        book.register("w")
        book.request("w")
        book.result("w", 0)
        with pytest.raises(SimulationError, match="does not own"):
            book.result("w", 0)
        with pytest.raises(SimulationError, match="still owning"):
            book.request("w")

    def test_done_signalled_to_parked_workers(self):
        book = LeaseBook(2)
        book.register("a")
        book.register("b")
        book.request("a")
        book.request("b")
        book.result("a", 0)
        directives = book.result("b", 1)
        assert book.done
        assert directives == []
        assert book.request("a") == [("done", "a")]

    def test_register_twice_rejected(self):
        book = LeaseBook(2)
        book.register("w")
        with pytest.raises(SimulationError, match="already registered"):
            book.register("w")

    def test_empty_sweep_is_immediately_done(self):
        book = LeaseBook(0)
        book.register("w")
        assert book.done
        assert book.request("w") == [("done", "w")]


class TestProtocol:
    def test_hello_roundtrip(self):
        frame = protocol.hello_frame("w0")
        assert protocol.validate_hello(frame) == "w0"

    @pytest.mark.parametrize(
        "mutation, code",
        [
            ({"protocol": 99}, "version"),
            ({"role": "coordinator"}, "handshake"),
            ({"worker": ""}, "handshake"),
            ({"type": "request"}, "handshake"),
        ],
    )
    def test_bad_hello_rejected(self, mutation, code):
        frame = {**protocol.hello_frame("w0"), **mutation}
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_hello(frame)
        assert excinfo.value.code == code

    def test_welcome_fingerprint_must_match_points(self):
        points = [{"x": 1}, {"x": 2}]
        good = protocol.welcome_frame(
            _points_fingerprint(points), points, DOUBLE_SPEC
        )
        assert protocol.validate_welcome(good, _points_fingerprint) is good
        lying = dict(good, fingerprint="0" * 64)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_welcome(lying, _points_fingerprint)
        assert excinfo.value.code == "fingerprint"

    def test_welcome_pinned_to_expected_sweep(self):
        points = [{"x": 1}]
        frame = protocol.welcome_frame(
            _points_fingerprint(points), points, DOUBLE_SPEC
        )
        with pytest.raises(ProtocolError, match="launched for"):
            protocol.validate_welcome(
                frame, _points_fingerprint, expected_fingerprint="f" * 64
            )

    def test_error_frame_surfaces_as_typed_protocol_error(self):
        frame = protocol.error_frame("nope", code="duplicate")
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_welcome(frame, _points_fingerprint)
        assert excinfo.value.code == "duplicate"

    def test_frames_encode_canonically(self):
        frame = protocol.result_frame(3, {"b": 1, "a": 2})
        data = protocol.encode_frame(frame)
        assert data == b'{"index":3,"row":{"a":2,"b":1},"type":"result"}\n'


class TestResolveSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown spec kind"):
            resolve_spec({"kind": "quantum"})

    def test_unresolvable_callable_rejected(self):
        with pytest.raises(ProtocolError, match="cannot resolve"):
            resolve_spec({"kind": "callable", "function": "repro:nope"})
        with pytest.raises(ProtocolError, match="module:attr"):
            resolve_spec({"kind": "callable", "function": "no-colon"})

    def test_callable_with_fixed_kwargs(self):
        spec = dict(DOUBLE_SPEC)
        fn = resolve_spec(spec)
        assert fn(x=4) == {"x": 4, "value": 8}

    @pytest.mark.parametrize("kind", ["analytical", "simulated"])
    @pytest.mark.parametrize("scenario", ["missing", None, [], "small", 3])
    def test_scenario_must_be_an_object(self, kind, scenario):
        spec = {"kind": kind}
        if scenario != "missing":
            spec["scenario"] = scenario
        with pytest.raises(ProtocolError, match="'scenario' object") as info:
            resolve_spec(spec)
        assert info.value.code == "spec"

    @pytest.mark.parametrize(
        "kind, option",
        [
            ("analytical", "trials"),
            ("analytical", "point"),
            ("simulated", "normalize"),
            ("simulated", "num_sensors"),
        ],
    )
    def test_unknown_option_is_a_spec_error(self, small, kind, option):
        spec = {"kind": kind, "scenario": small.to_dict(), option: 1}
        with pytest.raises(ProtocolError, match="unknown option") as info:
            resolve_spec(spec)
        assert info.value.code == "spec"

    def test_analytical_options_and_defaults(self, small):
        grids = {"num_sensors": [20, 30], "target_speed": [6.0]}
        options = {"body_truncation": 2, "substeps": 2, "normalize": False}
        for spec_options in ({}, options):
            point = resolve_spec(
                {"kind": "analytical", "scenario": small.to_dict(),
                 **spec_options}
            )
            rows = [canonical_row(point(num_sensors=n, target_speed=6.0))
                    for n in (20, 30)]
            assert rows == analytical_grid_sweep(
                small, grids, batch=False, **spec_options
            )

    def test_simulated_options_reach_the_simulator(self, small):
        options = {"trials": 30, "seed": 3, "batch_size": 8}
        point = resolve_spec(
            {"kind": "simulated", "scenario": small.to_dict(), **options}
        )
        row = canonical_row(point(num_sensors=30, threshold=2))
        assert row == simulated_grid_sweep(
            small, {"num_sensors": [30], "threshold": [2]}, fused=False,
            **options,
        )[0]

    def test_worker_rejects_a_welcome_without_scenario(self):
        with fake_coordinator([{"num_sensors": 20}],
                              {"kind": "analytical"}) as (host, port):
            with pytest.raises(ProtocolError, match="'scenario'") as info:
                run_worker(host, port, name="w")
        assert info.value.code == "spec"


def _quiet_worker(host, port, **kwargs):
    try:
        run_worker(host, port, **kwargs)
    except (StreamError, OSError):
        # Teardown race: the coordinator may close sockets once the
        # sweep is done, before late workers finish their handshake.
        pass


def _thread_workers(address, count, **kwargs):
    host, port = address
    threads = [
        threading.Thread(
            target=_quiet_worker,
            args=(host, port),
            kwargs={"name": f"t{index}", **kwargs},
            daemon=True,
        )
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


class TestCoordinatorSocket:
    POINTS = [{"x": value} for value in range(7)]

    def test_thread_workers_complete_sweep_in_order(self):
        coordinator = SweepCoordinator(self.POINTS, DOUBLE_SPEC).start()
        try:
            threads = _thread_workers(coordinator.address, 2)
            rows = coordinator.wait(timeout=30)
            for thread in threads:
                thread.join(timeout=10)
        finally:
            coordinator.close()
        assert rows == [double_point(**point) for point in self.POINTS]
        counters, _ = coordinator.metrics.snapshot()
        assert counters["results"] == 7
        # At least one grant happened; how the rest sharded is a race
        # (the first worker may finish before the second connects).
        assert counters["shards"] >= 1

    def test_single_worker_is_sufficient(self):
        coordinator = SweepCoordinator(self.POINTS, DOUBLE_SPEC).start()
        try:
            _thread_workers(coordinator.address, 1)
            rows = coordinator.wait(timeout=30)
        finally:
            coordinator.close()
        assert [row["value"] for row in rows] == [0, 2, 4, 6, 8, 10, 12]

    def test_duplicate_worker_name_refused(self):
        coordinator = SweepCoordinator(self.POINTS, DOUBLE_SPEC).start()
        errors = []

        def second():
            try:
                run_worker(*coordinator.address, name="same")
            except ProtocolError as exc:
                errors.append(exc)

        try:
            host, port = coordinator.address
            first = socket.create_connection((host, port))
            first.sendall(protocol.encode_frame(protocol.hello_frame("same")))
            first.recv(1 << 16)  # its welcome
            thread = threading.Thread(target=second, daemon=True)
            thread.start()
            thread.join(timeout=10)
            first.close()
        finally:
            coordinator.close()
        assert len(errors) == 1 and errors[0].code == "duplicate"

    def test_worker_rejects_wrong_sweep(self):
        coordinator = SweepCoordinator(self.POINTS, DOUBLE_SPEC).start()
        try:
            host, port = coordinator.address
            with pytest.raises(ProtocolError, match="launched for"):
                run_worker(
                    host, port, name="picky", expected_fingerprint="a" * 64
                )
        finally:
            coordinator.close()

    def test_rows_survive_wire_byte_identically(self, tmp_path):
        checkpoint = tmp_path / "wire.json"
        coordinator = SweepCoordinator(
            self.POINTS, DOUBLE_SPEC, checkpoint=str(checkpoint)
        ).start()
        try:
            _thread_workers(coordinator.address, 3)
            rows = coordinator.wait(timeout=30)
        finally:
            coordinator.close()
        from repro.experiments.sweeps import sweep

        serial = sweep(
            self.POINTS,
            lambda point: double_point(**point),
            checkpoint=str(tmp_path / "serial.json"),
        )
        assert json.dumps(rows) == json.dumps(serial)
        assert (
            (tmp_path / "wire.json").read_bytes()
            == (tmp_path / "serial.json").read_bytes()
        )

    def test_checkpoint_resume_skips_completed_points(self, tmp_path):
        checkpoint = tmp_path / "resume.json"
        first = SweepCoordinator(
            self.POINTS, DOUBLE_SPEC, checkpoint=str(checkpoint)
        ).start()
        try:
            _thread_workers(first.address, 2)
            first.wait(timeout=30)
        finally:
            first.close()
        second = SweepCoordinator(
            self.POINTS, DOUBLE_SPEC, checkpoint=str(checkpoint)
        ).start()
        try:
            # Everything is already in the checkpoint: done without any
            # worker connecting at all.
            rows = second.wait(timeout=10)
        finally:
            second.close()
        assert [row["value"] for row in rows] == [0, 2, 4, 6, 8, 10, 12]
        counters, _ = second.metrics.snapshot()
        assert counters["resumes"] == 7

    def test_illegal_transition_gets_error_frame(self):
        """A book violation answers with a typed error frame.

        Reporting a result for an index the worker does not own raises
        SimulationError inside the lease book; the handler must turn
        that into an ``error`` frame (code ``state``) before dropping
        the connection, not die with an unhandled traceback.
        """
        coordinator = SweepCoordinator(self.POINTS, DOUBLE_SPEC).start()
        try:
            host, port = coordinator.address
            sock = socket.create_connection((host, port), timeout=10)
            sock.settimeout(10)
            decoder = protocol.FrameDecoder(protocol.MAX_SWEEP_FRAME_BYTES)
            pending = []

            def read_frame():
                while not pending:
                    chunk = sock.recv(1 << 16)
                    assert chunk, "coordinator closed without an error frame"
                    pending.extend(decoder.feed(chunk))
                return pending.pop(0)

            sock.sendall(
                protocol.encode_frame(protocol.hello_frame("rogue"))
            )
            assert read_frame()["type"] == "welcome"
            sock.sendall(
                protocol.encode_frame(protocol.result_frame(3, {"x": 3}))
            )
            frame = read_frame()
            assert frame["type"] == "error"
            assert frame["code"] == "state"
            assert "does not own" in frame["error"]
            sock.close()
        finally:
            coordinator.close()


def _new_threads(before):
    """Live threads that were not alive in ``before``."""
    return [thread for thread in threading.enumerate() if thread not in before]


def _refuse_starts(monkeypatch):
    """Make any process pool or fleet start fail the test loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pool or fleet started before validation")

    # A pool an earlier test left running would be reused without a
    # constructor call; drop it so the guard fires whatever ran before.
    parallel._discard_pool()
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(orchestrator, "LocalFleet", refuse)


class TestFleetLifecycle:
    """Every fleet tears its coordinator down: no ``dist-accept`` thread
    outlives the sweep, whether it finished, failed to start, or was
    refused before it began."""

    def test_distributed_sweep_leaves_no_accept_thread(self, small):
        before = threading.enumerate()
        rows = distributed_grid_sweep(
            small, {"num_sensors": [20, 40]}, workers=2
        )
        assert len(rows) == 2
        assert [t.name for t in _new_threads(before)] == []

    def test_timed_out_sweep_leaves_no_connection_thread(self):
        # Two workers each stuck in a 0.25 s point when the timeout hits:
        # their handlers are blocked in recv() and must still be gone
        # once distributed_sweep raises.
        before = threading.enumerate()
        points = [{"x": x} for x in range(40)]
        with pytest.raises(SimulationError, match="did not complete"):
            distributed_sweep(points, SLOW_SPEC, workers=2, timeout=1.0)
        assert [
            t.name for t in _new_threads(before) if t.name.startswith("dist-")
        ] == []

    @pytest.mark.parametrize("stop", ["close", "abort"])
    @pytest.mark.parametrize("admitted", [True, False])
    def test_stop_wakes_the_handler_of_a_connected_worker(
        self, stop, admitted
    ):
        before = threading.enumerate()
        coordinator = SweepCoordinator([{"x": 1}], DOUBLE_SPEC).start()
        with socket.create_connection(coordinator.address) as client:
            reader = client.makefile("rb")
            if admitted:
                client.sendall(
                    protocol.encode_frame(protocol.hello_frame("idle"))
                )
                assert json.loads(reader.readline())["type"] == "welcome"
            else:
                deadline = time.monotonic() + 5.0
                while "dist-conn" not in [
                    t.name for t in _new_threads(before)
                ]:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            started = time.monotonic()
            getattr(coordinator, stop)()
            assert time.monotonic() - started < 2.0
            assert [
                t.name
                for t in _new_threads(before)
                if t.name in ("dist-conn", "dist-accept")
            ] == []
            # The still-connected worker sees the connection end, with
            # no `done` frame before it.
            assert reader.readline() == b""

    def test_failed_start_tears_the_fleet_down(self, monkeypatch):
        class NoSpawnContext:
            def Process(self, *args, **kwargs):
                raise OSError("spawn refused")

        monkeypatch.setattr(
            orchestrator.multiprocessing, "get_context", NoSpawnContext
        )
        before = threading.enumerate()
        with pytest.raises(OSError, match="spawn refused"):
            distributed_sweep([{"x": 1}], DOUBLE_SPEC, workers=2)
        assert [t.name for t in _new_threads(before)] == []

    def test_bad_spec_fails_in_the_parent_before_any_worker(
        self, monkeypatch
    ):
        class NoSpawnContext:
            def Process(self, *args, **kwargs):
                raise AssertionError("a worker started for a bad spec")

        monkeypatch.setattr(
            orchestrator.multiprocessing, "get_context", NoSpawnContext
        )
        before = threading.enumerate()
        started = time.monotonic()
        with pytest.raises(ProtocolError, match="unknown spec kind") as info:
            LocalFleet([{"x": 1}], {"kind": "nope"}, workers=2).start().join(5)
        assert info.value.code == "spec"
        with pytest.raises(ProtocolError, match="unknown spec kind"):
            distributed_sweep([{"x": 1}], {"kind": "nope"}, workers=2)
        assert time.monotonic() - started < 1.0
        assert [t.name for t in _new_threads(before)] == []

    def test_worker_exits_5_on_a_spec_it_cannot_resolve(self):
        coordinator = SweepCoordinator([{"x": 1}], {"kind": "nope"}).start()
        try:
            host, port = coordinator.address
            with pytest.raises(SystemExit) as info:
                worker_main(host, port, "w0")
            assert info.value.code == 5
        finally:
            coordinator.close()

    @pytest.mark.parametrize("workers", [2.5, True, "2", 0])
    def test_non_integer_workers_rejected_before_binding(self, small, workers):
        before = threading.enumerate()
        match = (
            "workers must be >= 1" if workers == 0
            else "workers must be an integer"
        )
        with pytest.raises(SimulationError, match=match):
            distributed_grid_sweep(
                small, {"num_sensors": [20]}, workers=workers
            )
        with pytest.raises(SimulationError, match=match):
            LocalFleet([{"x": 1}], DOUBLE_SPEC, workers=workers)
        with pytest.raises(SimulationError, match=match):
            split_trials(10, workers)
        with pytest.raises(SimulationError, match=match):
            parallel_map(abs, [1, 2], workers=workers)
        # The vectorised sweep paths never reach a pool, so they must
        # check `workers` at entry themselves.
        with pytest.raises(SimulationError, match=match):
            analytical_grid_sweep(
                small, {"num_sensors": [8, 12]}, workers=workers
            )
        with pytest.raises(SimulationError, match=match):
            simulated_grid_sweep(
                small, {"num_sensors": [8, 12]}, trials=10, workers=workers
            )
        with pytest.raises(SimulationError, match=match):
            MonteCarloSimulator(small, trials=10).run(workers=workers)
        with pytest.raises(SimulationError, match=match):
            FusedMonteCarloEngine(small, trials=10).run(workers=workers)
        assert [t.name for t in _new_threads(before)] == []

    @pytest.mark.parametrize(
        "timeout", [True, float("nan"), float("inf"), -float("inf"), "5", 0]
    )
    def test_hostile_timeout_rejected_before_start(
        self, small, monkeypatch, timeout
    ):
        _refuse_starts(monkeypatch)
        match = "timeout must be None or a finite number"
        with pytest.raises(SimulationError, match=match):
            distributed_sweep([{"x": 1}], DOUBLE_SPEC, timeout=timeout)
        with pytest.raises(SimulationError, match=match):
            distributed_grid_sweep(
                small, {"num_sensors": [20]}, timeout=timeout
            )
