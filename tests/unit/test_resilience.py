"""Unit tests for the client resilience primitives and the wire shims."""

import socket
import threading
import time

import pytest

from repro.errors import CircuitOpenError, TransportError
from repro.service import ServiceClient
from repro.service.client import stamped
from repro.service.wire import pack, recv_frame
from repro.faults.netsim import (
    FlakyConnection,
    NetFault,
    NetFaultKind,
)
from repro.service.resilience import CircuitBreaker, RetryPolicy


class TestRetryPolicy:
    def test_delays_follow_capped_exponential_ceiling(self):
        p = RetryPolicy(attempts=6, base_s=0.1, cap_s=0.5, seed=1)
        for attempt in range(1, 6):
            ceiling = min(0.5, 0.1 * 2 ** (attempt - 1))
            for _ in range(20):
                assert 0 <= p.delay(attempt) <= ceiling

    def test_seeded_delays_reproduce(self):
        a = [RetryPolicy(seed=7).delay(k) for k in (1, 2, 3)]
        b = [RetryPolicy(seed=7).delay(k) for k in (1, 2, 3)]
        assert a == b

    def test_should_retry_budget(self):
        p = RetryPolicy(attempts=3)
        assert p.should_retry(1)
        assert p.should_retry(2)
        assert not p.should_retry(3)
        assert not RetryPolicy(attempts=1).should_retry(1)

    def test_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestCircuitBreaker:
    def _breaker(self, **kw):
        self.now = 0.0
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_after_s", 10.0)
        return CircuitBreaker(clock=lambda: self.now, **kw)

    def test_stays_closed_below_threshold(self):
        b = self._breaker()
        for _ in range(2):
            b.allow()
            b.record_failure()
        assert b.state == CircuitBreaker.CLOSED
        b.record_success()
        assert b.failures == 0

    def test_opens_at_threshold_and_refuses(self):
        b = self._breaker()
        for _ in range(3):
            b.record_failure()
        assert b.state == CircuitBreaker.OPEN
        assert b.trips == 1
        with pytest.raises(CircuitOpenError, match="retry in"):
            b.allow()

    def test_half_open_probe_then_close(self):
        b = self._breaker()
        for _ in range(3):
            b.record_failure()
        self.now = 10.1  # cool-down elapsed
        b.allow()  # becomes the probe
        assert b.state == CircuitBreaker.HALF_OPEN
        b.record_success()
        assert b.state == CircuitBreaker.CLOSED
        b.allow()

    def test_half_open_failure_reopens(self):
        b = self._breaker()
        for _ in range(3):
            b.record_failure()
        self.now = 10.1
        b.allow()
        b.record_failure()  # the probe failed
        assert b.state == CircuitBreaker.OPEN
        assert b.trips == 2
        with pytest.raises(CircuitOpenError):
            b.allow()
        self.now = 20.2
        b.allow()  # a fresh cool-down elapsed

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


@pytest.fixture
def wire():
    """A connected socket pair; the far end is fed by the test."""
    a, b = socket.socketpair()
    yield a, b
    for s in (a, b):
        try:
            s.close()
        except OSError:
            pass


class TestFlakyConnection:
    def test_reset_after_n_bytes(self, wire):
        a, b = wire
        conn = FlakyConnection(
            a, NetFault(NetFaultKind.RESET, after_bytes=4)
        )
        b.sendall(b"12345678")
        assert conn.recv(4) == b"1234"
        with pytest.raises(ConnectionResetError, match="injected"):
            conn.recv(4)

    def test_stall_raises_timeout(self, wire):
        a, b = wire
        conn = FlakyConnection(
            a, NetFault(NetFaultKind.STALL, after_bytes=0)
        )
        with pytest.raises(TimeoutError, match="stalled"):
            conn.recv(1)

    def test_drip_caps_chunk_size(self, wire):
        a, b = wire
        conn = FlakyConnection(a, NetFault(NetFaultKind.DRIP, chunk=2))
        b.sendall(b"abcdef")
        out = b""
        while len(out) < 6:
            chunk = conn.recv(1024)
            assert len(chunk) <= 2
            out += chunk
        assert out == b"abcdef"

    def test_clean_connection_passthrough(self, wire):
        a, b = wire
        conn = FlakyConnection(a)

        def echo():
            data = b.recv(16)
            b.sendall(data.upper())

        t = threading.Thread(target=echo)
        t.start()
        conn.sendall(b"ping")
        assert conn.recv(16) == b"PING"
        t.join(5)


class TestClientHalves:
    """``ServiceClient._send`` / ``_receive``: one wire attempt as the
    two halves the shard gateway runs apart (send to every shard, then
    read every reply)."""

    @pytest.fixture()
    def client(self, wire):
        a, b = wire
        c = ServiceClient(socket_factory=lambda host, port, timeout: a)
        yield c, b
        c.close()

    @staticmethod
    def _deadline():
        return time.monotonic() + 5.0

    def test_two_queued_replies_are_read_in_order(self, client):
        c, peer = client
        c._send({"op": "ping"})
        c._send({"op": "health"}, b"")
        # both requests are on the wire before any reply is read
        peer.sendall(pack({"ok": True, "n": 1}) + pack({"ok": True, "n": 2}, b"xy"))
        assert c._receive(self._deadline()) == ({"ok": True, "n": 1}, b"")
        assert c._receive(self._deadline()) == (
            {"ok": True, "n": 2, "body_len": 2}, b"xy")
        assert c.breaker.failures == 0

    def test_peer_closing_mid_reply_raises_and_counts_no_success(self, client):
        c, peer = client
        c.breaker.record_failure()
        c._send({"op": "ping"})
        peer.recv(1 << 16)  # the request
        frame = pack({"ok": True, "version": "x"})
        peer.sendall(frame[: len(frame) - 3])
        peer.close()
        with pytest.raises(ConnectionResetError, match="mid-frame"):
            c._receive(self._deadline())
        # the half that failed leaves the breaker to its caller, which
        # must drop the connection: the stream position is lost
        assert c.breaker.failures == 1

    def test_once_is_the_two_halves(self, client):
        c, peer = client
        peer.sendall(pack({"ok": True}))
        assert c._once({"op": "ping"}, b"", self._deadline()) == ({"ok": True}, b"")
        assert c.breaker.failures == 0


class TestRequestIdOnce:
    """A request id belongs to the request: minted once, where the
    request is built, and re-sent unchanged — so the server's replay
    cache sees one id however often the frame crosses the wire."""

    @pytest.fixture()
    def lossy(self):
        """A client whose first connection's peer has hung up and whose
        second has its reply waiting; yields (client, the two peers)."""
        pairs = [socket.socketpair() for _ in range(2)]
        ours = iter(a for a, _ in pairs)
        peers = [b for _, b in pairs]
        peers[0].shutdown(socket.SHUT_WR)  # reads the request, answers EOF
        peers[1].sendall(pack({"ok": True, "n": 2}))
        c = ServiceClient(
            socket_factory=lambda host, port, timeout: next(ours),
            retry=RetryPolicy(attempts=2, base_s=0.0, cap_s=0.0),
        )
        yield c, peers
        c.close()
        for _, b in pairs:
            b.close()

    def test_stamped_mints_once_and_only_for_idempotent_ops(self):
        plain = {"op": "store_get_object", "digest": "d"}
        assert stamped(plain) is plain
        first = stamped({"op": "store_put_object"})
        assert first["req_id"] and stamped(first) is first
        assert stamped({"op": "store_put_object"})["req_id"] != first["req_id"]

    def test_a_retry_resends_the_same_header(self, lossy):
        c, peers = lossy
        assert c._roundtrip({"op": "store_put_object"}, b"blob")[0]["n"] == 2
        deadline = time.monotonic() + 5.0
        first, again = (recv_frame(p, deadline) for p in peers)
        assert first == again and first[0]["req_id"]

    def test_a_built_request_keeps_its_id_and_its_spent_attempts(self, lossy):
        c, peers = lossy
        header = stamped({"op": "store_put_manifest", "name": "n"})
        # the caller's own first try is spent: one attempt left, not two
        with pytest.raises(TransportError, match="attempt 2"):
            c._roundtrip(header, spent=1)
        assert recv_frame(peers[0], time.monotonic() + 5.0)[0] == header
        assert c._roundtrip(header, spent=1)[0]["n"] == 2
        assert recv_frame(peers[1], time.monotonic() + 5.0)[0] == header
