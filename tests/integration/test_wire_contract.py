"""The wire contract: one op table, one frame format, one server loop.

Three things are pinned here, as literals, against *both* servers that
speak the protocol (a :class:`CompressionServer` with a store and a
:class:`GatewayServer` over a 2-shard cluster):

* every op in :data:`repro.service.ops.OPS` — its response header key
  set, and the typed refusal when what the op ``needs`` is absent;
* malformed frames — each ends in one typed ``protocol`` error frame and
  a closed connection within a deadline, never a silent close or a
  hung read, with no shm segment left resident;
* malformed header values — every field of every op, read off
  ``Op.fields``, gets a typed answer on a connection that stays up and
  is never re-sent;
* the field codec — ``encode_field`` / ``decode_field`` round trips.
"""

import asyncio
import dataclasses
import inspect
import json
import re
import socket
import struct
import threading
import time
import typing
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServiceError, ShapeError
from repro.service import CompressionServer, ServiceClient
from repro.service import wire
from repro.service.ops import OPS, Op
from repro.service.shm import ShmArena
from repro.shard import GatewayServer, LocalShardCluster
from repro.store import ArrayStore, manifest_digest

DEADLINE_S = 5.0
RNG = np.random.default_rng(1402)
FIELD = RNG.normal(size=(24, 32)).astype(np.float32)
#: crosses the shm transport's 64 KB floor, so a compress body of this
#: field is ingested socket → segment on the shm server
BIG = RNG.normal(size=(192, 128)).astype(np.float32)


class _Running:
    """Any wire server, started on a background event loop."""

    def __init__(self, srv):
        self.srv = srv
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(srv.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.srv.stop(), self.loop
        ).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()


@pytest.fixture(scope="module")
def compression(tmp_path_factory):
    """Scheduler + store + a shard map: every op has what it needs."""
    fx = _Running(CompressionServer(
        port=0, workers=1, pool_kind="thread",
        store_root=str(tmp_path_factory.mktemp("wire-store")),
        shard_map={"shards": [], "replicas": 1},
    ))
    yield fx.srv
    fx.stop()


@pytest.fixture(scope="module")
def storeless():
    fx = _Running(CompressionServer(port=0, workers=0))
    yield fx.srv
    fx.stop()


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    roots = [tmp_path_factory.mktemp(f"wire-shard{i}") for i in range(2)]
    with LocalShardCluster(roots, replicas=2) as cluster:
        fx = _Running(GatewayServer(cluster.gateway()))
        yield fx.srv
        fx.stop()


def _field_header(op, data, **extra):
    return {"op": op, "shape": list(data.shape), "dtype": str(data.dtype),
            **extra}


def _ask(srv, header, body=b""):
    with ServiceClient(port=srv.port, timeout=DEADLINE_S) as c:
        resp, rbody = c._roundtrip(header, body)
    return resp, rbody


def _key_sets(srv):
    """Drive one valid request per op; the response header's key set,
    or ``(error, key set)`` for a refusal, by op name."""
    seen = {}

    def ask(header, body=b""):
        resp, rbody = _ask(srv, header, body)
        seen[header["op"]] = (
            set(resp) if resp["ok"] else (resp["error"], set(resp))
        )
        return resp, rbody

    body = wire.encode_field(FIELD)
    for op in ("ping", "health", "codecs", "stats", "shard_map"):
        ask({"op": op})
    _, payload = ask(_field_header("compress", FIELD, codec="sz14"), body)
    # a server without a scheduler refuses before looking at the bytes
    ask({"op": "decompress"}, payload or b"\x00" * 16)
    ask(_field_header("store_put", FIELD, name="wire.ts", codec="sz14",
                      n_tiles=2), body)
    ask({"op": "store_read", "name": "wire.ts"})
    ask({"op": "store_slice", "name": "wire.ts", "slices": [[2, 6]]})
    ask({"op": "store_ls"})
    ask({"op": "store_gc", "refs": []})
    resp, _ = ask({"op": "store_get_manifest", "name": "wire.ts"})
    manifest = resp.get("manifest", {"tiles": ["0" * 64]})
    digest = manifest["tiles"][0]
    ask({"op": "store_get_object", "digest": digest})
    ask({"op": "store_put_object"}, b"raw object")
    ask({"op": "store_has_objects", "digests": [digest]})
    ask({"op": "store_put_manifest", "name": "wire.ts",
         "manifest": manifest})
    return seen


_READ = {"ok", "shape", "dtype", "tiles", "damaged", "body_len"}
_PUT = {"ok", "name", "codec", "n_tiles", "new_objects", "dedup_objects",
        "stored_bytes", "dedup_bytes", "ratio",
        "version", "replicas", "degraded", "per_shard"}
_GC = {"ok", "removed", "reclaimed_bytes", "kept", "tmp_removed"}
_REFUSED = {"ok", "error", "detail"}
_TYPED = {"ok", "error", "detail", "op", "req_id"}

COMPRESSION_KEYS = {
    "ping": {"ok", "version"},
    "health": {"ok", "status", "version", "queue_depth", "in_flight",
               "workers", "pool_restarts", "transport", "batch_bytes",
               "store"},
    "codecs": {"ok", "codecs", "short_names"},
    "stats": {"ok", "stats"},
    "shard_map": {"ok", "shard_map"},
    "compress": {"ok", "job_id", "codec", "attempts", "latency_s", "ratio",
                 "body_len"},
    "decompress": {"ok", "job_id", "shape", "dtype", "latency_s",
                   "body_len"},
    "store_put": _PUT,
    "store_read": _READ,
    "store_slice": _READ,
    "store_ls": {"ok", "datasets"},
    "store_gc": _GC,
    "store_get_object": {"ok", "body_len"},
    "store_put_object": {"ok", "digest", "stored"},
    "store_has_objects": {"ok", "have"},
    "store_get_manifest": {"ok", "manifest"},
    "store_put_manifest": {"ok", "name"},
}

_NO_SCHEDULER = ("scheduler-not-configured", _REFUSED)
#: the raw object/manifest ops are what a gateway *sends* to its shards
_SHARD_FACING = ("ServiceError", _TYPED)

GATEWAY_KEYS = {
    "ping": {"ok", "version", "role"},
    "health": {"ok", "status", "version", "gauges", "events", "replicas",
               "n_shards", "shards_up", "shards"},
    "codecs": {"ok", "codecs", "short_names"},
    "stats": _NO_SCHEDULER,
    "shard_map": {"ok", "shard_map"},
    "compress": _NO_SCHEDULER,
    "decompress": _NO_SCHEDULER,
    "store_put": _PUT,
    "store_read": _READ,
    "store_slice": _READ,
    "store_ls": {"ok", "datasets"},
    "store_gc": _GC | {"per_shard"},
    "store_get_object": _SHARD_FACING,
    "store_put_object": _SHARD_FACING,
    "store_has_objects": _SHARD_FACING,
    "store_get_manifest": _SHARD_FACING,
    "store_put_manifest": _SHARD_FACING,
}


class TestOpTable:
    def test_contract_covers_exactly_the_table(self):
        assert set(COMPRESSION_KEYS) == set(GATEWAY_KEYS) == set(OPS)

    def test_compression_server_response_keys(self, compression):
        assert _key_sets(compression) == COMPRESSION_KEYS

    def test_gateway_server_response_keys(self, gateway):
        assert _key_sets(gateway) == GATEWAY_KEYS

    def test_store_ops_refused_without_a_store(self, storeless):
        got = _key_sets(storeless)
        for name, op in OPS.items():
            if op.needs == "store":
                assert got[name] == ("store-not-configured", _REFUSED), name
            elif name == "shard_map":
                assert got[name] == ("shard-map-not-configured", _REFUSED)
            else:
                assert got[name] == COMPRESSION_KEYS[name], name

    def test_table_flags(self):
        def flagged(attr):
            return {n for n, op in OPS.items() if getattr(op, attr)}

        assert flagged("idempotent") == {
            "compress", "decompress", "store_put", "store_put_object",
            "store_put_manifest",
        }
        assert flagged("refused_while_draining") == (
            flagged("idempotent") | {"store_gc"}
        )
        assert flagged("ingest_to_arena") == {"compress"}
        assert {n for n, op in OPS.items() if op.needs == "scheduler"} == {
            "stats", "compress", "decompress",
        }

    def test_every_op_is_documented(self):
        api = (Path(__file__).parents[2] / "docs" / "API.md").read_text()
        rows = {
            name: (needs, fields) for name, needs, fields in re.findall(
                r"^\| `(\w+)` \| (\w+|—) \| (.+?) \| (?:yes|no) \|", api, re.M)
        }
        assert set(rows) == set(OPS)
        for name, op in OPS.items():
            fields = ", ".join(
                f"`{p}`".replace("|", "\\|") for p in op.fields.values()
            )
            assert rows[name] == (op.needs or "—", fields or "—"), name

    def test_handlers_take_their_fields_not_the_header(self):
        for name, op in OPS.items():
            params = list(inspect.signature(op.handler).parameters.values())
            assert [p.name for p in params[:2]] == ["srv", "body"], name
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:2])
            fields = params[2:]
            assert all(p.kind is p.KEYWORD_ONLY for p in fields), name
            assert all(p.annotation is not p.empty for p in fields), name
            assert list(op.fields) == [p.name for p in fields], name
            assert "header" not in op.fields, name

    def test_fields_are_derived_not_set(self):
        op = OPS["compress"]
        with pytest.raises(TypeError):
            Op(op.handler, fields={})
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.fields = {}
        with pytest.raises(TypeError):
            op.fields["eb"] = None

    def test_client_defaults_match_the_fields(self):
        checked = set()
        for name, op in OPS.items():
            method = getattr(ServiceClient, name, None)
            if method is None:
                continue
            for p in inspect.signature(method).parameters.values():
                if p.name in op.fields:
                    assert p.default == op.fields[p.name].default, (name, p)
                    checked.add((name, p.name))
        assert {
            ("compress", "codec"), ("compress", "eb"), ("compress", "mode"),
            ("compress", "tiles"), ("store_put", "n_tiles"),
            ("store_read", "strict"), ("store_slice", "strict"),
        } <= checked

    def test_conditional_store_get_manifest(self, compression, gateway):
        _ask(compression,
             _field_header("store_put", FIELD, name="cond.ts", codec="sz14",
                           n_tiles=2),
             wire.encode_field(FIELD))
        ask = {"op": "store_get_manifest", "name": "cond.ts"}
        plain, _ = _ask(compression, ask)
        digest = manifest_digest(plain["manifest"])
        for _ in range(2):  # loaded on a worker thread, then from the memo
            same, _ = _ask(compression, {**ask, "if_digest": digest})
            assert same == {"ok": True, "unchanged": True}
        other, _ = _ask(compression, {**ask, "if_digest": "0" * 64})
        assert set(other) == {"ok", "manifest"}
        assert other["manifest"] == plain["manifest"]
        refused, _ = _ask(gateway, {**ask, "if_digest": digest})
        assert (refused["error"], set(refused)) == _SHARD_FACING
        # no typed client method: the gateway reads these reply headers
        with ServiceClient(port=compression.port, timeout=DEADLINE_S) as c:
            assert c._call("store_get_manifest", name="cond.ts",
                           if_digest=digest)[0] == {"ok": True, "unchanged": True}
            assert c._call("store_get_manifest", name="cond.ts",
                           if_digest="0" * 64)[0]["manifest"] == plain["manifest"]

    def test_gateway_dedups_a_replayed_store_put(self, gateway):
        header = _field_header("store_put", FIELD, name="replay.ts",
                               codec="sz14", n_tiles=2, req_id="replay-1")
        body = wire.encode_field(FIELD)
        with ServiceClient(port=gateway.port, timeout=DEADLINE_S) as c:
            # raw frames, one request id: what a re-send looks like
            first = c._once(header, body, _deadline())
            again = c._once(header, body, _deadline())
        assert first == again and first[0]["ok"]
        assert gateway.metrics.snapshot().events["server.idem_hits"] >= 1


def _deadline():
    return time.monotonic() + DEADLINE_S


# -- malformed frames ----------------------------------------------------------

_LEN = struct.Struct(">I")


def _framed(raw_header: bytes) -> bytes:
    return _LEN.pack(len(raw_header)) + raw_header


MALFORMED = {
    "header-length-zero": _LEN.pack(0),
    "header-length-over-1MiB": _LEN.pack((1 << 20) + 1),
    "non-json-header": _framed(b"\xff\xfe not json"),
    "non-object-header": _framed(b"[1, 2, 3]"),
    "negative-body-len": _framed(
        json.dumps({"op": "ping", "body_len": -1}).encode()),
    "string-body-len": _framed(
        json.dumps({"op": "ping", "body_len": "many"}).encode()),
    # a bool is an int to isinstance: ``true`` must not read as 1 byte
    "bool-body-len": _framed(
        json.dumps({"op": "ping", "body_len": True}).encode()),
    "float-body-len": _framed(
        json.dumps({"op": "ping", "body_len": 1.0}).encode()),
    "oversized-body-len": _framed(
        json.dumps({"op": "compress", "body_len": 1 << 40}).encode()),
}


def _resident(srv):
    arena = getattr(getattr(srv.scheduler, "transport", None), "arena", None)
    return 0 if arena is None else arena.resident_bytes


@pytest.fixture(scope="module")
def ingesting():
    """A process-pool server: shm transport wherever segments work."""
    fx = _Running(CompressionServer(
        port=0, workers=1, pool_kind="process", transport="auto"
    ))
    yield fx.srv
    fx.stop()


class TestMalformedFrames:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("which", ["ingesting", "gateway"])
    def test_typed_protocol_error_then_close(self, which, case, request):
        srv = request.getfixturevalue(which)
        with socket.create_connection(
            ("127.0.0.1", srv.port), timeout=DEADLINE_S
        ) as sock:
            sock.sendall(MALFORMED[case])
            resp, body = wire.recv_frame(sock, _deadline())
            assert resp["ok"] is False and resp["error"] == "protocol"
            assert resp["detail"] and body == b""
            sock.settimeout(DEADLINE_S)
            assert sock.recv(1) == b"", "server must hang up after the frame"
        assert _resident(srv) == 0
        with ServiceClient(port=srv.port, timeout=DEADLINE_S) as c:
            assert c.ping()["ok"]  # and the server itself is unharmed


class TestBodyLength:
    @pytest.mark.parametrize("body_len", [True, 1.0, -1, "1", None])
    def test_only_a_json_integer_is_a_length(self, body_len):
        raw = json.dumps({"op": "ping", "body_len": body_len}).encode()
        with pytest.raises(ServiceError, match="body length .* out of range"):
            wire._parse_header(raw)

    @pytest.mark.parametrize("header,n", [
        ({"op": "ping"}, 0), ({"op": "ping", "body_len": 0}, 0),
        ({"op": "ping", "body_len": 7}, 7),
    ])
    def test_integer_lengths_are_read(self, header, n):
        assert wire._parse_header(json.dumps(header).encode()) == (header, n)


class TestBadShapeIsAnsweredOnEveryTransport:
    """A ≥ 64 KB compress body its shape/dtype header does not describe."""

    HEADERS = {
        "wrong-shape": {"shape": [10, 10], "dtype": "float32"},
        "wrong-dtype": {"shape": list(BIG.shape), "dtype": "float64"},
        "unknown-dtype": {"shape": list(BIG.shape), "dtype": "float33"},
        "shape-not-a-list": {"shape": 7, "dtype": "float32"},
    }

    @pytest.mark.parametrize("case", sorted(HEADERS))
    def test_same_typed_frame_zero_retries(self, case):
        answers = []
        for transport in ("auto", "pickle"):
            fx = _Running(CompressionServer(
                port=0, workers=1, pool_kind="process", transport=transport
            ))
            try:
                if transport == "auto" and ShmArena.available():
                    assert fx.srv.scheduler.transport.name == "shm"
                with ServiceClient(
                    port=fx.srv.port, timeout=DEADLINE_S
                ) as c:
                    resp, _ = c._roundtrip(
                        {"op": "compress", "codec": "sz14",
                         **self.HEADERS[case]},
                        wire.encode_field(BIG),
                    )
                    with pytest.raises(ServiceError):
                        c._check(resp)
                    assert c.retries == 0
                    assert _resident(fx.srv) == 0
                    # the body was consumed: the connection is in sync
                    payload, _ = c.compress(BIG, "sz14")
                    assert payload
            finally:
                fx.stop()
            assert resp["error"] == "ServiceError" and resp["op"] == "compress"
            resp.pop("req_id")
            answers.append(resp)
        assert answers[0] == answers[1]


class TestObjectDtypeIsRefused:
    """A field header declaring ``object`` values is a typed refusal on a
    connection that stays up — never a dropped connection, and never an
    ``object`` array mapped over an ingest segment."""

    @pytest.mark.parametrize("which,op", [
        ("ingesting", "compress"),
        ("compression", "compress"),
        ("compression", "store_put"),
        ("gateway", "store_put"),
    ])
    def test_refusal_then_ping_on_the_same_connection(self, which, op, request):
        srv = request.getfixturevalue(which)
        body = wire.encode_field(BIG)  # >= 64 KB: the ingest path's size
        header = {"op": op, "shape": [len(body) // 8], "dtype": "object",
                  "codec": "sz14", "name": "wire.object"}
        with socket.create_connection(
            ("127.0.0.1", srv.port), timeout=DEADLINE_S
        ) as sock:
            sock.sendall(wire.pack(header, body))
            resp, _ = wire.recv_frame(sock, _deadline())
            assert resp["ok"] is False and resp["error"] == "ServiceError"
            assert "object" in resp["detail"] and resp["op"] == op
            sock.sendall(wire.pack({"op": "ping"}))
            assert wire.recv_frame(sock, _deadline())[0]["ok"] is True
        assert _resident(srv) == 0


# -- header values -------------------------------------------------------------

_MUTANT = "mutant.ts"
_MISSING = object()
#: a well-formed request per op, mutated one field at a time; an op not
#: listed starts from no fields at all
_BASE = {
    "compress": (_field_header("compress", FIELD, codec="sz14"),
                 wire.encode_field(FIELD)),
    "store_put": (_field_header("store_put", FIELD, name=_MUTANT, codec="sz14",
                                n_tiles=2), wire.encode_field(FIELD)),
    "store_read": ({"name": _MUTANT}, b""),
    "store_slice": ({"name": _MUTANT, "slices": [[2, 6]]}, b""),
    "store_get_object": ({"digest": "0" * 64}, b""),
    "store_put_object": ({}, b"raw object"),
    "store_has_objects": ({"digests": ["0" * 64]}, b""),
    "store_get_manifest": ({"name": _MUTANT}, b""),
    "store_put_manifest": ({"name": _MUTANT, "manifest": {}}, b""),
}


def _mutations(param):
    """``{case: value}`` for one field; which cases the row refuses."""
    tp = param.annotation
    values = {
        "wrong-type": 7 if tp in (str, str | None) else "abc",
        "null": None,
        "nan": float("nan"),
        "infinity": float("inf"),
        "negative": -1,
        "1e300": 1e300,
        "10k-list": [0] * 10_000,
        "missing": _MISSING,
    }
    refused = {"wrong-type", "nan", "infinity"}
    if type(None) not in typing.get_args(tp):
        refused.add("null")
    if param.default is param.empty:
        refused.add("missing")
    return values, refused


class TestHeaderValues:
    """Every field of every op × hostile values: a typed answer, then a
    ``ping`` on the same socket, and no re-send."""

    @pytest.mark.parametrize("op,field", [
        (name, f) for name, op in OPS.items() for f in op.fields
    ])
    @pytest.mark.parametrize("which", ["compression", "gateway"])
    def test_typed_answer_on_a_live_connection(self, which, op, field, request):
        srv = request.getfixturevalue(which)
        row = OPS[op]
        runnable = row.needs is None or getattr(srv, row.needs) is not None
        base, body = _BASE.get(op, ({}, b""))
        values, refused = _mutations(row.fields[field])
        with ServiceClient(port=srv.port, timeout=DEADLINE_S) as c:
            if srv.store is not None:
                c.store_put(_MUTANT, FIELD, "sz14", n_tiles=2)
            sock = c._sock
            for case, value in values.items():
                header = {"op": op, **base, field: value}
                if value is _MISSING:
                    del header[field]
                resp, _ = c._roundtrip(header, body)
                if not resp["ok"]:
                    assert resp["error"] and resp["detail"], case
                if case in refused:
                    assert resp["ok"] is False, case
                    if runnable:
                        assert resp["error"] == "ServiceError", case
                        assert repr(field) in resp["detail"], case
                        assert resp["op"] == op, case
                assert c.ping()["ok"] and c._sock is sock, case
            assert c.retries == 0


class TestSliceBounds:
    """A window bound that is not an integer is the ``ShapeError`` a
    local ``read_slice`` raises, not a dropped connection or a silently
    truncated window."""

    @pytest.mark.parametrize("window", [[(1, "z")], [(1.7, 5)], [None, (True, 4)]])
    @pytest.mark.parametrize("which", ["compression", "gateway"])
    def test_refused_over_tcp(self, which, window, request):
        srv = request.getfixturevalue(which)
        with ServiceClient(port=srv.port, timeout=DEADLINE_S) as c:
            c.store_put("bounds.ts", FIELD, "sz14", n_tiles=2)
            with pytest.raises(ShapeError, match="slice bound"):
                c.store_slice("bounds.ts", window)
            assert c.ping()["ok"] and c.retries == 0

    @pytest.mark.parametrize("window", [[(1, "z")], [(1.7, 5)]])
    def test_refused_in_process(self, tmp_path, window):
        store = ArrayStore(tmp_path)
        store.put("bounds.ts", FIELD, "sz14", n_tiles=2)
        with pytest.raises(ShapeError, match="axis 0: slice bound"):
            store.read_slice("bounds.ts", window)


# -- the field codec -----------------------------------------------------------


class TestFieldCodec:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    def test_round_trip(self, dtype, order, byteorder):
        base = RNG.normal(size=(6, 5, 4)).astype(dtype)
        data = np.asarray(
            base, dtype=np.dtype(dtype).newbyteorder(byteorder), order=order
        )
        body = wire.encode_field(data)
        # the wire is always little-endian C order, whatever came in
        assert body == np.ascontiguousarray(base).astype(
            np.dtype(dtype).newbyteorder("<")).tobytes()
        header = {"shape": list(data.shape), "dtype": str(data.dtype)}
        back = wire.decode_field(header, body)
        assert back.dtype == data.dtype and back.shape == data.shape
        assert back.flags.c_contiguous
        np.testing.assert_array_equal(back, base)

    def test_body_must_match_its_header(self):
        body = wire.encode_field(FIELD)
        for header in (
            {"shape": [24, 31], "dtype": "float32"},
            {"shape": [24, 32], "dtype": "float64"},
            {"shape": [], "dtype": "float32"},
            {"shape": [24, 32], "dtype": "no-such-dtype"},
            {"shape": "24x32", "dtype": "float32"},
            {"shape": [24 * 32 // 2], "dtype": "object"},
        ):
            with pytest.raises(ServiceError):
                wire.decode_field(header, body)
