"""The shard gateway: one logical store whose object layer is N shards.

:class:`ShardGateway` is a :class:`~repro.store.TileStore` — ``put`` /
``read`` / ``read_slice`` / ``ls``, the tile cache and the
:class:`~repro.store.PutResult` are the local store's own code, so a
sharded read is bit-exact with a single-store read because it *is* that
read.  What this module supplies is the object layer: it fronts N plain
``wavesz serve --store`` servers and speaks the shard-facing wire
primitives (``store_put_object``, ``store_get_object``,
``store_put_manifest``, ...) to each.  Placement is the
:class:`~repro.shard.ring.ShardRing`: a tile object lives on the
``replicas`` shards owning its content digest, a dataset manifest on the
shards owning ``m:<name>``.

Failure semantics, by the method that owns them:

* **put** (:meth:`ShardGateway._commit`) — every tile must land on at
  least one replica *before* the
  manifest is written anywhere (old-or-new: a put that fails leaves the
  previous version fully readable), and the manifest must land on at
  least one of its owners to ack.  Writes that reach fewer than
  ``replicas`` copies still ack but are flagged ``degraded`` and counted
  (``gateway.degraded_writes``).
* **read** (:meth:`ShardGateway.manifest`,
  :meth:`ShardGateway._load_many`) — manifests are read from all owners,
  the highest version wins (ties broken by canonical-JSON digest), stale
  or missing replicas are repaired in the background of the read
  (``gateway.read_repairs``).  Tiles fail over down the owner list, one
  burst per rank (``gateway.failovers``); a replica that is alive but
  missing/corrupt, or that says it lacks a copy, gets the good bytes
  written back.
  With one shard down and ``replicas >= 2`` every read succeeds; with
  ``replicas=1`` a ``strict=False`` read salvages and reports lost tile
  indices exactly like the local damage path (stage ``"missing"``).

Each shard gets its own :class:`~repro.service.resilience.RetryPolicy`
and :class:`~repro.service.resilience.CircuitBreaker`, so one sick shard
trips fast without poisoning calls to its peers.  Per-shard telemetry
exports as ``shard.<id>.up`` / ``.latency_ms`` / ``.failovers`` gauges
on the gateway's :class:`~repro.service.metrics.MetricsRegistry`.

A gateway is single-threaded: one instance per thread.  It reaches its
shards one way, :meth:`ShardGateway._burst` — every request frame to
every shard, then every reply, on the calling thread — so within one
call the shards work in parallel, and a lone call is a burst of one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from ..errors import (
    ChecksumError,
    CircuitOpenError,
    ConfigError,
    ReproError,
    ServiceError,
    StoreError,
    TransportError,
)
from ..io.container import Container
from ..service.metrics import MetricsRegistry
from ..service.resilience import CircuitBreaker, RetryPolicy
from ..service.client import ServiceClient, stamped
from ..service.wire import check_response
from ..store.cache import DEFAULT_CACHE_BYTES
from ..store.store import GCResult, TileStore, manifest_digest, open_tile_blob
from .ring import DEFAULT_VNODES, ShardMap, ShardRing

__all__ = ["ShardGateway", "manifest_key"]

#: Errors that mean "this shard is down / unreachable", as opposed to
#: alive-but-missing-data.  ServiceTimeoutError subclasses TransportError.
_DOWN = (TransportError, CircuitOpenError, ConnectionError, OSError)

#: Per-shard retry policy: fail over to a replica quickly instead of
#: retrying one shard for seconds — 2 tries (the burst, then one lone
#: round trip on a fresh connection), short jittered pause.
_SHARD_RETRY = {"attempts": 2, "base_s": 0.02, "cap_s": 0.2}

#: Per-shard circuit breaker, tighter than a lone client's 5 failures /
#: 5 s: a replica can answer instead, so a sick shard should trip after
#: two exhausted retry pairs rather than keep costing every read its
#: timeout, and be probed again soon since reads heal it on return.
_SHARD_BREAKER = {"failure_threshold": 3, "reset_after_s": 2.0}


def manifest_key(name: str) -> str:
    """The ring key a dataset's manifest replicas are placed by.

    Prefixed so a manifest and a tile digest can never collide on the
    ring, and so placement depends only on the dataset name.
    """
    return f"m:{name}"


class _ShardDown(Exception):
    """Internal: a call failed because the shard is unreachable."""

    def __init__(self, shard_id: str, cause: BaseException) -> None:
        super().__init__(f"shard {shard_id} is unreachable: {cause}")
        self.shard_id = shard_id
        self.cause = cause


class ShardGateway(TileStore):
    """The replicated-cluster object layer of a :class:`TileStore`: one
    logical store spread over the shards of a :class:`ShardMap`."""

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        timeout: float = 30.0,
        vnodes: int = DEFAULT_VNODES,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: MetricsRegistry | None = None,
        socket_factory: Callable[..., Any] | None = None,
    ) -> None:
        super().__init__(
            cache_bytes,
            metrics if metrics is not None else MetricsRegistry(),
            prefix="gateway",
        )
        self.map = shard_map
        self.ring: ShardRing = shard_map.ring(vnodes=vnodes)
        self.timeout = timeout
        self._socket_factory = socket_factory
        # Breakers outlive client objects: a shard whose *connection*
        # cannot even be built must still trip and cool down.
        self._breakers = {
            sid: CircuitBreaker(**_SHARD_BREAKER) for sid in self.map.shard_ids
        }
        self._clients: dict[str, ServiceClient] = {}
        self._latency_ms: dict[str, float] = {}
        self._failovers: dict[str, int] = dict.fromkeys(self.map.shard_ids, 0)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_any(
        cls, addresses: str | Iterable[str], *, replicas: int = 2, **kwargs: Any
    ) -> "ShardGateway":
        """Build a gateway from ``host:port[,host:port...]`` addresses.

        A single address is asked for its ``shard_map`` op first — so
        pointing at any member of a configured cluster (or at a gateway
        server) yields the full topology.  A server that has no shard
        map, or a multi-address list, becomes the topology directly with
        the given replication factor.
        """
        if isinstance(addresses, str):
            addresses = [a.strip() for a in addresses.split(",") if a.strip()]
        else:
            addresses = [str(a).strip() for a in addresses]
        if not addresses:
            raise ConfigError("no shard addresses given")
        if len(addresses) == 1:
            probe_map = ShardMap.from_addresses(addresses, replicas=1)
            info = probe_map.shards[0]
            try:
                with ServiceClient(
                    info.host, info.port,
                    retry=RetryPolicy(**_SHARD_RETRY),
                ) as probe:
                    fetched = probe.shard_map()
            except _DOWN as exc:
                raise TransportError(
                    f"cannot reach {info.id} to fetch the shard map: {exc}"
                ) from exc
            except ServiceError:
                fetched = None  # plain single server: treat as 1-shard map
            if fetched is not None:
                return cls(ShardMap.from_dict(fetched), **kwargs)
        return cls(ShardMap.from_addresses(addresses, replicas=replicas), **kwargs)

    # -- per-shard plumbing ------------------------------------------------

    def _client(self, sid: str) -> ServiceClient:
        c = self._clients.get(sid)
        if c is not None:
            return c
        breaker = self._breakers[sid]
        breaker.allow()  # raises CircuitOpenError while cooling down
        info = self.map.shard(sid)
        try:
            c = ServiceClient(
                info.host, info.port, self.timeout,
                retry=RetryPolicy(**_SHARD_RETRY),
                breaker=breaker,
                socket_factory=self._socket_factory,
            )
        except (ConnectionError, OSError) as exc:
            breaker.record_failure()
            raise TransportError(
                f"shard {sid} refused a connection: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._clients[sid] = c
        return c

    def _mark_down(self, sid: str, exc: BaseException) -> _ShardDown:
        self._clients.pop(sid, None)
        self.metrics.set_gauge(f"shard.{sid}.up", 0.0)
        return _ShardDown(sid, exc)

    def _mark_up(self, sid: str, t0: float, n_requests: int = 1) -> None:
        ms = (time.perf_counter() - t0) * 1e3 / n_requests
        prev = self._latency_ms.get(sid)
        ewma = ms if prev is None else 0.8 * prev + 0.2 * ms
        self._latency_ms[sid] = ewma
        self.metrics.set_gauges({
            f"shard.{sid}.up": 1.0,
            f"shard.{sid}.latency_ms": round(ewma, 3),
        })

    def _note_failover(self, sid: str) -> None:
        self._failovers[sid] = self._failovers.get(sid, 0) + 1
        self.metrics.incr("gateway.failovers")
        self.metrics.set_gauge(
            f"shard.{sid}.failovers", float(self._failovers[sid])
        )

    def _burst(
        self, requests: dict[str, list[tuple]]
    ) -> dict[str, list[Any]]:
        """The gateway's one crossing to its shards.

        ``requests`` maps a shard id to that shard's requests, each
        ``(op, fields, body)``; the result maps it to one entry per
        request, in order: ``(checked reply header, body)`` or the
        exception — the typed error the shard answered with, or
        :class:`_ShardDown`.  Every frame to every shard goes out before
        any reply is read, so the shards work in parallel; the *k*
        requests of one shard are pipelined on its one connection, which
        the server answers in order.

        The burst is the first of ``_SHARD_RETRY``'s two tries.  A shard
        whose half of it fails at transport level has its connection
        dropped (the stream position is lost) and each request it has
        not answered is sent once more, alone, on a fresh connection —
        the same header, so an ``idempotent`` op keeps the request id it
        was built with and the shard's replay cache runs it at most
        once.  Retry, breaker, down-classification and the gauges are
        the same for a burst of one and of many.  No reply is ever left
        unread on a kept connection.

        No deadlock: a pipeline stalls only if the gateway blocks
        sending request *j* to a shard that blocks writing reply *i < j*,
        which needs large requests *and* large replies on one
        connection.  No op sent here has both (``store_put_object``:
        large in, ~80 B out; ``store_get_object`` / ``store_get_manifest``:
        ~120 B in, large out — a thousand of those fit a socket buffer),
        and the socket timeout would turn a stuck burst into the serial
        second try, not a hang.
        """
        frames = {
            sid: [(stamped({"op": op, **fields}), body)
                  for op, fields, body in batch]
            for sid, batch in requests.items()
        }
        got: dict[str, list[tuple[dict, bytes]]] = {}  # short if the burst broke
        down: dict[str, _ShardDown] = {}
        owed: dict[str, tuple[ServiceClient, float]] = {}  # sent, replies unread

        def lost(client: ServiceClient) -> None:
            client.breaker.record_failure()
            client.close()

        try:
            for sid, batch in frames.items():
                if not batch:
                    continue
                t0 = time.perf_counter()
                try:
                    client = self._client(sid)
                except _DOWN as exc:
                    down[sid] = self._mark_down(sid, exc)
                    continue
                try:
                    for header, body in batch:
                        client._send(header, body)
                    owed[sid] = client, t0
                except OSError:
                    lost(client)
            for sid, (client, t0) in list(owed.items()):
                replies = got[sid] = []
                try:
                    for _ in frames[sid]:
                        replies.append(
                            client._receive(time.monotonic() + self.timeout)
                        )
                    self._mark_up(sid, t0, len(replies))
                except (OSError, ServiceError):
                    lost(client)
                del owed[sid]
        finally:
            for client, _ in owed.values():  # an escape mid-burst
                client.close()

        out: dict[str, list[Any]] = {}
        for sid, batch in frames.items():
            replies, results = got.get(sid, ()), []
            out[sid] = results
            for i, frame in enumerate(batch):
                if sid in down:  # the rest of its list would fail too
                    results.append(down[sid])
                    continue
                try:
                    header, body = (
                        replies[i] if i < len(replies)
                        else self._second_try(sid, *frame)
                    )
                    results.append((check_response(header), body))
                except _ShardDown as exc:
                    down[sid] = exc
                    results.append(exc)
                except ReproError as exc:
                    results.append(exc)
        return out

    def _second_try(
        self, sid: str, header: dict, body: bytes
    ) -> tuple[dict, bytes]:
        """A request whose burst attempt was lost, once more and alone."""
        t0 = time.perf_counter()
        try:
            reply = self._client(sid)._roundtrip(header, body, spent=1)
        except _DOWN as exc:
            raise self._mark_down(sid, exc) from exc
        self._mark_up(sid, t0)
        return reply

    def _ask(
        self, op: str, requests: dict[str, dict[str, Any]]
    ) -> dict[str, Any]:
        """One bodiless ``op`` request per shard (``requests`` maps a
        shard id to its fields), as ``{shard_id: checked reply header,
        or the exception}``."""
        burst = self._burst({
            sid: [(op, fields, b"")] for sid, fields in requests.items()
        })
        return {
            sid: r if isinstance(r, BaseException) else r[0]
            for sid, (r,) in burst.items()
        }

    # -- put ---------------------------------------------------------------

    def _commit(
        self, name: str, manifest: dict[str, Any], payloads: dict[str, bytes]
    ) -> dict[str, Any]:
        """Replicated commit: tiles to their owners first, manifest last.

        Ack requires every tile on >= 1 replica and the manifest on >= 1
        of its owners; anything short of the full replication factor
        acks ``degraded`` and is counted.  A commit that raises leaves
        any previous version fully intact (old-or-new).
        """
        R = self.map.replicas

        # phase 1: every unique payload to its owner shards, one burst
        by_shard: dict[str, list[str]] = {}
        owners_of = {d: self.ring.owners(d, R) for d in payloads}
        for d, owners in owners_of.items():
            for sid in owners:
                by_shard.setdefault(sid, []).append(d)
        results = self._burst({
            sid: [("store_put_object", {"overwrite": False, "digest": d},
                   payloads[d]) for d in digests]
            for sid, digests in by_shard.items()
        })

        ok_copies: dict[str, int] = dict.fromkeys(payloads, 0)
        fresh_copies: dict[str, int] = dict.fromkeys(payloads, 0)
        per_shard: dict[str, int] = {}
        degraded = False
        for sid, replies in results.items():
            if any(isinstance(r, BaseException) for r in replies):
                degraded = True  # a shard that failed one write counts for none
                continue
            stored = [bool(r[0]["stored"]) for r in replies]
            per_shard[sid] = sum(stored)
            for d, fresh in zip(by_shard[sid], stored):
                ok_copies[d] += 1
                fresh_copies[d] += fresh
        lost = [d for d, n in ok_copies.items() if n == 0]
        if lost:
            raise StoreError(
                f"put {name!r} failed: {len(lost)} tile object(s) could not "
                f"be written to any replica (first: {lost[0][:12]}...)"
            )
        if any(n < len(owners_of[d]) for d, n in ok_copies.items()):
            degraded = True

        # phase 2: version, then the manifest to its owner shards
        m_owners = self.ring.owners(manifest_key(name), R)
        versions: list[int] = []
        for r in self._ask(
            "store_get_manifest", dict.fromkeys(m_owners, {"name": name})
        ).values():
            if isinstance(r, dict):
                versions.append(int(r["manifest"].get("version", 1)))
            elif not isinstance(r, (StoreError, _ShardDown)):
                raise r
        manifest["version"] = (max(versions) + 1) if versions else 1

        self._manifests.pop(name)
        m_results = self._ask("store_put_manifest", dict.fromkeys(
            m_owners, {"name": name, "manifest": manifest}
        ))
        m_ok = [sid for sid, r in m_results.items()
                if not isinstance(r, BaseException)]
        if not m_ok:
            raise StoreError(
                f"put {name!r} failed: manifest unwritable on all "
                f"{len(m_owners)} owner shard(s)"
            )
        if len(m_ok) < len(m_owners):
            degraded = True
        if degraded:
            self.metrics.incr("gateway.degraded_writes")

        new_objects = sum(1 for d in payloads if fresh_copies[d] > 0)
        return {
            "version": manifest["version"],
            "replicas": R,
            "new_objects": new_objects,  # unique digests new to the cluster
            "dedup_objects": len(payloads) - new_objects,
            # physical bytes, every copy counted
            "stored_bytes": sum(
                len(payloads[d]) * fresh_copies[d] for d in payloads
            ),
            "dedup_bytes": sum(
                len(payloads[d]) * (ok_copies[d] - fresh_copies[d])
                for d in payloads
            ),
            "degraded": degraded,
            "per_shard": per_shard,
        }

    # -- manifests ---------------------------------------------------------

    def manifest(self, name: str) -> dict[str, Any]:
        """Read all replicas, pick the winner, repair the stragglers.

        Winner = highest ``version``; ties break on the canonical JSON
        digest so every client converges on the same copy.  Owners that
        answered with a missing/stale/corrupt manifest get the winner
        written back (read-repair) before the read proceeds.

        A handle that has read ``name`` before validates instead of
        refetching: it asks **every** owner whether it still holds the
        manifest with the remembered digest and serves its copy only if
        all of them say so.  Anything else — a different manifest, a
        typed error, an owner down — is the walk below, unchanged.  One
        owner would not do: it may have been down while another gateway
        put a newer version, which the walk finds on its peer.
        """
        owners = self.ring.owners(manifest_key(name), self.map.replicas)
        held = self._manifests.get(name)
        if held is not None:
            confirmed = self._ask("store_get_manifest", {
                sid: {"name": name, "if_digest": held[1]} for sid in owners
            })
            if all(
                isinstance(r, dict) and (
                    r.get("unchanged")
                    # a shard that ignores if_digest sends its manifest
                    or manifest_digest(r.get("manifest", {})) == held[1]
                )
                for r in confirmed.values()
            ):
                return held[0]
        replies = {
            sid: r["manifest"] if isinstance(r, dict) else r
            for sid, r in self._ask(
                "store_get_manifest", dict.fromkeys(owners, {"name": name})
            ).items()
        }
        winner: dict[str, Any] | None = None
        repair: list[str] = []
        missing: list[str] = []
        down = 0
        for sid in owners:
            r = replies[sid]
            if isinstance(r, _ShardDown):
                down += 1
            elif isinstance(r, StoreError):
                missing.append(sid)
            elif isinstance(r, BaseException):
                repair.append(sid)  # corrupt / unreadable replica
            else:
                if winner is None or self._newer(r, winner):
                    winner = r
        if winner is None:
            if down == len(owners):
                raise StoreError(
                    f"no dataset {name!r}: all {len(owners)} manifest "
                    f"owner shard(s) are unreachable"
                )
            raise StoreError(f"sharded store has no dataset {name!r}")
        wd = manifest_digest(winner)
        for sid in owners:
            r = replies[sid]
            if isinstance(r, dict) and manifest_digest(r) != wd:
                repair.append(sid)  # stale version on an alive shard
        repair.extend(missing)
        if repair:  # best-effort; the read already has truth
            repaired = self._ask("store_put_manifest", dict.fromkeys(
                repair, {"name": name, "manifest": winner}
            ))
            self.metrics.incr("gateway.read_repairs", sum(
                isinstance(r, dict) for r in repaired.values()
            ))
        self._manifests.put(name, (winner, wd))
        return winner

    def _newer(self, a: dict[str, Any], b: dict[str, Any]) -> bool:
        va, vb = int(a.get("version", 1)), int(b.get("version", 1))
        if va != vb:
            return va > vb
        return manifest_digest(a) > manifest_digest(b)

    # -- read --------------------------------------------------------------

    def _load_many(self, digests: list[str]) -> list[Container | ReproError]:
        """Every digest's first good copy, one burst per owner rank.

        Round 0 asks each digest's primary for the object and, in the
        same burst, asks every other owner whether it holds a copy
        (``store_has_objects``): a tile its primary serves would never
        reveal that a secondary — say, a shard that was down during the
        put — is missing it.  Round *k* asks the *k*-th owner for the
        digests still unresolved; a copy counts once
        :func:`open_tile_blob` accepts it, and one a non-primary served
        counts a failover.  One last burst writes the good bytes back to
        every owner that answered missing or corrupt or said it lacks a
        copy (``gateway.read_repairs``), whether or not the read
        succeeds — best-effort: a read never fails because its repairs
        could not be written.

        A digest no replica can produce gets a StoreError — the class
        the local store uses for a missing object, so ``strict=False``
        salvage classifies it ``missing`` — or, when every reachable copy
        is corrupt and none is missing, the last ChecksumError.
        """
        owners = {d: self.ring.owners(d, self.map.replicas) for d in digests}
        probe: dict[str, list[str]] = {}
        for d, ranked in owners.items():
            for sid in ranked[1:]:
                probe.setdefault(sid, []).append(d)
        good: dict[str, tuple[Container, bytes]] = {}
        fix: dict[tuple[str, str], bool] = {}  # (shard, digest) -> overwrite
        corrupt: dict[str, ChecksumError] = {}
        missing: set[str] = set()
        pending = list(owners)
        for rank in range(self.map.replicas):
            asked: dict[str, list[str]] = {}
            for d in pending:
                if rank < len(owners[d]):
                    asked.setdefault(owners[d][rank], []).append(d)
            if not asked:
                break
            requests = {
                sid: [("store_get_object", {"digest": d}, b"") for d in ds]
                for sid, ds in asked.items()
            }
            if rank == 0:
                for sid, ds in probe.items():
                    requests.setdefault(sid, []).append(
                        ("store_has_objects", {"digests": ds}, b"")
                    )
            replies = self._burst(requests)
            for sid, ds in asked.items():
                for d, r in zip(ds, replies[sid]):
                    if isinstance(r, _ShardDown):
                        continue
                    try:
                        if isinstance(r, BaseException):
                            raise r
                        blob = bytes(r[1])  # kept, and re-sent, immutable
                        good[d] = open_tile_blob(d, blob), blob
                        if rank:
                            self._note_failover(owners[d][0])
                    except StoreError:
                        missing.add(d)
                        fix[sid, d] = False
                    except ChecksumError as exc:
                        corrupt[d] = exc
                        fix[sid, d] = True
                    except ReproError:
                        fix[sid, d] = True
            if rank == 0:
                for sid, ds in probe.items():
                    r = replies[sid][-1]
                    if not isinstance(r, BaseException):
                        for d in ds:
                            if not r[0]["have"].get(d):
                                fix[sid, d] = False
            pending = [d for d in pending if d not in good]

        writes: dict[str, list[tuple]] = {}
        for (sid, d), overwrite in fix.items():
            if d in good:
                writes.setdefault(sid, []).append((
                    "store_put_object",
                    {"overwrite": overwrite, "digest": d}, good[d][1],
                ))
        if writes:
            self.metrics.incr("gateway.read_repairs", sum(
                not isinstance(r, BaseException)
                for rs in self._burst(writes).values() for r in rs
            ))
        return [
            good[d][0] if d in good
            else corrupt[d] if d in corrupt and d not in missing
            else StoreError(
                f"object {d} is unavailable: no replica of "
                f"{len(owners[d])} could produce it"
            )
            for d in digests
        ]

    # -- listing / gc / health --------------------------------------------

    def _listings(self) -> dict[str, Any]:
        """Every shard's own ``store_ls`` rows (or why it did not answer)."""
        return {
            sid: r["datasets"] if isinstance(r, dict) else r
            for sid, r in self._ask(
                "store_ls", dict.fromkeys(self.map.shard_ids, {})
            ).items()
        }

    def names(self) -> tuple[str, ...]:
        """Dataset names any reachable shard lists, sorted."""
        return tuple(sorted({
            row["name"]
            for rows in self._listings().values()
            if not isinstance(rows, BaseException)
            for row in rows
        }))

    def gc(self, *, extra_refs=()) -> GCResult:
        """Cluster-wide gc: union every manifest's tiles (and
        ``extra_refs``, the local store's keep-set extension), then sweep.

        Refuses (``StoreError``) unless every shard is reachable — a
        manifest on an unreachable shard may be the only reference to
        tiles held here, and sweeping those would turn a transient
        outage into data loss.
        """
        listings = self._listings()
        down = [sid for sid, r in listings.items()
                if isinstance(r, BaseException)]
        if down:
            raise StoreError(
                f"gc refused: shard(s) {', '.join(sorted(down))} are "
                f"unreachable and may hold the only manifest referencing "
                f"live objects"
            )
        refs: set[str] = set(extra_refs)
        manifests = self._burst({
            sid: [("store_get_manifest", {"name": row["name"]}, b"")
                  for row in rows]
            for sid, rows in listings.items()
        })
        for sid, rows in listings.items():
            for row, r in zip(rows, manifests[sid]):
                if isinstance(r, BaseException):
                    raise StoreError(
                        f"gc refused: manifest {row['name']!r} on shard "
                        f"{sid} is unreadable: {r}"
                    ) from r
                refs.update(r[0]["manifest"]["tiles"])
        sweeps = self._ask(
            "store_gc", dict.fromkeys(self.map.shard_ids, {"refs": sorted(refs)})
        )
        per_shard: dict[str, dict[str, int]] = {}
        for sid, r in sweeps.items():
            if isinstance(r, BaseException):
                raise StoreError(f"gc sweep failed on shard {sid}: {r}")
            per_shard[sid] = {
                k: int(r[k]) for k in ("removed", "reclaimed_bytes", "kept")
            }
        return GCResult(
            removed=(),  # the digests stay on the shards; per_shard counts them
            reclaimed_bytes=sum(s["reclaimed_bytes"] for s in per_shard.values()),
            kept=sum(s["kept"] for s in per_shard.values()),
            per_shard=per_shard,
        )

    def status(self) -> dict[str, Any]:
        """Probe every shard's health op; refresh the per-shard gauges."""
        replies = self._ask("health", dict.fromkeys(self.map.shard_ids, {}))
        shards: dict[str, Any] = {}
        up = 0
        for sid in self.map.shard_ids:
            r = replies[sid]
            if isinstance(r, BaseException):
                shards[sid] = {"up": False, "error": str(r)}
            else:
                up += 1
                shards[sid] = {
                    "up": True,
                    "status": r.get("status"),
                    "store": r.get("store"),
                    "latency_ms": round(self._latency_ms.get(sid, 0.0), 3),
                    "failovers": self._failovers.get(sid, 0),
                }
        return {
            "replicas": self.map.replicas,
            "n_shards": len(self.map.shard_ids),
            "shards_up": up,
            "shards": shards,
        }

    def close(self) -> None:
        for c in self._clients.values():
            c.close()
        self._clients.clear()

    def __enter__(self) -> "ShardGateway":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
