"""Store-wide consistency check: walk everything, report, optionally repair.

``fsck`` is the offline complement to the store's online recovery: where
:meth:`~repro.store.ArrayStore.recover` undoes the *known* in-flight
transaction recorded in the journal, ``fsck`` audits the whole layout
against the durability invariants and classifies every deviation:

========================  ========  =============================================
kind                      severity  meaning / repair
========================  ========  =============================================
``dangling-journal``      error     an interrupted put not yet rolled back —
                                    repair runs the rollback
``torn-journal``          error     unreadable or foreign-format journal entry —
                                    repair removes it, as recovery does
``bad-manifest``          error     manifest unparseable or structurally invalid
                                    — never auto-deleted (it may name real data)
``missing-object``        error     a manifest references an object that is gone
                                    — unrepairable without the data
``digest-mismatch``       error     object bytes do not hash to their name
``container-damage``      error     object fails container-v2 integrity
``decode-damage``         error     (``deep``) object does not decode to the
                                    tile shape and dtype the manifest promises
``orphan-object``         warning   no manifest references it — repair removes
``stale-tmp``             warning   ``.tmp-*`` crash leftover — repair removes
========================  ========  =============================================

A clean store yields an empty report; after any single crash the pair
``recover()`` (automatic on open) + ``fsck(repair=True)`` converges to
zero findings — the property the chaos harness asserts across hundreds
of seeded crash schedules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..codec.registry import get_codec
from ..errors import ContainerError, ReproError, StoreError
from ..io.container import Container
from ..parallel import band_outcomes
from ..tiling import TileGrid
from .store import _DIGEST_RE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import ArrayStore

__all__ = ["FsckFinding", "FsckReport", "run_fsck"]


@dataclass(frozen=True)
class FsckFinding:
    """One inconsistency: what, where, how bad, and whether it was fixed."""

    kind: str
    severity: str  # "error" | "warning"
    subject: str  # dataset name, object digest, or file name
    detail: str
    repaired: bool = False


@dataclass(frozen=True)
class FsckReport:
    """Everything one fsck pass saw."""

    findings: tuple[FsckFinding, ...]
    manifests_checked: int
    objects_checked: int
    deep: bool
    repair: bool
    actions: tuple[str, ...] = field(default=())

    @property
    def errors(self) -> tuple[FsckFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[FsckFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def repaired(self) -> int:
        return sum(1 for f in self.findings if f.repaired)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        mode = "deep" if self.deep else "fast"
        if self.ok:
            return (
                f"fsck ({mode}): OK — {self.manifests_checked} manifest(s), "
                f"{self.objects_checked} object(s), no findings"
            )
        kinds: dict[str, int] = {}
        for f in self.findings:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        parts = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return (
            f"fsck ({mode}): {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) [{parts}], "
            f"{self.repaired} repaired"
        )

    def assert_clean(self) -> None:
        if self.ok:
            return
        lines = [
            f"  {f.severity}: {f.kind} {f.subject}: {f.detail}"
            for f in self.findings[:8]
        ]
        raise StoreError(
            f"fsck found {len(self.findings)} problem(s):\n" + "\n".join(lines)
        )


def _check_object(
    store: "ArrayStore", digest: str, manifest: dict, tile_index: int
) -> FsckFinding | Container:
    """One referenced object's finding, or its parsed container."""
    path = store._object_path(digest)
    if not path.exists():
        return FsckFinding(
            "missing-object", "error", digest,
            f"referenced by {manifest['name']!r} tile {tile_index}, not on disk",
        )
    blob = path.read_bytes()
    if hashlib.sha256(blob).hexdigest() != digest:
        return FsckFinding(
            "digest-mismatch", "error", digest,
            f"content of {path.name} does not hash to its name "
            f"(referenced by {manifest['name']!r} tile {tile_index})",
        )
    try:
        return Container.from_bytes(blob)
    except ContainerError as exc:
        return FsckFinding("container-damage", "error", digest, str(exc))


def _decode_damage(
    manifest: dict, grid: TileGrid, tiles: dict[str, tuple[int, Container]]
) -> dict[str, FsckFinding]:
    """The deep pass over one manifest's intact ``digest -> (tile,
    container)`` objects: a finding for each that does not decode to
    its tile.  They decode as one batch; when it fails they decode one
    by one (:func:`repro.parallel.band_outcomes`), so each finding names
    its own tile."""
    digests = list(tiles)
    bands = band_outcomes(
        get_codec(str(manifest["codec"])), grid,
        [tiles[d][0] for d in digests], [tiles[d][1] for d in digests],
        manifest["dtype"],
    )
    return {
        d: FsckFinding(
            "decode-damage", "error", d,
            f"{type(band).__name__}: {band} (manifest "
            f"{manifest['name']!r} tile {tiles[d][0]})",
        )
        for d, band in zip(digests, bands)
        if isinstance(band, ReproError)
    }


def run_fsck(
    store: "ArrayStore", *, repair: bool = False, deep: bool = False
) -> FsckReport:
    """Walk the store; see the module docstring for the finding taxonomy.

    With ``repair=True``, repairable findings are fixed *and reported as
    repaired* — a second pass proves convergence by coming back empty.
    """
    findings: list[FsckFinding] = []
    actions: list[str] = []

    # 1. journal: anything here is an un-acked transaction.
    for jpath, entry in store._journal():
        if isinstance(entry, str):
            if repair:
                store._durable_unlink(jpath)
                actions.append(f"removed torn journal {jpath.name}")
            findings.append(FsckFinding(
                "torn-journal", "error", jpath.name,
                f"unreadable journal entry: {entry}", repaired=repair,
            ))
            continue
        if repair:
            store._rollback(entry)
            store._durable_unlink(jpath)
            actions.append(f"rolled back interrupted put of {entry['name']!r}")
        findings.append(FsckFinding(
            "dangling-journal", "error", jpath.name,
            f"interrupted put of {entry['name']!r} "
            + ("rolled back" if repair else "awaiting rollback"),
            repaired=repair,
        ))

    # 2. manifests and every object they reference.
    manifests_checked = 0
    checked: dict[str, FsckFinding | None] = {}
    referenced: set[str] = set()
    if store._manifest_dir.is_dir():
        for mpath in sorted(store._manifest_dir.glob("*.json")):
            manifests_checked += 1
            try:
                m = store.manifest(mpath.stem)
            except ReproError as exc:
                findings.append(FsckFinding(
                    "bad-manifest", "error", mpath.stem, str(exc),
                ))
                continue
            grid = None
            try:
                grid = store._grid(m)
            except ReproError as exc:
                findings.append(FsckFinding(
                    "bad-manifest", "error", mpath.stem,
                    f"tile grid invalid: {exc}",
                ))
            intact: dict[str, tuple[int, Container]] = {}
            for i, digest in enumerate(m["tiles"]):
                referenced.add(digest)
                if digest not in checked:
                    found = _check_object(store, digest, m, i)
                    if isinstance(found, FsckFinding):
                        checked[digest] = found
                    else:
                        checked[digest] = None
                        intact[digest] = (i, found)
            if deep and grid is not None and intact:
                checked.update(_decode_damage(m, grid, intact))
            for digest in m["tiles"]:
                if checked[digest] is not None:
                    findings.append(checked[digest])

    # 3. object area: orphans and crash leftovers.
    objects_checked = len(checked)
    if store._object_dir.is_dir():
        for path in sorted(store._object_dir.iterdir()):
            name = path.name
            if name.startswith(".tmp-"):
                continue  # handled with the other dirs below
            if not _DIGEST_RE.match(name):
                findings.append(FsckFinding(
                    "orphan-object", "warning", name,
                    "foreign file in the object area (left in place)",
                ))
                continue
            if name in referenced:
                continue
            objects_checked += 1
            if repair:
                store._durable_unlink(path)
                store.cache.discard(name)
                actions.append(f"removed orphan object {name[:12]}…")
            findings.append(FsckFinding(
                "orphan-object", "warning", name,
                "no manifest references it", repaired=repair,
            ))

    for path, _ in store._sweep_tmp(remove=repair):
        if repair:
            actions.append(f"removed stale temp {path.name}")
        findings.append(FsckFinding(
            "stale-tmp", "warning", path.name,
            f"crash leftover in {path.parent.name}/", repaired=repair,
        ))

    if repair:
        store._incr("store.fsck_repairs", sum(
            1 for f in findings if f.repaired
        ))
    return FsckReport(
        findings=tuple(findings),
        manifests_checked=manifests_checked,
        objects_checked=objects_checked,
        deep=deep,
        repair=repair,
        actions=tuple(actions),
    )
