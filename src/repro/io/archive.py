"""Snapshot archives: many compressed fields in one file.

A simulation snapshot is a set of named fields (Table 4: 79 CESM fields,
20 ISABEL fields, ...).  The archive wraps one compressed payload per
field with a manifest, so a whole snapshot ships as a single artifact and
individual fields extract without touching the rest — the unit of storage
the artifact's per-field ``*.sz`` files imply, made explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from ..errors import ContainerError, ReproError, decode_guard
from .container import Container

if TYPE_CHECKING:  # annotation-only: the codec layer imports this package
    from ..codec.pipeline import Compressor

__all__ = ["Archive", "ArchiveEntry", "FieldDamage", "ExtractionResult"]


@dataclass(frozen=True)
class ArchiveEntry:
    """Manifest row for one field."""

    name: str
    variant: str
    shape: tuple[int, ...]
    ratio: float
    compressed_bytes: int


@dataclass(frozen=True)
class FieldDamage:
    """Why one field of a snapshot could not be recovered."""

    name: str
    variant: str
    stage: str  # "manifest" | "container" | "decode"
    error: str


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of :meth:`Archive.extract_all`: what survived, what did not."""

    fields: dict[str, np.ndarray] = field(default_factory=dict)
    damage: tuple[FieldDamage, ...] = ()
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.damage and not self.problems


class Archive:
    """Build / read a multi-field compressed snapshot."""

    _MANIFEST_KEY = "fields"

    def __init__(self) -> None:
        self._container = Container(header={self._MANIFEST_KEY: []})
        self._damaged_sections: frozenset[str] = frozenset()
        self._parse_problems: tuple[str, ...] = ()

    def add_field(self, name: str, compressed: Any) -> None:
        """Add one compressed field (a CompressedField)."""
        if any(e["name"] == name for e in self._container.header[self._MANIFEST_KEY]):
            raise ContainerError(f"archive already holds field {name!r}")
        self._container.add(f"field:{name}", compressed.payload)
        self._container.header[self._MANIFEST_KEY].append(
            {
                "name": name,
                "variant": compressed.variant,
                "shape": list(compressed.shape),
                "ratio": compressed.stats.ratio,
                "compressed_bytes": compressed.stats.compressed_bytes,
            }
        )

    def to_bytes(self) -> bytes:
        return self._container.to_bytes()

    # -- reading -----------------------------------------------------------

    @classmethod
    def from_bytes(cls, blob: bytes, *, salvage: bool = False) -> "Archive":
        """Parse a snapshot archive.

        With ``salvage=True`` a partially damaged stream still opens:
        sections with checksum failures are remembered (and reported by
        :meth:`extract_all`) instead of raising, as long as the header
        framing itself is readable.
        """
        arch = cls.__new__(cls)
        arch._damaged_sections = frozenset()
        arch._parse_problems = ()
        if salvage:
            result = Container.salvage(blob)
            arch._container = result.container
            arch._damaged_sections = result.damaged
            arch._parse_problems = result.problems
        else:
            arch._container = Container.from_bytes(blob)
        if cls._MANIFEST_KEY not in arch._container.header:
            raise ContainerError("not a snapshot archive (no manifest)")
        if not isinstance(arch._container.header[cls._MANIFEST_KEY], list):
            raise ContainerError("corrupt archive manifest")
        return arch

    @property
    def entries(self) -> list[ArchiveEntry]:
        with decode_guard("archive manifest"):
            return [
                ArchiveEntry(
                    name=e["name"],
                    variant=e["variant"],
                    shape=tuple(e["shape"]),
                    ratio=float(e["ratio"]),
                    compressed_bytes=int(e["compressed_bytes"]),
                )
                for e in self._container.header[self._MANIFEST_KEY]
            ]

    @property
    def field_names(self) -> list[str]:
        return [e.name for e in self.entries]

    def payload(self, name: str) -> bytes:
        """Raw compressed payload of one field (random access)."""
        return self._container.get(f"field:{name}")

    def extract(self, name: str, compressor: Compressor) -> np.ndarray:
        """Decompress one field without touching the others."""
        entry = next((e for e in self.entries if e.name == name), None)
        if entry is None:
            raise ContainerError(f"archive has no field {name!r}")
        if entry.variant != compressor.name:
            raise ContainerError(
                f"field {name!r} was compressed with {entry.variant!r}, "
                f"not {compressor.name!r}"
            )
        if f"field:{name}" in self._damaged_sections:
            raise ContainerError(f"field {name!r} failed its checksum")
        return compressor.decompress(self.payload(name))

    def extract_all(
        self,
        resolver: Callable[[str], Compressor] | None = None,
        *,
        strict: bool = True,
    ) -> ExtractionResult:
        """Decompress every field, with per-field damage recovery.

        ``resolver`` maps a manifest variant name to a compressor instance
        (default: the central codec registry,
        :func:`repro.codec.registry.get_codec`).  With ``strict=True`` the
        first damaged field raises; with ``strict=False`` every intact
        field is returned in ``ExtractionResult.fields`` and each failure
        becomes a structured :class:`FieldDamage` row instead of killing
        the whole snapshot.
        """
        if resolver is None:
            from ..codec.registry import get_codec as resolver

        fields: dict[str, np.ndarray] = {}
        damage: list[FieldDamage] = []

        def fail(name: str, variant: str, stage: str, exc: Exception) -> None:
            if strict:
                raise exc
            damage.append(
                FieldDamage(
                    name=name, variant=variant, stage=stage, error=str(exc)
                )
            )

        raw_manifest = self._container.header[self._MANIFEST_KEY]
        for i, raw in enumerate(raw_manifest):
            try:
                with decode_guard("archive manifest entry"):
                    name = str(raw["name"])
                    variant = str(raw["variant"])
            except ContainerError as exc:
                fail(f"<manifest entry {i}>", "?", "manifest", exc)
                continue
            section = f"field:{name}"
            if section in self._damaged_sections:
                fail(
                    name,
                    variant,
                    "container",
                    ContainerError(f"field {name!r} failed its checksum"),
                )
                continue
            if not self._container.has(section):
                fail(
                    name,
                    variant,
                    "container",
                    ContainerError(f"field {name!r} payload section missing"),
                )
                continue
            try:
                compressor = resolver(variant)
                fields[name] = compressor.decompress(
                    self._container.get(section)
                )
            except ReproError as exc:
                fail(name, variant, "decode", exc)
        return ExtractionResult(
            fields=fields,
            damage=tuple(damage),
            problems=self._parse_problems,
        )

    @classmethod
    def build(
        cls,
        fields: Mapping[str, np.ndarray],
        compressor: Compressor,
        eb: float = 1e-3,
        mode: str = "vr_rel",
    ) -> "Archive":
        """Compress every field of a snapshot with one compressor."""
        arch = cls()
        for name, data in fields.items():
            arch.add_field(name, compressor.compress(data, eb, mode))
        return arch
