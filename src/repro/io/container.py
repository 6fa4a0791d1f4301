"""Compressed-stream container.

A compressed field is a set of named byte sections (quant codes, border
stream, outlier stream, Huffman table, ...) plus a small typed header
(variant name, shape, dtype, error bound).  The format is deliberately
simple — length-prefixed sections — because its job is bookkeeping, not
entropy: all actual compression happens before bytes reach the container.

Format v2 (default) adds end-to-end integrity: a CRC32 digest over the
header framing, a CRC32 per section (covering the section name *and*
payload, so payloads cannot be silently re-homed), an end-of-stream
sentinel, and a whole-stream CRC32, so a single flipped bit anywhere in
the stream is detected.  v1 streams (written before the integrity layer)
are still read bit-exactly.

Layout (little-endian):

```
magic  "WSZC"            4 bytes
version u16              container format version (1 or 2)
header_json_len u32      UTF-8 JSON header
header_json
n_sections u16
header_crc u32           v2 only: CRC32 of every byte above
per section:
    name_len u8, name
    payload_len u64
    payload_crc u32      v2 only: CRC32 of name + payload
    payload
sentinel "WSZE"          v2 only
stream_crc u32           v2 only: CRC32 of every byte above
```

``from_bytes`` verifies all framing, lengths and checksums, rejects
trailing garbage, and raises only :class:`ContainerError` (or its
:class:`ChecksumError` subtype) — never ``struct.error`` / ``IndexError``
/ ``UnicodeDecodeError``.  :meth:`Container.scan` is the non-raising
variant that produces a structured damage report.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

from ..errors import ChecksumError, ContainerError

__all__ = [
    "Container",
    "ContainerSection",
    "ContainerReport",
    "SectionStatus",
]

_MAGIC = b"WSZC"
_SENTINEL = b"WSZE"
_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


@dataclass(frozen=True)
class ContainerSection:
    name: str
    payload: bytes

    def __post_init__(self) -> None:
        if not self.name or len(self.name) > 255:
            raise ContainerError(f"bad section name {self.name!r}")


@dataclass(frozen=True)
class SectionStatus:
    """Per-section verdict from :meth:`Container.scan`."""

    name: str
    length: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ContainerReport:
    """Structured integrity report for a container stream."""

    ok: bool
    version: int
    n_sections: int
    sections: tuple[SectionStatus, ...]
    problems: tuple[str, ...]


class _Cursor:
    """Bounds-checked reader over a byte blob; raises only ContainerError."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.pos

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.pos + n > len(self.blob):
            raise ContainerError(f"truncated container: {what}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


@dataclass
class Container:
    """An ordered collection of named sections plus a JSON-typed header."""

    header: dict
    sections: list[ContainerSection] = field(default_factory=list)
    version: int = _VERSION

    def add(self, name: str, payload: bytes) -> None:
        if any(s.name == name for s in self.sections):
            raise ContainerError(f"duplicate section {name!r}")
        self.sections.append(ContainerSection(name, payload))

    def get(self, name: str) -> bytes:
        for s in self.sections:
            if s.name == name:
                return s.payload
        raise ContainerError(f"missing section {name!r}")

    def has(self, name: str) -> bool:
        return any(s.name == name for s in self.sections)

    @property
    def payload_bytes(self) -> int:
        """Total size of section payloads (excludes header/framing)."""
        return sum(len(s.payload) for s in self.sections)

    def to_bytes(self) -> bytes:
        """Serialize as format v2, whatever version the stream was read from."""
        header_json = json.dumps(self.header, sort_keys=True).encode()
        out = bytearray(_MAGIC)
        out += struct.pack("<HI", _VERSION, len(header_json))
        out += header_json
        out += struct.pack("<H", len(self.sections))
        out += struct.pack("<I", zlib.crc32(out))
        for s in self.sections:
            name_b = s.name.encode()
            out += struct.pack("<B", len(name_b))
            out += name_b
            out += struct.pack("<Q", len(s.payload))
            out += struct.pack("<I", zlib.crc32(s.payload, zlib.crc32(name_b)))
            out += s.payload
        out += _SENTINEL
        out += struct.pack("<I", zlib.crc32(out))
        return bytes(out)

    # -- reading -----------------------------------------------------------

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Container":
        """Parse and fully verify a container stream (strict)."""
        container, damaged, problems = cls._parse(blob, strict=True)
        assert not damaged and not problems  # strict mode raises instead
        return container

    @classmethod
    def scan(cls, blob: bytes) -> ContainerReport:
        """Non-raising integrity check producing a structured report."""
        try:
            container, damaged, problems = cls._parse(blob, strict=False)
        except ContainerError as exc:
            return ContainerReport(
                ok=False,
                version=0,
                n_sections=0,
                sections=(),
                problems=(str(exc),),
            )
        sections = tuple(
            SectionStatus(
                name=s.name,
                length=len(s.payload),
                ok=s.name not in damaged,
                detail="checksum mismatch" if s.name in damaged else "",
            )
            for s in container.sections
        )
        return ContainerReport(
            ok=not damaged and not problems,
            version=container.version,
            n_sections=len(container.sections),
            sections=sections,
            problems=tuple(problems),
        )

    @classmethod
    def _parse(
        cls, blob: bytes, *, strict: bool
    ) -> tuple["Container", list[str], list[str]]:
        """Shared parser.  ``strict`` raises at the first problem; lenient
        mode records checksum problems (continuing) and framing problems
        (terminal) instead.  Framing/structure errors before the header is
        decoded always raise — there is nothing left to report on.
        """
        damaged: list[str] = []
        problems: list[str] = []

        def flag(msg: str, *, checksum: bool = False) -> None:
            if strict:
                raise ChecksumError(msg) if checksum else ContainerError(msg)
            problems.append(msg)

        cur = _Cursor(blob)
        if cur.take(4, "magic") != _MAGIC:
            raise ContainerError("bad container magic")
        (version,) = cur.unpack("<H", "version field")
        if version not in _SUPPORTED_VERSIONS:
            raise ContainerError(f"unsupported container version {version}")
        (hlen,) = cur.unpack("<I", "header length")
        hbytes = cur.take(hlen, "header JSON")
        try:
            header = json.loads(hbytes.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError("corrupt container header") from exc
        if not isinstance(header, dict):
            raise ContainerError("container header is not a JSON object")
        (n_sections,) = cur.unpack("<H", "section count")
        if version >= 2:
            crc_end = cur.pos
            (hcrc,) = cur.unpack("<I", "header checksum")
            if hcrc != zlib.crc32(blob[:crc_end]):
                if strict:
                    raise ChecksumError("container header checksum mismatch")
                problems.append("container header checksum mismatch")

        sections: list[ContainerSection] = []
        seen: set[str] = set()
        try:
            for k in range(n_sections):
                (nlen,) = cur.unpack("<B", f"section {k} name length")
                name_b = cur.take(nlen, f"section {k} name")
                try:
                    name = name_b.decode()
                except UnicodeDecodeError as exc:
                    raise ContainerError(
                        f"section {k} name is not valid UTF-8"
                    ) from exc
                (plen,) = cur.unpack("<Q", f"section {name!r} length")
                stored_crc = None
                if version >= 2:
                    (stored_crc,) = cur.unpack(
                        "<I", f"section {name!r} checksum"
                    )
                payload = bytes(cur.take(plen, f"section {name!r} payload"))
                if name in seen:
                    raise ContainerError(f"duplicate section {name!r}")
                seen.add(name)
                if stored_crc is not None and stored_crc != zlib.crc32(
                    payload, zlib.crc32(name_b)
                ):
                    if strict:
                        raise ChecksumError(
                            f"section {name!r} checksum mismatch"
                        )
                    damaged.append(name)
                sections.append(ContainerSection(name, payload))
            if version >= 2:
                if cur.take(4, "end-of-stream sentinel") != _SENTINEL:
                    raise ContainerError("missing end-of-stream sentinel")
                crc_end = cur.pos
                (scrc,) = cur.unpack("<I", "stream checksum")
                if scrc != zlib.crc32(blob[:crc_end]):
                    flag("stream checksum mismatch", checksum=True)
            if cur.pos != len(blob):
                flag(
                    f"{len(blob) - cur.pos} bytes of trailing garbage "
                    "after container"
                )
        except ContainerError as exc:
            if strict:
                raise
            problems.append(str(exc))
        container = cls(header=header, sections=sections, version=version)
        return container, damaged, problems
