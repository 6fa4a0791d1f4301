"""Central codec registry: canonical variant names, aliases, dispatch.

Compressor classes register themselves with the :func:`register_codec`
decorator; consumers (the array store, the CLI, the online selector, the
tiled runner) resolve names and payloads through the singleton
:data:`REGISTRY` instead of hard-coded factory dicts.

Three kinds of names resolve:

* the **canonical** wire name a payload header carries (``"SZ-1.4"``,
  ``"waveSZ"``, ...),
* **aliases** — alternate spellings mapped onto the canonical entry,
  including the Table 2 row names where they differ from the wire name
  (``"SZ-2.0+"`` → ``"SZ-2.0"``) and the CLI short names (``"sz14"``),
* **profiles** — aliases with their *own factory configuration* (e.g.
  ``"wavesz-g"`` builds waveSZ without the Huffman pass).  A profile's
  payloads still carry the canonical wire name, so decode dispatch is
  unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from ..errors import ContainerError, decode_guard
from .spec import PipelineSpec, validate_spec

if TYPE_CHECKING:
    from ..io.container import Container

__all__ = [
    "CodecEntry",
    "CodecRegistry",
    "REGISTRY",
    "register_codec",
    "get_codec",
    "available_codecs",
    "decode_payload",
    "peek_variant",
]

Factory = Callable[[], Any]


@dataclass(frozen=True)
class CodecEntry:
    """One registered compressor variant."""

    name: str  # canonical wire name (payload header "variant")
    factory: Factory
    aliases: tuple[str, ...] = ()
    profiles: dict[str, Factory] = field(default_factory=dict)
    table2: str | None = None  # VARIANTS row this variant implements
    spec: PipelineSpec | None = None
    #: True when the codec's sweeps carry no cross-point feedback loop
    #: (dual-quant family), so one field's tile bands may legally fan out
    #: across a worker pool; the scheduler keys its tile routing on this.
    data_parallel: bool = False
    #: ``codes_entropy`` backends this codec's pipeline accepts (empty for
    #: codecs without the stage).  Informational: surfaced by
    #: :meth:`CodecRegistry.describe` for the CLI and service listings.
    entropy_backends: tuple[str, ...] = ()


class CodecRegistry:
    """Name → compressor resolution and payload decode dispatch."""

    def __init__(self) -> None:
        self._entries: dict[str, CodecEntry] = {}
        self._aliases: dict[str, str] = {}
        self._profiles: dict[str, tuple[str, Factory]] = {}
        self._populated = False

    # -- registration ---------------------------------------------------

    def register(self, entry: CodecEntry) -> None:
        if entry.spec is not None:
            validate_spec(entry.spec)
        for taken in (entry.name, *entry.aliases, *entry.profiles):
            if taken in self._entries or taken in self._aliases \
                    or taken in self._profiles:
                raise ContainerError(
                    f"codec name {taken!r} registered twice"
                )
        self._entries[entry.name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = entry.name
        for profile, factory in entry.profiles.items():
            self._profiles[profile] = (entry.name, factory)

    def _ensure_populated(self) -> None:
        """Import the compressor packages so their decorators have run.

        Local imports keep this module cycle-free; idempotent because
        registration happens at class-definition time.
        """
        if self._populated:
            return
        from .. import core, ghostsz, sz, zfp  # noqa: F401

        self._populated = True

    # -- resolution -----------------------------------------------------

    def canonical(self, name: str) -> str:
        """Resolve any registered name to its canonical wire name."""
        self._ensure_populated()
        if name in self._entries:
            return name
        if name in self._aliases:
            return self._aliases[name]
        if name in self._profiles:
            return self._profiles[name][0]
        raise ContainerError(f"no compressor registered for variant {name!r}")

    def entry(self, name: str) -> CodecEntry:
        return self._entries[self.canonical(name)]

    def is_data_parallel(self, name: str) -> bool:
        """Whether ``name`` resolves to a wavefront-free (dp) codec."""
        return self.entry(name).data_parallel

    def create(self, name: str) -> Any:
        """Instantiate the compressor registered under any known name."""
        self._ensure_populated()
        if name in self._profiles:
            return self._profiles[name][1]()
        return self._entries[self.canonical(name)].factory()

    def __contains__(self, name: str) -> bool:
        try:
            self.canonical(name)
        except ContainerError:
            return False
        return True

    def __iter__(self) -> Iterator[CodecEntry]:
        self._ensure_populated()
        return iter(self._entries.values())

    def names(self) -> tuple[str, ...]:
        """Canonical wire names, registration order."""
        self._ensure_populated()
        return tuple(self._entries)

    def all_names(self) -> tuple[str, ...]:
        """Every resolvable name: canonical + aliases + profiles, sorted."""
        self._ensure_populated()
        return tuple(
            sorted({*self._entries, *self._aliases, *self._profiles})
        )

    def short_names(self) -> tuple[str, ...]:
        """The lowercase aliases and profiles — the CLI vocabulary.

        By convention every variant registers one all-lowercase alias
        (``"sz14"``, ``"zfp-like"``); wire names and Table 2 row names
        carry uppercase and are excluded, keeping ``--variant`` choices
        short and shell-friendly.
        """
        self._ensure_populated()
        return tuple(
            sorted(
                n
                for n in {*self._aliases, *self._profiles}
                if n == n.lower()
            )
        )

    def describe(self) -> list[dict[str, Any]]:
        """A JSON-serializable listing of every registered variant.

        One dict per canonical entry with its aliases, profile names and
        Table 2 row — the payload of the service's ``codecs`` op and the
        ``wavesz codecs`` command.
        """
        self._ensure_populated()
        return [
            {
                "name": e.name,
                "aliases": list(e.aliases),
                "profiles": sorted(e.profiles),
                "table2": e.table2,
                "data_parallel": e.data_parallel,
                "entropy_backends": list(e.entropy_backends),
            }
            for e in self._entries.values()
        ]

    def specs(self) -> tuple[PipelineSpec, ...]:
        """The pipeline specs of all registered variants that declare one."""
        self._ensure_populated()
        return tuple(
            e.spec for e in self._entries.values() if e.spec is not None
        )

    # -- payload dispatch -----------------------------------------------

    def open(self, payload: bytes) -> tuple["Container", str]:
        """Parse and verify a container payload once; returns it with
        its wire variant name, for decoders that take the parsed form."""
        from ..io.container import Container

        with decode_guard("container header"):
            container = Container.from_bytes(payload)
        variant = container.header.get("variant")
        if not isinstance(variant, str):
            raise ContainerError(
                f"container header carries no variant name: {variant!r}"
            )
        return container, variant

    def peek_variant(self, payload: bytes) -> str:
        """Read the wire variant name out of a container payload."""
        return self.open(payload)[1]

    def decode(self, payload: bytes) -> np.ndarray:
        """Decompress a payload, dispatching on its header variant."""
        container, variant = self.open(payload)
        return self.create(variant).decompress(container)


#: The process-wide registry every consumer dispatches through.
REGISTRY = CodecRegistry()


def register_codec(
    *,
    name: str,
    aliases: tuple[str, ...] = (),
    profiles: dict[str, Factory] | None = None,
    table2: str | None = None,
    spec: PipelineSpec | None = None,
    factory: Factory | None = None,
    data_parallel: bool = False,
    entropy_backends: tuple[str, ...] = (),
    registry: CodecRegistry = REGISTRY,
):
    """Class decorator registering a compressor variant.

    ``factory`` defaults to the class itself (zero-arg construction);
    pass an explicit factory when the canonical configuration needs
    arguments.  Registration happens at class-definition time, so any
    import of the variant module populates the registry.
    """

    def wrap(cls):
        registry.register(
            CodecEntry(
                name=name,
                factory=factory if factory is not None else cls,
                aliases=aliases,
                profiles=dict(profiles or {}),
                table2=table2,
                spec=spec,
                data_parallel=data_parallel,
                entropy_backends=entropy_backends,
            )
        )
        return cls

    return wrap


def get_codec(name: str) -> Any:
    """Instantiate the compressor registered under ``name`` (any alias)."""
    return REGISTRY.create(name)


def available_codecs() -> tuple[str, ...]:
    """Every name :func:`get_codec` accepts, sorted."""
    return REGISTRY.all_names()


def peek_variant(payload: bytes) -> str:
    """Read the wire variant name out of a container payload."""
    return REGISTRY.peek_variant(payload)


def decode_payload(payload: bytes) -> np.ndarray:
    """One-call decode: dispatch on the payload's variant header."""
    return REGISTRY.decode(payload)
