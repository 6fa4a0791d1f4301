"""Central codec registry: canonical variant names, aliases, dispatch.

Compressor classes register themselves with the :func:`register_codec`
decorator; consumers (the array store, the CLI, the online selector, the
tiled runner) resolve names and payload variants through the singleton
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

Registration is where a codec's declaration is checked, once: the
registry builds the canonical and every profile instance, derives the
:class:`~repro.codec.spec.PipelineSpec` from the stages they build and
validates it against Table 2.  Those instances are the ones
:meth:`CodecRegistry.create` hands out — compressors are frozen and
their stages stateless, so one per name serves every caller and thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..errors import ConfigError, ContainerError, decode_guard
from ..streams import FIELD_DIMS
from .pipeline import PipelineCompressor
from .spec import ENTROPY_BACKENDS, PipelineSpec, validate_spec

if TYPE_CHECKING:
    from ..io.container import Container

__all__ = [
    "CodecEntry",
    "CodecRegistry",
    "REGISTRY",
    "register_codec",
    "get_codec",
    "available_codecs",
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
    #: Derived at registration from the stages a
    #: :class:`PipelineCompressor` builds; other compressors may pass one.
    spec: PipelineSpec | None = None
    #: True when the codec's sweeps carry no cross-point feedback loop
    #: (dual-quant family), so one field's tile bands may legally fan out
    #: across a worker pool; the scheduler keys its tile routing on this.
    data_parallel: bool = False
    #: ``codes_entropy`` backends this codec's pipeline accepts — all of
    #: them when it holds that stage, none otherwise (derived likewise).
    #: Informational: surfaced by :meth:`CodecRegistry.describe` for the
    #: CLI and service listings.
    entropy_backends: tuple[str, ...] = ()
    #: Error-bound modes the codec honours — ``pw_rel`` iff its pipeline
    #: holds the log-transform stage (derived likewise; ``compress``
    #: refuses the rest with a typed error).
    modes: tuple[str, ...] = ()
    #: Field dimensionalities the codec accepts (derived likewise).
    dims: tuple[int, ...] = FIELD_DIMS


class CodecRegistry:
    """Name → compressor resolution and payload variant lookup."""

    def __init__(self) -> None:
        self._entries: dict[str, CodecEntry] = {}
        #: every resolvable name (canonical, alias, profile) -> canonical
        self._canonical: dict[str, str] = {}
        #: every resolvable name -> its shared compressor instance
        self._instances: dict[str, Any] = {}
        self._populated = False

    # -- registration ---------------------------------------------------

    def register(self, entry: CodecEntry) -> None:
        """Check a codec's declaration and make its names resolvable.

        Every drift between what a compressor declares and what it
        builds fails here — at import — not on a first ``compress``.
        """
        names = (entry.name, *entry.aliases, *entry.profiles)
        for taken in names:
            if taken in self._canonical:
                raise ContainerError(
                    f"codec name {taken!r} registered twice"
                )
        codec = entry.factory()
        profiles = {p: factory() for p, factory in entry.profiles.items()}
        if isinstance(codec, PipelineCompressor):
            spec = codec.pipeline_spec(entry.table2)
            for profile, instance in profiles.items():
                # a profile's payloads carry the canonical wire name, so
                # the canonical instance must be able to decode them
                if instance.pipeline_spec(entry.table2) != spec:
                    raise ConfigError(
                        f"profile {profile!r} builds different stages than "
                        f"{entry.name}: {spec.stage_names}"
                    )
            entry = replace(
                entry,
                spec=spec,
                entropy_backends=(
                    ENTROPY_BACKENDS if "codes_entropy" in spec.stage_names
                    else ()
                ),
                modes=codec.modes,
                dims=codec.dims,
            )
        if entry.spec is not None:
            validate_spec(entry.spec)
        self._entries[entry.name] = entry
        for name in names:
            self._canonical[name] = entry.name
            self._instances[name] = profiles.get(name, codec)

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
        try:
            return self._canonical[name]
        except KeyError:
            raise ContainerError(
                f"no compressor registered for variant {name!r}"
            ) from None

    def entry(self, name: str) -> CodecEntry:
        return self._entries[self.canonical(name)]

    def create(self, name: str) -> Any:
        """The shared compressor instance registered under any known name."""
        self.canonical(name)  # unknown names raise the registry's error
        return self._instances[name]

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
        return tuple(sorted(self._canonical))

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
                for n in self._canonical
                if n not in self._entries and n == n.lower()
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
                "modes": list(e.modes),
                "dims": list(e.dims),
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

    def open(self, payload: "bytes | Container") -> tuple["Container", str]:
        """A payload's verified container and its wire variant name.

        ``payload`` is the raw bytes (parsed and checksummed once, here)
        or a :class:`Container` a caller already parsed, so a caller that
        needs the header and the decoded field parses once.
        """
        from ..io.container import Container

        if isinstance(payload, Container):
            container = payload
        else:
            with decode_guard("container header"):
                container = Container.from_bytes(payload)
        variant = container.header.get("variant")
        if not isinstance(variant, str):
            raise ContainerError(
                f"container header carries no variant name: {variant!r}"
            )
        return container, variant


#: The process-wide registry every consumer dispatches through.
REGISTRY = CodecRegistry()


def register_codec(
    *,
    aliases: tuple[str, ...] = (),
    config: dict[str, Any] | None = None,
    profiles: dict[str, dict[str, Any]] | None = None,
    table2: str | None = None,
    data_parallel: bool = False,
    registry: CodecRegistry = REGISTRY,
):
    """Class decorator registering a compressor variant under ``cls.name``.

    ``config`` holds the constructor arguments of the canonical
    configuration (default: none) and ``profiles`` those of each named
    profile.  Registration happens at class-definition time, so any
    import of the variant module populates the registry.
    """

    def wrap(cls):
        registry.register(
            CodecEntry(
                name=cls.name,
                factory=partial(cls, **(config or {})),
                aliases=aliases,
                profiles={
                    profile: partial(cls, **kwargs)
                    for profile, kwargs in (profiles or {}).items()
                },
                table2=table2,
                data_parallel=data_parallel,
            )
        )
        return cls

    return wrap


def get_codec(name: str) -> Any:
    """The shared compressor registered under ``name`` (any alias)."""
    return REGISTRY.create(name)


def available_codecs() -> tuple[str, ...]:
    """Every name :func:`get_codec` accepts, sorted."""
    return REGISTRY.all_names()

