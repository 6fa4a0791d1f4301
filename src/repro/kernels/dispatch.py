"""Kernel dispatch registry — bit-exact fast paths for the lossless hot loops.

The lossless layer's reference implementations (the per-symbol Huffman
decode loop, the LZ77 hash-chain walk, the bit packer) are written for
clarity and live next to the wire-format definitions they implement.
This registry lets each of those call sites swap in a vectorized kernel
without touching the format code: the host module asks
:func:`resolve` for the active implementation of a named kernel and
calls whatever comes back.

The contract every fast kernel must honour:

* **Bit-exactness.**  For every input the reference accepts, the fast
  kernel returns an identical value — byte-identical streams on the
  encode side, bit-identical arrays on the decode side.  There is no
  "close enough" tier; the differential suite in
  ``tests/property/test_prop_kernels.py`` enforces equality across both
  dispatch modes.
* **Same failure taxonomy.**  Inputs the reference rejects must raise
  the same exception *class* from the fast kernel (``HuffmanError`` for
  invalid codes, ``BitstreamError`` for truncated payloads, ...).  Host
  modules run their validation *before* dispatching, so most error
  paths never reach the kernel at all.
* **No wire-format knowledge leaks.**  Kernels transform values; the
  container/stream layout stays owned by the host module.

Mode selection, in priority order:

1. :func:`forced` context manager (scoped override, used by tests and
   the differential harness),
2. :func:`set_mode` (process-wide explicit API),
3. the ``REPRO_KERNELS`` environment variable (``fast`` | ``reference``),
4. the default, ``fast``.

The environment variable is re-read on every resolve, so test harnesses
that monkeypatch ``os.environ`` see the change immediately; resolution
itself is two dict lookups and stays out of the hot loops (call sites
dispatch once per payload, not once per symbol).
"""

from __future__ import annotations

import importlib
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from ..errors import ConfigError

__all__ = [
    "MODES",
    "ENV_VAR",
    "register_kernel",
    "resolve",
    "active_mode",
    "set_mode",
    "forced",
    "kernel_table",
]

ENV_VAR = "REPRO_KERNELS"
MODES = ("fast", "reference")
_DEFAULT = "fast"

# Process-wide override installed by set_mode(); None defers to the
# environment.  forced() layers a thread-local override on top so
# concurrent tests (the service runs thread pools) don't race.
_process_mode: str | None = None
_local = threading.local()


class _Kernel:
    """One dispatchable hot loop: a reference callable + a lazy fast path.

    The fast implementation is stored as a ``"module:attr"`` string and
    imported on first use — kernel modules import their host module for
    shared tables, so eager imports would cycle.
    """

    __slots__ = ("name", "reference", "_fast_spec", "_fast")

    def __init__(self, name: str, reference: Callable[..., Any], fast_spec: str):
        self.name = name
        self.reference = reference
        self._fast_spec = fast_spec
        self._fast: Callable[..., Any] | None = None

    @property
    def fast(self) -> Callable[..., Any]:
        if self._fast is None:
            mod_name, _, attr = self._fast_spec.partition(":")
            module = importlib.import_module(mod_name)
            self._fast = getattr(module, attr)
        return self._fast


_REGISTRY: dict[str, _Kernel] = {}


def register_kernel(
    name: str, reference: Callable[..., Any], fast: str
) -> Callable[..., Any]:
    """Register a hot loop under ``name`` and return its reference impl.

    ``fast`` is a ``"package.module:function"`` spec resolved lazily.
    Host modules call this at import time::

        _decode_kernel = register_kernel(
            "huffman.decode", _decode_reference_many,
            fast="repro.kernels.huffman_fast:decode_symbols")

    Re-registering a name replaces the entry (keeps ``importlib.reload``
    of host modules working in notebooks).
    """
    _REGISTRY[name] = _Kernel(name, reference, fast)
    return reference


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ConfigError(
            f"unknown kernel mode {mode!r}: expected one of {'/'.join(MODES)}"
        )
    return mode


def active_mode() -> str:
    """The dispatch mode resolve() would use right now."""
    mode = getattr(_local, "mode", None)
    if mode is not None:
        return mode
    if _process_mode is not None:
        return _process_mode
    env = os.environ.get(ENV_VAR)
    if env is None or env == "":
        return _DEFAULT
    return _check_mode(env)


def set_mode(mode: str | None) -> None:
    """Install a process-wide dispatch mode; ``None`` defers to the env."""
    global _process_mode
    _process_mode = None if mode is None else _check_mode(mode)


@contextmanager
def forced(mode: str) -> Iterator[None]:
    """Force ``mode`` for the current thread inside the ``with`` block.

    This is the differential harness's tool: run the same call under
    ``forced("reference")`` and ``forced("fast")`` and compare bytes.
    """
    _check_mode(mode)
    prev = getattr(_local, "mode", None)
    _local.mode = mode
    try:
        yield
    finally:
        _local.mode = prev


def resolve(name: str) -> Callable[..., Any]:
    """Return the active implementation of kernel ``name``."""
    try:
        kernel = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}: registered kernels are "
            f"{sorted(_REGISTRY) or '(none)'}"
        ) from None
    if active_mode() == "fast":
        return kernel.fast
    return kernel.reference


def kernel_table() -> dict[str, str]:
    """Registered kernels and their fast-path specs (for docs/CLI)."""
    return {name: k._fast_spec for name, k in sorted(_REGISTRY.items())}
