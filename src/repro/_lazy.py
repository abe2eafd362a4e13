"""Lazy re-exports for the package roots (PEP 562).

Each package ``__init__`` lists, per defining submodule, the names it
re-exports, and imports nothing. A name's submodule is imported the
first time the name is read, so ``import repro.cli`` loads only the
modules the CLI itself imports, not the whole package tree.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import MappingProxyType
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for *package*.

    *table* maps each submodule of *package* to the names it defines and
    the package re-exports. The first read of a name imports its
    submodule and binds the value on the package, so later reads are
    plain attribute lookups. For a name that equals its submodule's name
    (``repro.core.timeline``) the binding replaces the module that the
    import bound there; a direct ``import repro.core.timeline`` before
    any read through the package leaves the module bound, as it would
    in any package.
    """
    owners = MappingProxyType(
        {name: module for module, names in table.items() for name in names}
    )

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owners.keys())

    return sorted(owners), __getattr__, __dir__
