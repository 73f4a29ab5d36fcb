"""Lazy package namespaces (PEP 562).

A package ``__init__`` hands :func:`exports` a table from each defining
module to the names it exports.  A name's module is imported on the name's
first access, and the value is then bound in the package, so later accesses
are plain attribute reads.  ``import repro.x`` therefore costs only the
package itself; a process loads the modules of the names it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def exports(
    package: str, table: dict[str, str], *defined: str
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a module (absolute, or relative to ``package`` with one
    leading dot) to its exported names, separated by spaces.  ``defined``
    names the package's own public globals, which join ``__all__``.  Each
    name's absolute module is bound in the package as ``_origins``.
    """
    origins = {
        name: package + module if module.startswith(".") else module
        for module, names in table.items()
        for name in names.split()
    }
    namespace = sys.modules[package].__dict__
    namespace["_origins"] = origins

    def __getattr__(name: str) -> Any:
        try:
            module = origins[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origins.keys())

    return __getattr__, __dir__, sorted([*origins, *defined])
