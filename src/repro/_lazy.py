"""PEP 562 lazy exports for the package facades.

A facade maps each public name to the module that defines it; the
module is imported on first access and the value cached in the
package namespace, so later lookups are plain attribute reads.  This
keeps ``import repro`` (and the CLI paths that only read a store or a
cachedb artifact) from loading numpy, the vectorized kernels and the
process pool.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """The ``(__getattr__, __dir__)`` pair for a package namespace."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
