"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names lists them in
one table instead of importing every submodule up front::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".engine": ("BnBResult", "BranchAndBound"),
        ".params": ("BnBParameters",),
    })

``import repro`` then loads nothing beyond the package itself; the
first access to a name imports the submodule that defines it, so a
``repro solve`` that never touches numpy, the HTTP monitor or the
process pool never pays for them.  Every name resolves to the very
object its submodule defines.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(module_name: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``module_name``, re-exporting ``table``.

    ``table`` maps each module, relative to ``module_name``'s package,
    to the public names it defines.  A resolved name is stored in the
    module's namespace, so later lookups never reach ``__getattr__``.
    """
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        this = sys.modules[module_name]
        value = getattr(importlib.import_module(module, this.__package__), name)
        setattr(this, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[module_name]).keys() | source.keys())

    return __getattr__, __dir__
