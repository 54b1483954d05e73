"""Single-qubit position-verification simulator and verification toolkit."""

import importlib
import sys

__version__ = "0.1.0"


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for a package whose names load with their
    home module (PEP 562).  ``exports`` maps each submodule to the names the
    package exports from it; ``__all__`` lists both, as ``dir()`` would after
    eager imports.  The first access to a name imports its module and stores
    the name in the package, so later lookups are plain attribute hits."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name in exports:  # a submodule not yet imported
            return importlib.import_module(f"{package}.{name}")
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{home[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted({*exports, *home}), __getattr__
