"""Lazy package exports (PEP 562): a package root names its public API
without importing it.

Every ``repro`` package ``__init__`` declares which of its modules
defines each exported name and takes its ``__all__``, ``__getattr__``
and ``__dir__`` from :func:`lazy_exports`.  The first access to a name
imports the defining module and binds the name in the package, so every
later lookup is a plain attribute read.  ``import repro`` therefore loads
no subsystem, and a command loads only the modules it runs:
``python -m repro --help`` imports no simulator code, and a warm ``run``
never loads the fuzzer, the service or the worker fabric.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the module ``package``.

    ``exports`` maps a module, relative to the package (``".reports"``)
    or absolute, to the names it defines; the key ``"."`` lists names
    that are submodules of the package themselves.  ``__all__`` is every
    exported name, in that order.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
