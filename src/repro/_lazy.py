"""Lazy package exports (PEP 562).

Every package ``__init__`` under ``repro`` names its public API once, as
a map from submodule to the names it exports, and hands that map to
:func:`exports`.  Importing a package then loads no submodule; a
submodule is imported when one of its names is first read from the
package, so a command loads only the modules its code path runs.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def exports(
    namespace: Dict[str, Any], names: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package owning *namespace*.

    *namespace* is the package's ``globals()``; *names* maps each
    submodule, relative to the package and possibly dotted, to the
    public names it defines.  ``__all__`` lists them in map order.  The
    first read of a name imports its submodule and binds all of that
    submodule's names into *namespace*, so later reads skip
    ``__getattr__``.

    A name that equals its own submodule's name (``runtime.fingerprint``)
    is bound at once: the import system binds a submodule onto its
    package when it first loads it, which would otherwise shadow the
    name whenever some module imported the submodule directly.
    """
    package = namespace["__name__"]
    submodule_of = {name: sub for sub, group in names.items() for name in group}

    def __getattr__(name: str) -> Any:
        sub = submodule_of.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__ rather than importlib.import_module, which bypasses
        # the import statement's path and so hides the submodule from
        # ``python -X importtime``.
        qualified = f"{package}.{sub}"
        __import__(qualified)
        module = sys.modules[qualified]
        for each in names[sub]:
            namespace[each] = getattr(module, each)
        return namespace[name]

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(submodule_of))

    for sub, group in names.items():
        if sub in group:
            __getattr__(sub)
    return list(submodule_of), __getattr__, __dir__
