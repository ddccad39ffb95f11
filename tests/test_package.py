import importlib
import pkgutil

import revival_lab


def test_every_all_entry_is_defined():
    """``from revival_lab.<module> import *`` for every module that has an
    ``__all__``: a name left there after its definition went away fails."""
    checked = set()
    for info in pkgutil.iter_modules(revival_lab.__path__):
        name = f"revival_lab.{info.name}"
        if hasattr(importlib.import_module(name), "__all__"):
            exec(f"from {name} import *", {})
            checked.add(info.name)
    assert {"revival", "spectral", "stellar", "transfer"} <= checked
