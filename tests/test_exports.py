import importlib
import pkgutil

import pytest

import werner_teleport

# every submodule except __main__, which runs the CLI when imported
_MODULES = ["werner_teleport"] + [
    f"werner_teleport.{info.name}"
    for info in pkgutil.iter_modules(werner_teleport.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from werner_teleport import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
