import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_root_exports_every_module_name_once():
    # a public name is declared once, in its module's __all__; the root's
    # __all__ is their concatenation and star-import binds each name
    modules = [importlib.import_module(f"werner_teleport.{name}")
               for name in ("analytics", "density", "protocol", "states", "verify")]
    names = [n for module in modules for n in module.__all__]
    assert werner_teleport.__all__ == names
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from werner_teleport import *", namespace)
    assert all(namespace[n] is getattr(module, n) for module in modules for n in module.__all__)


def test_readme_library_block_runs_as_written():
    # every expression statement of the README's "Library" block, in order,
    # against the value its comment states
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    values = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            expression = compile(ast.Expression(statement.value), "README.md", "eval")
            values.append(eval(expression, namespace))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    *fidelities, broadcast = values
    assert fidelities == [pytest.approx(0.6, abs=1e-12)] * 4
    assert broadcast.tolist() == pytest.approx([0.5, 0.6, 0.9], abs=1e-15)
