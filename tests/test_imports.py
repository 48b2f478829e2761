import ast
import inspect
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pencilci"


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names that the module at path imports and never reads.

    A name is read when it appears as a name in the module's code or as a
    string in a literal __all__. A package's __init__ re-exports its public
    imports (its __all__ is every public name it holds), so those count as read.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    if path.name == "__init__.py":
        read |= {name for name in imported if not name.startswith("_")}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    assert _unused_imports(SRC / module) == []


def _private_imports(path: pathlib.Path) -> list[str]:
    """Private names that the module at path imports from another module of the package.

    A private name (one underscore, not a dunder) belongs to its module:
    another module that needs it should reach it through a public name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{alias.name} from .{node.module or ''} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_no_private_name(module):
    assert _private_imports(SRC / module) == []


def test_package_exports_each_module_surface():
    import pencilci
    from pencilci import census, continuation, detect, errors, linalg, pencil

    modules = {name for name, value in vars(pencilci).items() if inspect.ismodule(value)}
    declared = {
        name for module in (census, continuation, detect, linalg, pencil) for name in module.__all__
    }
    error_classes = {
        name for name, value in vars(errors).items()
        if inspect.isclass(value) and not name.startswith("_")
    }
    assert set(pencilci.__all__) - modules == declared | error_classes
