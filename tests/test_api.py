"""The public API: every exported callable's annotations resolve, every
name a module lists in __all__ exists, and no module imports a name it
never uses."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import typing

import pytest

import momentforge

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(momentforge.__path__)
    if info.name != "__main__"
)
EXPORTED = sorted(
    name
    for name, obj in vars(momentforge).items()
    if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
)


@pytest.mark.parametrize("name", EXPORTED)
def test_annotations_resolve(name):
    obj = getattr(momentforge, name)
    typing.get_type_hints(obj)
    if inspect.isclass(obj):
        for _, method in inspect.getmembers(obj, inspect.isfunction):
            typing.get_type_hints(method)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"momentforge.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def _unused_imports(path):
    """Names a module imports and never references.  A name listed in
    __all__ counts as referenced, as does one whose import line (or the
    first line of its statement) is marked # noqa: F401."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any(
                "# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)
            )
            if name not in used and not marked:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_no_unused_imports():
    package = pathlib.Path(momentforge.__file__).parent
    unused = [
        entry
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert not unused
