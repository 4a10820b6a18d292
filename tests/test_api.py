"""The public API: every exported callable's annotations resolve, and every
name a module lists in __all__ exists."""

import importlib
import inspect
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
