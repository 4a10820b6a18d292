"""The public API: every exported callable's annotations resolve."""

import inspect
import typing

import pytest

import momentforge

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
