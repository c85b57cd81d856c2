"""Every name a module exports through __all__ exists in it."""

import importlib
import pkgutil

import pytest

import skeldp


@pytest.mark.parametrize("name", sorted(
    f"skeldp.{m.name}" for m in pkgutil.iter_modules(skeldp.__path__)))
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
