"""Every ``fairppm`` module declares ``__all__``, and each name in it exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fairppm

MODULES = sorted(f"fairppm.{m.name}" for m in pkgutil.iter_modules(fairppm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
