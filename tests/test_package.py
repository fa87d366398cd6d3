"""The package surface: every name in `macdual.__all__` resolves lazily to
the object its home module defines."""

import importlib

import pytest

import macdual

HOMES = ("fields", "poly", "apolarity", "decomposition", "constructions",
         "normalform", "io")


def test_every_exported_name_is_its_home_modules_object():
    homes = {}
    for module in HOMES:
        mod = importlib.import_module("macdual." + module)
        for name in macdual.__all__:
            if getattr(mod, name, None) is not None and \
                    getattr(mod, name).__module__ == mod.__name__:
                homes[name] = mod
    assert set(homes) == set(macdual.__all__)
    for name, mod in homes.items():
        assert getattr(macdual, name) is getattr(mod, name), name


def test_star_import_and_dir():
    ns = {}
    exec("from macdual import *", ns)
    assert set(macdual.__all__) <= set(ns)
    assert set(macdual.__all__) <= set(dir(macdual))
    assert macdual.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        macdual.no_such_name
    assert not hasattr(macdual, "no_such_name")


def test_submodule_import_still_works():
    from macdual import apolarity
    assert apolarity is importlib.import_module("macdual.apolarity")
    assert apolarity.annihilator is macdual.annihilator
