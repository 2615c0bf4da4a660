import importlib

import pytest

import densebip


def test_public_names_resolve_to_their_module_objects():
    assert len(set(densebip.__all__)) == len(densebip.__all__)
    for module_name, names in densebip._EXPORTS.items():
        module = importlib.import_module(f"densebip.{module_name}")
        for name in names:
            value = getattr(densebip, name)
            assert value is getattr(module, name)
            # functions and classes are exported from the module that defines them
            assert getattr(value, "__module__", module.__name__) == module.__name__


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from densebip import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(densebip.__all__)


def test_dir_lists_every_public_name():
    assert set(densebip.__all__) <= set(dir(densebip))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        densebip.no_such_name
    assert not hasattr(densebip, "no_such_name")
