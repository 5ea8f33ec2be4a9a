"""Every exported name resolves: a name left in an ``__all__`` after its object is removed
breaks ``from adjrmat import *`` and no other test."""

import importlib
import pkgutil

import pytest

import adjrmat

MODULES = ["adjrmat"] + [f"adjrmat.{info.name}" for info in pkgutil.iter_modules(adjrmat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_exports_are_checked():
    assert "adjrmat.spinchain" in MODULES and "adjrmat.adjoint_tensor" in MODULES
    assert adjrmat.__all__
