"""Docstring-coverage enforcement for the audited public API surface.

The CI lint job additionally runs ruff's pydocstyle rules (``D1``/``D417``,
numpy convention) scoped to the same modules via
``[tool.ruff.lint.per-file-ignores]`` in ``pyproject.toml``; this test
keeps the guarantee verifiable without ruff installed.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

#: The audited modules: every public class/function (and public method of a
#: public class) defined in them must carry a real docstring.
AUDITED_MODULES = (
    "repro.api",
    "repro.api.cli",
    "repro.api.pipeline",
    "repro.api.registries",
    "repro.api.registry",
    "repro.api.spec",
    "repro.noise",
    "repro.noise.models",
    "repro.experiments.suite",
    "repro.serve.client",
    "repro.serve.jobs",
    "repro.serve.journal",
    "repro.serve.server",
    "repro.serve.worker",
)


def _public_members(module):
    """(qualified name, object) pairs that the audit covers in ``module``."""
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are audited where they are defined
        members.append((f"{module.__name__}.{name}", obj))
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                unwrapped = attr
                if isinstance(attr, (staticmethod, classmethod)):
                    unwrapped = attr.__func__
                elif isinstance(attr, property):
                    unwrapped = attr.fget
                elif isinstance(attr, (classmethod, staticmethod)):
                    unwrapped = attr.__func__
                if not callable(unwrapped) and not isinstance(attr, property):
                    continue
                if not inspect.isfunction(unwrapped):
                    continue
                members.append((f"{module.__name__}.{name}.{attr_name}", unwrapped))
    return members


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, module_name


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_public_members_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name
        for name, obj in _public_members(module)
        if not (inspect.getdoc(obj) and len(inspect.getdoc(obj).strip()) >= 10)
    ]
    assert not missing, f"public members without (real) docstrings: {missing}"
