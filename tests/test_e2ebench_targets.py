"""Every boundary the end-to-end benchmark's tracer wraps still exists.

``e2ebench/tracer.py`` wraps package attributes by module path and name
(:data:`TARGETS`).  Its own self-tests use fake targets, so a rename or
move in ``src/`` would silently leave a layer unmeasured under
``--trace 1``; this test resolves every real target the way
:meth:`Tracer.install` does.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

TRACER = (
    pathlib.Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.module}:{t.attr}" for t in TARGETS]
)
def test_target_resolves(target):
    owner = importlib.import_module(target.module)
    attr = target.attr
    if "." in attr:
        class_name, attr = attr.split(".")
        owner = inspect.getattr_static(owner, class_name)
    raw = inspect.getattr_static(owner, attr)
    assert callable(getattr(raw, "__func__", raw))
