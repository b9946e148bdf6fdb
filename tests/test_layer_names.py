"""Every layer function the benchmark traces still exists in burstrx.

The benchmark's tracer reads a layer it cannot find as zero time, so a
refactor that renames or moves a traced function would quietly drop that
layer from the traced run.  This resolves each ``(module, attr)`` entry of
``perfbench/spans.py`` the way the tracer does.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


@pytest.mark.parametrize(
    "module_name, attr",
    [(module, attr) for module, attr, _, _ in spans.LAYER_FUNCTIONS],
    ids=[name for _, _, name, _ in spans.LAYER_FUNCTIONS],
)
def test_layer_function_resolves(module_name, attr):
    module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert name in vars(owner)
