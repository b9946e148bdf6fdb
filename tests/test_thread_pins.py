"""The root ``conftest.py`` pins the BLAS threads before numpy loads."""

import os

import pytest

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def root_conftest(pytestconfig):
    path = str(pytestconfig.rootpath / "conftest.py")
    plugins = pytestconfig.pluginmanager.get_plugins()
    return next(p for p in plugins if getattr(p, "__file__", None) == path)


@pytest.mark.parametrize("name", THREAD_VARS)
def test_thread_count_is_set(name):
    assert int(os.environ[name]) >= 1


def test_pinned_before_numpy_loads(root_conftest):
    assert root_conftest.NUMPY_LOADED_BEFORE_PIN is False
