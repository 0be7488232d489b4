import os
from dataclasses import replace

import numpy as np
import pytest

from parapos.runner import run_scenario
from parapos.scenarios import get_scenario


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped.

    ``os.waitpid(-1, os.WNOHANG)`` raises ``ChildProcessError`` only when the
    process has no child at all; it reaps a finished one.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process"
                + (f" (reaped {pid} here)" if pid else " that still runs"))


@pytest.fixture(scope="session")
def scenario_run(tmp_path_factory):
    """Run a library scenario once per session and cache its artifacts.

    Returns a callable ``(name, seed=None) -> (manifest, out_dir)``.  Tests
    that need a *fresh* run (determinism checks) should call ``run_scenario``
    themselves instead of going through the cache.
    """
    cache = {}

    def _run(name, seed=None):
        key = (name, seed)
        if key not in cache:
            base = tmp_path_factory.mktemp(f"run_{name.lower()}")
            manifest = run_scenario(get_scenario(name), out_dir=str(base / name), seed=seed)
            cache[key] = (manifest, base / name)
        return cache[key]

    return _run


@pytest.fixture
def nan_above():
    """``(spec, level) -> spec`` whose source returns NaN where any u > level."""

    def _wrap(spec, level):
        inner = spec.coefficients.source

        def source(t, x, u, p):
            c = np.asarray(inner(t, x, u, p), dtype=float)
            broken = (np.asarray(u) > level).any(axis=-1, keepdims=True)
            return np.where(broken, np.nan, c)

        return replace(spec, coefficients=replace(spec.coefficients, source=source))

    return _wrap
