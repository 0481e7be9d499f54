"""The benchmark's tracer (``perfbench/tracing.py``) rebinds library
functions at the module attributes listed in its ``SPANS`` and
``AGGREGATES`` tables; every one of them must exist, or tracing fails."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_every_traced_site_exists_and_is_callable(tracing):
    sites = [
        (mod, attr) for home, attr, users in tracing.SPANS.values() for mod in (home,) + users
    ]
    sites += [site for group in tracing.AGGREGATES.values() for site in group]
    assert sites
    missing = [(mod.__name__, attr) for mod, attr in sites if not callable(getattr(mod, attr, None))]
    assert not missing
    # a span wraps its defining module's function and binds the wrapper
    # in every user, so each user must hold that same function
    for home, attr, users in tracing.SPANS.values():
        assert all(getattr(mod, attr) is getattr(home, attr) for mod in users)
