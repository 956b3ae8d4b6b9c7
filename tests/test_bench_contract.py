"""The benchmark's tracer wraps names in ``repro``; they must exist and be restored.

``mipsbench/tracing.py`` replaces public functions and strategy methods
with timing wrappers while a traced run lasts.  A refactor that drops or
renames one of them would otherwise surface only when a traced benchmark
run fails.  This test only reads ``mipsbench/``.
"""
import importlib
import os

MIPSBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "mipsbench")


def test_tracer_patches_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(MIPSBENCH)
    tracing = importlib.import_module("tracing")
    names = [(owner, attr) for owner, attr, _, _ in tracing.LAYER_PATCHES]
    assert len(names) == 18
    originals = [owner.__dict__[attr] for owner, attr in names]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr in names]
    finally:
        tracer.uninstall()

    for (owner, attr), before, during in zip(names, originals, patched):
        assert during is not before, f"{owner.__name__}.{attr} was not patched"
        assert owner.__dict__[attr] is before, f"{owner.__name__}.{attr} was not restored"
