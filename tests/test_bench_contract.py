"""The benchmark's tracer wraps names in ``repro``; they must exist and be restored.

``mipsbench/tracing.py`` replaces public functions and strategy methods
with timing wrappers while a traced run lasts.  A refactor that drops or
renames one of them would otherwise surface only when a traced benchmark
run fails, and one that calls a kernel through a name the tracer does not
patch would silently move its time out of ``linalg.select_s``.  These
tests only read ``mipsbench/``.
"""
import importlib
import os

from repro.core.recdex import RecdexIndex
from repro.indexes.lemp import LempIndex
from repro.mf.models import concentration_model

MIPSBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "mipsbench")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(MIPSBENCH)
    return importlib.import_module("tracing")


def test_tracer_patches_every_name_and_restores_it(monkeypatch):
    tracing = _tracing(monkeypatch)
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


def test_walk_selects_are_attributed_to_their_strategy(monkeypatch):
    """A pruning LEMP and RECDEX query each show their selects as child spans."""
    tracing = _tracing(monkeypatch)
    model = concentration_model(n_users=60, n_items=400, f=8, kappa=50.0, seed=3)
    lemp = LempIndex(model, bucket_size=16)
    recdex = RecdexIndex(model, n_clusters=4, block=16, walk_chunk=8)
    lemp.build()
    recdex.build()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        lemp.query_all(5)
        recdex.query_all(5)
    finally:
        tracer.uninstall()

    by_id = {s["id"]: s for s in tracer.spans}

    def strategy_of(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"].endswith(".query"):
                return span["name"]
        return None

    selects = [strategy_of(s) for s in tracer.spans if s["name"] == "linalg.topk_with_ids"]
    # Each walk selects its shared prefix, then merges at least one chunk.
    assert selects.count("lemp.query") >= 2
    assert selects.count("recdex.query") > len(recdex.clusters)
    assert None not in selects
    (query,) = [s for s in tracer.spans if s["name"] == "recdex.query"]
    assert 0 < query["attrs"]["items_scored"] < query["attrs"]["items_possible"]
    assert tracing.layer_sums(tracer.spans)["linalg.select_s"] > 0
