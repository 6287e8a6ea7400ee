"""The benchmark's tracer (bench/tracing.py) installs over the names it binds.

The tracer rebinds public functions and two private names of udortho in
place; if one of them is renamed or deleted, `install` fails.  This test
installs it, runs a little work, pushes a few frames through `beta_k`,
and checks that the counters moved and that `uninstall` put every name back.
"""

import sys
from pathlib import Path

import numpy as np

import udortho.cli  # noqa: F401 - every module the tracer rebinds names in
from udortho import estimator, grassmann
from udortho.geometry import builtin
from udortho.orthogonal import OrthoSequence, default_ortho_spec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bindings():
    """Every name of every udortho module, plus OrthoSequence's attributes."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "udortho" or modname.startswith("udortho."):
            out.update({(modname, attr): value for attr, value in vars(mod).items()})
    out.update({("OrthoSequence", attr): value for attr, value in vars(OrthoSequence).items()})
    return out


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = bindings()
        OrthoSequence(default_ortho_spec(4, veech=False)).take(600)
        # through the module: the tracer rebinds names in udortho's modules only
        estimator.run(estimator.ExperimentSpec(builtin("3-cube"), 3, 1, 200, "random", seed=1))
        frames = OrthoSequence(default_ortho_spec(4)).take(5)
        for g in frames:
            grassmann.beta_k(g, 2)
        grassmann.beta_k(frames, 2)
    finally:
        tracer.uninstall()
    after = bindings()

    rebound = [key for key, value in before.items() if during.get(key) is not value]
    assert ("udortho.lowdisc", "point_at") in rebound
    assert ("udortho.sphere", "sphere_sequence") in rebound
    assert ("OrthoSequence", "_level") in rebound
    assert ("udortho.grassmann", "beta_k") in rebound
    assert ("udortho.cli", "beta_k") in rebound
    assert set(after) == set(before), set(after) ^ set(before)
    assert all(after[key] is value for key, value in before.items())

    assert tracer.counts["orthogonal.frames"] == 600 + 200 + 5
    # the tracer adds one per beta_k call, so the stacked call counts once
    # although it pushes five frames
    assert tracer.counts["grassmann.subspaces"] == 5 + 1
    assert tracer.counts["estimator.samples"] == 200
    assert tracer.counts["lowdisc.points"] > 0
    assert tracer.counts["sphere.points"] > 0
    assert len(tracer.start) > 0
    assert np.all(np.frombuffer(tracer.end) >= np.frombuffer(tracer.start))
