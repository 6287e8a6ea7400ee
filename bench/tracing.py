"""Spans and counters at udortho's layer boundaries, installed from outside.

`Tracer.install` replaces the functions each layer exposes to the others,
in every udortho module that bound them, with wrappers that record a span
(name, start, end, parent) and count the work done; `uninstall` puts the
originals back.  A call into the layer that is already running opens no
span, so each span marks a crossing into another layer, and a layer's self
time is the time of its spans minus the time of their child spans.

Two private names are wrapped as well, because other layers call them:
`estimator.run` draws quasi-random frames through `OrthoSequence._level`,
and `cli` writes every output file through `_atomic_write`.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("lowdisc", "sphere", "udsg", "orthogonal", "grassmann", "geometry", "estimator", "cli")
HULL_SPANS = ("geometry.hull_d1", "geometry.hull_d2", "geometry.hull_d3")
COUNTERS = (
    "lowdisc.points", "sphere.points", "udsg.gaps",
    "orthogonal.frames", "orthogonal.cosets", "orthogonal.repairs",
    "grassmann.subspaces", "geometry.hull_d1", "geometry.hull_d2", "geometry.hull_d3",
    "geometry.zero_measures", "estimator.samples", "cli.bytes_written",
)


class Tracer:
    """Spans kept in memory as parallel arrays, plus named counters."""

    def __init__(self) -> None:
        self.names = list(LAYERS + HULL_SPANS)
        self._ids = {name: (i, name.split(".")[0]) for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[tuple[int, str]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span `name`, unless its layer is running."""
        nid, layer = self._ids[name]
        stack = self.stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        stack.append((i, layer))
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            stack.pop()

    def current_layer(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] += amount

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=n)
        own = np.bincount(np.frombuffer(self.span_name, dtype=np.int32), weights=dur - covered,
                          minlength=len(self.names))
        return dict(zip(self.names, own.tolist()))

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))

    # --- wrappers ---------------------------------------------------------

    def install(self) -> None:
        from udortho import cli, estimator, geometry, grassmann, lowdisc, orthogonal, sphere, udsg

        call, add = self.call, self.add
        point_at, points = lowdisc.point_at, lowdisc.points
        sphere_sequence, sphere_points = sphere.sphere_sequence, sphere.sphere_points
        generated = udsg.generated
        t_inverse, random_ortho_batch = orthogonal.t_inverse, orthogonal.random_ortho_batch
        take, level = orthogonal.OrthoSequence.take, orthogonal.OrthoSequence._level
        beta_k, hull_measure = grassmann.beta_k, geometry.hull_measure
        run, compare = estimator.run, estimator.compare
        main, atomic_write = cli.main, cli._atomic_write

        def w_point_at(spec, index):
            add("lowdisc.points")
            return call("lowdisc", point_at, spec, index)

        def w_points(spec, count, start=1):
            add("lowdisc.points", count)
            return call("lowdisc", points, spec, count, start)

        def w_sphere_sequence(n, spec, index):
            add("sphere.points")
            return call("sphere", sphere_sequence, n, spec, index)

        def w_sphere_points(n, spec, count, start=1):
            add("sphere.points", count)
            return call("sphere", sphere_points, n, spec, count, start)

        def w_generated(z, *, mul, **kw):
            inner = generated(lambda j: call("orthogonal", z, j),
                              mul=lambda a, b: call("orthogonal", mul, a, b), **kw)
            while True:
                w = call("udsg", next, inner, None)
                if w is None:
                    return
                add("udsg.gaps")
                yield w

        def w_t_inverse(x, h):
            add("orthogonal.cosets")
            return call("orthogonal", t_inverse, x, h)

        def w_random_ortho_batch(n, count, rng):
            add("orthogonal.frames", count)
            return call("orthogonal", random_ortho_batch, n, count, rng)

        def w_take(seq, count):
            repairs = seq.repair_count
            out = call("orthogonal", take, seq, count)
            add("orthogonal.frames", count)
            add("orthogonal.repairs", seq.repair_count - repairs)
            return out

        def w_level(seq, lvl, m):
            if self.current_layer() == "orthogonal":
                return level(seq, lvl, m)
            add("orthogonal.frames")
            return call("orthogonal", level, seq, lvl, m)

        def w_beta_k(g, k):
            add("grassmann.subspaces")
            return call("grassmann", beta_k, g, k)

        def w_hull_measure(pts):
            name = f"geometry.hull_d{np.shape(pts)[1]}"
            out = call(name, hull_measure, pts)
            add(name)
            if out == 0.0:
                add("geometry.zero_measures")
            return out

        def w_run(spec):
            add("estimator.samples", spec.N)
            trace = call("estimator", run, spec)
            add("orthogonal.repairs", trace.repair_count)
            return trace

        def w_compare(specs, reference):
            return call("estimator", compare, specs, reference)

        def w_main(argv=None):
            return call("cli", main, argv)

        def w_atomic_write(path, text):
            add("cli.bytes_written", len(text.encode("utf-8")))
            return call("cli", atomic_write, path, text)

        for orig, wrapper in (
            (point_at, w_point_at), (points, w_points),
            (sphere_sequence, w_sphere_sequence), (sphere_points, w_sphere_points),
            (generated, w_generated), (t_inverse, w_t_inverse),
            (random_ortho_batch, w_random_ortho_batch), (beta_k, w_beta_k),
            (hull_measure, w_hull_measure), (run, w_run), (compare, w_compare),
            (main, w_main), (atomic_write, w_atomic_write),
        ):
            self._rebind(orig, wrapper)
        for attr, wrapper in (("take", w_take), ("_level", w_level)):
            self._saved.append((orthogonal.OrthoSequence, attr, getattr(orthogonal.OrthoSequence, attr)))
            setattr(orthogonal.OrthoSequence, attr, wrapper)

    def _rebind(self, orig, wrapper) -> None:
        """Point every udortho module name bound to `orig` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "udortho" and not modname.startswith("udortho."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
