#!/usr/bin/env python3
"""Regenerate the frozen high-N random-baseline reference values.

Bodies without a closed-form subspace average get their reference from one
large Haar-random run (N = 10^6, fixed seed), frozen into the package so
tests and the table reproduction stay fast and deterministic.  Rerun this
script only to refresh the cache; it overwrites src/udortho/_oracles.json.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from udortho.geometry import builtin, projection_measure
from udortho.orthogonal import random_ortho_batch

ORACLE_N = 1_000_000
ORACLE_SEED = 424242
CHUNK = 20_000

TARGETS = [
    ("3-simplex", 3, 2),
    ("k-icosahedron", 3, 1),
    ("k-icosahedron", 3, 2),
]


def baseline_mean(label: str, n: int, k: int) -> float:
    measure = projection_measure(builtin(label).vertices, k)
    rng = np.random.default_rng(ORACLE_SEED)
    chunk_sums: list[float] = []
    done = 0
    while done < ORACLE_N:
        m = min(CHUNK, ORACLE_N - done)
        chunk_sums.append(math.fsum(measure(random_ortho_batch(n, m, rng)).tolist()))
        done += m
    return math.fsum(chunk_sums) / ORACLE_N


def main() -> int:
    out = Path(__file__).resolve().parents[1] / "src" / "udortho" / "_oracles.json"
    doc: dict[str, dict] = {}
    for label, n, k in TARGETS:
        t0 = time.time()
        value = baseline_mean(label, n, k)
        print(f"{label} (n={n}, k={k}): {value:.6f}  [{time.time() - t0:.1f}s]")
        doc[f"{label}:{n}:{k}"] = {
            "value": value,
            "N": ORACLE_N,
            "seed": ORACLE_SEED,
            "chunk": CHUNK,
            "method": "random-baseline",
        }

    # sanity: the mean shadow area of a convex body is a quarter of its
    # surface area, which qhull gives exactly for the icosahedron
    icosa = builtin("k-icosahedron")
    exact = ConvexHull(icosa.vertices).area / 4.0
    mc = doc["k-icosahedron:3:1"]["value"]
    rel = abs(mc - exact) / exact
    print(f"icosahedron shadow-area check: MC {mc:.4f} vs surface/4 {exact:.4f} (rel {rel:.2e})")
    if rel > 0.005:
        print("baseline run disagrees with the exact shadow area", file=sys.stderr)
        return 1

    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
