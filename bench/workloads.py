"""The benchmark's workloads: inputs built from a seed, rounds of calls into udortho.

Constructing a workload is its set-up (the specs and bodies it needs).
Every round does the same fixed work, so a run is a whole number of rounds.
`round` returns the number of operations (calls into udortho) that raised
and, for each throughput, the work done with the (start, end) intervals
that timed it.  Outputs are checked outside those intervals.
Program functions are looked up on their modules at call time, so that
the tracer's wrappers are used while it is installed.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from udortho import cli, estimator, geometry, grassmann, lowdisc, orthogonal


def _failed(what: str) -> int:
    sys.stderr.write(f"operation failed: {what}\n{traceback.format_exc()}")
    return 1


class OrthoStream:
    """Quasi-random O(4) frames through `OrthoSequence.take`, with the Veech
    step on and off, each frame pushed to G(4, 2) by `beta_k`.

    A round streams FRAMES frames from a fresh sequence of each kind; the
    seed picks the digit scrambling (`permutation_seed`) of both."""

    N, K, FRAMES = 4, 2, 20_000
    ops_per_round = 2
    noveech_samples = 48

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = {veech: orthogonal.default_ortho_spec(self.N, permutation_seed=seed, veech=veech)
                      for veech in (True, False)}
        self.rng = np.random.default_rng([seed, 1])
        self.digests: dict[bool, str] = {}
        self.problems: list[str] = []

    def round(self, index: int) -> dict:
        takes, pushes = [], []
        failed = 0
        for veech, spec in self.specs.items():
            what = f"veech={'on' if veech else 'off'}"
            try:
                t0 = perf_counter()
                frames = orthogonal.OrthoSequence(spec).take(self.FRAMES)
                t1 = perf_counter()
                subs = [grassmann.beta_k(g, self.K) for g in frames]
                t2 = perf_counter()
            except Exception:
                failed += _failed(f"ortho-stream {what}")
                continue
            takes.append((t0, t1))
            pushes.append((t1, t2))
            bases = np.stack([s.basis for s in subs])
            # Free the sequence (its caches sit in a reference cycle) before
            # checking, so the checks stay below the workload's peak memory.
            del subs
            gc.collect()
            self._check(veech, what, frames, bases)
            del frames, bases
        if failed:
            return {"failed": failed}
        count = self.ops_per_round * self.FRAMES
        return {"failed": 0, "frames_per_s": (count, takes), "samples_per_s": (count, takes + pushes)}

    def _check(self, veech: bool, what: str, frames: np.ndarray, bases: np.ndarray) -> None:
        from checks import NoVeechReference, frame_problems, noveech_problems, projector_problem

        digest = hashlib.sha256(frames)
        digest.update(bases)
        digest = digest.hexdigest()
        if veech in self.digests:
            if digest != self.digests[veech]:
                self.problems.append(f"ortho-stream {what}: a round's frames differ from round 0")
            return
        self.digests[veech] = digest
        self.problems += frame_problems(f"ortho-stream {what}", frames)
        if not np.array_equal(bases, frames[:, :, : self.K]):
            self.problems.append(f"ortho-stream {what}: beta_k basis is not the first k columns")
        if veech:
            self.problems.append(projector_problem(f"ortho-stream {what}", bases))
        else:
            picks = {1, self.FRAMES, *self.rng.integers(1, self.FRAMES + 1, self.noveech_samples).tolist()}
            ref = NoVeechReference(self.specs[False], lowdisc.points)
            self.problems += noveech_problems(f"ortho-stream {what}", frames, ref, sorted(picks))
        self.problems = [p for p in self.problems if p]

    def finish(self) -> None:
        pass


class CroftonHull:
    """Random-mode `run()` on bodies whose projections need every hull
    kernel: polygons (d = 2) from a 150-vertex random 3-polytope and the
    4-cube, polyhedra (d = 3) from the 4-cube, intervals (d = 1) from the
    Kirkman icosahedron.  N per cell makes each take a similar share of a
    round.  The seed draws the 150 vertices and each run's frame seed."""

    CELLS = (("r150", 3, 1, 400), ("4-cube", 4, 2, 2000), ("4-cube", 4, 1, 2000),
             ("k-icosahedron", 3, 2, 20_000))
    ops_per_round = len(CELLS)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        v = np.random.default_rng([seed, 2]).standard_normal((150, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        self.bodies = {"r150": geometry.Polytope(3, v, "r150"),
                       "4-cube": geometry.builtin("4-cube"),
                       "k-icosahedron": geometry.builtin("k-icosahedron")}
        self.results: list[tuple[int, float]] = []
        self.problems: list[str] = []

    def round(self, index: int) -> dict:
        runs = []
        failed = 0
        for c, (label, n, k, N) in enumerate(self.CELLS):
            seed = int(np.random.SeedSequence([self.seed, index, c]).generate_state(1)[0])
            spec = estimator.ExperimentSpec(self.bodies[label], n, k, N, "random", seed=seed)
            try:
                t0 = perf_counter()
                trace = estimator.run(spec)
                runs.append((t0, perf_counter()))
            except Exception:
                failed += _failed(f"crofton-hull {label} ({n},{k})")
                continue
            self.results.append((c, trace.intrinsic))
        if failed:
            return {"failed": failed}
        samples = sum(cell[3] for cell in self.CELLS)
        return {"failed": 0, "frames_per_s": (samples, runs), "samples_per_s": (samples, runs)}

    def finish(self) -> None:
        from checks import body_reference

        rng = np.random.default_rng([self.seed, 3])
        refs = [body_reference(self.bodies[label].vertices, n, k, rng, cube=label == "4-cube")
                for label, n, k, N in self.CELLS]
        for c, value in self.results:
            label, n, k, N = self.CELLS[c]
            self.problems.append(refs[c].problem(f"crofton-hull {label} ({n},{k})", value, N))
        self.problems = [p for p in self.problems if p]


class Tables:
    """`udortho reproduce-tables`, in-process, with its fixed seeds: a round
    is one pass writing Tables 1-2 and Figure 1 to a fresh directory.  The
    inputs do not depend on the seed, which drives only the Monte Carlo
    references of the checks."""

    # Crofton samples per pass: Table 1 is 5 bodies x 2 modes x k in {1, 2}
    # x N = 1000; Table 2 is 3 bodies x 2 modes x N = 10 000; Figure 1 is
    # 2 modes x k in {1, 2} x N = 1000.
    SAMPLES = 5 * 2 * 2 * 1000 + 3 * 2 * 10_000 + 2 * 2 * 1000
    FILES = ("figure1.csv", "table1.csv", "table1.json", "table2.csv", "table2.json")
    ops_per_round = 1
    min_rounds = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.first: dict[str, bytes] | None = None
        self.problems: list[str] = []

    def round(self, index: int) -> dict:
        out = self.out_dir / f"tables-{os.getpid()}-pass-{index}"
        t0 = perf_counter()
        status = cli.main(["reproduce-tables", "--output-dir", str(out)])
        timed = [(t0, perf_counter())]
        failed = 0
        if status != 0:
            # main() reports its own exceptions as a JSON line on stderr
            sys.stderr.write(f"operation failed: reproduce-tables exited with {status}\n")
            failed = 1
        else:
            files = {name: (out / name).read_bytes() for name in self.FILES}
            if self.first is None:
                self.first = files
            elif files != self.first:
                self.problems.append(f"tables: pass {index} wrote files that differ from pass 0")
        shutil.rmtree(out, ignore_errors=True)
        # Each pass leaves OrthoSequence caches in reference cycles: free
        # them, so that every pass starts from the same memory.
        gc.collect()
        if failed:
            return {"failed": failed}
        return {"failed": 0, "frames_per_s": (self.SAMPLES, timed), "samples_per_s": (self.SAMPLES, timed)}

    def finish(self) -> None:
        from checks import body_reference, crofton

        if self.first is None:
            return
        rng = np.random.default_rng([self.seed, 4])
        bodies = {p.label: p for p in (
            geometry.builtin("3-simplex"), geometry.builtin("3-cube"),
            geometry.builtin("k-icosahedron"),
            geometry.random_spherical_polytope(3, 50, cli.RPOLY_SEED_3D_50),
            geometry.random_spherical_polytope(3, 150, cli.RPOLY_SEED_3D_150),
            geometry.builtin("4-simplex"), geometry.builtin("4-cube"),
            geometry.random_spherical_polytope(4, 50, cli.RPOLY_SEED_4D_50))}
        refs = {}

        def ref(label: str, n: int, k: int):
            if (label, k) not in refs:
                refs[label, k] = body_reference(bodies[label].vertices, n, k, rng,
                                                cube=label.endswith("-cube"))
            return refs[label, k]

        def rows(name: str):
            lines = self.first[name].decode("utf-8").splitlines()
            header = lines[0].split(",")
            return [dict(zip(header, line.split(","))) for line in lines[1:]]

        for row in rows("table1.csv"):
            for k, col in ((1, "I_3_1"), (2, "I_3_2")):
                N = int(row["N"])
                self.problems.append(ref(row["polytope"], 3, k).problem(
                    f"table1 {row['polytope']} {row['algo']} k={k}", crofton(3, k) * float(row[col]), N))
        for row in rows("table2.csv"):
            N = int(row["N"])
            self.problems.append(ref(row["polytope"], 4, 3).problem(
                f"table2 {row['polytope']} {row['algo']}", crofton(4, 3) * float(row["I_4_3"]), N))
        for row in rows("figure1.csv"):
            m = int(row["m"])
            if m not in (10, 100, 1000):
                continue
            for k in (1, 2):
                for algo in ("random", "qmc"):
                    self.problems.append(ref("k-icosahedron", 3, k).problem(
                        f"figure1 {algo} k={k}", crofton(3, k) * float(row[f"I_{algo}_k{k}"]), m))
        self.problems = [p for p in self.problems if p]


def make(name: str, seed: int, out_dir: Path):
    if name == "ortho-stream":
        return OrthoStream(seed)
    if name == "crofton-hull":
        return CroftonHull(seed)
    if name == "tables":
        return Tables(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
