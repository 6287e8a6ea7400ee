"""Command-line front end: sequence dumps, single experiments, table runs.

Commands
--------
gen               emit a sequence prefix (sphere / ortho / grassmann / udsg) as CSV
estimate          run one Crofton experiment and emit its convergence trace
reproduce-tables  run the full benchmark grid and write table1.csv,
                  table2.csv, figure1.csv (plus JSON summaries)

Every command is deterministic: random modes take explicit seeds, and
`reproduce-tables` uses fixed documented constants unless --fresh-seed is
given.  Floats are printed with 17 significant digits so CSV files
round-trip bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import udsg
from .estimator import ExperimentSpec, compare, reference_value, run
from .geometry import builtin, load_polytope, random_spherical_polytope
from .grassmann import beta_k
from .lowdisc import SequenceSpec
from .orthogonal import OrthoSequence, default_ortho_spec, random_ortho_batch
from .sphere import input_dims, sphere_points

# Fixed seeds keep reproduce-tables byte-stable across runs.
TABLE_BASE_SEED = 1101
RPOLY_SEED_3D_50 = 501
RPOLY_SEED_3D_150 = 502
RPOLY_SEED_4D_50 = 503

GEN_MODES = {"qr": "qmc", "qr-noveech": "qmc-noveech", "random": "random"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    _atomic_write(path, text)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class CliError(Exception):
    """Validation failure; exits with status 2 and a JSON error line."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    return cfg


def _merged(args: argparse.Namespace, keys: list[str]) -> dict:
    """Config file values overridden by any flag that was actually given."""
    cfg = _load_config(getattr(args, "config", None))
    out = dict(cfg)
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            out[key] = val
    return out


def _resolve_polytope(cfg: dict):
    label = cfg.get("polytope")
    path = cfg.get("polytope_file")
    if label and path:
        raise CliError("give either a polytope label or a polytope file, not both")
    if path:
        try:
            return load_polytope(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot load polytope file {path}: {exc}") from exc
    if label:
        try:
            return builtin(label)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raise CliError("a polytope label or file is required")


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise CliError(f"missing required parameter {key!r}")
    return cfg[key]


def _parse_trace(value) -> tuple[int, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p]
        return tuple(int(p) for p in parts)
    return tuple(int(v) for v in value)


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["polytope", "polytope_file", "n", "k", "N", "mode", "seed",
         "permutation_seed", "trace", "reference", "output"],
    )
    poly = _resolve_polytope(cfg)
    try:
        spec = ExperimentSpec(
            polytope=poly,
            n=int(cfg.get("n", poly.n)),
            k=int(_require(cfg, "k")),
            N=int(_require(cfg, "N")),
            mode=str(cfg.get("mode", "qmc")),
            seed=int(cfg.get("seed", 0)),
            permutation_seed=int(cfg.get("permutation_seed", 0)),
            trace_points=_parse_trace(cfg.get("trace")),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    trace = run(spec)
    reference = cfg.get("reference")
    c = trace.intrinsic / trace.final if trace.final else 0.0
    rows = []
    for m, val in trace.points:
        err = abs(val - float(reference)) if reference is not None else ""
        rows.append((spec.mode, m, val, c * val, err))
    out = cfg.get("output")
    _write_csv(Path(out) if out else None, ["mode", "m", "I", "cI", "abs_err"], rows)
    return 0


def _gen_rows(args: argparse.Namespace):
    cfg = _merged(
        args,
        ["n", "k", "count", "mode", "seed", "kind", "permutation_seed", "skip", "output"],
    )
    kind = args.what
    count = int(_require(cfg, "count"))
    if count < 1:
        raise CliError("count must be >= 1")
    seq_kind = str(cfg.get("kind", "scrambled-halton"))
    pseed = int(cfg.get("permutation_seed", 0))
    skip = int(cfg.get("skip", 0))

    if kind == "udsg":
        q = udsg.occurrence_positions(udsg.GeneratorSpec(), count)
        r = udsg.r_sequence(udsg.GeneratorSpec(), count)
        header = ["m", "q", "r"]
        rows = [(m, q[m - 1], r[m - 1]) for m in range(1, count + 1)]
        return cfg, header, rows

    n = int(_require(cfg, "n"))
    if kind == "sphere":
        try:
            spec = SequenceSpec(seq_kind, input_dims(n), skip=skip, permutation_seed=pseed)
            pts = sphere_points(n, spec, count)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        header = ["m"] + [f"x{i}" for i in range(1, n + 1)]
        rows = [(m, *pts[m - 1]) for m in range(1, count + 1)]
        return cfg, header, rows

    mode = str(cfg.get("mode", "qr"))
    if mode not in GEN_MODES:
        raise CliError(f"mode must be one of {sorted(GEN_MODES)}, got {mode!r}")
    seed = int(cfg.get("seed", 0))
    try:
        if GEN_MODES[mode] == "random":
            frames = random_ortho_batch(n, count, np.random.default_rng(seed))
        else:
            ospec = default_ortho_spec(
                n, kind=seq_kind, permutation_seed=pseed, skip=skip,
                veech=GEN_MODES[mode] == "qmc",
            )
            frames = OrthoSequence(ospec).take(count)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    if kind == "ortho":
        header = ["m"] + [f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
        rows = [(m, *frames[m - 1].ravel()) for m in range(1, count + 1)]
        return cfg, header, rows

    k = int(_require(cfg, "k"))
    try:
        bases = beta_k(frames, k).basis
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    header = ["m"] + [f"b{i}{j}" for i in range(1, n + 1) for j in range(1, k + 1)]
    rows = [(m, *bases[m - 1].ravel()) for m in range(1, count + 1)]
    return cfg, header, rows


def cmd_gen(args: argparse.Namespace) -> int:
    cfg, header, rows = _gen_rows(args)
    out = cfg.get("output")
    _write_csv(Path(out) if out else None, header, rows)
    return 0


def _table_bodies_3d():
    return [
        builtin("3-simplex"),
        builtin("3-cube"),
        builtin("k-icosahedron"),
        random_spherical_polytope(3, 50, RPOLY_SEED_3D_50),
        random_spherical_polytope(3, 150, RPOLY_SEED_3D_150),
    ]


def _table_bodies_4d():
    return [
        builtin("4-simplex"),
        builtin("4-cube"),
        random_spherical_polytope(4, 50, RPOLY_SEED_4D_50),
    ]


def cmd_reproduce_tables(args: argparse.Namespace) -> int:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.fresh_seed:
        base_seed = int(np.random.SeedSequence().entropy % (2**31))
    else:
        base_seed = TABLE_BASE_SEED

    # one seed per (table, body, mode) cell so cells stay independent
    next_seed = iter(range(base_seed, base_seed + 10_000))

    rows1 = []
    summary1 = []
    for body in _table_bodies_3d():
        for mode, algo in (("random", "r"), ("qmc", "qr")):
            seed = next(next_seed)
            traces = {
                k: run(ExperimentSpec(body, 3, k, 1000, mode, seed=seed,
                                      trace_points=(10, 100, 1000)))
                for k in (1, 2)
            }
            for N in (10, 100, 1000):
                vals = {k: traces[k].value_at(N) for k in (1, 2)}
                rows1.append((body.label, algo, len(body.vertices), N, vals[1], vals[2]))
                summary1.append(
                    {"polytope": body.label, "algo": algo,
                     "n_vertices": len(body.vertices), "N": N,
                     "I_3_1": vals[1], "I_3_2": vals[2]}
                )
    _write_csv(outdir / "table1.csv",
               ["polytope", "algo", "n_vertices", "N", "I_3_1", "I_3_2"], rows1)
    _atomic_write(outdir / "table1.json",
                  json.dumps({"table": 1, "rows": summary1}, indent=2) + "\n")

    rows2 = []
    summary2 = []
    for body in _table_bodies_4d():
        for mode, algo in (("random", "r"), ("qmc", "qr")):
            seed = next(next_seed)
            trace = run(ExperimentSpec(body, 4, 3, 10000, mode, seed=seed,
                                       trace_points=(10, 100, 1000, 10000)))
            for N in (10, 100, 1000, 10000):
                val = trace.value_at(N)
                rows2.append((body.label, algo, len(body.vertices), N, val))
                summary2.append(
                    {"polytope": body.label, "algo": algo,
                     "n_vertices": len(body.vertices), "N": N, "I_4_3": val}
                )
    _write_csv(outdir / "table2.csv",
               ["polytope", "algo", "n_vertices", "N", "I_4_3"], rows2)
    _atomic_write(outdir / "table2.json",
                  json.dumps({"table": 2, "rows": summary2}, indent=2) + "\n")

    # convergence trace for the icosahedron with the reference band
    icosa = builtin("k-icosahedron")
    every = tuple(range(1, 1001))
    columns: dict[str, list[float]] = {}
    refs = {}
    for k in (1, 2):
        ref = reference_value("k-icosahedron", 3, k)
        refs[k] = ref
        report = compare(
            [
                ExperimentSpec(icosa, 3, k, 1000, "random", seed=next(next_seed),
                               trace_points=every),
                ExperimentSpec(icosa, 3, k, 1000, "qmc", trace_points=every),
            ],
            reference=ref,
        )
        columns[f"I_random_k{k}"] = [report.values["random"][m] for m in every]
        columns[f"I_qmc_k{k}"] = [report.values["qmc"][m] for m in every]
    header = ["m"]
    for k in (1, 2):
        header += [f"I_random_k{k}", f"I_qmc_k{k}", f"reference_k{k}",
                   f"band_low_k{k}", f"band_high_k{k}"]
    rows = []
    for i, m in enumerate(every):
        row: list = [m]
        for k in (1, 2):
            ref = refs[k]
            row += [columns[f"I_random_k{k}"][i], columns[f"I_qmc_k{k}"][i],
                    ref, ref * 0.995, ref * 1.005]
        rows.append(tuple(row))
    _write_csv(outdir / "figure1.csv", header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udortho",
        description="Quasi-random sequences in O(n) / G(n,k) and Crofton-type "
        "intrinsic-volume estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser("reproduce-tables", help="run the full benchmark grid")
    p_tab.add_argument("--output-dir", required=True)
    p_tab.add_argument("--fresh-seed", action="store_true",
                       help="draw new random seeds instead of the fixed defaults")
    p_tab.set_defaults(func=cmd_reproduce_tables)

    p_est = sub.add_parser("estimate", help="run one experiment, emit its trace")
    p_est.add_argument("--config", help="JSON config file; flags override it")
    p_est.add_argument("--polytope", help="builtin label")
    p_est.add_argument("--polytope-file", help="JSON polytope document")
    p_est.add_argument("--n", type=int)
    p_est.add_argument("--k", type=int)
    p_est.add_argument("--N", type=int)
    p_est.add_argument("--mode", choices=["random", "qmc", "qmc-noveech"])
    p_est.add_argument("--seed", type=int)
    p_est.add_argument("--permutation-seed", type=int)
    p_est.add_argument("--trace", help="comma-separated counts to record")
    p_est.add_argument("--reference", type=float,
                       help="reference value for the abs_err column")
    p_est.add_argument("--output", help="CSV path (default: stdout)")
    p_est.set_defaults(func=cmd_estimate)

    p_gen = sub.add_parser("gen", help="emit a sequence prefix as CSV")
    p_gen.add_argument("what", choices=["sphere", "ortho", "grassmann", "udsg"])
    p_gen.add_argument("--config", help="JSON config file; flags override it")
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--count", type=int)
    p_gen.add_argument("--mode", choices=sorted(GEN_MODES))
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--kind", choices=["van-der-corput", "halton", "scrambled-halton"])
    p_gen.add_argument("--permutation-seed", type=int)
    p_gen.add_argument("--skip", type=int)
    p_gen.add_argument("--output", help="CSV path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - report, don't trace-dump
        sys.stderr.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1


def entry() -> None:
    raise SystemExit(main())
