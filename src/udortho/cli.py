"""Command-line front end: sequence dumps, single experiments, table runs.

Commands
--------
gen TARGET        emit a sequence prefix as CSV; every target takes --config,
                  --count and --output, and besides
                    sphere     --n --seed --kind --skip
                    ortho      --n --mode --seed --kind --skip
                    grassmann  --n --k --mode --seed --kind --skip
                    udsg       nothing more
estimate          run one Crofton experiment and emit its convergence trace
reproduce-tables  run the full benchmark grid and write table1.csv,
                  table2.csv, figure1.csv (plus JSON summaries)

Run it as `udortho <command>` once installed, or as `python -m udortho
<command>` with `src` on the path.

Each flag is declared once, in `_FLAGS`; `estimate` and each gen target list
the flags they read, and their config files may hold only those keys.
--mode takes `estimator.MODES` (default qmc) and --kind `lowdisc.KINDS`;
--kind and --skip choose the quasi sequence, so random mode refuses them.

Every command is deterministic.  A run's one seed, --seed, drives the Haar
draws of random mode and the digit scrambling of the quasi modes and of
`gen sphere`; `reproduce-tables` uses fixed seeds unless --fresh-seed is
given.  Floats carry 17 significant digits, so CSV files round-trip.
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
from .estimator import MODES, ExperimentSpec, compare, reference_value, run
from .geometry import builtin, crofton_constant, load_polytope, random_spherical_polytope
from .grassmann import beta_k
from .lowdisc import KINDS, SequenceSpec
from .orthogonal import OrthoSequence, OrthoSequenceSpec, random_ortho_batch
from .sphere import input_dims, sphere_points

# Fixed seeds keep reproduce-tables byte-stable across runs.
TABLE_BASE_SEED = 1101
RPOLY_SEED_3D_50 = 501
RPOLY_SEED_3D_150 = 502
RPOLY_SEED_4D_50 = 503

# Each flag of estimate and gen, as argparse arguments keyed by the flag's name.
_FLAGS = {
    "config": {"help": "JSON config file; flags override it"},
    "polytope": {"help": "builtin label"},
    "polytope-file": {"help": "JSON polytope document"},
    **dict.fromkeys(("n", "k", "N", "count", "seed", "skip"), {"type": int}),
    "mode": {"choices": MODES, "help": "default: qmc"},
    "kind": {"choices": KINDS, "help": "default: scrambled-halton"},
    "trace": {"help": "comma-separated counts to record"},
    "reference": {"type": float, "help": "reference value for the abs_err column"},
    "output": {"help": "CSV path (default: stdout)"},
}


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
    # mkstemp makes the file 0600; it gets the mode open(path, "w") would give
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
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


def _merged(args: argparse.Namespace) -> dict:
    """Config file values overridden by any flag that was actually given.

    A config key is a flag's name with "_" for "-" (`polytope_file` for
    --polytope-file), as argparse names its destination.  Other keys, and
    the namespace's four non-flag names, are refused rather than ignored."""
    cfg = _load_config(args.config)
    unknown = sorted(cfg.keys() - (vars(args).keys() - {"command", "func", "rows", "config"}))
    if unknown:
        raise CliError(f"unknown {args.command} config keys {unknown}")
    flags = {key: val for key, val in vars(args).items() if val is not None}
    return {**cfg, **flags}


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


def _output(cfg: dict) -> Path | None:
    """The CSV path, or None for stdout; checked before any work is done."""
    out = cfg.get("output")
    if out is not None and not isinstance(out, str):
        raise CliError(f"output must be a path string, got {out!r}")
    return Path(out) if out else None


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise CliError(f"missing required parameter {key!r}")
    return cfg[key]


def _int(value, key: str) -> int:
    """An integer parameter from a flag or a config file: an int, an integral
    float or a decimal string.  Booleans and fractional numbers are refused,
    not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CliError(f"{key} must be an integer, got {value!r}")


def _float(value, key: str) -> float:
    """A real parameter from a flag or a config file: a number or a decimal
    string.  Booleans and non-finite values (nan, inf) are refused."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = float("nan")
    if isinstance(value, bool) or not np.isfinite(x):
        raise CliError(f"{key} must be a finite number, got {value!r}")
    return x


def _parse_trace(value) -> tuple[int, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        value = [p for p in value.split(",") if p]
    return tuple(_int(v, "trace") for v in value)


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    out = _output(cfg)
    poly = _resolve_polytope(cfg)
    try:
        spec = ExperimentSpec(
            polytope=poly,
            n=poly.n,
            k=_int(_require(cfg, "k"), "k"),
            N=_int(_require(cfg, "N"), "N"),
            mode=str(cfg.get("mode", "qmc")),
            seed=_int(cfg.get("seed", 0), "seed"),
            trace_points=_parse_trace(cfg.get("trace")),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    reference = cfg.get("reference")
    if reference is not None:
        reference = _float(reference, "reference")
    trace = run(spec)
    c = crofton_constant(spec.n, spec.k)
    rows = []
    for m, val in trace.points:
        err = abs(val - reference) if reference is not None else ""
        rows.append((spec.mode, m, val, c * val, err))
    _write_csv(out, ["mode", "m", "I", "cI", "abs_err"], rows)
    return 0


def _sphere_rows(cfg: dict, count: int):
    n = _int(_require(cfg, "n"), "n")
    try:
        spec = SequenceSpec(str(cfg.get("kind", "scrambled-halton")), input_dims(n),
                            skip=_int(cfg.get("skip", 0), "skip"),
                            permutation_seed=_int(cfg.get("seed", 0), "seed"))
        pts = sphere_points(n, spec, count)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    header = ["m"] + [f"x{i}" for i in range(1, n + 1)]
    return header, [(m, *pts[m - 1]) for m in range(1, count + 1)]


def _frame_rows(cfg: dict, count: int, k: int | None = None):
    """O(n) frames, or given k their first k columns: bases on G(n, k)."""
    n = _int(_require(cfg, "n"), "n")
    mode = cfg.get("mode", "qmc")
    if mode not in MODES:
        raise CliError(f"mode must be one of {MODES}, got {mode!r}")
    seed = _int(cfg.get("seed", 0), "seed")
    if mode == "random" and ("kind" in cfg or "skip" in cfg):
        raise CliError("kind and skip choose the quasi sequence; random mode takes neither")
    try:
        if mode == "random":
            frames = random_ortho_batch(n, count, np.random.default_rng(seed))
        else:
            ospec = OrthoSequenceSpec(
                n, kind=str(cfg.get("kind", "scrambled-halton")), permutation_seed=seed,
                skip=_int(cfg.get("skip", 0), "skip"), veech=mode == "qmc",
            )
            frames = OrthoSequence(ospec).take(count)
        if k is not None:
            frames = beta_k(frames, k).basis
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    letter, width = ("e", n) if k is None else ("b", k)
    header = ["m"] + [f"{letter}{i}{j}" for i in range(1, n + 1) for j in range(1, width + 1)]
    return header, [(m, *frames[m - 1].ravel()) for m in range(1, count + 1)]


def _grassmann_rows(cfg: dict, count: int):
    return _frame_rows(cfg, count, _int(_require(cfg, "k"), "k"))


def _udsg_rows(cfg: dict, count: int):
    # one gap block gives both columns: q_m = 1 + r_1 + ... + r_m
    r = udsg.r_sequence(count)
    q = (1 + np.cumsum(r)).tolist()
    return ["m", "q", "r"], [(m, q[m - 1], r[m - 1]) for m in range(1, count + 1)]


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    out = _output(cfg)
    count = _int(_require(cfg, "count"), "count")
    if count < 1:
        raise CliError("count must be >= 1")
    header, rows = args.rows(cfg, count)
    _write_csv(out, header, rows)
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


def _write_table(outdir: Path, number: int, header: list[str], rows: list[tuple]) -> None:
    """table<number>.csv, and table<number>.json with the same rows keyed by header."""
    _write_csv(outdir / f"table{number}.csv", header, rows)
    summary = [dict(zip(header, row)) for row in rows]
    _atomic_write(outdir / f"table{number}.json",
                  json.dumps({"table": number, "rows": summary}, indent=2) + "\n")


def _table_rows(bodies, n: int, ks, N: int, next_seed) -> list[tuple]:
    """A random (r) and a qmc (qr) cell per body, each running every k in ks
    to N and read at N = 10, 100, ..., N."""
    marks = tuple(10**e for e in range(1, len(str(N))))
    rows = []
    for body in bodies:
        for mode, algo in (("random", "r"), ("qmc", "qr")):
            seed = next(next_seed)
            traces = [run(ExperimentSpec(body, n, k, N, mode, seed=seed if mode == "random" else 0,
                                         trace_points=marks))
                      for k in ks]
            rows += [(body.label, algo, len(body.vertices), m, *(t.value_at(m) for t in traces))
                     for m in marks]
    return rows


def cmd_reproduce_tables(args: argparse.Namespace) -> int:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.fresh_seed:
        base_seed = int(np.random.SeedSequence().entropy % (2**31))
    else:
        base_seed = TABLE_BASE_SEED

    # one seed per (table, body, mode) cell so cells stay independent; the qr
    # cells draw theirs but keep seed 0, the published tables' scrambling
    next_seed = iter(range(base_seed, base_seed + 10_000))

    for number, bodies, n, ks, N in ((1, _table_bodies_3d, 3, (1, 2), 1000),
                                     (2, _table_bodies_4d, 4, (3,), 10000)):
        header = ["polytope", "algo", "n_vertices", "N"] + [f"I_{n}_{k}" for k in ks]
        _write_table(outdir, number, header, _table_rows(bodies(), n, ks, N, next_seed))

    # convergence trace for the icosahedron with the reference band
    icosa = builtin("k-icosahedron")
    every = tuple(range(1, 1001))
    header = ["m"]
    columns: list = [every]
    for k in (1, 2):
        ref = reference_value("k-icosahedron", 3, k)
        report = compare(
            [
                ExperimentSpec(icosa, 3, k, 1000, "random", seed=next(next_seed),
                               trace_points=every),
                ExperimentSpec(icosa, 3, k, 1000, "qmc", trace_points=every),
            ],
            reference=ref,
        )
        header += [f"I_random_k{k}", f"I_qmc_k{k}", f"reference_k{k}",
                   f"band_low_k{k}", f"band_high_k{k}"]
        columns += [[report.values[mode][m] for m in every] for mode in ("random", "qmc")]
        columns += [[x] * len(every) for x in (ref, ref * 0.995, ref * 1.005)]
    _write_csv(outdir / "figure1.csv", header, zip(*columns))
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
    for name in ("config", "polytope", "polytope-file", "k", "N", "mode", "seed", "trace",
                 "reference", "output"):
        p_est.add_argument("--" + name, **_FLAGS[name])
    p_est.set_defaults(func=cmd_estimate)

    targets = sub.add_parser("gen", help="emit a sequence prefix as CSV").add_subparsers(
        required=True)
    for target, names, rows in (
        ("sphere", ("n", "seed", "kind", "skip"), _sphere_rows),
        ("ortho", ("n", "mode", "seed", "kind", "skip"), _frame_rows),
        ("grassmann", ("n", "k", "mode", "seed", "kind", "skip"), _grassmann_rows),
        ("udsg", (), _udsg_rows),
    ):
        p_gen = targets.add_parser(target)
        for name in ("config", "count", *names, "output"):
            p_gen.add_argument("--" + name, **_FLAGS[name])
        p_gen.set_defaults(func=cmd_gen, rows=rows)

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
