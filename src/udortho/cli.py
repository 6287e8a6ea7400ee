"""Command-line front end: sequence dumps, single experiments, table runs.

Commands
--------
gen TARGET        emit a sequence prefix as CSV
estimate          run one Crofton experiment and emit its convergence trace
reproduce-tables  run the full benchmark grid and write table1.csv,
                  table2.csv, figure1.csv (plus JSON summaries)

Run it as `udortho <command>` once installed, or as `python -m udortho
<command>` with `src` on the path.

Each flag is declared once, in `_FLAGS`.  Each command takes only the flags
it reads, each in one spelling (no parser takes an abbreviation):

    gen sphere     --config --count --n --seed --output
    gen ortho      --config --count --n --mode --seed --output
    gen grassmann  --config --count --n --k --mode --seed --output
    gen udsg       --config --count --output
    estimate       --config --polytope --polytope-file --k --N --mode
                   --seed --trace --reference --output

--count, --n, --k and --N are required, and so is one of --polytope and
--polytope-file.  --mode takes `estimator.MODES` (default qmc).  A quasi
sequence is read from its first index; --seed alone chooses it.

A config file is the flags it stands for: `--config PATH` names a JSON
object whose keys are flag names with "_" for "-", and its entries become
flags placed before the flags given, so a given flag wins.  A value is
text a user could type for its flag: a string, a number (not a boolean)
for a numeric flag, or for --trace a list of those, comma-joined.

What argparse refuses (an unknown flag or key, a bad value, a missing
flag) is a usage error.  What is checked after parsing is one JSON line
{"error": ...} on stderr: a polytope that does not load, an invalid spec
(a negative seed), a count below 1.  Both exit with status 2.

Every command is deterministic.  A run's one seed, --seed, drives the Haar
draws of random mode and the digit scrambling of the quasi modes and of
`gen sphere`; `reproduce-tables` uses fixed seeds unless --fresh-seed is
given.  Floats carry 17 significant digits, so CSV files round-trip.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import udsg
from .estimator import MODES, ExperimentSpec, compare, reference_value, run
from .geometry import builtin, crofton_constant, load_polytope, random_spherical_polytope
from .grassmann import beta_k
from .lowdisc import SequenceSpec
from .orthogonal import OrthoSequence, OrthoSequenceSpec, random_ortho_batch
from .sphere import input_dims, sphere_points

# Fixed seeds keep reproduce-tables byte-stable across runs.
TABLE_BASE_SEED = 1101
RPOLY_SEED_3D_50 = 501
RPOLY_SEED_3D_150 = 502
RPOLY_SEED_4D_50 = 503


def _finite(text: str) -> float:
    """A finite real number; nan and inf are refused."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _counts(text: str) -> tuple[int, ...]:
    """Comma-separated integers; empty items are skipped."""
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


# Each flag of estimate and gen, as argparse arguments keyed by the flag's name;
# a flag with a `type` is numeric.
_FLAGS = {
    "config": {"help": "JSON object of flags; the flags given override it"},
    "polytope": {"help": "builtin label"},
    "polytope-file": {"help": "JSON polytope document"},
    **dict.fromkeys(("n", "k", "N", "count"), {"type": int, "required": True}),
    "seed": {"type": int, "default": 0},
    "mode": {"choices": MODES, "default": "qmc", "help": "default: %(default)s"},
    "trace": {"type": _counts, "default": (), "help": "comma-separated counts to record"},
    "reference": {"type": _finite, "help": "reference value for the abs_err column"},
    "output": {"help": "CSV path (default: stdout)"},
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path | str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    _atomic_write(Path(path), text)


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


def _with_config(argv: list[str]) -> list[str]:
    """argv with the flags of its --config file, as `--name=text`, put after
    the command tokens (`estimate`, or `gen TARGET`) and before the flags
    given, which win: argparse keeps the last value.  A key that is no flag
    is left for the full parse to refuse; the file and its values are
    checked here."""
    head = {"estimate": 1, "gen": 2}.get(argv[0] if argv else "", 0)
    pre = argparse.ArgumentParser(prog=" ".join(["udortho", *argv[:head]]), add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[head:])[0].config if head else None
    if not path:
        return argv
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        pre.error(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        pre.error(f"config {path} must be a JSON object")
    flags = []
    for key, value in cfg.items():
        name = key.replace("_", "-")
        items = value if name == "trace" and isinstance(value, list) else [value]
        text = (str, int, float) if "type" in _FLAGS.get(name, {}) else str
        if name == "config" or name in _FLAGS and not all(isinstance(v, text) for v in items):
            pre.error(f"config key {key!r} is not text for --{name}: {value!r}")
        flags.append(f"--{name}=" + ",".join(map(str, items)))
    return [*argv[:head], *flags, *argv[head:]]


def cmd_estimate(args: argparse.Namespace) -> int:
    try:
        poly = (builtin(args.polytope) if args.polytope_file is None
                else load_polytope(args.polytope_file))
        spec = ExperimentSpec(polytope=poly, n=poly.n, k=args.k, N=args.N, mode=args.mode,
                              seed=args.seed, trace_points=args.trace)
    except (OSError, TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    trace = run(spec)
    c = crofton_constant(spec.n, spec.k)
    ref = args.reference
    rows = [(spec.mode, m, val, c * val, "" if ref is None else abs(val - ref))
            for m, val in trace.points]
    _write_csv(args.output, ["mode", "m", "I", "cI", "abs_err"], rows)
    return 0


def _sphere_rows(args: argparse.Namespace):
    n, count = args.n, args.count
    try:
        spec = SequenceSpec(input_dims(n), permutation_seed=args.seed)
        pts = sphere_points(n, spec, count)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    header = ["m"] + [f"x{i}" for i in range(1, n + 1)]
    return header, [(m, *pts[m - 1]) for m in range(1, count + 1)]


def _frame_rows(args: argparse.Namespace, k: int | None = None):
    """O(n) frames, or given k their first k columns: bases on G(n, k)."""
    n, count, mode = args.n, args.count, args.mode
    try:
        if mode == "random":
            frames = random_ortho_batch(n, count, np.random.default_rng(args.seed))
        else:
            ospec = OrthoSequenceSpec(n, permutation_seed=args.seed, veech=mode == "qmc")
            frames = OrthoSequence(ospec).take(count)
        if k is not None:
            frames = beta_k(frames, k).basis
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    letter, width = ("e", n) if k is None else ("b", k)
    header = ["m"] + [f"{letter}{i}{j}" for i in range(1, n + 1) for j in range(1, width + 1)]
    return header, [(m, *frames[m - 1].ravel()) for m in range(1, count + 1)]


def _udsg_rows(args: argparse.Namespace):
    # one gap block gives both columns: q_m = 1 + r_1 + ... + r_m
    r = udsg.r_sequence(args.count)
    q = (1 + np.cumsum(r)).tolist()
    return ["m", "q", "r"], [(m, q[m - 1], r[m - 1]) for m in range(1, args.count + 1)]


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise CliError("count must be >= 1")
    header, rows = args.rows(args)
    _write_csv(args.output, header, rows)
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
        allow_abbrev=False,
        description="Quasi-random sequences in O(n) / G(n,k) and Crofton-type "
        "intrinsic-volume estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser("reproduce-tables", allow_abbrev=False,
                           help="run the full benchmark grid")
    p_tab.add_argument("--output-dir", required=True)
    p_tab.add_argument("--fresh-seed", action="store_true",
                       help="draw new random seeds instead of the fixed defaults")
    p_tab.set_defaults(func=cmd_reproduce_tables)

    p_est = sub.add_parser("estimate", allow_abbrev=False,
                           help="run one experiment, emit its trace")
    body = p_est.add_mutually_exclusive_group(required=True)
    for name in ("config", "polytope", "polytope-file", "k", "N", "mode", "seed", "trace",
                 "reference", "output"):
        group = body if name in ("polytope", "polytope-file") else p_est
        group.add_argument("--" + name, **_FLAGS[name])
    p_est.set_defaults(func=cmd_estimate)

    targets = sub.add_parser("gen", allow_abbrev=False,
                             help="emit a sequence prefix as CSV").add_subparsers(required=True)
    for target, names, rows in (
        ("sphere", ("n", "seed"), _sphere_rows),
        ("ortho", ("n", "mode", "seed"), _frame_rows),
        ("grassmann", ("n", "k", "mode", "seed"), lambda args: _frame_rows(args, args.k)),
        ("udsg", (), _udsg_rows),
    ):
        p_gen = targets.add_parser(target, allow_abbrev=False)
        for name in ("config", "count", *names, "output"):
            p_gen.add_argument("--" + name, **_FLAGS[name])
        p_gen.set_defaults(func=cmd_gen, rows=rows)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_with_config(sys.argv[1:] if argv is None else list(argv)))
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
