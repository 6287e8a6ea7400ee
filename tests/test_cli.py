import argparse
import json
import os
import re
import stat

import numpy as np
import pytest

from udortho import cli
from udortho.cli import main
from udortho.estimator import MODES, ExperimentSpec, reference_value, run
from udortho.geometry import builtin, crofton_constant
from udortho.orthogonal import OrthoSequence, default_ortho_spec, random_ortho_batch


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def polytope_to_dict(p):
    """A polytope as the JSON document `load_polytope` reads."""
    return {"n": p.n, "label": p.label, "vertices": p.vertices.tolist()}


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def declared(parser):
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


COMMANDS = subparsers(cli.build_parser())
GEN = subparsers(COMMANDS["gen"])
# what each gen target needs to run
GEN_CFG = {"sphere": {"n": 3, "count": 2}, "ortho": {"n": 3, "count": 2},
           "grassmann": {"n": 3, "k": 1, "count": 2}, "udsg": {"count": 2}}


def gen_flags(what):
    return [text for key, value in GEN_CFG[what].items() for text in ("--" + key, str(value))]


def refused(capsys, argv):
    """The stderr of a refused run, which exits 2 and prints nothing, whether
    argparse refused it (a usage error) or the command (one JSON line)."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    return err


def with_config(tmp_path, argv, cfg):
    """argv followed by --config and a file holding cfg."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return [*argv, "--config", str(path)]


def test_gen_udsg(capsys):
    rc, out, _ = run_cli(capsys, ["gen", "udsg", "--count", "3"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["m", "q", "r"]
    assert [tuple(int(c) for c in row) for row in rows] == [
        (1, 5, 4), (2, 21, 16), (3, 41, 20),
    ]


def test_gen_udsg_rows_match_the_digit_string(capsys, champernowne_positions):
    # 20 000 rows cross many 4 096-integer chunks and the 4- to 5-digit boundary
    rc, out, _ = run_cli(capsys, ["gen", "udsg", "--count", "20000"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["m", "q", "r"]
    q = champernowne_positions[5][:20000]
    want = np.column_stack([np.arange(1, 20001), q, np.diff(q, prepend=1)])
    assert np.array_equal(np.array(rows, dtype=np.int64), want)


def test_gen_sphere(capsys):
    rc, out, _ = run_cli(capsys, ["gen", "sphere", "--n", "3", "--count", "1"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["m", "x1", "x2", "x3"]
    vec = np.array([float(c) for c in rows[0][1:]])
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_gen_ortho_modes(capsys):
    for mode in ("qmc", "qmc-noveech", "random"):
        rc, out, _ = run_cli(
            capsys, ["gen", "ortho", "--n", "3", "--count", "2", "--mode", mode]
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header[0] == "m" and len(header) == 10
        assert len(rows) == 2
        g = np.array([float(c) for c in rows[1][1:]]).reshape(3, 3)
        assert np.abs(g.T @ g - np.eye(3)).max() < 1e-10


def test_gen_random_is_the_batch_of_estimate(capsys):
    # gen --mode random --seed s draws the frames that estimate's random mode
    # draws with seed s: estimate draws them a block at a time and gen in one
    # random_ortho_batch call, whose draws split at any count
    rc, out, _ = run_cli(
        capsys, ["gen", "ortho", "--n", "4", "--count", "50", "--mode", "random", "--seed", "11"]
    )
    assert rc == 0
    _, rows = parse_csv(out)
    got = np.array([[float(c) for c in row[1:]] for row in rows]).reshape(50, 4, 4)
    assert np.array_equal(got, random_ortho_batch(4, 50, np.random.default_rng(11)))


def test_gen_grassmann(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["gen", "grassmann", "--n", "3", "--k", "2", "--count", "2", "--mode", "qmc"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert len(header) == 1 + 3 * 2
    b = np.array([float(c) for c in rows[0][1:]]).reshape(3, 2)
    assert np.abs(b.T @ b - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("mode", MODES)
def test_gen_grassmann_rows_are_the_first_k_columns(capsys, mode):
    # %.17g round-trips a float, so the rows equal the frames' columns bitwise
    rc, out, _ = run_cli(
        capsys,
        ["gen", "grassmann", "--n", "4", "--k", "2", "--count", "700", "--mode", mode,
         "--seed", "5"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["m", "b11", "b12", "b21", "b22", "b31", "b32", "b41", "b42"]
    assert [int(row[0]) for row in rows] == list(range(1, 701))
    got = np.array([[float(c) for c in row[1:]] for row in rows]).reshape(700, 4, 2)
    if mode == "random":
        frames = random_ortho_batch(4, 700, np.random.default_rng(5))
    else:
        spec = default_ortho_spec(4, permutation_seed=5, veech=mode == "qmc")
        frames = OrthoSequence(spec).take(700)
    assert np.array_equal(got, frames[:, :, :2])


def test_gen_requires_count(capsys):
    assert "required: --count" in refused(capsys, ["gen", "udsg"])


@pytest.mark.parametrize(
    "what, key",
    [("udsg", "count"), ("sphere", "n"), ("grassmann", "k"), ("ortho", "seed"),
     ("sphere", "seed")],
)
def test_gen_config_rejects_non_numbers(capsys, tmp_path, what, key):
    cfg = {**GEN_CFG[what], key: "x"}
    err = refused(capsys, with_config(tmp_path, ["gen", what], cfg))
    assert f"--{key}: invalid int value: 'x'" in err


@pytest.mark.parametrize("key", ["k", "N", "seed", "reference"])
def test_estimate_config_rejects_non_numbers_before_running(capsys, tmp_path, monkeypatch, key):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    cfg = {"polytope": "3-cube", "k": 1, "N": 10, key: "abc"}
    err = refused(capsys, with_config(tmp_path, ["estimate"], cfg))
    assert f"argument --{key}: " in err and "'abc'" in err


@pytest.mark.parametrize("value", [2.7, True, float("inf")])
@pytest.mark.parametrize(
    "what, key",
    [("udsg", "count"), ("sphere", "n"), ("grassmann", "k"), ("ortho", "seed"),
     ("sphere", "seed")],
)
def test_gen_config_refuses_non_integral_values(capsys, tmp_path, what, key, value):
    # a fractional or boolean integer parameter is an error, not truncated
    cfg = {**GEN_CFG[what], key: value}
    err = refused(capsys, with_config(tmp_path, ["gen", what], cfg))
    assert f"--{key}" in err and repr(value) in err


@pytest.mark.parametrize(
    "key, value",
    [("N", 10.9), ("k", 2.5), ("k", True), ("seed", 0.5), ("seed", False),
     ("trace", [3.5, 10]), ("trace", [True, 10])],
)
def test_estimate_config_refuses_non_integral_values(capsys, tmp_path, monkeypatch, key, value):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    cfg = {"polytope": "3-cube", "k": 1, "N": 10, key: value}
    bad = value[0] if key == "trace" else value
    err = refused(capsys, with_config(tmp_path, ["estimate"], cfg))
    assert f"--{key}" in err and repr(bad) in err


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--mode", "random", "--seed", "-1"]]
)
def test_estimate_refuses_a_negative_seed_before_running(capsys, monkeypatch, flags):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    err = refused(capsys, ["estimate", "--polytope", "3-cube", "--k", "1", "--N", "10", *flags])
    assert "must be >= 0" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command, key",
    [("estimate", "permutation_seed"), ("estimate", "n"), ("estimate", "premutation_seed"),
     ("gen", "trace"), ("gen", "permutation_seed")],
)
def test_config_keys_must_be_flags(capsys, tmp_path, monkeypatch, command, key):
    # a retired or misspelt key is the unrecognized flag it stands for, not
    # a run with the default
    _draws_nothing(monkeypatch)
    argv, cfg = {"estimate": (["estimate"], {"polytope": "3-cube", "k": 1, "N": 10}),
                 "gen": (["gen", "ortho"], {"n": 3, "count": 2})}[command]
    err = refused(capsys, with_config(tmp_path, argv, {**cfg, key: 4}))
    assert f"unrecognized arguments: --{key.replace('_', '-')}=4" in err


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--polytope", "3-cube", "--k", "1", "--N", "50", "--mode", mode]
     for mode in ("random", "qmc", "qmc-noveech")]
    + [["gen", what, "--n", "3", "--count", "5"] for what in ("sphere", "ortho")],
    ids=["random", "qmc", "qmc-noveech", "sphere", "ortho"],
)
def test_seed_drives_every_mode(capsys, argv):
    # a run's one seed is the Haar draws in random mode and the digit
    # scrambling otherwise
    outputs = {run_cli(capsys, [*argv, "--seed", seed])[1] for seed in ("0", "5")}
    assert len(outputs) == 2


def test_config_takes_integral_numbers_and_strings(capsys, tmp_path):
    # 1000 and "1000" are one value, and so are 25, 25.0 and "25", and a
    # trace list and its comma-joined string
    path = tmp_path / "cfg.json"
    outputs = []
    for count in (1000, "1000"):
        path.write_text(json.dumps({"count": count}))
        rc, out, _ = run_cli(capsys, ["gen", "udsg", "--config", str(path)])
        assert rc == 0
        outputs.append(out)
    assert len(parse_csv(outputs[0])[1]) == 1000
    assert outputs[1] == outputs[0]
    outputs = []
    for N, seed, trace, reference in ((10, 1, [3, 10], 25), ("10", "1", ["3", "10"], "25"),
                                      (10, 1, "3,10", 25.0)):
        path.write_text(json.dumps({"polytope": "3-cube", "k": 1, "N": N, "seed": seed,
                                    "trace": trace, "reference": reference}))
        rc, out, _ = run_cli(capsys, ["estimate", "--config", str(path)])
        assert rc == 0
        outputs.append(out)
    rows = parse_csv(outputs[0])[1]
    assert [int(row[1]) for row in rows] == [3, 10]
    assert [float(row[4]) for row in rows] == [abs(float(row[2]) - 25.0) for row in rows]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize(
    "key, value",
    [("count", None), ("count", {"value": 2}), ("count", [2]), ("seed", [1, 2]),
     ("mode", None), ("mode", ["qmc"]), ("output", False), ("config", "other.json")],
)
def test_config_values_are_text_a_user_could_type(capsys, tmp_path, monkeypatch, key, value):
    # a string, a number for a numeric flag, a list only for --trace; and a
    # config file names no other
    _draws_nothing(monkeypatch)
    cfg = {**GEN_CFG["ortho"], key: value}
    err = refused(capsys, with_config(tmp_path, ["gen", "ortho"], cfg))
    assert f"config key {key!r} is not text for --{key}: {value!r}" in err
    assert err.startswith("usage: udortho gen ortho ")


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config"), ("{", "cannot read config"), ("[3]", "must be a JSON object"),
])
def test_a_config_file_that_is_no_json_object_is_refused(capsys, tmp_path, monkeypatch, text,
                                                         message):
    _draws_nothing(monkeypatch)
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert message in refused(capsys, ["gen", "udsg", "--count", "2", "--config", str(path)])


def test_reproduce_tables_takes_no_config(capsys, tmp_path, monkeypatch):
    _draws_nothing(monkeypatch)
    argv = with_config(tmp_path, ["reproduce-tables", "--output-dir", str(tmp_path)], {})
    assert f"unrecognized arguments: --config {argv[-1]}" in refused(capsys, argv)


def test_the_docstring_flag_table_is_the_parsers():
    # the flag table of the cli docstring lists, per command, the flags its
    # parser declares
    rows = re.findall(r"^    (gen \w+|estimate) +(--.*(?:\n +--.*)*)", cli.__doc__, re.M)
    table = {command: {flag.replace("-", "_") for flag in re.findall(r"--([\w-]+)", flags)}
             for command, flags in rows}
    parsers = {"estimate": COMMANDS["estimate"], **{f"gen {what}": p for what, p in GEN.items()}}
    assert table == {command: declared(parser) for command, parser in parsers.items()}


@pytest.mark.parametrize(
    "cfg, flags",
    [({"reference": True}, []), ({"reference": "nan"}, []), ({"reference": "inf"}, []),
     ({"reference": [25]}, []), ({}, ["--reference", "inf"]), ({}, ["--reference", "nan"])],
    ids=["true", "nan-string", "inf-string", "list", "inf-flag", "nan-flag"],
)
def test_estimate_refuses_a_non_finite_or_boolean_reference(capsys, tmp_path, monkeypatch, cfg, flags):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    cfg = {"polytope": "3-cube", "k": 1, "N": 10, **cfg}
    assert "--reference" in refused(capsys, with_config(tmp_path, ["estimate", *flags], cfg))


def test_estimate_stdout_trace(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--polytope", "3-cube", "--k", "1",
         "--N", "200", "--mode", "qmc", "--trace", "100,200", "--reference", "1.5"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["mode", "m", "I", "cI", "abs_err"]
    assert [row[0] for row in rows] == ["qmc", "qmc"]
    assert [int(row[1]) for row in rows] == [100, 200]
    for row in rows:
        value, scaled, err = float(row[2]), float(row[3]), float(row[4])
        assert scaled == pytest.approx(2.0 * value)
        assert err == pytest.approx(abs(value - 1.5))


def test_estimate_floats_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    rc, _, _ = run_cli(
        capsys,
        ["estimate", "--polytope", "3-cube", "--k", "2",
         "--N", "150", "--mode", "qmc", "--output", str(out_path)],
    )
    assert rc == 0
    header, rows = parse_csv(out_path.read_text())
    # 17 significant digits reproduce the double exactly
    value = float(rows[0][2])
    assert f"{value:.17g}" == rows[0][2]


def test_estimate_ci_is_the_crofton_constant_times_i(capsys):
    # here intrinsic / final is one ulp off the Crofton constant, so scaling
    # by that ratio would misprint cI on most rows
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--polytope", "4-cube", "--k", "3", "--N", "100", "--mode", "qmc",
         "--seed", "1", "--trace", ",".join(map(str, range(1, 101)))],
    )
    assert rc == 0
    _, rows = parse_csv(out)
    c = crofton_constant(4, 3)
    assert [row[3] for row in rows] == [f"{c * float(row[2]):.17g}" for row in rows]
    trace = run(ExperimentSpec(builtin("4-cube"), 4, 3, 100, "qmc", seed=1))
    assert rows[-1][3] == f"{trace.intrinsic:.17g}"


def test_estimate_unknown_polytope_exits_2(capsys):
    err = refused(capsys, ["estimate", "--polytope", "unknown-body", "--k", "1", "--N", "10"])
    assert "unknown polytope" in json.loads(err)["error"]


def test_estimate_polytope_file(capsys, tmp_path):
    doc = polytope_to_dict(builtin("3-simplex"))
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--polytope-file", str(path), "--k", "1", "--N", "50", "--mode", "qmc"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert len(rows) == 1  # default trace point is N


def test_estimate_bad_polytope_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"label\": \"nope\"}")
    err = refused(capsys, ["estimate", "--polytope-file", str(path), "--k", "1", "--N", "10"])
    assert "error" in json.loads(err)


@pytest.mark.parametrize("n", [3.7, True])
def test_estimate_refuses_a_polytope_file_with_a_non_integral_n(capsys, tmp_path, monkeypatch, n):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({**polytope_to_dict(builtin("3-simplex")), "n": n}))
    err = refused(capsys, ["estimate", "--polytope-file", str(path), "--k", "1", "--N", "10"])
    assert "n must be an integer" in json.loads(err)["error"]


def test_estimate_config_file_with_flag_override(capsys, tmp_path):
    cfg = {"polytope": "3-cube", "k": 1, "N": 120, "mode": "qmc", "trace": "120"}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out_base, _ = run_cli(capsys, ["estimate", "--config", str(cfg_path)])
    assert rc == 0
    # identical config gives identical bytes
    rc, out_again, _ = run_cli(capsys, ["estimate", "--config", str(cfg_path)])
    assert out_base == out_again
    # flags win over the config file, given before or after it, and
    # --config=PATH is --config PATH
    rc, out_override, _ = run_cli(
        capsys, ["estimate", "--config", str(cfg_path), "--k", "2"]
    )
    assert rc == 0
    assert out_override != out_base
    for argv in (["--k", "2", "--config", str(cfg_path)], ["--k=2", f"--config={cfg_path}"]):
        assert run_cli(capsys, ["estimate", *argv]) == (0, out_override, "")
    assert run_cli(capsys, ["estimate", f"--config={cfg_path}"]) == (0, out_base, "")
    # and a flag of the body conflicts with the config's other body flag
    doc = tmp_path / "cube.json"
    doc.write_text(json.dumps(polytope_to_dict(builtin("3-cube"))))
    err = refused(capsys, ["estimate", "--config", str(cfg_path), "--polytope-file", str(doc)])
    assert "--polytope-file: not allowed with argument --polytope" in err


def test_estimate_config_matches_flags(capsys, tmp_path):
    # every estimate parameter given in a config file prints the bytes that
    # the same parameters given as flags print
    doc_path = tmp_path / "icosahedron.json"
    doc_path.write_text(json.dumps(polytope_to_dict(builtin("k-icosahedron"))))
    cfg_path = tmp_path / "run.json"
    for body in ({"polytope": "k-icosahedron"}, {"polytope_file": str(doc_path)}):
        for mode in ("random", "qmc"):
            cfg = {**body, "k": 2, "N": 300, "mode": mode, "seed": 7,
                   "trace": [10, 100, 300], "reference": 25.0}
            flags = []
            for key, value in cfg.items():
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                flags += ["--" + key.replace("_", "-"), text]
            cfg_path.write_text(json.dumps(cfg))
            rc, from_config, _ = run_cli(capsys, ["estimate", "--config", str(cfg_path)])
            assert rc == 0
            rc, from_flags, _ = run_cli(capsys, ["estimate", *flags])
            assert rc == 0
            assert from_config == from_flags
            assert len(parse_csv(from_config)[1]) == 3
            # and to an output file
            cfg_path.write_text(json.dumps({**cfg, "output": str(tmp_path / "config.csv")}))
            assert run_cli(capsys, ["estimate", "--config", str(cfg_path)])[:2] == (0, "")
            assert run_cli(capsys, ["estimate", *flags, "--output", str(tmp_path / "flags.csv")])[:2] == (0, "")
            assert (tmp_path / "config.csv").read_text() == from_flags
            assert (tmp_path / "flags.csv").read_text() == from_flags


def test_gen_targets_declare_only_the_flags_they_read():
    common = {"config", "count", "output"}
    assert {what: declared(parser) for what, parser in GEN.items()} == {
        "sphere": common | {"n", "seed"},
        "ortho": common | {"n", "mode", "seed"},
        "grassmann": common | {"n", "k", "mode", "seed"},
        "udsg": common,
    }
    # the modes are spelt one way, as the estimator spells them
    for parser in (COMMANDS["estimate"], GEN["ortho"], GEN["grassmann"]):
        assert next(a for a in parser._actions if a.dest == "mode").choices == MODES


def test_gen_config_matches_flags(capsys, tmp_path):
    # every parameter of a target given in a config file prints the bytes
    # that the same parameters given as flags print, and each parameter the
    # target declares is read: changing any one of them changes the rows.
    base = {"n": 4, "k": 2, "count": 40, "mode": "qmc", "seed": 3}
    changes = [{}, {"n": 3}, {"k": 1}, {"count": 41}, {"mode": "qmc-noveech"},
               {"mode": "random"}, {"mode": "random", "seed": 4}, {"seed": 4}]
    cfg_path = tmp_path / "gen.json"
    for what, parser in GEN.items():
        flags_of = declared(parser)
        target_base = {key: value for key, value in base.items() if key in flags_of}
        target_changes = [change for change in changes if change.keys() <= flags_of]
        assert set().union(*target_changes) == flags_of - {"config", "output"}
        outputs = []
        for change in target_changes:
            cfg = {**target_base, **change}
            flags = [text for key, value in cfg.items()
                     for text in ("--" + key.replace("_", "-"), str(value))]
            cfg_path.write_text(json.dumps(cfg))
            rc, from_config, _ = run_cli(capsys, ["gen", what, "--config", str(cfg_path)])
            assert rc == 0
            rc, from_flags, _ = run_cli(capsys, ["gen", what, *flags])
            assert rc == 0
            assert from_config == from_flags
            outputs.append(from_config)
        assert len(set(outputs)) == len(target_changes), what
        # and to an output file, the flag winning over the config file
        cfg_path.write_text(json.dumps({**target_base, "output": str(tmp_path / "config.csv")}))
        assert run_cli(capsys, ["gen", what, "--config", str(cfg_path)])[:2] == (0, "")
        flags = ["--output", str(tmp_path / "flags.csv")]
        assert run_cli(capsys, ["gen", what, "--config", str(cfg_path), *flags])[:2] == (0, "")
        assert (tmp_path / "config.csv").read_text() == outputs[0]
        assert (tmp_path / "flags.csv").read_text() == outputs[0]


def _draws_nothing(monkeypatch):
    # every call that runs an estimate or draws a sequence fails the test
    for name in ("cli.run", "cli.OrthoSequence", "cli.random_ortho_batch", "cli.sphere_points",
                 "udsg.r_sequence"):
        monkeypatch.setattr("udortho." + name, lambda *a, name=name: pytest.fail(f"{name} called"))


GEN_FLAG_VALUES = {"n": "3", "k": "1", "mode": "qmc", "seed": "1", "kind": "halton", "skip": "1"}


@pytest.mark.parametrize(
    "what, key",
    [(what, key) for what, parser in GEN.items()
     for key in GEN_FLAG_VALUES if key not in declared(parser)],
)
def test_gen_refuses_a_flag_the_target_does_not_read(capsys, tmp_path, monkeypatch, what, key):
    # as a flag and as a config key it is an unrecognized argument (no
    # target takes --kind, which chose the unscrambled sequence, or --skip,
    # which offset the sequence's indices)
    _draws_nothing(monkeypatch)
    value = GEN_FLAG_VALUES[key]
    err = refused(capsys, ["gen", what, *gen_flags(what), "--" + key, value])
    assert f"unrecognized arguments: --{key} {value}" in err
    err = refused(capsys, with_config(tmp_path, ["gen", what], {**GEN_CFG[what], key: value}))
    assert f"unrecognized arguments: --{key}={value}" in err


@pytest.mark.parametrize("argv, unread", [
    (["gen", "udsg", "--count", "3", "--cou", "3"], "--cou"),
    (["gen", "ortho", "--n", "3", "--k", "2", "--count", "5"], "--k"),
    (["estimate", "--polytope", "cube3", "--k", "1", "--N", "10", "--mo", "random"], "--mo"),
    (["reproduce-tables", "--output-dir", "OUT", "--fresh"], "--fresh"),
])
def test_no_parser_takes_an_abbreviated_flag(capsys, tmp_path, monkeypatch, argv, unread):
    # one spelling per flag: a prefix of a flag is an unrecognized argument,
    # not that flag (gen ortho takes no --k, though grassmann does)
    _draws_nothing(monkeypatch)
    err = refused(capsys, [str(tmp_path) if arg == "OUT" else arg for arg in argv])
    assert f"unrecognized arguments: {unread}" in err


@pytest.mark.parametrize("mode", ["qr", "qr-noveech", "Random", 1])
def test_gen_config_mode_is_one_of_modes(capsys, tmp_path, monkeypatch, mode):
    _draws_nothing(monkeypatch)
    cfg = {**GEN_CFG["ortho"], "mode": mode}
    err = refused(capsys, with_config(tmp_path, ["gen", "ortho"], cfg))
    assert "--mode" in err and repr(mode) in err


@pytest.mark.parametrize(
    "argv, cfg",
    [(["estimate"], {"polytope": "3-cube", "k": 1, "N": 10, "output": 7}),
     (["gen", "udsg"], {"count": 3, "output": 5}),
     (["gen", "udsg"], {"count": 3, "output": ["a"]}),
     (["gen", "ortho"], {"n": 3, "count": 3, "output": {"path": "a"}})],
    ids=["estimate-int", "udsg-int", "udsg-list", "ortho-dict"],
)
def test_a_non_string_output_exits_2_before_any_work(capsys, tmp_path, monkeypatch, argv, cfg):
    _draws_nothing(monkeypatch)
    err = refused(capsys, with_config(tmp_path, argv, cfg))
    assert f"config key 'output' is not text for --output: {cfg['output']!r}" in err


def test_gen_udsg_output_file(capsys, tmp_path):
    out_path = tmp_path / "udsg.csv"
    rc, out, _ = run_cli(capsys, ["gen", "udsg", "--count", "2", "--output", str(out_path)])
    assert rc == 0
    assert out == ""
    assert out_path.read_text().startswith("m,q,r\n1,5,4\n")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_take_the_umask(tmp_path, umask, mode):
    # written files get the mode a plain open(path, "w") gives, not mkstemp's 0600
    old = os.umask(umask)
    try:
        assert main(["gen", "udsg", "--count", "2", "--output", str(tmp_path / "udsg.csv")]) == 0
        assert main(["reproduce-tables", "--output-dir", str(tmp_path / "tables")]) == 0
    finally:
        os.umask(old)
    written = [tmp_path / "udsg.csv", *sorted((tmp_path / "tables").iterdir())]
    assert len(written) == 6
    assert {f.name: stat.S_IMODE(f.stat().st_mode) for f in written} == {f.name: mode for f in written}


def test_figure1_reference_and_band_columns(tmp_path):
    # the reference is the exact value, written bit for bit, with a +-0.5% band
    assert main(["reproduce-tables", "--output-dir", str(tmp_path)]) == 0
    header, rows = parse_csv((tmp_path / "figure1.csv").read_text())
    columns = {name: {float(row[i]) for row in rows} for i, name in enumerate(header)}
    assert len(rows) == 1000
    for k in (1, 2):
        ref = reference_value("k-icosahedron", 3, k)
        assert columns[f"reference_k{k}"] == {ref}
        assert columns[f"band_low_k{k}"] == {ref * 0.995}
        assert columns[f"band_high_k{k}"] == {ref * 1.005}


def test_fresh_seed_redraws_only_the_random_cells(tmp_path, monkeypatch):
    # --fresh-seed draws the base seed from SeedSequence entropy: the random
    # (r) cells change, the qmc (qr) cells and the reference columns do not
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(cli.np.random, "SeedSequence", lambda: seed_sequence(2**40 + 7))
    fixed, fresh, again = tmp_path / "fixed", tmp_path / "fresh", tmp_path / "again"
    assert main(["reproduce-tables", "--output-dir", str(fixed)]) == 0
    assert main(["reproduce-tables", "--output-dir", str(fresh), "--fresh-seed"]) == 0
    assert main(["reproduce-tables", "--output-dir", str(again), "--fresh-seed"]) == 0
    for name in ("table1.csv", "table2.csv", "figure1.csv"):
        assert (fresh / name).read_bytes() == (again / name).read_bytes()
    for name in ("table1.csv", "table2.csv"):
        header, rows = parse_csv((fixed / name).read_text())
        fresh_rows = parse_csv((fresh / name).read_text())[1]
        assert [row[:4] for row in rows] == [row[:4] for row in fresh_rows]
        algo = header.index("algo")
        for row, fresh_row in zip(rows, fresh_rows):
            if row[algo] == "qr":
                assert fresh_row == row
            else:
                assert row[algo] == "r"
                assert all(a != b for a, b in zip(row[4:], fresh_row[4:]))
    header, rows = parse_csv((fixed / "figure1.csv").read_text())
    fresh_rows = parse_csv((fresh / "figure1.csv").read_text())[1]
    for i, name in enumerate(header):
        same = [row[i] for row in rows] == [row[i] for row in fresh_rows]
        assert same == (not name.startswith("I_random")), name
