import argparse
import json
import os
import stat

import numpy as np
import pytest

from udortho import cli
from udortho.cli import main
from udortho.estimator import MODES, ExperimentSpec, reference_value, run
from udortho.geometry import builtin, crofton_constant, polytope_to_dict
from udortho.orthogonal import (
    OrthoSequence,
    default_ortho_spec,
    orthogonality_defect,
    random_ortho_batch,
)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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
        assert orthogonality_defect(g) < 1e-10


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
    rc, _, err = run_cli(capsys, ["gen", "udsg"])
    assert rc == 2
    assert "count" in json.loads(err)["error"]


def _config_error(capsys, tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, [*argv, "--config", str(path)])
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    return json.loads(err)["error"]


@pytest.mark.parametrize(
    "what, key",
    [("udsg", "count"), ("sphere", "n"), ("grassmann", "k"), ("ortho", "seed"),
     ("sphere", "seed"), ("ortho", "skip")],
)
def test_gen_config_rejects_non_numbers(capsys, tmp_path, what, key):
    cfg = {**GEN_CFG[what], key: "x"}
    assert "'x'" in _config_error(capsys, tmp_path, ["gen", what], cfg)


@pytest.mark.parametrize("key", ["k", "N", "seed", "reference"])
def test_estimate_config_rejects_non_numbers_before_running(capsys, tmp_path, monkeypatch, key):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    cfg = {"polytope": "3-cube", "k": 1, "N": 10, key: "abc"}
    assert "'abc'" in _config_error(capsys, tmp_path, ["estimate"], cfg)


@pytest.mark.parametrize("value", [2.7, True, float("inf")])
@pytest.mark.parametrize(
    "what, key",
    [("udsg", "count"), ("sphere", "n"), ("grassmann", "k"), ("ortho", "seed"),
     ("sphere", "seed"), ("ortho", "skip")],
)
def test_gen_config_refuses_non_integral_values(capsys, tmp_path, what, key, value):
    # a fractional or boolean integer parameter is an error, not truncated
    cfg = {**GEN_CFG[what], key: value}
    assert repr(value) in _config_error(capsys, tmp_path, ["gen", what], cfg)


@pytest.mark.parametrize(
    "key, value",
    [("N", 10.9), ("k", 2.5), ("k", True), ("seed", 0.5), ("seed", False),
     ("trace", [3.5, 10]), ("trace", [True, 10])],
)
def test_estimate_config_refuses_non_integral_values(capsys, tmp_path, monkeypatch, key, value):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    cfg = {"polytope": "3-cube", "k": 1, "N": 10, key: value}
    bad = value[0] if key == "trace" else value
    assert repr(bad) in _config_error(capsys, tmp_path, ["estimate"], cfg)


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--mode", "random", "--seed", "-1"]]
)
def test_estimate_refuses_a_negative_seed_before_running(capsys, monkeypatch, flags):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    rc, out, err = run_cli(
        capsys, ["estimate", "--polytope", "3-cube", "--k", "1", "--N", "10", *flags]
    )
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    assert "must be >= 0" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command, key",
    [("estimate", "permutation_seed"), ("estimate", "n"), ("estimate", "premutation_seed"),
     ("gen", "trace"), ("gen", "permutation_seed")],
)
def test_config_keys_must_be_flags(capsys, tmp_path, monkeypatch, command, key):
    # a retired or misspelt key is an error, not a run with the default
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    monkeypatch.setattr("udortho.cli.OrthoSequence", lambda spec: pytest.fail("frames were drawn"))
    argv, cfg = {"estimate": (["estimate"], {"polytope": "3-cube", "k": 1, "N": 10}),
                 "gen": (["gen", "ortho"], {"n": 3, "count": 2})}[command]
    assert repr(key) in _config_error(capsys, tmp_path, argv, {**cfg, key: 4})


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
    # 1000, 1000.0 and "1000" are one value, and so are 25, 25.0 and "25"
    path = tmp_path / "cfg.json"
    outputs = []
    for count in (1000, 1000.0, "1000"):
        path.write_text(json.dumps({"count": count}))
        rc, out, _ = run_cli(capsys, ["gen", "udsg", "--config", str(path)])
        assert rc == 0
        outputs.append(out)
    assert len(parse_csv(outputs[0])[1]) == 1000
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    outputs = []
    for N, trace, reference in ((10, [3, 10], 25), (10.0, [3.0, 10.0], 25.0),
                                ("10", ["3", "10"], "25")):
        path.write_text(json.dumps({"polytope": "3-cube", "k": 1, "N": N, "seed": 1.0,
                                    "trace": trace, "reference": reference}))
        rc, out, _ = run_cli(capsys, ["estimate", "--config", str(path)])
        assert rc == 0
        outputs.append(out)
    rows = parse_csv(outputs[0])[1]
    assert [int(row[1]) for row in rows] == [3, 10]
    assert [float(row[4]) for row in rows] == [abs(float(row[2]) - 25.0) for row in rows]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize(
    "cfg, flags",
    [({"reference": True}, []), ({"reference": "nan"}, []), ({"reference": "inf"}, []),
     ({"reference": [25]}, []), ({}, ["--reference", "inf"]), ({}, ["--reference", "nan"])],
    ids=["true", "nan-string", "inf-string", "list", "inf-flag", "nan-flag"],
)
def test_estimate_refuses_a_non_finite_or_boolean_reference(capsys, tmp_path, monkeypatch, cfg, flags):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    cfg = {"polytope": "3-cube", "k": 1, "N": 10, **cfg}
    assert "reference" in _config_error(capsys, tmp_path, ["estimate", *flags], cfg)


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
    rc, _, err = run_cli(
        capsys, ["estimate", "--polytope", "unknown-body", "--k", "1", "--N", "10"]
    )
    assert rc == 2
    payload = json.loads(err.strip())
    assert "unknown polytope" in payload["error"]


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
    rc, _, err = run_cli(capsys, ["estimate", "--polytope-file", str(path), "--k", "1", "--N", "10"])
    assert rc == 2
    assert "error" in json.loads(err.strip())


@pytest.mark.parametrize("n", [3.7, True])
def test_estimate_refuses_a_polytope_file_with_a_non_integral_n(capsys, tmp_path, monkeypatch, n):
    monkeypatch.setattr("udortho.cli.run", lambda spec: pytest.fail("run() was called"))
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({**polytope_to_dict(builtin("3-simplex")), "n": n}))
    rc, out, err = run_cli(capsys, ["estimate", "--polytope-file", str(path), "--k", "1", "--N", "10"])
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
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
    # flags win over the config file
    rc, out_override, _ = run_cli(
        capsys, ["estimate", "--config", str(cfg_path), "--k", "2"]
    )
    assert rc == 0
    assert out_override != out_base


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
        "sphere": common | {"n", "seed", "kind", "skip"},
        "ortho": common | {"n", "mode", "seed", "kind", "skip"},
        "grassmann": common | {"n", "k", "mode", "seed", "kind", "skip"},
        "udsg": common,
    }
    # the modes are spelt one way, as the estimator spells them
    for parser in (COMMANDS["estimate"], GEN["ortho"], GEN["grassmann"]):
        assert next(a for a in parser._actions if a.dest == "mode").choices == MODES


def test_gen_config_matches_flags(capsys, tmp_path):
    # every parameter of a target given in a config file prints the bytes
    # that the same parameters given as flags print, and each parameter the
    # target declares is read: changing any one of them changes the rows.
    # A None in a change drops that key (random mode takes no kind or skip).
    base = {"n": 4, "k": 2, "count": 40, "mode": "qmc", "seed": 3, "kind": "halton", "skip": 5}
    changes = [{}, {"n": 3}, {"k": 1}, {"count": 41}, {"mode": "qmc-noveech"},
               {"mode": "random", "kind": None, "skip": None},
               {"mode": "random", "seed": 4, "kind": None, "skip": None},
               {"kind": "scrambled-halton"}, {"kind": "scrambled-halton", "seed": 4},
               {"skip": 6}]
    cfg_path = tmp_path / "gen.json"
    for what, parser in GEN.items():
        flags_of = declared(parser)
        target_base = {key: value for key, value in base.items() if key in flags_of}
        target_changes = [change for change in changes if change.keys() <= flags_of]
        assert set().union(*target_changes) == flags_of - {"config", "output"}
        outputs = []
        for change in target_changes:
            cfg = {key: value for key, value in {**target_base, **change}.items()
                   if value is not None}
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
    # as a flag it is a usage error, as a config key one JSON error line
    _draws_nothing(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["gen", what, *gen_flags(what), "--" + key, GEN_FLAG_VALUES[key]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert repr(key) in _config_error(capsys, tmp_path, ["gen", what], {**GEN_CFG[what], key: 1})


@pytest.mark.parametrize("argv, unread", [
    (["gen", "udsg", "--cou", "3"], "--cou"),
    (["gen", "ortho", "--n", "3", "--k", "2", "--count", "5"], "--k"),
    (["estimate", "--polytope", "cube3", "--k", "1", "--N", "10", "--mo", "random"], "--mo"),
    (["reproduce-tables", "--output-dir", "OUT", "--fresh"], "--fresh"),
])
def test_no_parser_takes_an_abbreviated_flag(capsys, tmp_path, monkeypatch, argv, unread):
    # one spelling per flag: a prefix of a flag is an unrecognized argument,
    # not that flag (gen ortho --k is not --kind)
    _draws_nothing(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path) if arg == "OUT" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unread}" in captured.err


@pytest.mark.parametrize("what", ["ortho", "grassmann"])
@pytest.mark.parametrize("key, value", [("kind", "halton"), ("skip", 0)])
def test_gen_random_mode_refuses_kind_and_skip(capsys, tmp_path, monkeypatch, what, key, value):
    # kind and skip choose the quasi sequence; random mode reads neither
    _draws_nothing(monkeypatch)
    rc, out, err = run_cli(capsys, ["gen", what, *gen_flags(what), "--mode", "random",
                                    "--" + key, str(value)])
    assert (rc, out) == (2, "")
    assert "random mode" in json.loads(err)["error"]
    cfg = {**GEN_CFG[what], "mode": "random", key: value}
    assert "random mode" in _config_error(capsys, tmp_path, ["gen", what], cfg)
    assert "random mode" in _config_error(capsys, tmp_path, ["gen", what, "--mode", "random"],
                                          {**GEN_CFG[what], key: value})


@pytest.mark.parametrize("mode", ["qr", "qr-noveech", "Random", 1])
def test_gen_config_mode_is_one_of_modes(capsys, tmp_path, monkeypatch, mode):
    _draws_nothing(monkeypatch)
    cfg = {**GEN_CFG["ortho"], "mode": mode}
    assert repr(mode) in _config_error(capsys, tmp_path, ["gen", "ortho"], cfg)


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
    assert "output must be a path string" in _config_error(capsys, tmp_path, argv, cfg)


@pytest.mark.parametrize("what", ["sphere", "ortho", "grassmann"])
def test_gen_rejects_indices_past_int64(capsys, what):
    # cube indices are int64; a skip that pushes them past 2^63 - 1 is an
    # input error, not a silent wrap to negative indices
    argv = ["gen", what, "--n", "3", *(["--k", "1"] if what == "grassmann" else []),
            "--count", "2", "--skip", str(2**63 - 1)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "2^63 - 1" in json.loads(err)["error"]
    # in range: the sequence reads some way past index 2 (a block of
    # products, and the factors of its gaps)
    argv[-1] = str(2**63 - 10**6)
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert len(parse_csv(out)[1]) == 2


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
