import json

import numpy as np
import pytest

from udortho.cli import main
from udortho.geometry import builtin, polytope_to_dict
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


def test_gen_udsg(capsys):
    rc, out, _ = run_cli(capsys, ["gen", "udsg", "--count", "3"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["m", "q", "r"]
    assert [tuple(int(c) for c in row) for row in rows] == [
        (1, 5, 4), (2, 21, 16), (3, 41, 20),
    ]


def test_gen_sphere(capsys):
    rc, out, _ = run_cli(capsys, ["gen", "sphere", "--n", "3", "--count", "1"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["m", "x1", "x2", "x3"]
    vec = np.array([float(c) for c in rows[0][1:]])
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_gen_ortho_modes(capsys):
    for mode in ("qr", "qr-noveech", "random"):
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
    # draws with seed s: one random_ortho_batch call
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
        ["gen", "grassmann", "--n", "3", "--k", "2", "--count", "2", "--mode", "qr"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert len(header) == 1 + 3 * 2
    b = np.array([float(c) for c in rows[0][1:]]).reshape(3, 2)
    assert np.abs(b.T @ b - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("mode", ["qr", "qr-noveech", "random"])
def test_gen_grassmann_rows_are_the_first_k_columns(capsys, mode):
    # %.17g round-trips a float, so the rows equal the frames' columns bitwise
    rc, out, _ = run_cli(
        capsys,
        ["gen", "grassmann", "--n", "4", "--k", "2", "--count", "700", "--mode", mode,
         "--seed", "5", "--permutation-seed", "3"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["m", "b11", "b12", "b21", "b22", "b31", "b32", "b41", "b42"]
    assert [int(row[0]) for row in rows] == list(range(1, 701))
    got = np.array([[float(c) for c in row[1:]] for row in rows]).reshape(700, 4, 2)
    if mode == "random":
        frames = random_ortho_batch(4, 700, np.random.default_rng(5))
    else:
        spec = default_ortho_spec(4, permutation_seed=3, veech=mode == "qr")
        frames = OrthoSequence(spec).take(700)
    assert np.array_equal(got, frames[:, :, :2])


def test_gen_requires_count(capsys):
    rc, _, err = run_cli(capsys, ["gen", "udsg"])
    assert rc == 2
    assert "count" in json.loads(err)["error"]


def test_estimate_stdout_trace(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--polytope", "3-cube", "--n", "3", "--k", "1",
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
        ["estimate", "--polytope", "3-cube", "--n", "3", "--k", "2",
         "--N", "150", "--mode", "qmc", "--output", str(out_path)],
    )
    assert rc == 0
    header, rows = parse_csv(out_path.read_text())
    # 17 significant digits reproduce the double exactly
    value = float(rows[0][2])
    assert f"{value:.17g}" == rows[0][2]


def test_estimate_unknown_polytope_exits_2(capsys):
    rc, _, err = run_cli(
        capsys, ["estimate", "--polytope", "unknown-body", "--n", "3", "--k", "1", "--N", "10"]
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


def test_estimate_config_file_with_flag_override(capsys, tmp_path):
    cfg = {"polytope": "3-cube", "n": 3, "k": 1, "N": 120, "mode": "qmc", "trace": "120"}
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
            cfg = {**body, "n": 3, "k": 2, "N": 300, "mode": mode, "seed": 7,
                   "permutation_seed": 2, "trace": [10, 100, 300], "reference": 25.0}
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


@pytest.mark.parametrize("what", ["sphere", "ortho", "grassmann"])
def test_gen_rejects_indices_past_int64(capsys, what):
    # cube indices are int64; a skip that pushes them past 2^63 - 1 is an
    # input error, not a silent wrap to negative indices
    argv = ["gen", what, "--n", "3", "--k", "1", "--count", "2", "--skip", str(2**63 - 1)]
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
