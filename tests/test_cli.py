"""CLI behavior: output shapes, golden values, exit-code contract."""

import json

import pytest

from layeragg import sim
from layeragg.cli import main

SEVEN_EDGE_ROWS = [[4, 5], [4, 5], [3, 4], [2, 3], [2, 3], [0, 1], [0, 1]]
ENCODE = ["encode", "--p", "24", "--n-h", "4", "--s", "1", "--nu", "2"]
SIMULATE = ["simulate", "--p", "24", "--n-e", "2", "--n-h", "4", "--s", "1", "--nu", "2"]
SWEEP_MEASURE = ["sweep", "--n-e", "5", "--n-h", "4", "--s", "1", "--measure"]
VERIFY = ["verify", "--n-e", "5", "--n-h", "4", "--s", "1", "--trials", "1"]


def test_encode_prints_four_layer_grid(capsys):
    assert main(["encode", "--p", "24", "--n-h", "4", "--s", "1", "--nu", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    grid = [line for line in lines if line.startswith(("layer", "0", "1", "2", "3"))]
    assert len(grid) == 5  # header + 4 layers
    assert "g0" in grid[1] and "g1" in grid[1] and "p0" in grid[1]
    assert "column 0" in out and "column 3" in out


def test_encode_zero_gradient_payload(tmp_path, capsys):
    out_file = tmp_path / "dump.json"
    rc = main(
        [
            "encode", "--p", "24", "--n-h", "4", "--s", "1", "--nu", "2",
            "--gradient", "zero", "--output", str(out_file),
        ]
    )
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["params"]["L"] == 4 and payload["params"]["b"] == 3
    assert all(all(all(v == 0 for v in row) for row in col) for col in payload["columns"])
    assert payload["column_layers"][0] == [0, 1, 2]


def test_encode_rejects_bad_nu(capsys):
    assert main(["encode", "--p", "24", "--n-h", "4", "--s", "1", "--nu", "0"]) == 2
    assert "nu" in capsys.readouterr().err


def test_simulate_scenario_file(tmp_path, capsys):
    scenario = {
        "p": 120, "n_e": 7, "n_h": 6, "s": 2, "nu": 2,
        "erasures": {"kind": "matrix", "rows": SEVEN_EDGE_ROWS},
        "gradients": {"kind": "random"},
        "seed": 11,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "C_HM(eps)=10/3" in out


def test_simulate_inline_rounds(capsys):
    rc = main(
        [
            "simulate", "--p", "60", "--n-e", "5", "--n-h", "4", "--s", "1",
            "--nu", "2", "--rounds", "5", "--seed", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 5


def test_simulate_requires_params_without_scenario(capsys):
    assert main(["simulate", "--p", "60"]) == 2
    assert "--n-e" in capsys.readouterr().err


def test_simulate_malformed_scenario_names_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 8, "n_e": 1, "n_h": 4, "s": 1}))
    assert main(["simulate", "--scenario", str(path)]) == 2
    assert "nu" in capsys.readouterr().err

    path.write_text("{")
    assert main(["simulate", "--scenario", str(path)]) == 2


def test_simulate_rejects_nonpositive_rounds(capsys):
    rc = main(
        [
            "simulate", "--p", "60", "--n-e", "5", "--n-h", "4", "--s", "1",
            "--nu", "2", "--rounds", "0",
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "--rounds" in captured.err
    assert "round 0" not in captured.out


def test_sweep_golden_csv(capsys):
    assert main(["sweep", "--n-e", "50", "--n-h", "10", "--s", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "nu,c_eh_num,c_eh_den,c_hm_num,c_hm_den,tight,measured"
    assert lines[1:] == [
        "1,3,1,3,1,true,",
        "2,2,1,6,1,true,",
        "3,5,3,10,1,true,",
        "4,3,2,15,1,true,",
        "5,7,5,21,1,true,",
        "6,4,3,28,1,true,",
        "7,9,7,36,1,true,",
        "8,5,4,45,1,true,",
    ]


def test_sweep_three_rows_for_four_helpers(capsys):
    assert main(["sweep", "--n-e", "7", "--n-h", "4", "--s", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + nu in [3]


def test_sweep_json_format(capsys):
    assert main(["sweep", "--n-e", "50", "--n-h", "10", "--s", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["c_eh"] == {"num": 3, "den": 1}


def test_sweep_deterministic_output_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(
            ["sweep", "--n-e", "5", "--n-h", "4", "--s", "1", "--measure",
             "--seed", "7", "--output", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_bad_range(capsys):
    assert main(["sweep", "--n-e", "5", "--n-h", "4", "--s", "1", "--nu-max", "9"]) == 2


def test_verify_defaults_pass(capsys):
    rc = main(["verify", "--n-e", "5", "--n-h", "4", "--s", "1", "--trials", "5"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_verify_brute_force_cross_check(capsys):
    rc = main(
        ["verify", "--n-e", "2", "--n-h", "3", "--s", "1", "--trials", "3",
         "--brute-force"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["brute_force"]) == {"1", "2"}
    assert data["brute_force"]["1"]["worst"]["value"] == {
        "num": 2, "den": 1, "float": 2.0,
    }
    assert data["brute_force"]["1"]["consistent"] is True
    assert data["brute_force"]["2"]["theorem"]["tight"] is True


def test_env_overrides_for_seed_and_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LAYERAGG_OUTDIR", str(tmp_path))
    monkeypatch.setenv("LAYERAGG_SEED", "42")
    assert main(["sweep", "--n-e", "5", "--n-h", "4", "--s", "1",
                 "--output", "table.csv"]) == 0
    assert (tmp_path / "table.csv").exists()

    # explicit --seed beats the environment; same env seed reproduces bytes
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        rc = main(["simulate", "--p", "24", "--n-e", "2", "--n-h", "4", "--s", "1",
                   "--nu", "2", "--rounds", "2", "--output", out.name])
        assert rc == 0
        capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["scenario"]["seed"] == 42


def test_verify_brute_force_over_cap_refuses(capsys):
    rc = main(
        ["verify", "--n-e", "7", "--n-h", "6", "--s", "2", "--nu", "2",
         "--trials", "1", "--brute-force"]
    )
    assert rc == 3
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (SIMULATE + ["--seed", "-1"], "--seed"),
        (SWEEP_MEASURE + ["--seed", "-1"], "--seed"),
        (ENCODE + ["--seed", "-1"], "--seed"),
        (VERIFY + ["--seed", "-1"], "--seed"),
        (ENCODE + ["--edge-index", "-1"], "--edge-index"),
        (ENCODE + ["--gradient", "zero", "--edge-index", "-1"], "--edge-index"),
    ],
)
def test_negative_seed_or_edge_index_exits_2_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be a non-negative integer, got -1" in captured.err
    assert captured.out == ""


def test_negative_seed_overriding_a_scenario_file_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"p": 24, "n_e": 2, "n_h": 4, "s": 1, "nu": 2}))
    assert main(["simulate", "--scenario", str(path), "--seed", "-1"]) == 2
    assert "error: --seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
@pytest.mark.parametrize("argv", [ENCODE, SIMULATE, SWEEP_MEASURE, VERIFY])
def test_bad_seed_in_environment_exits_2_naming_it(argv, value, monkeypatch, capsys):
    monkeypatch.setenv("LAYERAGG_SEED", value)
    assert main(argv) == 2
    assert f"error: LAYERAGG_SEED must be a non-negative integer, got {value!r}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(trials, capsys):
    assert main(["verify", "--n-e", "5", "--n-h", "4", "--s", "1", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "error: trials must be a positive integer" in captured.err
    assert captured.out == ""


def test_sweep_rejects_empty_nu_range(capsys):
    assert main(["sweep", "--n-e", "5", "--n-h", "4", "--s", "1",
                 "--nu-min", "3", "--nu-max", "2"]) == 2
    captured = capsys.readouterr()
    assert "is empty" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "values, needle", [([1.7, 2, 3], "entry 0 is 1.7"), ([1, "a", 3], "entry 1 is 'a'")]
)
def test_encode_rejects_non_integer_gradient_entries(tmp_path, values, needle, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(values))
    argv = ["encode", "--p", "3", "--n-h", "3", "--s", "1", "--nu", "1"]
    assert main(argv + ["--gradient", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {path}: {needle}, expected an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content", ["[1.5, 2, 3]", None])
def test_bad_gradient_file_exits_2_from_simulate_and_encode(tmp_path, content, capsys):
    gradient = tmp_path / "g.json"
    if content is not None:
        gradient.write_text(content)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "p": 3, "n_e": 2, "n_h": 3, "s": 1, "nu": 1,
        "gradients": {"kind": "file", "path": str(gradient)},
    }))
    assert main(["simulate", "--scenario", str(scenario), "--rounds", "3"]) == 2
    simulate = capsys.readouterr()
    assert main(["encode", "--p", "3", "--n-h", "3", "--s", "1", "--nu", "1",
                 "--gradient", str(gradient)]) == 2
    encode = capsys.readouterr()
    assert simulate.out == encode.out == ""
    assert str(gradient) in simulate.err
    assert simulate.err == encode.err
    if content is not None:
        assert "entry 0 is 1.5, expected an integer" in simulate.err


def test_simulate_reads_a_gradient_file_once(tmp_path, monkeypatch, capsys):
    gradient = tmp_path / "g.json"
    gradient.write_text("[1, 2, 3]")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "p": 3, "n_e": 2, "n_h": 3, "s": 1, "nu": 1,
        "gradients": {"kind": "file", "path": str(gradient)},
    }))
    reads = []
    load_gradient = sim.load_gradient

    def counting(*args, **kwargs):
        reads.append(args)
        return load_gradient(*args, **kwargs)

    monkeypatch.setattr(sim, "load_gradient", counting)
    assert main(["simulate", "--scenario", str(scenario), "--rounds", "3"]) == 0
    assert capsys.readouterr().out.count("pass") == 3
    assert len(reads) == 1


@pytest.mark.parametrize(
    "rows, needle",
    [
        ([[9], [0]], "row 0: helper index 9 out of range [0, 6)"),
        ([[0, 1], [2]], "row 0 has weight 2, expected at most 1"),
        ([[0], [1], [2]], "must be a list of n_e = 2 rows, got 3 rows"),
    ],
    ids=["index-out-of-range", "row-heavier-than-s", "wrong-row-count"],
)
def test_malformed_matrix_rows_in_a_scenario_exit_2_naming_the_row(tmp_path, rows, needle, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "p": 60, "n_e": 2, "n_h": 6, "s": 1, "nu": 2,
        "erasures": {"kind": "matrix", "rows": rows},
    }))
    assert main(["simulate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert "scenario field 'erasures.rows'" in captured.err
    assert needle in captured.err
    assert "round 0" not in captured.out
