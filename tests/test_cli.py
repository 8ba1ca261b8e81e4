"""CLI behavior: output shapes, golden values, exit-code contract."""

import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from layeragg import aggregate, client, sim
from layeragg.cli import main
from layeragg.client import SchemeParams, check_memory
from layeragg.errors import CapExceededError
from layeragg.gf import GF

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


@pytest.mark.parametrize("named", ["--output", "--gradient", "--scenario", "gradients.path"])
def test_a_named_path_that_is_a_directory_exits_2_naming_it(tmp_path, named, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "p": 24, "n_e": 2, "n_h": 4, "s": 1, "nu": 2,
        "gradients": {"kind": "file", "path": str(folder)},
    }))
    argv = {
        "--output": ENCODE + ["--output", str(folder)],
        "--gradient": ENCODE + ["--gradient", str(folder)],
        "--scenario": ["simulate", "--scenario", str(folder)],
        "gradients.path": ["simulate", "--scenario", str(scenario)],
    }[named]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(folder) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, needle",
    [
        (
            ["simulate", "--p", "24", "--n-e", "3", "--n-h", "20", "--s", "9", "--nu", "11",
             "--field-bits", "4"],
            "error: code length nu+s=20 exceeds the 15 distinct nonzero evaluation points",
        ),
        (ENCODE + ["--n-e", "-3"], "error: n_e must be positive, got -3"),
    ],
    ids=["code-longer-than-the-field", "negative-edge-count"],
)
def test_a_configuration_fault_exits_2_before_round_0(argv, needle, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(needle) and captured.err.count("\n") == 1
    assert captured.out == ""


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


def test_verify_prints_its_report_when_a_round_fails_in_a_stage(capsys, monkeypatch):
    # count_groups miscounts helper 0, which breaks the plan checks and every round
    count_groups = aggregate.count_groups

    def miscounted(cover, params):
        counts = count_groups(cover, params)
        counts.m_j[:, 0] += 1
        return counts

    monkeypatch.setattr(aggregate, "count_groups", miscounted)
    assert main(["verify", "--n-e", "5", "--n-h", "4", "--s", "1", "--nu", "2", "--trials", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    failed = {c["name"]: c["detail"] for c in data["checks"] if not c["passed"]}
    assert data["passed"] is False
    assert list(failed) == ["[nu=2] double_count", "[nu=2] end_to_end"]
    assert failed["[nu=2] end_to_end"].startswith("round 0: stage ")


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


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in cli.splitlines() if line.startswith("layeragg ")]
    scenario = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert any("--scenario" in argv for argv in commands)
    (tmp_path / "scenario.json").write_text(scenario)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LAYERAGG_SEED", raising=False)
    monkeypatch.delenv("LAYERAGG_OUTDIR", raising=False)
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_sweep_rejects_empty_nu_range(capsys):
    assert main(["sweep", "--n-e", "5", "--n-h", "4", "--s", "1",
                 "--nu-min", "3", "--nu-max", "2"]) == 2
    captured = capsys.readouterr()
    assert "is empty" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, needle",
    [
        # n_h - s = 0 leaves no nu to check, which used to pass with no checks
        (["--n-e", "5", "--n-h", "2", "--s", "2"], "error: nu range range(1, 1) is empty; n_h-s = 0"),
        # a nu outside [1, n_h-s] used to surface as p = C(n_h, nu+s) * nu * 2 = 0
        (["--n-e", "3", "--n-h", "4", "--s", "1", "--nu", "5"], "error: nu must lie in [1, n_h-s] = [1, 3], got 5"),
        (["--n-e", "3", "--n-h", "4", "--s", "1", "--nu", "0"], "error: nu must lie in [1, n_h-s] = [1, 3], got 0"),
    ],
)
def test_verify_rejects_a_nu_range_without_a_valid_nu(argv, needle, capsys):
    assert main(["verify", "--trials", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == needle + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [["verify", "--trials", "1"], ["sweep"]])
def test_a_negative_s_exits_2_naming_s(command, capsys):
    # n_h - s then exceeds n_h, and C(n_h, nu+s) used to raise a bare ValueError
    assert main([*command, "--n-e", "2", "--n-h", "2", "--s", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: s must lie in [1, n_h-1] = [1, 1], got -2\n"
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
        ([[0, 0], [1]], "row 0: helper index 0 named twice"),
    ],
    ids=["index-out-of-range", "row-heavier-than-s", "wrong-row-count", "helper-named-twice"],
)
def test_malformed_matrix_rows_in_a_scenario_exit_2_naming_the_row(tmp_path, rows, needle, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "p": 60, "n_e": 2, "n_h": 6, "s": 1, "nu": 2,
        "erasures": {"kind": "matrix", "rows": rows},
    }))
    assert main(["simulate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: scenario field 'erasures.rows'")
    assert needle in captured.err and captured.err.count("\n") == 1
    assert "round 0" not in captured.out


# sha256 of stdout, recorded before random_gradient drew from 64-bit words:
# the random gradients, and so every encoded column, must not change.
ENCODE_DIGESTS = {
    (4, 24): "865f89a7a545eb9138dd3ddc42a05ecbf20d79427d84c7efc2ae2013a5445fa1",
    (4, 25): "45b640f89396a4a4a42db34adaf63203234029ac91e6a02591e1928298404777",
    (4, 27): "d83b2cb3705cad51dd9b9bce24f50f40ae5ea3bb31c2f275f8f55ed7d4003079",
    (4, 1001): "bbfcb52a81425885372e4cab8c59f0592463ab544cd8d99e817d04c2dd19678c",
    (8, 24): "0822ad1913e7e3205f398e1f24ba09334313f3b536854d2a74e6ed70f86d06bc",
    (8, 25): "5f2480113d7597be5c0aa51da48d48f5a9997a5a291d35958e3b3b82e84eef68",
    (8, 27): "cb71544b3dc6661d22e6b65adb7088ef81563f184e807cf12ba028106a60c480",
    (8, 1001): "633699f25e008b9e1d8ed24613c68f0b50aa2e2a652d396582835f96b9030b1e",
    (16, 24): "cf72ae4e6aa7a3960127db1229976e96881dff775c300cb700843310278705dc",
    (16, 25): "6bc47fa2f6fce19728774fb024b9dd5460f215956333b6ff5d74b1317b5c88a8",
    (16, 27): "a33a7891155711cc5fd2d8bee7e59d8959dc40604a9e6bc8143e8d54d2edab39",
    (16, 1001): "bb7dab02620ecf29330801f594cb159512318aa1bf244eb8b175a82dc63daab0",
}
SIMULATE_DIGESTS = {
    4: "74c5ebb20d1cc72cf18d7b0f85162c42fd16fccd9a2b61905f30034ef20ca1a4",
    8: "16012b02dede318d604bff3a32ceee353d7f0c56a356098f6a1a9b980e370b20",
    16: "21fbe019ed7334a9513751d3cd1d28668e012a57477292eeea4c662df383f828",
}


def _stdout_sha256(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("m, p", sorted(ENCODE_DIGESTS))
def test_encode_random_gradient_output_is_pinned(m, p, capsys):
    argv = [
        "encode", "--seed", "9", "--field-bits", str(m), "--format", "json",
        "--p", str(p), "--n-h", "5", "--s", "2", "--nu", "2", "--edge-index", "3",
    ]
    assert _stdout_sha256(argv, capsys) == ENCODE_DIGESTS[m, p]


@pytest.mark.parametrize("m", sorted(SIMULATE_DIGESTS))
def test_simulate_json_output_is_pinned(m, capsys):
    argv = [
        "simulate", "--p", "60", "--n-e", "5", "--n-h", "4", "--s", "1", "--nu", "2",
        "--rounds", "3", "--seed", "7", "--field-bits", str(m), "--format", "json",
    ]
    assert _stdout_sha256(argv, capsys) == SIMULATE_DIGESTS[m]


# sha256 of sweep's stdout: the worst-case table as JSON, and the measured
# one as CSV and JSON, whose measured column prints as floats.
SWEEP_DIGESTS = {
    ("--n-e", "50", "--n-h", "10", "--s", "2", "--format", "json"):
        "e6f3c9b97471a108d6e3737012f76ea362b1c21280fabc6c53b9e72c76d4fd43",
    ("--n-e", "5", "--n-h", "4", "--s", "1", "--measure", "--seed", "7", "--format", "csv"):
        "a71a8327c43e96706d826c1e9123f3682595927109db44d3a7543cc542908429",
    ("--n-e", "5", "--n-h", "4", "--s", "1", "--measure", "--seed", "7", "--format", "json"):
        "fada62bcb0cf89d96de405e8e247759a5e4264d8d0e9bddb1d1406e569ff8d33",
}


@pytest.mark.parametrize("argv", sorted(SWEEP_DIGESTS))
def test_sweep_output_is_pinned(argv, capsys):
    assert _stdout_sha256(["sweep", *argv], capsys) == SWEEP_DIGESTS[argv]


# sha256 of verify's whole JSON report: its checks, then each nu's brute
# force worst case, the theorem's, the bound and their consistency.
VERIFY_BRUTE_FORCE_DIGEST = "c17b99620fc95be3c930057d71699596d79faf237bc64ab1e8e7e29c29b5d60b"


def test_verify_brute_force_output_is_pinned(capsys):
    argv = ["verify", "--n-e", "3", "--n-h", "4", "--s", "1", "--nu", "2", "--trials", "2",
            "--brute-force"]
    assert _stdout_sha256(argv, capsys) == VERIFY_BRUTE_FORCE_DIGEST


# sha256 of verify's report on a code of C(12, 6) = 924 > 256 slot
# subsets, whose decodability check takes the sampled path
VERIFY_SAMPLED_DIGEST = "66e398c39e2841a4517a9cc053f98f177d1d397ebc66ed0fef7e315a96c85be5"


def test_verify_output_past_the_decodability_subset_cap_is_pinned(capsys):
    argv = ["verify", "--n-e", "3", "--n-h", "12", "--s", "6", "--nu", "6", "--trials", "2"]
    assert _stdout_sha256(argv, capsys) == VERIFY_SAMPLED_DIGEST


def test_a_measured_sweep_of_a_code_longer_than_the_field_exits_2(capsys):
    argv = ["sweep", "--n-e", "2", "--n-h", "17", "--s", "1", "--nu-min", "15", "--nu-max", "15",
            "--measure", "--field-bits", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: code length nu+s=16 exceeds the 15 distinct nonzero evaluation points "
        "of GF(m=4, poly=0x13)\n"
    )


# Each would allocate far past the memory cap: a 931 GiB gradient, the
# C(300, 3) = 4,455,100-row layer grid, a 931 GiB reference sum.
OVERSIZED = {
    "huge-p-encode": ["encode", "--p", "1000000000000", "--n-h", "4", "--s", "1", "--nu", "2"],
    "huge-grid-encode": ["encode", "--p", "24", "--n-h", "300", "--s", "1", "--nu", "2"],
    "huge-p-simulate": [
        "simulate", "--p", "1000000000000", "--n-e", "2", "--n-h", "4", "--s", "1", "--nu", "2",
    ],
}
# the child's address space: room for the interpreter and numpy, far
# below any of the inputs above, so a missing cap ends in MemoryError
ADDRESS_SPACE = 1 << 30
CHILD = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
from layeragg.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", list(OVERSIZED.values()), ids=list(OVERSIZED))
def test_oversized_encode_and_simulate_are_refused_before_allocating(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("refused: "), done.stderr
    assert "above the cap of 2^31" in done.stderr and client.MEMORY_CAP == 1 << 31


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run_limited(*args) -> subprocess.CompletedProcess:
    """python with args, in a child held to ADDRESS_SPACE from its start."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, *args], env=env, preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=120,
    )


def test_a_sweep_at_amc_lists_only_the_subsets_its_edges_erase():
    # C(26, 13) = 10,400,600 13-subsets of helpers: listing them all takes
    # about 1.6 GB, and the adversarial pattern of 3 edges reads 3
    done = _run_limited(
        "-m", "layeragg.cli", "sweep", "--n-e", "3", "--n-h", "26", "--s", "13",
        "--nu-min", "13", "--nu-max", "13",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1:] == ["13,2,1,3,1,true,"]


DECODABILITY = """
import sys
import numpy as np
from layeragg import mds, sim
from layeragg.client import SchemeParams
from layeragg.gf import GF
code = mds.make_generator(GF(8), 13, 13)
params = SchemeParams(p=13, n_e=3, n_h=26, s=13, nu=13)
result = sim._check_layer_decodability(code, params, np.random.default_rng(0), "")
sys.exit(0 if result.passed else str(result))
"""


def test_the_decodability_check_draws_slot_subsets_without_listing_them():
    # the same C(26, 13) slot subsets, of one [26, 13] codeword
    done = _run_limited("-c", DECODABILITY)
    assert done.returncode == 0, done.stderr


def test_the_memory_estimate_is_carried_and_grows_with_the_grid():
    params = SchemeParams(p=24, n_e=1, n_h=300, s=1, nu=2)
    check_memory(params, GF(8))  # the tables alone fit
    with pytest.raises(CapExceededError) as refused:
        check_memory(params, GF(8), grid=True)
    estimate = refused.value.estimate
    assert 1 << 34 <= estimate < 1 << 35
    assert "would take at least 2^34 bytes, above the cap of 2^31" in str(refused.value)


def test_an_estimate_of_more_digits_than_an_int_prints_is_refused_in_one_line(capsys):
    # C(15000, 7501) layers: the estimate has about 4500 decimal digits
    assert main(["encode", "--p", "1", "--n-h", "15000", "--s", "1", "--nu", "7500"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("refused: ")
