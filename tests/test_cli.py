import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qexpect.cli import fmt, main
from qexpect.config import document_from_dict, load_document, scenario_from_document
from qexpect.hilbert import evolve
from qexpect.market import run_market
from qexpect.measurement import born_distribution

import oracles

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_cli_subprocess(*argv: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "qexpect.cli", *argv],
        capture_output=True,
        env=env,
        cwd=ROOT,
    )


# ---------------------------------------------------------------------------
# formatting


def test_fmt_is_fixed_twelve_decimals():
    assert fmt(1.0) == "1.000000000000"
    assert fmt(0.625) == "0.625000000000"
    assert fmt(-0.5) == "-0.500000000000"
    assert fmt(133.1) == "133.100000000000"


def test_fmt_never_emits_negative_zero():
    assert fmt(-1e-15) == "0.000000000000"
    assert fmt(0.0) == "0.000000000000"


# ---------------------------------------------------------------------------
# golden files


@pytest.mark.parametrize(
    "command,config,golden",
    [
        ("born", "basic.json", "born_basic.txt"),
        ("born", "tilted.json", "born_tilted.txt"),
        ("interference", "tilted.json", "interference_tilted.txt"),
        ("order-effect", "tilted.json", "order_effect_tilted.txt"),
    ],
)
def test_golden_outputs(command, config, golden):
    code, output = run_cli(command, str(CONFIGS / config))
    assert code == 0
    assert output == (GOLDEN / golden).read_text(encoding="utf-8")


def test_interference_line_matches_worked_values():
    code, output = run_cli("interference", str(CONFIGS / "tilted.json"))
    assert code == 0
    assert output == "p_direct=1.000000000000 p_classical=0.625000000000 IT=0.375000000000\n"


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_unknown_command_exits_64(capsys):
    assert main(["frobnicate"]) == 64
    assert "usage:" in capsys.readouterr().err


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 64
    assert "usage:" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["born", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["born", str(tmp_path / "nope.json")]) == 2


def test_invalid_config_exits_1(tmp_path, capsys):
    raw = {
        "version": 1,
        "states": {"up": [[1.0, 0.0], [0.0, 0.0]]},
        "hamiltonians": {"bad": {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}},
        "born": {"state": "up", "observable": "missing"},
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["born", str(path)]) == 1
    assert "validation error" in capsys.readouterr().err


def test_version_mismatch_exits_1(tmp_path):
    path = tmp_path / "versioned.json"
    path.write_text(json.dumps({"version": 3}), encoding="utf-8")
    assert main(["born", str(path)]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


# ---------------------------------------------------------------------------
# evolve


def test_evolve_grid_has_header_and_rows():
    code, output = run_cli("evolve", str(CONFIGS / "basic.json"), "--t", "3.0", "--grid", "7")
    assert code == 0
    lines = output.splitlines()
    assert lines[0] == "t,p_1,p_-1"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "0.000000000000"
    assert first[1] == "0.853553390593"


def test_evolve_tracks_the_closed_form():
    code, output = run_cli("evolve", str(CONFIGS / "basic.json"), "--t", "2.0", "--grid", "21")
    assert code == 0
    # coupling Hamiltonian on a real state: the up amplitude is
    # cos(t)cos(pi/8) - i sin(t)sin(pi/8)
    up0 = np.cos(np.pi / 8) ** 2
    for line in output.splitlines()[1:]:
        t, p_up, _ = (float(x) for x in line.split(","))
        expected = up0 * np.cos(t) ** 2 + (1 - up0) * np.sin(t) ** 2
        assert p_up == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_evolve_rejects_non_finite_t(t, capsys):
    code, output = run_cli("evolve", str(CONFIGS / "basic.json"), "--t", t)
    assert code == 1
    assert output == ""
    assert "--t: expected a finite number" in capsys.readouterr().err


def _pairs(vector) -> list:
    return [[float(z.real), float(z.imag)] for z in vector]


def _evolve_config(tmp_path, rng, d: int, values: list[float]) -> Path:
    raw = {
        "version": 1,
        "states": {"psi": _pairs(oracles.random_state_array(rng, d))},
        "observables": {"obs": {"vectors": [_pairs(v) for v in oracles.random_unitary(rng, d).T], "eigenvalues": values}},
        "hamiltonians": {"h": {"matrix": [_pairs(row) for row in oracles.random_hermitian(rng, d)]}},
        "evolve": {"state": "psi", "hamiltonian": "h", "observable": "obs"},
    }
    path = tmp_path / f"evolve_d{d}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "values", [[1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 0.5, 0.5, -1.0]], ids=["d2", "d3_rank2", "d4_rank2"]
)
def test_evolve_grid_matches_per_point_evaluation(values, tmp_path):
    path = _evolve_config(tmp_path, np.random.default_rng(len(values)), len(values), values)
    code, output = run_cli("evolve", str(path), "--t", "-3.5", "--grid", "36")
    assert code == 0
    doc = load_document(path)
    psi, ham, obs = doc.states["psi"], doc.hamiltonians["h"], doc.observables["obs"]
    rows = output.splitlines()[1:]
    assert len(rows) == 36
    for line, t in zip(rows, np.linspace(0.0, -3.5, 36)):
        printed = [float(x) for x in line.split(",")]
        expected = [t] + [p for _, p in born_distribution(evolve(psi, ham, t), obs).entries]
        assert np.abs(np.subtract(printed, expected)).max() < 1e-12


def test_evolve_makes_one_eigh_call_per_command(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: calls.append(1) or eigh(matrix))
    code, output = run_cli("evolve", str(CONFIGS / "basic.json"), "--t", "6.0", "--grid", "301")
    assert code == 0
    assert len(output.splitlines()) == 302
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# named errors for malformed config values


@pytest.mark.parametrize(
    "config, path, value, argv, field",
    [
        ("basic.json", ("states", "lean_up", 0, 0), float("nan"), ["born"], "states.lean_up"),
        ("basic.json", ("observables", "price", "eigenvalues"), 5, ["born"], "observables.price.eigenvalues: expected a list"),
        ("basic.json", ("hamiltonians", "coupling", "preset"), ["rabi"], ["evolve", "--t", "1"], "hamiltonians.coupling"),
        ("tilted.json", ("interference", "target_outcome"), None, ["interference"], "interference.target_outcome"),
        ("tilted.json", ("interference", "target_outcome"), [1.0], ["interference"], "interference.target_outcome"),
    ],
    ids=["nan_amplitude", "scalar_eigenvalues", "list_preset", "null_target_outcome", "list_target_outcome"],
)
def test_malformed_values_exit_1_naming_the_field(config, path, value, argv, field, tmp_path, capsys):
    raw = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / config
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, output = run_cli(argv[0], str(bad), *argv[1:])
    assert code == 1
    assert output == ""
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 1, None], ids=["string", "integer", "null"])
def test_degrees_must_be_a_boolean(value, tmp_path, capsys):
    raw = json.loads((CONFIGS / "tilted.json").read_text(encoding="utf-8"))
    raw["observables"]["tilted"]["degrees"] = value
    bad = tmp_path / "tilted.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, output = run_cli("born", str(bad))
    assert code == 1
    assert output == ""
    assert "observables.tilted.degrees: expected true or false" in capsys.readouterr().err


def test_uncertainty_overflow_exits_1(tmp_path, capsys):
    raw = json.loads((CONFIGS / "basic.json").read_text(encoding="utf-8"))
    raw["observables"]["diagonal_45"]["eigenvalues"] = [1e308, -1.0]
    bad = tmp_path / "basic.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, output = run_cli("uncertainty", str(bad))
    err = capsys.readouterr().err
    assert code == 1
    assert output == ""
    assert "uncertainty product overflows" in err
    assert "nan" not in err and "RuntimeWarning" not in err


def test_classical_population_with_an_override_of_other_outcomes_exits_1(tmp_path, capsys):
    raw = json.loads((CONFIGS / "market.json").read_text(encoding="utf-8"))
    raw["observables"]["flat"] = {"angle": 0, "eigenvalues": [1, 1]}
    raw["scenario"]["news"][0]["observable"] = "flat"
    bad = tmp_path / "market.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, output = run_cli("simulate-market", str(bad))
    assert code == 1
    assert output == ""
    assert "news[0].observable" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ensemble


def test_ensemble_output_is_reproducible():
    args = ("ensemble", str(CONFIGS / "basic.json"), "--n", "100000", "--seed", "42")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    header, *rows = out1.splitlines()
    assert header == "outcome,empirical,analytic,deviation"
    up = rows[0].split(",")
    assert abs(float(up[1]) - float(up[2])) < 0.01


# ---------------------------------------------------------------------------
# simulate-market


def test_simulate_market_stdout_csv():
    code, output = run_cli("simulate-market", str(CONFIGS / "market.json"))
    assert code == 0
    lines = output.splitlines()
    assert lines[0] == "period,price,up_fraction,down_fraction"
    assert lines[1].startswith("0,100.000000000000,,")
    assert len(lines) == 8


SEED_42_CSV = """\
period,price,up_fraction,down_fraction
0,100.000000000000,,
1,99.670909090909,0.467090909091,0.532909090909
2,99.261352264463,0.458909090909,0.541090909091
3,98.792116781031,0.452727272727,0.547272727273
4,98.323303281397,0.452545454545,0.547454545455
5,97.912133104039,0.458181818182,0.541818181818
6,97.570330748475,0.465090909091,0.534909090909
"""


def test_simulate_market_seed_42_output_is_frozen():
    """The determinism contract across commits: market bits change only on
    purpose (a new draw layout), and then this CSV changes with them."""
    code, output = run_cli("simulate-market", str(CONFIGS / "market.json"), "--seed", "42")
    assert code == 0
    assert output == SEED_42_CSV
    assert hashlib.sha256(output.encode()).hexdigest().startswith("ebd2f2a3f347cf8a")


def test_simulate_market_seed_override_changes_path():
    _, base = run_cli("simulate-market", str(CONFIGS / "market.json"))
    _, other = run_cli("simulate-market", str(CONFIGS / "market.json"), "--seed", "7")
    assert base != other


def test_simulate_market_csv_flag_writes_file(tmp_path):
    target = tmp_path / "path.csv"
    code, output = run_cli(
        "simulate-market", str(CONFIGS / "market.json"), "--csv", str(target)
    )
    assert code == 0
    assert output == ""
    _, stdout_version = run_cli("simulate-market", str(CONFIGS / "market.json"))
    assert target.read_text(encoding="utf-8") == stdout_version


def test_run_report_is_self_reproducing(tmp_path):
    report_path = tmp_path / "report.json"
    code, _ = run_cli(
        "simulate-market",
        str(CONFIGS / "market.json"),
        "--seed",
        "99",
        "--report",
        str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["seed"] == 99
    assert report["version"]
    replay_scenario = scenario_from_document(document_from_dict(report["config"]))
    replay = run_market(replay_scenario)
    recorded = report["results"]["price_path"]
    assert recorded["initial_price"] == replay.initial_price
    for entry, record in zip(recorded["periods"], replay.periods):
        assert entry["price"] == record.price
        assert entry["up_fraction"] == record.up_fraction
        assert entry["down_fraction"] == record.down_fraction


def test_simulate_market_deterministic_across_thread_env():
    results = {}
    for threads in ("1", "4"):
        proc = run_cli_subprocess(
            "simulate-market",
            str(CONFIGS / "market.json"),
            env_extra={"QEXPECT_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        results[threads] = proc.stdout
    assert results["1"] == results["4"]


def test_cli_runs_as_module_subprocess():
    proc = run_cli_subprocess("born", str(CONFIGS / "basic.json"))
    assert proc.returncode == 0
    assert proc.stdout.decode() == (GOLDEN / "born_basic.txt").read_text(encoding="utf-8")
