import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qexpect import cli
from qexpect.cli import fmt, main
from qexpect.config import document_from_dict, load_document, scenario_from_document
from qexpect.hilbert import evolve, make_observable
from qexpect.market import run_market
from qexpect.measurement import born_distribution, evolved_born_grid

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


_USAGE_TEXT = """\
usage: qexpect <command> <config.json> [options]

commands:
  born             outcome distribution of measuring a state
  evolve           outcome distribution over a time grid under a Hamiltonian
  interference     direct vs classical total probability and their gap
  order-effect     sequential joint tables in both orders and their gap
  uncertainty      uncertainty product and its commutator lower bound
  ensemble         empirical vs analytic outcome frequencies
  simulate-market  run the ensemble market scenario, emit the price CSV
"""


@pytest.mark.parametrize(
    "argv, exit_code, stdout, stderr",
    [
        ([], 64, "", _USAGE_TEXT),
        (["help"], 0, _USAGE_TEXT, ""),
        (["frobnicate"], 64, "", "error: unknown command 'frobnicate'\n" + _USAGE_TEXT),
    ],
    ids=["no_arguments", "help", "unknown_command"],
)
def test_usage_text_is_pinned(argv, exit_code, stdout, stderr, capsys):
    assert run_cli(*argv) == (exit_code, stdout)
    assert capsys.readouterr().err == stderr


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


def _evolve_fields(output: str) -> list[list[str]]:
    return [line.split(",") for line in output.splitlines()[1:]]


@pytest.mark.parametrize(
    "t, flag",
    [("-3.5", ["--t=-3.5"]), ("-1e-13", ["--t=-1e-13"]), ("-1e-13", ["--t", "-1e-13"])],
    ids=["negative", "negative_zero_times", "exponent_as_its_own_token"],
)
def test_evolve_fields_are_fmt_of_the_grid_values(t, flag, tmp_path):
    path = _evolve_config(tmp_path, np.random.default_rng(4), 4, [-1.0, 0.5, 0.5, -1.0])
    code, output = run_cli("evolve", str(path), *flag, "--grid", "9")
    assert code == 0
    doc = load_document(path)
    times = np.linspace(0.0, float(t), 9)
    weights = evolved_born_grid(doc.states["psi"], doc.hamiltonians["h"], times, doc.observables["obs"])
    expected = [[fmt(v) for v in [time, *row]] for time, row in zip(times, weights)]
    assert _evolve_fields(output) == expected
    assert "-0.000000000000" not in output


def test_evolve_prints_a_negative_zero_weight_without_its_sign(monkeypatch):
    grids = []

    def signed_zeros(psi, hamiltonian, times, obs):
        grid = evolved_born_grid(psi, hamiltonian, times, obs)
        grid[0, 0], grid[1, 1], grid[2, 0] = -0.0, -1e-15, -2e-12
        grids.append(grid)
        return grid

    monkeypatch.setattr(cli, "evolved_born_grid", signed_zeros)
    code, output = run_cli("evolve", str(CONFIGS / "basic.json"), "--t", "1.0", "--grid", "4")
    assert code == 0
    times = np.linspace(0.0, 1.0, 4)
    assert _evolve_fields(output) == [[fmt(v) for v in [time, *row]] for time, row in zip(times, grids[0])]
    assert _evolve_fields(output)[0][1] == _evolve_fields(output)[1][2] == "0.000000000000"
    assert _evolve_fields(output)[2][1] == "-0.000000000002"


# ---------------------------------------------------------------------------
# parsers


def test_parsers_are_built_on_first_use_not_at_import():
    probe = "import qexpect.cli as cli; print(cli._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, check=True)
    assert done.stdout.decode().strip() == "0"


def test_repeated_calls_share_no_parser_state():
    args = ("ensemble", str(CONFIGS / "basic.json"), "--n", "500")
    fresh = run_cli_subprocess(*args)
    assert fresh.returncode == 0
    seeded = run_cli(*args, "--seed", "7")
    assert seeded[0] == 0 and seeded[1] != fresh.stdout.decode()
    assert run_cli(*args) == (0, fresh.stdout.decode())


def test_a_bad_flag_exits_2_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["born", str(CONFIGS / "basic.json"), "--bogus"])
        assert info.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# named errors for malformed config values


_MISSING = object()  # the mutation deletes the field

# Every reference a command reads by name: (config, path, argv, table, field).
_REFERENCES = [
    ("basic.json", ("evolve", "hamiltonian"), ["evolve", "--t", "1"], "hamiltonians", "evolve.hamiltonian"),
    ("tilted.json", ("interference", "partition"), ["interference"], "observables", "interference.partition"),
    ("tilted.json", ("order_effect", "second"), ["order-effect"], "observables", "order_effect.second"),
    ("basic.json", ("uncertainty", "first"), ["uncertainty"], "observables", "uncertainty.first"),
    ("basic.json", ("ensemble", "observable"), ["ensemble", "--n", "100"], "observables", "ensemble.observable"),
    ("market.json", ("scenario", "news", 0, "hamiltonian"), ["simulate-market"], "hamiltonians", "scenario.news[0].hamiltonian"),
]
_REFERENCE_CASES = {
    f"{field}_{tag}": (config, path, value, argv, message)
    for config, path, argv, table, field in _REFERENCES
    for tag, value, message in (
        ("unknown", "ghost", f"{field}: unknown {table} entry 'ghost'"),
        ("not_a_string", 7, f"{field}: expected a {table} name, got 7"),
        ("missing", _MISSING, f"{field}: expected a {table} name, got None"),
    )
}
# One [re, im] part replaced by a value that is not a finite number, in a
# state, in an observable's eigenvector and in a Hamiltonian matrix.
_PAIR_CASES = {
    f"{place}_{tag}": (
        "basic.json", path, build(part), argv, f"{element}: expected a {reason}",
    )
    for place, path, build, argv, element in (
        ("state", ("states", "lean_up"), lambda part: [[part, 0.0], [1.0, 0.0]], ["born"], "states.lean_up[0][0]"),
        (
            "vector", ("observables", "price"), lambda part: {"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, part]]], "eigenvalues": [1, -1]},
            ["born"], "observables.price.vectors[1][1][1]",
        ),
        (
            "matrix", ("hamiltonians", "coupling"), lambda part: {"matrix": [[[0, 0], [1, 0]], [[1, part], [0, 0]]]},
            ["evolve", "--t", "1"], "hamiltonians.coupling.matrix[1][0][1]",
        ),
    )
    for tag, part, reason in (
        ("true", True, "number, got True"),
        ("string", "1", "number, got '1'"),
        ("null", None, "number, got None"),
        ("list", [1], "number, got [1]"),
        ("infinity", float("inf"), "finite number, got inf"),
    )
}
_MALFORMED_VALUES = {
    "nan_amplitude": ("basic.json", ("states", "lean_up", 0, 0), float("nan"), ["born"], "states.lean_up[0][0]: expected a finite number, got nan"),
    "scalar_eigenvalues": ("basic.json", ("observables", "price", "eigenvalues"), 5, ["born"], "observables.price.eigenvalues: expected a list, got 5"),
    "list_preset": (
        "basic.json", ("hamiltonians", "coupling", "preset"), ["rabi"], ["evolve", "--t", "1"],
        "hamiltonians.coupling: needs 'matrix' or a 'preset' from ['rabi', 'splitting', 'zero'], got ['rabi']",
    ),
    "null_target_outcome": ("tilted.json", ("interference", "target_outcome"), None, ["interference"], "interference.target_outcome: expected a number, got None"),
    "list_target_outcome": ("tilted.json", ("interference", "target_outcome"), [1.0], ["interference"], "interference.target_outcome: expected a number, got [1.0]"),
    **_REFERENCE_CASES,
    "fractional_count": ("market.json", ("scenario", "populations", 0, "count"), 2.5, ["simulate-market"], "scenario.populations[0].count: expected an integer"),
    "news_object": ("market.json", ("scenario", "news"), {}, ["simulate-market"], "scenario.news: expected a list"),
    "version_true": ("basic.json", ("version",), True, ["born"], "version: expected 1, got True"),
    "version_float": ("basic.json", ("version",), 1.0, ["born"], "version: expected 1, got 1.0"),
    "ragged_vectors": (
        "basic.json", ("observables", "price"), {"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]], "eigenvalues": [1, -1]}, ["born"],
        "observables.price: eigenvectors have differing lengths [2, 3]",
    ),
    "outcome_not_an_eigenvalue": (
        "tilted.json", ("interference", "target_outcome"), 2.5, ["interference"],
        "interference.target_outcome: outcome 2.5 is not an eigenvalue of the observable",
    ),
    "uncertainty_overflow": (
        "basic.json", ("observables", "diagonal_45", "eigenvalues", 0), 1e308, ["uncertainty"],
        "uncertainty: uncertainty product overflows: observable eigenvalues are too large",
    ),
    **{
        f"{command}_dimension_mismatch": ("tilted.json", ("states", "up"), [[1, 0], [0, 0], [0, 0]], [command], f"{section}: {message}")
        for command, section, message in (
            ("born", "born", "dimension mismatch: state 3 vs observable 2"),
            ("interference", "interference", "dimension mismatch: state 3 vs target 2 vs partition 2"),
            ("order-effect", "order_effect", "dimension mismatch: state 3 vs first 2 vs second 2"),
        )
    },
    "propagator_overflow": (
        "basic.json", ("hamiltonians", "coupling", "omega"), 1e308, ["evolve", "--t", "-2.5"],
        "evolve: propagator phase energy * t is not finite: Hamiltonian or time too large",
    ),
    "ensemble_dimension_mismatch": (
        "basic.json", ("states", "lean_up"), [[1, 0], [0, 0], [0, 0]], ["ensemble", "--n", "100"],
        "ensemble: dimension mismatch: state 3 vs observable 2",
    ),
    "missing_angle": ("basic.json", ("observables", "price", "angle"), _MISSING, ["born"], "observables.price.angle: field is required"),
    "missing_eigenvalues": (
        "basic.json", ("observables", "price"), {"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, ["born"],
        "observables.price.eigenvalues: field is required",
    ),
    "vectors_not_a_list": ("basic.json", ("observables", "price"), {"vectors": 5, "eigenvalues": [1, -1]}, ["born"], "observables.price.vectors: expected a list"),
    "states_not_an_object": ("basic.json", ("states",), [], ["born"], "states: expected an object"),
    "hamiltonians_not_an_object": ("basic.json", ("hamiltonians",), "rabi", ["evolve", "--t", "1"], "hamiltonians: expected an object"),
    "empty_matrix": (
        "basic.json", ("hamiltonians", "coupling"), {"matrix": []}, ["evolve", "--t", "1"],
        "hamiltonians.coupling.matrix: expected a non-empty list of rows",
    ),
    "ragged_matrix": (
        "basic.json", ("hamiltonians", "coupling"), {"matrix": [[[0, 0], [1, 0]], [[1, 0]]]}, ["evolve", "--t", "1"],
        "hamiltonians.coupling.matrix: rows have differing lengths",
    ),
    **_PAIR_CASES,
    "short_pair": ("basic.json", ("states", "lean_up"), [[1.0], [0.0, 0.0]], ["born"], "states.lean_up[0]: complex numbers are written as [re, im], got [1.0]"),
    "long_pair": (
        "basic.json", ("observables", "price"), {"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]], "eigenvalues": [1, -1]}, ["born"],
        "observables.price.vectors[1][1]: complex numbers are written as [re, im], got [1, 0, 0]",
    ),
    "short_matrix_pair": (
        "basic.json", ("hamiltonians", "coupling"), {"matrix": [[[0, 0], [1]], [[1, 0], [0, 0]]]}, ["evolve", "--t", "1"],
        "hamiltonians.coupling.matrix[0][1]: complex numbers are written as [re, im], got [1]",
    ),
    "scalar_amplitude": ("basic.json", ("states", "lean_up"), [1.0, 0.0], ["born"], "states.lean_up[0]: complex numbers are written as [re, im], got 1.0"),
    "empty_state": ("basic.json", ("states", "lean_up"), [], ["born"], "states.lean_up: expected a non-empty list of [re, im] pairs"),
    "string_state": ("basic.json", ("states", "lean_up"), "up", ["born"], "states.lean_up: expected a non-empty list of [re, im] pairs"),
    "scalar_vector": (
        "basic.json", ("observables", "price"), {"vectors": [5, [[0, 0], [1, 0]]], "eigenvalues": [1, -1]}, ["born"],
        "observables.price.vectors[0]: expected a non-empty list of [re, im] pairs",
    ),
    "scalar_matrix_row": (
        "basic.json", ("hamiltonians", "coupling"), {"matrix": [[[0, 0], [1, 0]], 7]}, ["evolve", "--t", "1"],
        "hamiltonians.coupling.matrix[1]: expected a non-empty list of [re, im] pairs",
    ),
    "bool_eigenvalue": (
        "basic.json", ("observables", "price"), {"angle": 0.0, "eigenvalues": [1.0, True]}, ["born"],
        "observables.price.eigenvalues[1]: expected a number, got True",
    ),
}


@pytest.mark.parametrize("config, path, value, argv, message", list(_MALFORMED_VALUES.values()), ids=list(_MALFORMED_VALUES))
def test_malformed_values_exit_1_naming_the_field(config, path, value, argv, message, tmp_path, capsys):
    raw = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    target = raw
    for key in path[:-1]:
        target = target[key]
    if value is _MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    bad = tmp_path / config
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, output = run_cli(argv[0], str(bad), *argv[1:])
    assert code == 1
    assert output == ""
    assert capsys.readouterr().err == f"validation error: {message}\n"


# A flag value the command cannot use: (argv after the config, message with {tmp} for a scratch directory).
_BAD_FLAG_VALUES = {
    "grid_1": (["evolve", "--t", "1", "--grid", "1"], "--grid: need at least 2 samples"),
    "csv_in_a_missing_directory": (
        ["simulate-market", "--csv", "{tmp}/absent/path.csv"], "--csv: cannot write {tmp}/absent/path.csv: No such file or directory",
    ),
    "report_is_a_directory": (["simulate-market", "--report", "{tmp}"], "--report: cannot write {tmp}: Is a directory"),
    "report_in_a_missing_directory": (
        ["simulate-market", "--report", "{tmp}/absent/r.json"], "--report: cannot write {tmp}/absent/r.json: No such file or directory",
    ),
    "report_is_the_csv": (["simulate-market", "--csv", "{tmp}/out", "--report", "{tmp}/out"], "--report: same file as --csv: {tmp}/out"),
    "report_is_the_csv_spelled_otherwise": (
        ["simulate-market", "--csv", "{tmp}/out", "--report", "{tmp}/./out"], "--report: same file as --csv: {tmp}/./out",
    ),
}


@pytest.mark.parametrize("argv, message", list(_BAD_FLAG_VALUES.values()), ids=list(_BAD_FLAG_VALUES))
def test_bad_flag_values_exit_1_naming_the_flag(argv, message, tmp_path, capsys):
    config = "market.json" if argv[0] == "simulate-market" else "basic.json"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, output = run_cli(argv[0], str(CONFIGS / config), *argv[1:])
    assert code == 1
    assert output == ""
    assert capsys.readouterr().err == f"validation error: {message.format(tmp=tmp_path)}\n"


@pytest.mark.parametrize("csv, report", [("out", "out"), ("out", "./out"), ("./out", "sub/../out")], ids=["same", "dot", "parent"])
def test_csv_and_report_naming_one_file_write_neither(csv, report, tmp_path, monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    code, output = run_cli("simulate-market", str(CONFIGS / "market.json"), "--csv", csv, "--report", report)
    assert (code, output) == (1, "")
    assert capsys.readouterr().err == f"validation error: --report: same file as --csv: {report}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "csv_file"])
def test_a_halted_run_sends_its_partial_csv_where_the_whole_one_would_go(to_file, tmp_path, capsys):
    raw = json.loads((CONFIGS / "market.json").read_text(encoding="utf-8"))
    raw["scenario"]["impact"] = 50
    config = tmp_path / "market.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    csv, report = tmp_path / "out.csv", tmp_path / "r.json"
    code, output = run_cli("simulate-market", str(config), *(["--csv", str(csv)] if to_file else []), "--report", str(report))
    partial = "period,price,up_fraction,down_fraction\n0,100.000000000000,,\n"
    assert code == 1
    assert capsys.readouterr().err == "error: price became -318.1818181818178 in period 1\n"
    assert output == ("" if to_file else partial)
    if to_file:
        assert csv.read_text(encoding="utf-8") == partial
    assert not report.exists()


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


def test_hamiltonian_whose_hermitian_check_overflows_exits_1(tmp_path, capsys):
    # H - H^dagger overflows to inf at entry (0,1); the check names it without a RuntimeWarning
    raw = json.loads((CONFIGS / "basic.json").read_text(encoding="utf-8"))
    raw["hamiltonians"]["coupling"] = {"matrix": [[[1e308, 0], [-1e308, 0]], [[1e308, 0], [1e308, 0]]]}
    bad = tmp_path / "basic.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, output = run_cli("evolve", str(bad), "--t", "1")
    assert code == 1
    assert output == ""
    assert capsys.readouterr().err == (
        "validation error: hamiltonians.coupling.matrix: Hamiltonian is not Hermitian: entry (0,1) deviates by inf\n"
    )


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
# bases rounded to 8 decimals


def _rounded_bases_config(rng, d: int) -> dict:
    """Every analytic section and a market over two random d-dimensional bases,
    each eigenvector entry rounded to 8 decimals, so their Gram deviation lies
    between about 1e-9 and a little past the 1e-8 that Observable accepts."""

    def observable():
        values = [1.0, -1.0] + [float(v) for v in rng.choice([1.0, -1.0], d - 2)]
        return {"vectors": [_pairs(np.round(v, 8)) for v in oracles.random_unitary(rng, d).T], "eigenvalues": values}

    return {
        "version": 1,
        "states": {"psi": _pairs(oracles.random_state_array(rng, d))},
        "observables": {"a": observable(), "b": observable()},
        "hamiltonians": {"h": {"matrix": [_pairs(row) for row in oracles.random_hermitian(rng, d)]}},
        "born": {"state": "psi", "observable": "a"},
        "evolve": {"state": "psi", "hamiltonian": "h", "observable": "a"},
        "interference": {"state": "psi", "target_observable": "b", "target_outcome": 1.0, "partition": "a"},
        "order_effect": {"state": "psi", "first": "a", "second": "b"},
        "uncertainty": {"state": "psi", "first": "a", "second": "b"},
        "ensemble": {"state": "psi", "observable": "a"},
        "scenario": {
            "seed": 3,
            "periods": 4,
            "initial_price": 100.0,
            "impact": 0.05,
            "price_observable": "a",
            "populations": [{"kind": "quantum", "count": 301, "state": "psi"}, {"kind": "classical", "count": 203, "state": "psi"}],
            "news": [{"hamiltonian": "h", "duration": 0.5}],
        },
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_every_command_answers_for_an_accepted_rounded_basis(d, tmp_path, capsys):
    """A basis that Observable accepts fails no later check: on 36 configs
    whose two bases it accepts, every command exits 0, and the printed Born
    weights sum to 1."""
    rng = np.random.default_rng(1900 + d)
    configs = []
    while len(configs) < 36:
        raw = _rounded_bases_config(rng, d)
        try:
            for obs in raw["observables"].values():
                make_observable(np.array(obs["vectors"]) @ [1, 1j], obs["eigenvalues"])
        except ValueError:  # rounding moved the Gram matrix past 1e-8
            continue
        configs.append(raw)
    for n, raw in enumerate(configs):
        path = tmp_path / f"rounded_{n}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        for argv in (["born"], ["ensemble", "--n", "999"], ["order-effect"], ["interference"], ["uncertainty"],
                     ["evolve", "--t", "1.5", "--grid", "5"], ["simulate-market"]):
            code, output = run_cli(argv[0], str(path), *argv[1:])
            assert code == 0, (n, argv, capsys.readouterr().err)
            if argv == ["born"]:
                assert abs(sum(float(line.rsplit("=", 1)[1]) for line in output.splitlines()) - 1.0) <= 1e-10


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


@pytest.mark.parametrize(
    "command, config", [("ensemble", "basic.json"), ("simulate-market", "market.json")]
)
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_a_named_error(command, config, seed, capsys):
    assert main([command, str(CONFIGS / config), "--seed", str(seed)]) == 1
    err = capsys.readouterr().err
    assert err == f"validation error: seed must be an integer in [0, {2**64 - 1}], got {seed}\n"


def _grid(n: int) -> list[str]:
    return ["evolve", str(CONFIGS / "basic.json"), "--t", "1", "--grid", str(n)]


@pytest.mark.parametrize(
    "argv",
    [
        ["ensemble", str(CONFIGS / "basic.json"), "--n", str(10**15)],
        _grid(10**15),
        # numpy shapes no array of 2**63 bytes or more, and names such a shape
        # by other errors than MemoryError; a market is given as its (kind, count)
        # populations of configs/market.json's "balanced" state
        pytest.param(["ensemble", str(CONFIGS / "basic.json"), "--n", str(2**63)], id="ensemble_n_2**63"),
        pytest.param(_grid(2**63), id="grid_2**63"),
        pytest.param(_grid(2**64 - 1), id="grid_2**64-1"),
        pytest.param(_grid(2**70), id="grid_2**70"),
        pytest.param(_grid(2**63 - 1), id="grid_2**63-1"),
        pytest.param(_grid(2**60 - 64), id="grid_2**60-64"),  # linspace's float count is 2**60
        pytest.param(["simulate-market", [("quantum", 2**63)]], id="quantum_2**63"),
        pytest.param(["simulate-market", [("quantum", 2**64 - 1)]], id="quantum_2**64-1"),
        pytest.param(["simulate-market", [("quantum", 2**62), ("quantum", 2**62)]], id="adjacent_quantum_2**62_twice"),
        pytest.param(["simulate-market", [("classical", 2**63)]], id="classical_2**63"),
    ],
)
def test_a_request_too_large_to_allocate_is_a_named_error(argv, tmp_path, capsys):
    if isinstance(argv[1], list):
        raw = json.loads((CONFIGS / "market.json").read_text(encoding="utf-8"))
        raw["scenario"]["populations"] = [{"kind": kind, "count": n, "state": "balanced"} for kind, n in argv[1]]
        argv = [argv[0], str(tmp_path / "market.json")]
        Path(argv[1]).write_text(json.dumps(raw), encoding="utf-8")
    out = io.StringIO()
    assert main(argv, out=out) == 1
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    # 10**15 elements fail at allocation, before any memory is touched
    assert err.startswith("validation error: request too large: " + ("Unable to allocate " if str(10**15) in argv else ""))
    assert err.count("\n") == 1


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
1,99.581818181818,0.458181818182,0.541818181818
2,99.203407272727,0.462000000000,0.538000000000
3,98.880545274512,0.467454545455,0.532545454545
4,98.510192686757,0.462545454545,0.537454545455
5,98.100032066298,0.458363636364,0.541636363636
6,97.654122829633,0.454545454545,0.545454545455
"""


def test_simulate_market_seed_42_output_is_frozen():
    """The determinism contract across commits: market bits change only on
    purpose (a new draw layout), and then this CSV changes with them."""
    code, output = run_cli("simulate-market", str(CONFIGS / "market.json"), "--seed", "42")
    assert code == 0
    assert output == SEED_42_CSV
    assert hashlib.sha256(output.encode()).hexdigest().startswith("27a6e05aa62d7831")


ADJACENT_QUANTUM_CSV = """\
period,price,up_fraction,down_fraction
0,100.000000000000,,
1,101.216554138535,0.621655413853,0.378344586147
2,100.772355457582,0.456114028507,0.543885971493
3,100.551860806355,0.478119529882,0.521880470118
4,100.417339062091,0.486621655414,0.513378344586
5,100.059512835125,0.464366091523,0.535633908477
6,99.785531423386,0.472618154539,0.527381845461
7,99.519786009618,0.473368342086,0.526631657914
"""


def test_simulate_market_with_adjacent_quantum_populations_is_frozen(tmp_path):
    """Populations quantum, quantum, classical, quantum whose counts (and
    total, 3999) are not multiples of 4, so cohorts start and periods end
    inside a Philox block, under news with a basis override."""
    raw = {
        "version": 1,
        "states": {
            "balanced": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
            "lean_down": [[0.6, 0.0], [0.8, 0.0]],
            "phased": [[0.8, 0.0], [0.0, 0.6]],
        },
        "observables": {
            "price": {"angle": 0.0, "eigenvalues": [1.0, -1.0]},
            "tilted": {"angle": 50.0, "phase": 20.0, "degrees": True, "eigenvalues": [1.0, -1.0]},
        },
        "hamiltonians": {
            "coupling": {"preset": "rabi", "omega": 1.0},
            "drift": {"preset": "splitting", "omega": 0.7},
        },
        "scenario": {
            "seed": 2026,
            "periods": 7,
            "initial_price": 100.0,
            "impact": 0.05,
            "price_observable": "price",
            "populations": [
                {"kind": "quantum", "count": 997, "state": "balanced"},
                {"kind": "quantum", "count": 1503, "state": "phased"},
                {"kind": "classical", "count": 601, "state": "lean_down"},
                {"kind": "quantum", "count": 898, "state": "lean_down"},
            ],
            "news": [
                {"hamiltonian": "coupling", "duration": 0.4},
                {"hamiltonian": "drift", "duration": 0.9, "observable": "tilted"},
            ],
        },
    }
    config = tmp_path / "adjacent.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    code, output = run_cli("simulate-market", str(config))
    assert code == 0
    assert output == ADJACENT_QUANTUM_CSV


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
