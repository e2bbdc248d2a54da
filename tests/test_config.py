import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qexpect.cli import main
from qexpect.config import (
    ConfigParseError,
    ConfigValidationError,
    ConfigVersionError,
    document_from_dict,
    load_document,
    load_scenario,
    scenario_from_document,
    scenario_to_dict,
    scenarios_equivalent,
)
from qexpect.hilbert import Hamiltonian, StateVector, make_observable
from qexpect.market import AgentPopulation, NewsEvent, NewsSchedule, Scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal_raw() -> dict:
    return {
        "version": 1,
        "states": {"up": [[1.0, 0.0], [0.0, 0.0]]},
        "scenario": {"populations": [{"kind": "quantum", "count": 10, "state": "up"}]},
    }


def write_config(tmp_path, raw) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parsing and versioning


def test_minimal_config_fills_defaults(tmp_path):
    sc = load_scenario(write_config(tmp_path, minimal_raw()))
    assert sc.seed == 0
    assert sc.periods == 1
    assert sc.initial_price == 100.0
    assert sc.impact == 0.0
    assert sc.price_observable.outcomes == (1.0, -1.0)
    assert len(sc.news) == 0
    assert sc.populations[0].count == 10


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ConfigParseError, match="cannot read"):
        load_document(tmp_path / "absent.json")


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  "states": {,}\n}', encoding="utf-8")
    with pytest.raises(ConfigParseError, match=r"line 3 column 14"):
        load_document(path)


def test_version_field_is_required():
    with pytest.raises(ConfigValidationError, match="version"):
        document_from_dict({"states": {}})


def test_version_mismatch():
    with pytest.raises(ConfigVersionError):
        document_from_dict({"version": 2})


# ---------------------------------------------------------------------------
# states, observables, hamiltonians


def test_complex_entries_must_be_pairs():
    raw = minimal_raw()
    raw["states"]["up"] = [1.0, 0.0]
    with pytest.raises(ConfigValidationError, match=r"states\.up.*\[re, im\]"):
        document_from_dict(raw)


def test_state_must_normalize():
    raw = minimal_raw()
    raw["states"]["up"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ConfigValidationError, match="states.up"):
        document_from_dict(raw)


def test_angle_in_degrees_builds_the_rotated_basis():
    raw = minimal_raw()
    raw["observables"] = {"tilted": {"angle": 60.0, "degrees": True}}
    doc = document_from_dict(raw)
    obs = doc.observables["tilted"]
    expected_up = [math.cos(math.pi / 3), math.sin(math.pi / 3)]
    assert np.allclose(obs.eigenvectors[0].amplitudes, expected_up, atol=1e-12)
    assert np.allclose(
        obs.eigenvectors[1].amplitudes, [-expected_up[1], expected_up[0]], atol=1e-12
    )
    assert obs.eigenvalues == (1.0, -1.0)


def test_angle_with_phase_stays_orthonormal():
    raw = minimal_raw()
    raw["observables"] = {"spun": {"angle": 0.7, "phase": 1.1}}
    obs = document_from_dict(raw).observables["spun"]
    gram = np.array(
        [
            [np.vdot(a.amplitudes, b.amplitudes) for b in obs.eigenvectors]
            for a in obs.eigenvectors
        ]
    )
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_explicit_vectors_need_eigenvalues():
    raw = minimal_raw()
    raw["observables"] = {"bad": {"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}}
    with pytest.raises(ConfigValidationError, match="eigenvalues"):
        document_from_dict(raw)


def test_non_orthonormal_vectors_rejected():
    raw = minimal_raw()
    raw["observables"] = {
        "bad": {
            "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.9, 0.0], [0.1, 0.0]]],
            "eigenvalues": [1.0, -1.0],
        }
    }
    with pytest.raises(ConfigValidationError, match="observables.bad"):
        document_from_dict(raw)


def test_non_hermitian_matrix_names_the_entry():
    raw = minimal_raw()
    raw["hamiltonians"] = {
        "news": {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}
    }
    with pytest.raises(ConfigValidationError, match=r"^hamiltonians\.news\.matrix: .*entry \(0,1\)"):
        document_from_dict(raw)


def test_hamiltonian_presets():
    raw = minimal_raw()
    raw["hamiltonians"] = {
        "swing": {"preset": "rabi", "omega": 2.0},
        "still": {"preset": "zero"},
    }
    doc = document_from_dict(raw)
    assert np.allclose(doc.hamiltonians["swing"].matrix, [[0, 2.0], [2.0, 0]])
    assert np.allclose(doc.hamiltonians["still"].matrix, np.zeros((2, 2)))


def test_unknown_preset_rejected():
    raw = minimal_raw()
    raw["hamiltonians"] = {"odd": {"preset": "chirp"}}
    with pytest.raises(ConfigValidationError, match="preset"):
        document_from_dict(raw)


def test_unknown_reference_names_the_field():
    raw = minimal_raw()
    raw["scenario"]["populations"][0]["state"] = "ghost"
    with pytest.raises(ConfigValidationError, match=r"populations\[0\]\.state.*ghost"):
        scenario_from_document(document_from_dict(raw))


# ---------------------------------------------------------------------------
# scenario assembly and round trips


def test_shipped_market_config_loads():
    sc = load_scenario(CONFIG_DIR / "market.json")
    assert sc.seed == 42
    assert sc.periods == 6
    assert sc.total_agents == 5500
    assert len(sc.news) == 2
    assert sc.populations[1].kind == "classical"


def test_scenario_roundtrip_is_equivalent():
    tilted = make_observable(
        [[np.cos(0.6), np.sin(0.6)], [-np.sin(0.6), np.cos(0.6)]], [1.0, -1.0]
    )
    sc = Scenario(
        seed=99,
        populations=(
            AgentPopulation(123, StateVector([0.6, 0.8j]), "quantum"),
            AgentPopulation(45, StateVector([1, 1]), "classical"),
        ),
        news=NewsSchedule(
            (
                NewsEvent(
                    hamiltonian=Hamiltonian([[0.0, 0.5], [0.5, 0.3]]),
                    duration=0.7,
                    observable=tilted,
                ),
            )
        ),
        price_observable=make_observable([[1, 0], [0, 1]], [1.0, -1.0]),
        impact=0.2,
        initial_price=50.0,
        periods=7,
    )
    replayed = scenario_from_document(document_from_dict(scenario_to_dict(sc)))
    assert scenarios_equivalent(sc, replayed)


def test_roundtrip_through_json_text(tmp_path):
    sc = load_scenario(CONFIG_DIR / "market.json")
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(scenario_to_dict(sc)), encoding="utf-8")
    assert scenarios_equivalent(sc, load_scenario(path))


def test_populations_are_required():
    raw = minimal_raw()
    raw["scenario"].pop("populations")
    with pytest.raises(ConfigValidationError, match="populations"):
        scenario_from_document(document_from_dict(raw))


@pytest.mark.parametrize(
    "path, value",
    [
        (("scenario", "impact"), float("nan")),
        (("scenario", "initial_price"), float("inf")),
        (("scenario", "news", 0, "duration"), float("inf")),
        (("scenario", "news", 0, "duration"), float("nan")),
        (("hamiltonians", "news", "omega"), float("nan")),
        (("scenario", "impact"), 10**400),
    ],
    ids=["impact_nan", "initial_price_inf", "duration_inf", "duration_nan", "omega_nan", "impact_huge_int"],
)
def test_non_finite_reals_name_their_field(path, value):
    raw = minimal_raw()
    raw["hamiltonians"] = {"news": {"preset": "rabi", "omega": 1.0}}
    raw["scenario"]["news"] = [{"hamiltonian": "news", "duration": 0.5}]
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    field = ".".join(str(k) for k in path).replace(".0.", "[0].")
    with pytest.raises(ConfigValidationError, match=rf"^{re.escape(field)}: expected a finite number"):
        scenario_from_document(document_from_dict(raw))


@pytest.mark.parametrize(
    "edits, prefix",
    [
        ({("states", "up"): [[0.0, 0.0], [0.0, 0.0]]}, "states.up: "),
        (
            {("observables",): {"bad": {"vectors": [[[1, 0], [0, 0]], [[0.9, 0], [0.1, 0]]], "eigenvalues": [1, -1]}}},
            "observables.bad: ",
        ),
        ({("hamiltonians",): {"news": {"matrix": [[[0.0, 0.0]] * 3] * 2}}}, "hamiltonians.news.matrix: "),
        ({("scenario", "populations", 0, "kind"): "alien"}, "scenario.populations[0]: "),
        (
            {("hamiltonians",): {"news": {"preset": "rabi"}}, ("scenario", "news"): [{"hamiltonian": "news", "duration": -1.0}]},
            "scenario.news[0]: ",
        ),
        ({("states", "up"): [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, "scenario: "),
    ],
    ids=["zero_state", "non_orthonormal_basis", "non_square_matrix", "alien_kind", "negative_duration", "dimension_mismatch"],
)
def test_each_constructor_error_names_its_field(edits, prefix):
    raw = minimal_raw()
    for path, value in edits.items():
        raw = _mutate(raw, path, value)
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(prefix)}"):
        scenario_from_document(document_from_dict(raw))


@pytest.mark.parametrize(
    "path, element",
    [
        (("states", "up", 1, 0), "states.up[1][0]"),
        (("observables", "basis", "vectors", 1, 0, 1), "observables.basis.vectors[1][0][1]"),
        (("hamiltonians", "news", "matrix", 0, 1, 0), "hamiltonians.news.matrix[0][1][0]"),
    ],
    ids=["amplitude", "vector", "matrix"],
)
def test_huge_integer_parts_name_their_element(path, element, tmp_path):
    raw = minimal_raw()
    raw["observables"] = {"basis": {"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "eigenvalues": [1, -1]}}
    raw["hamiltonians"] = {"news": {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}}
    raw["born"] = {"state": "up", "observable": "basis"}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["born", str(write_config(tmp_path, _mutate(raw, path, 10**400)))], out=io.StringIO())
    assert code == 1
    assert f"{element}: expected a finite number" in err.getvalue()


def test_huge_period_count_is_rejected_by_name(tmp_path):
    raw = minimal_raw()
    raw["scenario"]["periods"] = 10**400
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate-market", str(write_config(tmp_path, raw))], out=io.StringIO())
    assert code == 1
    assert "scenario: period count must be an integer in [1, 2^64]" in err.getvalue()


def test_section_lookup_errors():
    doc = document_from_dict({"version": 1})
    with pytest.raises(ConfigValidationError, match="born"):
        doc.section("born")


# ---------------------------------------------------------------------------
# mutation gate: no mutated shipped config may end in a traceback or a
# silent non-finite result

_DROP = "<dropped>"
_MUTATIONS = (float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e300, 10**400, "text", None, [], {}, True, _DROP)
_READERS = {
    "basic.json": (["born"], ["evolve", "--t", "-2.5", "--grid", "5"], ["uncertainty"], ["ensemble", "--n", "100"]),
    "tilted.json": (["born"], ["interference"], ["order-effect"], ["uncertainty"]),
    "market.json": (["simulate-market"],),
}
_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _node_paths(node, prefix=()):
    """Path of every node below ``node``: keys of objects, indices of lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _mutate(raw, path, value):
    raw = json.loads(json.dumps(raw))
    *parents, leaf = path
    target = raw
    for key in parents:
        target = target[key]
    if value == _DROP:
        del target[leaf]
    else:
        target[leaf] = value
    return raw


@pytest.mark.parametrize("name", sorted(_READERS))
def test_mutated_configs_give_a_named_error_or_finite_output(name, tmp_path):
    """Every node of a shipped config, set to NaN, +-Inf, +-1e308, 1e300,
    10**400, a string, null, [], {} or true, or dropped, must make each
    command that reads the file exit 1 or 2, or exit 0 with no nan/inf on
    stdout; never raise."""
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    path = tmp_path / name
    failures = []
    for node in _node_paths(raw):
        for value in _MUTATIONS:
            path.write_text(json.dumps(_mutate(raw, node, value)), encoding="utf-8")
            for command, *options in _READERS[name]:
                out = io.StringIO()
                with contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = main([command, str(path), *options], out=out)
                    except Exception as exc:
                        failures.append(f"{node} = {value!r}: {command} raised {type(exc).__name__}: {exc}")
                        continue
                if code in (1, 2) or (code == 0 and not _NON_FINITE.search(out.getvalue())):
                    continue
                failures.append(f"{node} = {value!r}: {command} exited {code} with {out.getvalue()[:80]!r}")
    assert not failures, f"{len(failures)} bad replies:\n" + "\n".join(failures)
