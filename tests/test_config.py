import contextlib
import dataclasses
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


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"version": 1, "states": {"up": [[' + "9" * 5000 + ", 0], [0, 0]]}}", "digits"),
        ('{"version": 1, "x": ' + "[" * 100_000 + "]" * 100_000 + "}", "recursion"),
    ],
    ids=["integer_beyond_the_digit_limit", "nesting_beyond_the_recursion_limit"],
)
def test_unreadable_json_values_are_a_parse_error_naming_the_file(text, reason, tmp_path):
    path = tmp_path / "unreadable.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigParseError, match=reason) as info:
        load_document(path)
    assert str(path) in str(info.value)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["born", str(path)], out=io.StringIO())
    assert code == 2
    assert err.getvalue().startswith(f"parse error: malformed JSON in {path}: ")


def test_a_config_that_is_not_utf8_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"version": 1, "states": {"caf\xe9": [[1, 0], [0, 0]]}}')
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["born", str(path)], out=io.StringIO())
    assert code == 2
    assert err.getvalue() == (
        f"parse error: cannot read config {path}: 'utf-8' codec can't decode byte 0xe9 "
        "in position 30: invalid continuation byte\n"
    )


@pytest.mark.parametrize("root", [[], 1, "text", None], ids=["list", "number", "string", "null"])
def test_the_config_root_must_be_an_object(root, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["born", str(write_config(tmp_path, root))], out=io.StringIO())
    assert code == 1
    assert err.getvalue() == "validation error: config root must be a JSON object\n"


def test_version_field_is_required():
    with pytest.raises(ConfigValidationError, match="version"):
        document_from_dict({"states": {}})


def test_version_mismatch():
    for version in (2, True, 1.0, "1"):  # True and 1.0 equal 1 in Python, but are not the integer 1
        with pytest.raises(ConfigVersionError) as info:
            document_from_dict({"version": version})
        assert str(info.value) == f"version: expected 1, got {version!r}"


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
    assert np.allclose(obs.basis[:, 0], expected_up, atol=1e-12)
    assert np.allclose(obs.basis[:, 1], [-expected_up[1], expected_up[0]], atol=1e-12)
    assert obs.eigenvalues == (1.0, -1.0)


def test_angle_with_phase_stays_orthonormal():
    raw = minimal_raw()
    raw["observables"] = {"spun": {"angle": 0.7, "phase": 1.1}}
    obs = document_from_dict(raw).observables["spun"]
    gram = np.array([[np.vdot(a, b) for b in obs.basis.T] for a in obs.basis.T])
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


def _equivalence_base() -> Scenario:
    return Scenario(
        seed=99,
        populations=(AgentPopulation(123, StateVector([0.6, 0.8j]), "quantum"), AgentPopulation(45, StateVector([1, 1]), "classical")),
        news=NewsSchedule((
            NewsEvent(Hamiltonian([[0.0, 0.5], [0.5, 0.3]]), 0.7, make_observable([[0.8, 0.6], [-0.6, 0.8]], [1.0, -1.0])),
            NewsEvent(Hamiltonian(np.eye(2)), 1.0),
        )),
        price_observable=make_observable(np.eye(2), [1.0, -1.0]),
        impact=0.2,
        initial_price=50.0,
        periods=7,
    )


def _with_population(sc: Scenario, i: int, **changes) -> Scenario:
    populations = list(sc.populations)
    populations[i] = dataclasses.replace(populations[i], **changes)
    return dataclasses.replace(sc, populations=tuple(populations))


def _with_first_news(sc: Scenario, **changes) -> Scenario:
    first, *rest = sc.news.events
    return dataclasses.replace(sc, news=NewsSchedule((dataclasses.replace(first, **changes), *rest)))


# One field changed at a time, each a difference scenarios_equivalent must see.
_INEQUIVALENT = {
    "seed": lambda sc: dataclasses.replace(sc, seed=100),
    "periods": lambda sc: dataclasses.replace(sc, periods=8),
    "impact": lambda sc: dataclasses.replace(sc, impact=0.2 + 1e-9),
    "initial_price": lambda sc: dataclasses.replace(sc, initial_price=50.0 + 1e-9),
    "population_count": lambda sc: dataclasses.replace(sc, populations=sc.populations[:1]),
    "news_count": lambda sc: dataclasses.replace(sc, news=NewsSchedule(sc.news.events[:1])),
    "agent_count": lambda sc: _with_population(sc, 0, count=124),
    "kind": lambda sc: _with_population(sc, 1, kind="quantum"),
    "state": lambda sc: _with_population(sc, 0, initial_state=StateVector([0.8, 0.6j])),
    "price_observable": lambda sc: dataclasses.replace(sc, price_observable=make_observable(np.eye(2), [-1.0, 1.0])),
    "duration": lambda sc: _with_first_news(sc, duration=0.7 + 1e-9),
    "hamiltonian": lambda sc: _with_first_news(sc, hamiltonian=Hamiltonian([[0.0, 0.5], [0.5, 0.4]])),
    "override_dropped": lambda sc: _with_first_news(sc, observable=None),
    "override_changed": lambda sc: _with_first_news(sc, observable=make_observable([[0.6, 0.8], [-0.8, 0.6]], [1.0, -1.0])),
}


@pytest.mark.parametrize("change", list(_INEQUIVALENT.values()), ids=list(_INEQUIVALENT))
def test_scenarios_equivalent_sees_each_field(change):
    base = _equivalence_base()
    assert scenarios_equivalent(base, _with_population(base, 0, initial_state=StateVector([0.6j, -0.8])))
    assert not scenarios_equivalent(base, change(base))
    assert not scenarios_equivalent(change(base), base)


def test_roundtrip_through_json_text(tmp_path):
    sc = load_scenario(CONFIG_DIR / "market.json")
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(scenario_to_dict(sc)), encoding="utf-8")
    assert scenarios_equivalent(sc, load_scenario(path))


def _d3_scenario() -> Scenario:
    """A d = 3 scenario with a matrix Hamiltonian, a news override and a -0.0 amplitude part."""
    c, s = math.cos(0.6), math.sin(0.6)
    return Scenario(
        seed=5,
        populations=(AgentPopulation(30, StateVector([complex(0.6, -0.0), 0.8j, 0.0]), "quantum"),),
        news=NewsSchedule((
            NewsEvent(
                Hamiltonian([[1.0, 0.5 - 0.25j, 0.0], [0.5 + 0.25j, -0.3, 0.1j], [0.0, -0.1j, 0.2]]), 0.7,
                make_observable([[1, 0, 0], [0, c, s * 1j], [0, s * 1j, c]], [1.0, 1.0, -1.0]),
            ),
            NewsEvent(Hamiltonian(np.diag([0.0, 1.0, 2.0])), 1.0),
        )),
        price_observable=make_observable(np.eye(3), [1.0, 1.0, -1.0]),
        impact=0.1,
        initial_price=80.0,
        periods=3,
    )


def _exact_pairs(array: np.ndarray) -> list:
    if array.ndim > 1:
        return [_exact_pairs(row) for row in array]
    return [[float(z.real), float(z.imag)] for z in array]


@pytest.mark.parametrize("make", [lambda: load_scenario(CONFIG_DIR / "market.json"), _d3_scenario], ids=["market", "d3"])
def test_written_pairs_are_the_stored_floats(make):
    sc = make()
    doc = scenario_to_dict(sc)
    written = [doc["states"][f"state_{i}"] for i in range(len(sc.populations))]
    stored = [pop.initial_state.amplitudes for pop in sc.populations]
    written.append(doc["observables"]["price"]["vectors"])
    stored.append(sc.price_observable.basis.T)
    for i, event in enumerate(sc.news.events):
        written.append(doc["hamiltonians"][f"news_{i}"]["matrix"])
        stored.append(event.hamiltonian.matrix)
        if event.observable is not None:
            written.append(doc["observables"][f"basis_{i}"]["vectors"])
            stored.append(event.observable.basis.T)
    # json text tells -0.0 from 0.0, which == does not
    assert [json.dumps(w) for w in written] == [json.dumps(_exact_pairs(a)) for a in stored]
    assert json.dumps(scenario_to_dict(scenario_from_document(document_from_dict(doc)))) == json.dumps(doc)


def test_the_d3_scenario_keeps_a_negative_zero_part():
    assert json.dumps(scenario_to_dict(_d3_scenario())["states"]["state_0"][0]) == "[0.6, -0.0]"


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
    assert err.getvalue() == f"validation error: scenario: period count must be an integer in [1, {2**64}], got {10**400}\n"


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
# a validation error names its field: the text before its first ": " is one word
_NAMED = re.compile(r"validation error: ([^ :]+: |config has no '\w+' section\n$)")


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
    stdout; never raise. A validation error names the field it rejects."""
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    path = tmp_path / name
    failures = []
    for node in _node_paths(raw):
        for value in _MUTATIONS:
            path.write_text(json.dumps(_mutate(raw, node, value)), encoding="utf-8")
            for command, *options in _READERS[name]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        code = main([command, str(path), *options], out=out)
                    except Exception as exc:
                        failures.append(f"{node} = {value!r}: {command} raised {type(exc).__name__}: {exc}")
                        continue
                if err.getvalue().startswith("validation error: ") and not _NAMED.match(err.getvalue()):
                    failures.append(f"{node} = {value!r}: {command} named no field: {err.getvalue()!r}")
                    continue
                if code in (1, 2) or (code == 0 and not _NON_FINITE.search(out.getvalue())):
                    continue
                failures.append(f"{node} = {value!r}: {command} exited {code} with {out.getvalue()[:80]!r}")
    assert not failures, f"{len(failures)} bad replies:\n" + "\n".join(failures)
