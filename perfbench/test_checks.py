"""The checkers accept the program's replies and reject corrupted ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qexpect import cli  # noqa: E402


def _reply(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(argv), out=out)
    except Exception as exc:
        code = f"exception: {type(exc).__name__}: {exc}"
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def session(tmp_path_factory) -> list[tuple[dict, dict]]:
    work = tmp_path_factory.mktemp("session")
    plan = workloads.make_plan("cli_session", 0, HERE.parent, work)
    return [(cmd, _reply(cmd["argv"])) for cmd in plan["ops"][0]]


@pytest.fixture(scope="module")
def market(tmp_path_factory) -> tuple[dict, dict]:
    doc = workloads._deep_config(random.Random(3))
    doc["scenario"]["populations"][0]["count"] = 300
    doc["scenario"]["populations"][1]["count"] = 100
    doc["scenario"]["periods"] = 6
    path = str(tmp_path_factory.mktemp("market") / "deep.json")
    workloads._write(Path(path), doc)
    cmd = workloads._market_command(path, doc)
    return cmd, _reply(cmd["argv"])


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _with_stdout(record: dict, stdout: str) -> dict:
    return {**record, "stdout": stdout}


def _first(session, kind: str, name: str = "") -> tuple[dict, dict]:
    return next((c, r) for c, r in session if c["kind"] == kind and name in c["argv"][1] and not c["fault"])


def test_program_replies_pass_and_known_faults_fail(session):
    for cmd, record in session:
        status, problems = checks.verdict(cmd, record)
        assert status == ("failed" if cmd["fault"] else "ok"), (cmd["argv"], problems)


def test_market_reply_passes(market):
    assert checks.verdict(*market) == ("ok", [])


def _market_rows(record: dict) -> list[list[str]]:
    return [line.split(",") for line in record["stdout"].splitlines()]


def _market_text(rows: list[list[str]]) -> str:
    return "\n".join(",".join(r) for r in rows) + "\n"


def test_market_rejects_shifted_fraction(market):
    cmd, record = market
    rows = _market_rows(record)
    up, down = float(rows[3][2]), float(rows[3][3])
    rows[3][2], rows[3][3] = f"{up + 1 / 400:.12f}", f"{down - 1 / 400:.12f}"
    status, problems = checks.verdict(cmd, _with_stdout(record, _market_text(rows)))
    assert status == "incorrect" and any("recursion" in p for p in problems)


def test_market_rejects_fraction_off_the_lattice(market):
    cmd, record = market
    rows = _market_rows(record)
    rows[2][2] = f"{float(rows[2][2]) + 0.5 / 400:.12f}"
    rows[2][3] = f"{float(rows[2][3]) - 0.5 / 400:.12f}"
    status, problems = checks.verdict(cmd, _with_stdout(record, _market_text(rows)))
    assert status == "incorrect" and any("multiple of 1/400" in p for p in problems)


def test_market_rejects_wrong_price(market):
    cmd, record = market
    rows = _market_rows(record)
    rows[4][1] = f"{float(rows[4][1]) * (1 + 1e-7):.12f}"
    status, problems = checks.verdict(cmd, _with_stdout(record, _market_text(rows)))
    assert status == "incorrect" and any("price" in p for p in problems)


def test_market_mean_field_rejects_biased_path(market):
    """Fractions moved far from the mean field, prices recomputed so only
    the oracle can see it."""
    cmd, record = market
    rows = _market_rows(record)
    impact = json.loads(Path(cmd["argv"][1]).read_text())["scenario"]["impact"]
    price = float(rows[1][1])
    for row in rows[2:]:
        up = min(round(float(row[2]) * 400) + 80, 400) / 400
        price *= 1 + impact * (2 * up - 1)
        row[1:] = [f"{price:.12f}", f"{up:.12f}", f"{1 - up:.12f}"]
    status, problems = checks.verdict(cmd, _with_stdout(record, _market_text(rows)))
    assert status == "incorrect" and any("mean-field" in p for p in problems)


def test_order_effect_rejects_swapped_joint(session):
    cmd, record = _first(session, "order-effect", "variant_1_d3")
    lines = record["stdout"].splitlines()
    cells = [i for i, line in enumerate(lines) if line.startswith("ij ")]
    a, b = cells[0], cells[1]
    pa, pb = lines[a].rsplit("p=", 1), lines[b].rsplit("p=", 1)
    assert pa[1] != pb[1]
    lines[a], lines[b] = f"{pa[0]}p={pb[1]}", f"{pb[0]}p={pa[1]}"
    status, problems = checks.verdict(cmd, _with_stdout(record, "\n".join(lines) + "\n"))
    assert status == "incorrect" and problems


def test_qq_equality_holds_for_rank_two_projectors():
    rng = np.random.default_rng(0)
    for d in (3, 4):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        obs = []
        for values in ([1.0, 1.0, -1.0, -1.0][:d], [1.0, -1.0, -1.0, -1.0][:d]):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            obs.append((q, np.array(values)))
        ij, ji = checks._joint(psi, obs[0], obs[1]), checks._joint(psi, obs[1], obs[0])
        assert abs(ij[(1.0, -1.0)] + ij[(-1.0, 1.0)] - ji[(1.0, -1.0)] - ji[(-1.0, 1.0)]) < 1e-12
        assert max(abs(ij[(a, b)] - ji[(b, a)]) for a, b in ij) > 1e-3  # a real order effect


def test_born_rejects_swapped_probabilities(session):
    cmd, record = _first(session, "born", "variant_0")
    lines = record["stdout"].splitlines()
    probs = [line.split("probability=")[1] for line in lines]
    swapped = [f"{line.split('probability=')[0]}probability={p}" for line, p in zip(lines, probs[::-1])]
    status, _ = checks.verdict(cmd, _with_stdout(record, "\n".join(swapped) + "\n"))
    assert status == "incorrect"


def test_evolve_rejects_one_wrong_grid_row(session):
    cmd, record = _first(session, "evolve", "variant_2_d4")
    lines = record["stdout"].splitlines()
    t, *ps = lines[50].split(",")
    lines[50] = ",".join([t] + ps[::-1])
    status, problems = checks.verdict(cmd, _with_stdout(record, "\n".join(lines) + "\n"))
    assert status == "incorrect" and len(problems) == 1


def test_interference_rejects_broken_identity(session):
    cmd, record = _first(session, "interference", "variant_1")
    head, it = record["stdout"].strip().rsplit("IT=", 1)
    status, problems = checks.verdict(cmd, _with_stdout(record, f"{head}IT={float(it) + 1e-6:.12f}\n"))
    assert status == "incorrect" and any("identity" in p for p in problems)


def test_uncertainty_rejects_product_below_bound(session):
    cmd, record = _first(session, "uncertainty", "variant_2")
    status, problems = checks.verdict(cmd, _with_stdout(record, "delta_product=0.000000000000 robertson_bound=0.100000000000\n"))
    assert status == "incorrect" and any("Robertson" in p for p in problems)


def test_ensemble_rejects_frequency_beyond_bound(session):
    cmd, record = _first(session, "ensemble", "variant_0")
    lines = record["stdout"].splitlines()
    n = int(cmd["argv"][cmd["argv"].index("--n") + 1])
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    shift = math.ceil(0.05 * n) / n
    rows[0][1] += shift
    rows[1][1] -= shift
    text = lines[0] + "\n" + "".join(
        ",".join(_fmt(v) for v in (o, f, a, abs(f - a))) + "\n" for o, f, a, _ in rows
    )
    status, problems = checks.verdict(cmd, _with_stdout(record, text))
    assert status == "incorrect" and any("SE from" in p for p in problems)


def test_named_error_rejects_exit_zero_for_malformed_config(session):
    cmd, record = next((c, r) for c, r in session if c.get("expect_error"))
    assert checks.verdict(cmd, record) == ("ok", [])
    accepted = {**record, "exit": 0, "stderr": ""}
    status, problems = checks.verdict(cmd, accepted)
    assert status == "failed" and any("exit 0" in p for p in problems)


def test_known_fault_passes_only_as_a_named_error(session):
    cmd, record = next((c, r) for c, r in session if c["fault"] and c["kind"] == "simulate-market")
    named = {"exit": 1, "stdout": "", "stderr": f"validation error: {cmd['fault']['field']}: must be finite\n"}
    assert checks.verdict(cmd, {**record, **named}) == ("ok", [])
    unnamed = {**named, "stderr": "error: price became nan in period 1\n"}
    assert checks.verdict(cmd, {**record, **unnamed})[0] == "failed"


def test_expm_taylor_matches_closed_form_rabi():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for t in (0.0, 0.3, 2.0, 40.0):
        closed = math.cos(t) * np.eye(2) - 1j * math.sin(t) * x
        assert np.max(np.abs(checks.expm_taylor(-1j * x * t) - closed)) < 1e-12
