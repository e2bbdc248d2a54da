"""Independent checks of every reply, computed from the raw config JSON with
numpy alone; nothing here imports ``qexpect``.

``verdict(command, record)`` returns ``(status, problems)`` with status
``"ok"``, ``"failed"`` (the program reported an error, raised, or a request
that must be rejected by name was not) or ``"incorrect"`` (exit 0 with output
that fails a check).

Tolerances: results are printed with 12 decimals, so printed values carry an
absolute error up to 5e-13. Comparisons with the numpy reference use
``TOL = 1e-9``; identities between printed values use ``IDENTITY_TOL``.
Sampled quantities are checked to ``Z_BOUND`` standard errors.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

TOL = 1e-9
IDENTITY_TOL = 3e-12
Z_BOUND = 6.0

# ---------------------------------------------------------------------------
# Config reading, after the documented format (README "Config format")

_PRESETS = {
    "rabi": np.array([[0, 1], [1, 0]], dtype=complex),
    "splitting": np.array([[1, 0], [0, -1]], dtype=complex),
    "zero": np.zeros((2, 2), dtype=complex),
}
_STANDARD = {"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "eigenvalues": [1.0, -1.0]}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in pairs])


def state(raw: dict, name: str) -> np.ndarray:
    v = _vector(raw["states"][name])
    return v / np.linalg.norm(v)


def observable(raw: dict, entry) -> tuple[np.ndarray, np.ndarray]:
    """(basis with eigenvectors as columns, eigenvalues)."""
    if isinstance(entry, str):
        entry = raw["observables"][entry]
    if "vectors" in entry:
        basis = np.column_stack([_vector(v) for v in entry["vectors"]])
        basis = basis / np.linalg.norm(basis, axis=0)
        return basis, np.array(entry["eigenvalues"], dtype=float)
    scale = math.pi / 180 if entry.get("degrees") else 1.0
    theta = entry["angle"] * scale
    phi = entry.get("phase", 0.0) * scale
    up = [math.cos(theta), math.sin(theta) * np.exp(1j * phi)]
    down = [-math.sin(theta) * np.exp(-1j * phi), math.cos(theta)]
    return np.column_stack([up, down]).astype(complex), np.array(entry.get("eigenvalues", [1.0, -1.0]), dtype=float)


def hamiltonian(raw: dict, name: str) -> np.ndarray:
    entry = raw["hamiltonians"][name]
    if "matrix" in entry:
        return np.array([[complex(re_, im) for re_, im in row] for row in entry["matrix"]])
    return entry.get("omega", 1.0) * _PRESETS[entry["preset"]]


def outcomes(values: np.ndarray) -> list[float]:
    return sorted(set(values.tolist()), reverse=True)


def projector(basis: np.ndarray, values: np.ndarray, outcome: float) -> np.ndarray:
    cols = basis[:, values == outcome]
    return cols @ cols.conj().T


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a 30-term Taylor series."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    a = a / 2**squarings
    term = np.eye(len(a), dtype=complex)
    total = term.copy()
    for k in range(1, 30):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def born(psi: np.ndarray, basis: np.ndarray, values: np.ndarray) -> list[tuple[float, float]]:
    weights = np.abs(basis.conj().T @ psi) ** 2
    return [(o, float(weights[values == o].sum())) for o in outcomes(values)]


# ---------------------------------------------------------------------------
# Output parsing

_NUMBER = r"(-?(?:\d+\.\d+|nan|inf))"


def _near(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# ---------------------------------------------------------------------------
# Analytic commands


def check_born(argv, out: str, raw: dict) -> list[str]:
    section = raw["born"]
    expected = born(state(raw, section["state"]), *observable(raw, section["observable"]))
    lines = out.splitlines()
    if len(lines) != len(expected):
        return [f"born: {len(lines)} lines for {len(expected)} outcomes"]
    problems = []
    for line, (o, p) in zip(lines, expected):
        m = re.fullmatch(rf"outcome={_NUMBER} probability={_NUMBER}", line)
        if not m or not _near(float(m[1]), o) or not _near(float(m[2]), p):
            problems.append(f"born: {line!r}, expected outcome {o} probability {p:.12f}")
    return problems


def check_evolve(argv, out: str, raw: dict) -> list[str]:
    section = raw["evolve"]
    psi = state(raw, section["state"])
    h = hamiltonian(raw, section["hamiltonian"])
    basis, values = observable(raw, section["observable"])
    t_end, grid = float(_option(argv, "--t")), int(_option(argv, "--grid", 101))
    lines = out.splitlines()
    header = "t," + ",".join(f"p_{o:g}" for o in outcomes(values))
    if not lines or lines[0] != header:
        return [f"evolve: header {lines[:1]!r}, expected {header!r}"]
    if len(lines) != grid + 1:
        return [f"evolve: {len(lines) - 1} rows for a grid of {grid}"]
    problems = []
    for line, t in zip(lines[1:], np.linspace(0.0, t_end, grid)):
        row = [float(x) for x in line.split(",")]
        expected = [t] + [p for _, p in born(expm_taylor(-1j * h * t) @ psi, basis, values)]
        if len(row) != len(expected) or not all(_near(a, b) for a, b in zip(row, expected)):
            problems.append(f"evolve: row {line!r}, expected {expected}")
    return problems


def check_interference(argv, out: str, raw: dict) -> list[str]:
    section = raw["interference"]
    psi = state(raw, section["state"])
    target = projector(*observable(raw, section["target_observable"]), float(section["target_outcome"]))
    basis, values = observable(raw, section["partition"])
    p_direct = float(np.real(np.vdot(psi, target @ psi)))
    classical = 0.0
    for o in outcomes(values):
        branch = projector(basis, values, o) @ psi
        classical += float(np.real(np.vdot(target @ branch, target @ branch)))
    m = re.fullmatch(rf"p_direct={_NUMBER} p_classical={_NUMBER} IT={_NUMBER}", out.strip())
    if not m:
        return [f"interference: unparsed output {out!r}"]
    pd, pc, it = (float(x) for x in m.groups())
    problems = []
    if not (_near(pd, p_direct) and _near(pc, classical) and _near(it, p_direct - classical)):
        problems.append(f"interference: {out.strip()!r}, expected {p_direct}, {classical}")
    if not _near(pd - pc, it, IDENTITY_TOL):
        problems.append(f"interference: identity p_direct - p_classical = IT fails by {pd - pc - it:.3e}")
    return problems


def _joint(psi, first, second) -> dict:
    (b1, v1), (b2, v2) = first, second
    table = {}
    for a in outcomes(v1):
        after_first = projector(b1, v1, a) @ psi
        for b in outcomes(v2):
            amp = projector(b2, v2, b) @ after_first
            table[(a, b)] = float(np.real(np.vdot(amp, amp)))
    return table


def check_order_effect(argv, out: str, raw: dict) -> list[str]:
    section = raw["order_effect"]
    psi = state(raw, section["state"])
    obs_i, obs_j = observable(raw, section["first"]), observable(raw, section["second"])
    expected = {"ij": _joint(psi, obs_i, obs_j), "ji": _joint(psi, obs_j, obs_i)}
    printed: dict[str, dict] = {"ij": {}, "ji": {}}
    effect = None
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        m = re.fullmatch(rf"(ij|ji) alpha={_NUMBER} beta={_NUMBER} p={_NUMBER}", line)
        if m:
            printed[m[1]][(float(m[2]), float(m[3]))] = float(m[4])
            continue
        m = re.fullmatch(rf"order_effect={_NUMBER}", line)
        if not m:
            return [f"order-effect: unparsed line {line!r}"]
        effect = float(m[1])
    problems = []
    for tag in ("ij", "ji"):
        if printed[tag].keys() != expected[tag].keys():
            return [f"order-effect: {tag} cells {sorted(printed[tag])}, expected {sorted(expected[tag])}"]
        for cell, p in expected[tag].items():
            if not _near(printed[tag][cell], p):
                problems.append(f"order-effect: {tag} {cell} p={printed[tag][cell]}, expected {p:.12f}")
        if not _near(sum(printed[tag].values()), 1.0):
            problems.append(f"order-effect: {tag} table sums to {sum(printed[tag].values())}")
    gap = max(abs(p - printed["ji"][(b, a)]) for (a, b), p in printed["ij"].items())
    if effect is None or not _near(effect, gap):
        problems.append(f"order-effect: order_effect={effect}, tables give {gap:.12f}")
    if len(outcomes(obs_i[1])) == 2 and len(outcomes(obs_j[1])) == 2:
        # QQ equality (Wang & Busemeyer 2013): holds for any state and any
        # two binary projective observables, whatever the order effect.
        ij, ji = printed["ij"], printed["ji"]
        qq = ij[(1.0, -1.0)] + ij[(-1.0, 1.0)] - ji[(1.0, -1.0)] - ji[(-1.0, 1.0)]
        if not abs(qq) <= TOL:
            problems.append(f"order-effect: QQ equality fails by {qq:.3e}")
    return problems


def _spread(op: np.ndarray, psi: np.ndarray) -> float:
    mean = float(np.real(np.vdot(psi, op @ psi)))
    return math.sqrt(max(float(np.real(np.vdot(psi, op @ op @ psi))) - mean**2, 0.0))


def check_uncertainty(argv, out: str, raw: dict) -> list[str]:
    section = raw["uncertainty"]
    psi = state(raw, section["state"])
    a, b = (
        (basis * values) @ basis.conj().T
        for basis, values in (observable(raw, section["first"]), observable(raw, section["second"]))
    )
    product = _spread(a, psi) * _spread(b, psi)
    bound = 0.5 * abs(np.vdot(psi, (a @ b - b @ a) @ psi))
    m = re.fullmatch(rf"delta_product={_NUMBER} robertson_bound={_NUMBER}", out.strip())
    if not m:
        return [f"uncertainty: unparsed output {out!r}"]
    got_product, got_bound = float(m[1]), float(m[2])
    problems = []
    if not (_near(got_product, product) and _near(got_bound, bound)):
        problems.append(f"uncertainty: {out.strip()!r}, expected {product:.12f} {bound:.12f}")
    if not got_product >= got_bound - 1e-10:
        problems.append("uncertainty: product below the Robertson bound")
    return problems


def check_ensemble(argv, out: str, raw: dict) -> list[str]:
    section = raw["ensemble"]
    expected = born(state(raw, section["state"]), *observable(raw, section["observable"]))
    n = int(_option(argv, "--n", 10000))
    lines = out.splitlines()
    if not lines or lines[0] != "outcome,empirical,analytic,deviation" or len(lines) != len(expected) + 1:
        return [f"ensemble: unexpected layout {lines[:1]!r} with {len(lines) - 1} rows"]
    problems, total = [], 0.0
    for line, (o, p) in zip(lines[1:], expected):
        got_o, freq, analytic, deviation = (float(x) for x in line.split(","))
        total += freq
        se = math.sqrt(p * (1 - p) / n)
        if not (_near(got_o, o) and _near(analytic, p)):
            problems.append(f"ensemble: row {line!r}, expected outcome {o} analytic {p:.12f}")
        if not _near(deviation, abs(freq - analytic), IDENTITY_TOL):
            problems.append(f"ensemble: deviation column {deviation} != |{freq} - {analytic}|")
        if not abs(freq * n - round(freq * n)) <= 1e-6:
            problems.append(f"ensemble: frequency {freq} is not a multiple of 1/{n}")
        if not abs(freq - p) <= Z_BOUND * se + 1e-12:
            problems.append(f"ensemble: frequency {freq} is {abs(freq - p) / max(se, 1e-300):.1f} SE from {p:.6f}")
    if not _near(total, 1.0):
        problems.append(f"ensemble: frequencies sum to {total}")
    return problems


# ---------------------------------------------------------------------------
# Market: price recursion, fraction lattice, mean-field oracle


def mean_field(raw: dict) -> tuple[int, list[tuple[float, float]]]:
    """(agents, per-period (mean, variance) of the up count).

    Every agent draws from its own stream, so agents are independent and the
    up count is a sum of Bernoulli variables. A quantum agent's marginal
    state is a density matrix: news maps rho to U rho U^H, and averaging the
    collapse over outcomes dephases rho in the period's basis. A classical
    cohort shares one belief, Bayes-updated on each outcome's stay
    probability |<e|U|e>|^2, and each of its agents is Bernoulli on it.
    """
    sc = raw["scenario"]
    price_entry = sc.get("price_observable")
    price_obs = observable(raw, price_entry if price_entry is not None else _STANDARD)
    events = []
    for entry in sc.get("news", []):
        u = expm_taylor(-1j * hamiltonian(raw, entry["hamiltonian"]) * float(entry.get("duration", 1.0)))
        events.append((u, observable(raw, entry["observable"]) if "observable" in entry else price_obs))
    cohorts = []
    for pop in sc["populations"]:
        psi = state(raw, pop["state"])
        if pop.get("kind", "quantum") == "quantum":
            cohorts.append(["quantum", pop.get("count", 1), np.outer(psi, psi.conj())])
        else:
            cohorts.append(["classical", pop.get("count", 1), np.array([p for _, p in born(psi, *price_obs)])])
    price_outcomes = outcomes(price_obs[1])
    moments = []
    for period in range(sc.get("periods", 1)):
        u, (basis, values) = events[period % len(events)] if events else (None, price_obs)
        mean = var = 0.0
        for cohort in cohorts:
            kind, count, st = cohort
            if kind == "quantum":
                if u is not None:
                    st = u @ st @ u.conj().T
                p_up = float(np.real(np.trace(projector(basis, values, 1.0) @ st)))
                cohort[2] = sum(projector(basis, values, o) @ st @ projector(basis, values, o) for o in outcomes(values))
            else:
                if u is not None:
                    stay = np.abs(np.einsum("ik,ij,jk->k", basis.conj(), u, basis)) ** 2
                    likelihood = np.array([stay[values == o].mean() for o in outcomes(values)])
                    st = st * likelihood / (st * likelihood).sum()
                    cohort[2] = st
                p_up = float(st[price_outcomes.index(1.0)])
            p_up = min(max(p_up, 0.0), 1.0)
            mean += count * p_up
            var += count * p_up * (1 - p_up)
        moments.append((mean, var))
    return sum(c[1] for c in cohorts), moments


def check_market(argv, out: str, raw: dict) -> list[str]:
    sc = raw["scenario"]
    agents, moments = mean_field(raw)
    impact = float(sc.get("impact", 0.0))
    lines = out.splitlines()
    if not lines or lines[0] != "period,price,up_fraction,down_fraction":
        return [f"market: header {lines[:1]!r}"]
    if len(lines) != len(moments) + 2:
        return [f"market: {len(lines) - 2} periods, expected {len(moments)}"]
    first = lines[1].split(",")
    if first[0] != "0" or first[2:] != ["", ""] or not _near(float(first[1]), float(sc.get("initial_price", 100.0))):
        return [f"market: initial row {lines[1]!r}"]
    problems = []
    price = float(first[1])
    for t, (line, (mean, var)) in enumerate(zip(lines[2:], moments), start=1):
        fields = line.split(",")
        if len(fields) != 4 or fields[0] != str(t):
            return [f"market: row {line!r}"]
        new_price, f_up, f_down = (float(x) for x in fields[1:])
        ups = round(f_up * agents)
        if not abs(f_up - ups / agents) <= 1e-12:
            problems.append(f"market: period {t} f_up={f_up} is not a multiple of 1/{agents}")
        if not abs(f_up + f_down - 1.0) <= IDENTITY_TOL:
            problems.append(f"market: period {t} f_up + f_down = {f_up + f_down}")
        expected = price * (1.0 + impact * (f_up - f_down))
        if not abs(new_price - expected) <= 1e-10 * abs(expected) + 1e-11:
            problems.append(f"market: period {t} price {new_price}, recursion gives {expected:.12f}")
        z = (ups - mean) / math.sqrt(var) if var > 0 else (0.0 if abs(ups - mean) < 1e-6 else math.inf)
        if not abs(z) <= Z_BOUND:
            problems.append(f"market: period {t} up count {ups} is {z:.2f} SE from the mean-field {mean:.1f}")
        price = new_price
    return problems


CHECKERS = {
    "born": check_born,
    "evolve": check_evolve,
    "interference": check_interference,
    "order-effect": check_order_effect,
    "uncertainty": check_uncertainty,
    "ensemble": check_ensemble,
    "simulate-market": check_market,
}

_NON_FINITE = re.compile(r"\b(nan|inf|-inf)\b", re.IGNORECASE)


def named_error(record: dict, exit_codes=(1, 2), names: str | list[str] = "") -> list[str]:
    """Problems with a reply that must be a named error: exit 1 or 2, no
    exception out of main, a message containing ``names`` (each of them,
    for a list), no non-finite number on stdout."""
    problems = []
    code = record["exit"]
    if isinstance(code, str):
        problems.append(f"raised out of main: {code}")
    elif code not in exit_codes:
        problems.append(f"exit {code}, expected one of {list(exit_codes)}")
    for name in [names] if isinstance(names, str) else names:
        if name not in record["stderr"]:
            problems.append(f"message does not name {name!r}: {record['stderr'][:200]!r}")
    if _NON_FINITE.search(record["stdout"]):
        problems.append("non-finite number on stdout")
    return problems


def verdict(command: dict, record: dict) -> tuple[str, list[str]]:
    if command.get("fault"):
        problems = named_error(record, names=command["fault"]["field"])
        return ("failed" if problems else "ok"), problems
    if command.get("expect_error"):
        spec = command["expect_error"]
        problems = named_error(record, (spec["exit"],), spec["names"])
        return ("failed" if problems else "ok"), problems
    if record["exit"] != 0:
        return "failed", [f"exit {record['exit']}: {record['stderr'][:300]!r}"]
    argv = command["argv"]
    try:
        problems = CHECKERS[command["kind"]](argv, record["stdout"], load(argv[1]))
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"{command['kind']}: unreadable output ({type(exc).__name__}: {exc})"]
    return ("incorrect" if problems else "ok"), problems
