"""qexpect benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload market_deep --seed 1 --seconds 30 --trace 0

Run from the root of the repository. Writes the workload's inputs under
``.perfbench_out/``, times ``import qexpect`` plus config loading in fresh
processes (``setup_s``), runs the ops in one more fresh process through
``qexpect.cli.main``, checks every reply with ``checks.py``, and prints one
JSON object as its last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. ``attempted`` and ``failed`` count CLI
commands. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS/OpenMP pools are pinned to one thread in this process and in every
# process it starts; set before numpy is imported.
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(PINNED_THREADS)

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

OUT = REPO / ".perfbench_out"
SETUP_PROBES = 7
# Highest percentile with at least ten samples beyond it at this machine's
# op counts per 30 s run (market_deep 44-52, market_wide 34-46, cli_session
# 74-93 ops); see README "Tail percentile".
TAIL_PERCENTILE = {"market_deep": 75, "market_wide": 70, "cli_session": 85}
REQUIRED = ("src/qexpect/cli.py", "configs/basic.json", "configs/tilted.json", "configs/market.json")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QEXPECT_")}
    env.update(PINNED_THREADS)
    return env


def _worker(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=REPO,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _setup_seconds(plan_path: Path) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = _worker("setup", str(plan_path), timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _grade(plan: dict, raw: dict) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over the timed rounds; replies
    outside them (warm-up, replay) count toward correctness only."""
    rounds = len(raw["times"])
    correct, attempted, failed, problems = True, 0, 0, []
    for i, op in enumerate(plan["ops"]):
        for j, command in enumerate(op):
            digests = raw["by_command"][f"{i}.{j}"]
            statuses = set()
            for digest in digests:
                status, found = checks.verdict(command, raw["records"][digest])
                statuses.add(status)
                problems += [f"{' '.join(command['argv'])}: {p}" for p in found]
            if len(digests) > 1:
                problems.append(f"{' '.join(command['argv'])}: replay gave {len(digests)} different replies")
            correct &= "incorrect" not in statuses and len(digests) == 1
            attempted += rounds
            failed += rounds if "failed" in statuses else 0
    return correct, attempted, failed, problems


def _end_to_end(plan: dict, raw: dict, setup_s: float) -> dict:
    op_times = [t for rnd in raw["times"] for t in rnd]
    busy = sum(op_times)
    rounds = len(raw["times"])
    commands = rounds * sum(len(op) for op in plan["ops"])
    agent_periods = rounds * sum(c["agent_periods"] for op in plan["ops"] for c in op)
    tail = statistics.quantiles(op_times, n=100, method="inclusive")[TAIL_PERCENTILE[plan["workload"]] - 1]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_tail_s": (tail, "s"),
        "agent_periods_per_s": (agent_periods / busy, "1/s"),
        "commands_per_s": (commands / busy, "1/s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024, "MiB"),
    }


def _per_layer(raw: dict) -> dict:
    metrics = {name: (value, layertrace.METRICS[name][0]) for name, value in raw["trace"]["metrics"].items()}
    metrics["trace.op_p50_s"] = (statistics.median(t for rnd in raw["times"] for t in rnd), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (REPO / p).is_file()]
    if missing:
        return _fail(f"not a qexpect checkout, missing {', '.join(missing)}")

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.make_plan(args.workload, args.seed, REPO, work / "inputs")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")

    try:
        setup_s = _setup_seconds(plan_path) if not args.trace else None
        raw_path = work / "raw.json"
        proc = _worker("run", str(plan_path), str(args.seconds), str(args.trace), str(raw_path), timeout=args.seconds + 120)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    if proc.returncode != 0:
        return _fail(f"worker failed:\n{proc.stderr}")
    raw = json.loads(raw_path.read_text(encoding="utf-8"))

    correct, attempted, failed, problems = _grade(plan, raw)
    metrics = _per_layer(raw) if args.trace else _end_to_end(plan, raw, setup_s)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {"problems": problems, "rounds": len(raw["times"]), "op_times": raw["times"]}
    if args.trace:
        details.update(absent=raw["trace"]["absent"], unsteady_counts=raw["trace"]["unsteady_counts"])
        (work / "trace.json").write_text(json.dumps(raw["trace"]), encoding="utf-8")
    (work / "result.json").write_text(json.dumps({**result, **details}, indent=1), encoding="utf-8")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if args.trace and raw["trace"]["absent"]:
        print(f"absent (wrapped name gone, reads 0): {', '.join(raw['trace']['absent'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
