"""One fresh, single-threaded process that drives ``qexpect`` in process.

    python3 perfbench/worker.py setup PLAN
        Time ``import qexpect`` plus one load and validation of every config
        in the plan's ``setup`` list; print the seconds as JSON.

    python3 perfbench/worker.py run PLAN SECONDS TRACE RESULT
        One untimed warm-up round, then whole rounds of the plan's ops until
        SECONDS have passed, then one untimed replay of the first op. With
        TRACE=1 the layers are wrapped (see layertrace.py) after the warm-up.
        Writes per-op times, every distinct reply, and peak RSS to RESULT.

The caller sets the environment (BLAS threads pinned to 1); run from the
root of the repository. Nothing but the standard library is imported before
``import qexpect`` is timed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _import_qexpect():
    """Import ``qexpect`` from this checkout's ``src``, never an installed
    copy; returns the ``qexpect.cli`` module."""
    sys.path.insert(0, str(SRC))
    import qexpect
    import qexpect.cli

    if not Path(qexpect.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qexpect imported from {qexpect.__file__}, not from {SRC}")
    return qexpect.cli


def setup(plan: dict) -> float:
    started = time.perf_counter()
    _import_qexpect()
    from qexpect.config import load_document, scenario_from_document

    for entry in plan["setup"]:
        doc = load_document(entry["path"])
        if entry["scenario"]:
            scenario_from_document(doc)
    return time.perf_counter() - started


def _call(cli, argv: list[str]) -> tuple[object, str, str]:
    """One ``cli.main`` call, looked up at call time so a traced run sees
    the wrapper; an exception out of main is part of the reply."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(argv), out=out)
    except Exception as exc:  # the reply under test: main must not raise
        code = f"exception: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class _Replies:
    """Distinct replies by digest of (argv, exit, stdout); each command index
    maps to the set of digests it produced, so replay mismatches show."""

    def __init__(self):
        self.records: dict[str, dict] = {}
        self.by_command: dict[str, set[str]] = {}

    def add(self, key: str, argv: list[str], reply: tuple) -> None:
        code, out, err = reply
        digest = hashlib.sha256(json.dumps([argv, code, out]).encode()).hexdigest()
        if digest not in self.records:
            self.records[digest] = {"argv": argv, "exit": code, "stdout": out, "stderr": err[:4000]}
        self.by_command.setdefault(key, set()).add(digest)


def _run_op(cli, op: list[dict], replies: _Replies, index: int) -> float:
    gc.collect()
    started = time.perf_counter()
    results = [_call(cli, cmd["argv"]) for cmd in op]
    elapsed = time.perf_counter() - started
    for j, (cmd, reply) in enumerate(zip(op, results)):
        replies.add(f"{index}.{j}", cmd["argv"], reply)
    return elapsed


def run(plan: dict, seconds: float, trace: bool) -> dict:
    cli = _import_qexpect()
    ops = plan["ops"]
    replies = _Replies()
    for i, op in enumerate(ops):
        _run_op(cli, op, replies, i)

    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()

    times: list[list[float]] = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        if tracer:
            tracer.start_round()
        times.append([_run_op(cli, op, replies, i) for i, op in enumerate(ops)])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    _run_op(cli, ops[0], replies, 0)
    return {
        "times": times,
        "peak_rss_kib": peak_kib,
        "records": replies.records,
        "by_command": {k: sorted(v) for k, v in replies.by_command.items()},
        "trace": tracer.report() if tracer else None,
    }


def main(argv: list[str]) -> int:
    mode, plan_path, *rest = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    if mode == "setup":
        print(json.dumps({"setup_s": setup(plan)}))
        return 0
    seconds, trace, result_path = float(rest[0]), rest[1] == "1", rest[2]
    result = run(plan, seconds, trace)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
