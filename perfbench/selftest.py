"""Self-test of the benchmark's contract and hygiene.

    python3 perfbench/selftest.py [--quick]

Runs every workload briefly (1 s of measurement) untraced and traced, then
makes a workload fail, makes one operation fail on every pass, makes a
workload hang past its time limit, and runs the benchmark in a directory
without the library.  After each run it asserts
that the last output line has the promised shape (or that no result was
printed where the run must fail), and that no process the run started and
no scratch directory is left behind.  ``--quick`` skips the traced runs.
Takes about seven minutes; nothing else should run on the machine meanwhile.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import procs  # noqa: E402
import run as bench  # noqa: E402

VAR = "PERFBENCH_SELFTEST"


class Failed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Failed(msg)


def invoke(args: list[str], cwd: str = REPO, **env) -> tuple[int, list[str], float]:
    mark = uuid.uuid4().hex
    t0 = time.monotonic()
    p = subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True, text=True,
                       timeout=900, env=dict(os.environ, **{VAR: mark}, **env))
    took = time.monotonic() - t0
    left = procs.marked(mark, VAR)
    expect(not left, f"{args}: processes left behind: {left}")
    expect(not os.path.exists(bench.SCRATCH_ROOT), f"{args}: {bench.SCRATCH_ROOT} left behind")
    if p.returncode not in (0, 1, 2):
        print(p.stderr[-3000:], file=sys.stderr)
    return p.returncode, p.stdout.strip().splitlines(), took


def check_result(lines: list[str], names: set[str], what: str) -> dict:
    expect(bool(lines), f"{what}: no output")
    res = json.loads(lines[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {set(res)}")
    expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
           f"{what}: {res['correct']=} {res['attempted']=} {res['failed']=}")
    expect(set(res["metrics"]) == names, f"{what}: metrics {sorted(res['metrics'])}")
    for k, v in res["metrics"].items():
        expect(set(v) == {"value", "unit"} and isinstance(v["value"], (int, float)),
               f"{what}: metric {k} = {v}")
    return res


def no_result(lines: list[str]) -> bool:
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        return True
    return False


def main() -> int:
    quick = "--quick" in sys.argv
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    run_py = os.path.join("perfbench", "run.py")
    steps = []
    for w in bench.WORKLOADS:
        steps.append((f"{w} untraced", lambda w=w: check_result(
            invoke([run_py, "--workload", w, "--seconds", "1"])[1], e2e, w)))
        if not quick:
            steps.append((f"{w} traced", lambda w=w: check_result(
                invoke([run_py, "--workload", w, "--seconds", "1", "--trace", "1"])[1],
                layers, w)))

    def failing():
        rc, lines, _ = invoke([run_py, "--workload", "docs_join", "--seconds", "1"],
                              PERFBENCH_FAULT="raise")
        expect(rc != 0 and no_result(lines), f"failing workload: rc {rc}, output {lines[-1:]}")

    def failing_op():
        rc, lines, _ = invoke([run_py, "--workload", "docs_join", "--seconds", "1"],
                              PERFBENCH_FAULT="op")
        expect(not no_result(lines), f"failing operation: no result, rc {rc}")
        res = json.loads(lines[-1])
        expect(rc != 0 and res["correct"] is False and res["failed"] * 2 == res["attempted"],
               f"failing operation: rc {rc}, result {res}")

    def hanging():
        rc, lines, took = invoke([run_py, "--workload", "docs_join", "--seconds", "1"],
                                 PERFBENCH_FAULT="hang")
        expect(rc != 0 and no_result(lines) and took < bench.LIMIT_MARGIN_S + 30,
               f"hanging workload: rc {rc} after {took:.0f} s, output {lines[-1:]}")

    def bare():
        d = os.path.join(bench.SCRATCH_ROOT + "-bare")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(os.path.join(d, "perfbench"))
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), d)
        for f in os.listdir(HERE):
            if f.endswith((".py", ".md")):
                shutil.copy(os.path.join(HERE, f), os.path.join(d, "perfbench"))
        try:
            rc, lines, took = invoke(spec["command"][1:], cwd=d)
            expect(rc != 0 and no_result(lines) and took < 180,
                   f"without the library: rc {rc} after {took:.0f} s, output {lines[-1:]}")
        finally:
            shutil.rmtree(d, ignore_errors=True)

    steps += [("failing workload", failing), ("failing operation", failing_op),
              ("hanging workload", hanging),
              ("without the library", bare)]
    bad = 0
    for name, step in steps:
        t0 = time.monotonic()
        try:
            step()
            print(f"ok    {name} ({time.monotonic() - t0:.0f} s)", flush=True)
        except (Failed, ValueError, KeyError, subprocess.TimeoutExpired) as e:
            bad += 1
            print(f"FAIL  {name}: {e}", flush=True)
    print(f"{len(steps) - bad} passed, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
