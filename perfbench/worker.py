"""One workload in one fresh process with its own Ray session.

``run.py`` starts this file; it is not meant to be run by hand.  The process
starts Ray, imports the library, runs one untimed warm-up pass (the end of
which ends set-up), then measures passes for ``--seconds`` seconds and
checks every output.  With ``--trace 1`` it alternates untraced and traced
passes and records per-layer figures instead of end-to-end ones.  The raw
samples are written as JSON to ``--result``; ``summarize`` turns the samples
of one or more such processes into the run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
NUM_CPUS = 1                          # fixed; never more than `nproc` reports here
OBJECT_STORE_BYTES = 512 * 1024 ** 2

OP_METRICS = (
    "pipelines.flagship.run", "rasterqueries.q_doc_zone_join",
    "rasterqueries.q_hillshade_stats", "rasterqueries.q_median_composite_stats",
    "analytic2.q_hillshade_exact", "analytic2.q_median_composite_exact",
    "bench.write_dem_scenes", "bench.resume_analytic_scenes")
LAYER_METRICS = (
    "sources.read_s", "sources.read_rows", "sources.read_mb",
    "tilecodec.decode_s", "tilecodec.tiles_decoded", "functions.kernel_s",
    "stages.halo.read_s", "stages.composite.reduce_s", "stages.tile_map.apply_s",
    "stages.spans.explode_s", "raydata.datasets", "raydata.exchanges", "raydata.exec_s",
    "caller_s", "overhead_s", "state.run_partitioned_s", "state.partitions_written",
    "state.write_mb", "trace.overhead_pct") + tuple(f"{op}_s" for op in OP_METRICS)


def say(msg: str) -> None:
    """Progress line; the runner relays lines with this prefix."""
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_pass(ops, tracer=None):
    """Each operation once, in order, each issued when the previous returned."""
    outs, walls, errors = {}, {}, []
    t0 = time.perf_counter()
    for name, fn in ops:
        ts = time.perf_counter()
        try:
            with tracer.span(name, "query") if tracer else nullcontext():
                outs[name] = fn()
        except Exception:
            errors.append((name, traceback.format_exc()))
        walls[name] = time.perf_counter() - ts
    return time.perf_counter() - t0, walls, outs, errors


class Results:
    """Per-operation first output (checked in full) and digests of every
    later output (compared with the first)."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict = {}
        self.digests: dict[str, set] = {}
        self.attempted = self.failed = 0

    def add(self, outs, errors, count: bool):
        import check

        if count:
            self.attempted += len(outs) + len(errors)
            self.failed += len(errors)
        for name, tb in errors:
            print(f"operation {name} failed:\n{tb}", file=sys.stderr)
        for name, out in outs.items():
            self.first.setdefault(name, out)
            self.digests.setdefault(name, set()).add(check.value_hash(self.wl.digest(name, out)))

    def problems(self, full: bool) -> list[str]:
        """Every operation gave an output and the same one on every pass;
        with ``full`` the first output is also checked against the oracles,
        the NumPy recomputations and the workload's property checks.
        Without it, ``run.py`` compares the digests with those of a process
        that made the full checks."""
        import check
        from __ray_entry__ import oracle_sql

        wl, probs = self.wl, []
        for name, _ in wl.ops():
            if name not in self.first:
                probs.append(f"{name}: no output on any pass")
        for name, ds in self.digests.items():
            if len(ds) > 1:
                probs.append(f"{name}: output differs between passes")
        if not full:
            return probs
        names = {op: key for op, key in wl.oracle_names().items() if op in self.first}
        sqls = oracle_sql(0.01)
        oracles = check.oracle_frames({key: sqls[key] for key in names.values()})
        for op, key in names.items():
            probs += check.compare_exact(op, wl.digest(op, self.first[op]), oracles[key])
        for op, (exp, key, tol) in wl.expected().items():
            if op in self.first:
                probs += check.compare_close(op, wl.digest(op, self.first[op]), exp, key, tol or {})
        probs += wl.extra_problems(self.first)
        return probs


def _ancestors(spans):
    by_id = {s["id"]: s for s in spans}

    def chain(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s
    return chain


def traced_pass_metrics(tracer, pass_id: int) -> dict:
    """Per-layer figures of one traced pass from its spans."""
    spans = tracer.spans
    chain = _ancestors(spans)
    queries = [s for s in spans if s["kind"] == "query" and s["parent"] == pass_id]
    qids = {s["id"] for s in queries}
    datasets = [s for s in spans if s["kind"] == "dataset"
                and any(a["id"] in qids for a in chain(s))]
    m = {f"{s['name']}_s": s["end"] - s["start"] for s in queries}
    q_total = sum(s["end"] - s["start"] for s in queries)
    m["raydata.datasets"] = len(datasets)
    m["raydata.exchanges"] = sum(s["exchanges"] for s in datasets)
    m["raydata.exec_s"] = sum(s["end"] - s["start"] for s in datasets)
    m["caller_s"] = q_total - m["raydata.exec_s"]
    m["_query_s"] = q_total
    return m


def _done(t_end: float, walls: list[float]) -> bool:
    """Stop when another whole pass would likely end further past ``t_end``
    than stopping now falls short of it, so a run measures about
    ``--seconds`` whatever the pass length."""
    return time.perf_counter() + statistics.median(walls) / 2 >= t_end


def measure(wl, ops, seconds: float, trace: bool, out_dir: str, tag: str):
    """Passes for ``seconds``; returns the checked results and the raw
    samples ``summarize`` reads."""
    import procs
    import tracing

    res = Results(wl)
    t_end = time.perf_counter() + seconds
    if not trace:
        # each pass's CPU seconds, summed over this process and every process
        # of its Ray session, are recorded next to its wall time: with the
        # session on one CPU the two stay close unless the host takes the
        # CPU away
        walls, op_walls, cpus = [], [], []
        run_id = os.environ[procs.MARK]
        while True:
            c0 = procs.cpu_times(run_id)
            wall, op_s, outs, errors = run_pass(ops)
            c1 = procs.cpu_times(run_id)
            cpus.append(procs.cpu_spent(c0, c1))
            res.add(outs, errors, count=True)
            walls.append(wall)
            op_walls.append(op_s)
            if _done(t_end, walls):
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        say(f"median pass: {statistics.median(walls):.3f} s wall, "
            f"{statistics.median(cpus):.3f} CPU-s")
        return res, {"pass_s": walls, "op_s": op_walls, "cpu_s": cpus,
                     "rss_mb": rss_mb}
    tracer, log = tracing.Tracer(), tracing.RayDataLog()
    untraced, traced, per_pass, rounds = [], [], [], []

    def plain():
        wall, _, outs, errors = run_pass(ops)
        res.add(outs, errors, count=True)
        untraced.append(wall)

    def layered():
        if hasattr(wl, "state"):
            wl.state.update(partitions=0, bytes=0, run_partitioned_s=0.0)
        start = len(log.finished)
        wl.ctx.tracer = tracer
        with log.attached():
            with tracer.span("pass", "pass") as rec:
                _, _, outs, errors = run_pass(ops, tracer)
                with tracer.span("layers", "probe"):
                    layers = wl.layers()
        wl.ctx.tracer = None
        res.add(outs, errors, count=True)
        tracer.add_datasets(log, start)
        m = traced_pass_metrics(tracer, rec["id"])
        m.update(layers)
        if hasattr(wl, "state"):
            m["state.run_partitioned_s"] = wl.state["run_partitioned_s"]
            m["state.partitions_written"] = wl.state["partitions"]
            m["state.write_mb"] = wl.state["bytes"] / 1e6
        m["overhead_s"] = m["_query_s"] - sum(
            m.get(k, 0.0) for k in ("sources.read_s", "tilecodec.decode_s", "functions.kernel_s"))
        per_pass.append({k: m.get(k, 0.0) for k in LAYER_METRICS if k != "trace.overhead_pct"})
        traced.append(m["_query_s"])

    while True:
        r0 = time.perf_counter()
        # the order alternates, so that the untraced and the traced pass each
        # follow the previous round's layer probe equally often
        for step in ((plain, layered) if len(rounds) % 2 == 0 else (layered, plain)):
            step()
        rounds.append(time.perf_counter() - r0)
        if _done(t_end, rounds):
            break
    self_s = tracer.self_times()
    tracer.write(os.path.join(out_dir, f"trace-{tag}.json"),
                 {"passes": len(per_pass), "untraced_pass_s": untraced, "traced_query_s": traced,
                  "plans": sorted(set(log.plans.values()))})
    say("self time per span name, summed over the traced passes (s):")
    for name, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
        say(f"  {name:45s} {v:9.4f}")
    return res, {"per_pass": per_pass, "untraced_s": untraced, "traced_s": traced}


def summarize(parts: list[dict], trace: bool) -> dict:
    """The run's metrics from the samples of its processes: medians over all
    their passes, and over the processes for set-up time and peak memory."""
    if trace:
        per_pass = [p for r in parts for p in r["samples"]["per_pass"]]
        m = {k: statistics.median(p[k] for p in per_pass)
             for k in LAYER_METRICS if k != "trace.overhead_pct"}
        u = statistics.median(w for r in parts for w in r["samples"]["untraced_s"])
        t = statistics.median(w for r in parts for w in r["samples"]["traced_s"])
        m["trace.overhead_pct"] = 100.0 * (t - u) / u
        return m
    return {"items_per_s": statistics.median(r["items_per_pass"] / w
                                             for r in parts for w in r["samples"]["pass_s"]),
            "client_rss_peak_mb": statistics.median(r["samples"]["rss_mb"] for r in parts),
            "setup_s": statistics.median(r["setup_s"] for r in parts)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--synth", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--ray-temp", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--full-check", type=int, default=1)
    ap.add_argument("--result", required=True)
    ap.add_argument("--cpu", type=int, required=True, help="the one CPU the session runs on")
    a = ap.parse_args()
    sys.path.insert(0, HERE)
    import ray

    # the whole session runs on one CPU: Ray's GCS, raylet and workers
    # inherit this affinity from the process that starts them
    os.sched_setaffinity(0, {a.cpu})

    # no dashboard, no worker-log streaming and no metrics export: the
    # benchmark reads none of them, and their threads only add background CPU
    ray.init(num_cpus=NUM_CPUS, include_dashboard=False, logging_level="WARNING",
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=a.ray_temp, _system_config={"enable_metrics_collection": False})
    try:
        fault = os.environ.get("PERFBENCH_FAULT")
        if fault == "raise":
            raise RuntimeError("fault injected by PERFBENCH_FAULT=raise")
        if fault == "hang":
            time.sleep(3600)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        import workloads

        ctx = workloads.Ctx(a.synth, a.scratch)
        wl = workloads.WORKLOADS[a.workload](ctx)
        ops = wl.ops()
        if fault == "op":
            def broken():
                raise RuntimeError("fault injected by PERFBENCH_FAULT=op")
            ops[0] = (ops[0][0], broken)
        warm = Results(wl)
        _, _, outs, errors = run_pass(ops)          # untimed warm-up pass
        warm.add(outs, errors, count=False)
        setup_s = time.monotonic() - a.t0
        say(f"set-up took {setup_s:.2f} s")
        items = wl.items_per_pass()
        res, samples = measure(wl, ops, a.seconds, bool(a.trace), a.out_dir, a.tag)
        for name, ds in warm.digests.items():
            res.digests.setdefault(name, set()).update(ds)
        t_check = time.perf_counter()
        problems = res.problems(bool(a.full_check))
        say(f"{res.attempted // len(ops)} passes; checks took {time.perf_counter() - t_check:.2f} s")
        for p in problems:
            say(f"CHECK FAILED {p}")
        result = {"setup_s": setup_s, "samples": samples, "attempted": res.attempted,
                  "failed": res.failed, "correct": not problems,
                  "digests": {k: sorted(v) for k, v in res.digests.items()}, "problems": problems,
                  "items_per_pass": items, "item": wl.item}
    finally:
        t_stop = time.perf_counter()
        ray.shutdown()
    import procs

    left = procs.wait_gone(os.environ[procs.MARK], 15.0)
    say(f"ray shutdown and exit of its processes took {time.perf_counter() - t_stop:.2f} s")
    result["ray_left_after_shutdown"] = left
    with open(a.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
