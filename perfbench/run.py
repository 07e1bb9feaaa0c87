"""Benchmark of the raster engine: two closed-loop workloads, each run in
fresh processes with their own Ray session on one CPU, every output checked.

    python3 perfbench/run.py --workload terrain --seed 42 --seconds 12 --trace 0

``--workload all`` runs both, one after the other.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  Progress, host facts and the layer
self-time table go to standard error; a full record of each run (host
facts, every pass time, the problems found) is written under
``perfbench/.out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata as md
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")
SCRATCH_ROOT = os.path.join(HERE, ".tmp")
WORKLOADS = ("docs_join", "terrain")
KEEP_SEEDS = 12             # input caches kept (~90 MB each); older ones are rebuilt on demand
# each workload runs in PROCESSES fresh processes one after the other, each
# setting up and measuring its share of --seconds; set-up time and peak
# memory are medians over them, throughput the median over all their passes
PROCESSES = 2
# time limit of one workload: --seconds plus this, for the processes' set-ups,
# their last passes, the checks and Ray's shutdown
LIMIT_MARGIN_S = 125.0
BUILD_LIMIT_S = 30.0        # building one seed's inputs (about 5 s)
# AF_UNIX socket paths are limited to 107 bytes; Ray puts
# "<temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" under its temp dir
RAY_TEMP_MAX = 42
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, HERE)
import datagen  # noqa: E402
import procs  # noqa: E402
import worker  # noqa: E402


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def host_facts(num_cpus: int) -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10,
                                   check=True).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    versions = {}
    for pkg in ("ray", "pyarrow", "numpy", "pandas", "duckdb"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    return {"affinity_cores": sorted(os.sched_getaffinity(0)), "nproc": nproc,
            "ray_num_cpus": num_cpus, "python": sys.version.split()[0], **versions,
            "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS}}


class Run:
    """One invocation: owns the run id, the scratch directory and the child
    processes, and cleans all of them up in ``close``."""

    def __init__(self):
        self.id = uuid.uuid4().hex
        self.deadline = 0.0
        os.makedirs(SCRATCH_ROOT, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="", dir=SCRATCH_ROOT)
        self.ray_temp = os.path.join(self.scratch, "r")
        self.outside = None
        if len(self.ray_temp) > RAY_TEMP_MAX:
            # the checkout path is too long for Ray's sockets; only then
            # does the Ray session live in a short system temp directory
            self.outside = tempfile.mkdtemp(prefix="pb")
            self.ray_temp = self.outside
        # the one CPU every workload process and its Ray session run on
        self.cpu = max(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        for k in THREAD_PINS:
            self.env.setdefault(k, "1")
        self.env.setdefault("PYTHONHASHSEED", "0")   # same dict and set layouts every run
        pypath = [REPO] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env.update({procs.MARK: self.id, "PYTHONPATH": os.pathsep.join(pypath),
                         "RAY_USAGE_STATS_ENABLED": "0", "RAY_DATA_DISABLE_PROGRESS_BARS": "1"})

    def child(self, args: list[str], name: str) -> None:
        """Run a child to completion within the time left; on failure or
        timeout kill its whole process group and everything it marked."""
        logf = os.path.join(self.scratch, f"{name}.log")
        t0 = time.monotonic()
        with open(logf, "w") as lf:
            p = subprocess.Popen([sys.executable] + args, cwd=REPO, env=self.env,
                                 stdout=lf, stderr=subprocess.STDOUT, start_new_session=True)
            try:
                rc = p.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                procs.kill_group(p.pid)
                p.wait()
        left = procs.stop_all(self.id, grace_s=5.0)
        with open(logf, errors="replace") as f:
            text = f.read()
        for ln in text.splitlines():
            if ln.startswith("[perfbench]"):
                print(ln, file=sys.stderr)
        log(f"{name}: {time.monotonic() - t0:.2f} s")
        if rc != 0 or left:
            tail = text[-6000:]
            why = "passed its time limit" if rc is None else f"exited with {rc}"
            raise RuntimeError(f"{name} {why}; processes left: {left}\n--- log tail ---\n{tail}")

    def close(self) -> list[int]:
        left = procs.stop_all(self.id, grace_s=2.0)
        shutil.rmtree(self.scratch, ignore_errors=True)
        if self.outside:
            shutil.rmtree(self.outside, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass
        return left


def ensure_inputs(run: Run, seed: int) -> bool:
    """Build the seed's inputs in a child process unless cached; returns
    whether anything was built."""
    os.makedirs(CACHE, exist_ok=True)
    if datagen.is_built(CACHE, seed):
        os.utime(datagen.seed_dir(CACHE, seed))
        return False
    seeds = sorted((d for d in os.listdir(CACHE) if d.startswith("seed")),
                   key=lambda d: os.path.getmtime(os.path.join(CACHE, d)))
    for d in seeds[: max(0, len(seeds) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(os.path.join(CACHE, d), ignore_errors=True)
    log(f"building the inputs of seed {seed} ...")
    run.deadline = time.monotonic() + BUILD_LIMIT_S
    run.child([os.path.join(HERE, "datagen.py"), CACHE, str(seed)], "datagen")
    return True


def run_workload(run: Run, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The workload in PROCESSES fresh processes; returns the run's metrics,
    counts, problems and each process's raw samples."""
    run.deadline = time.monotonic() + seconds + LIMIT_MARGIN_S
    tag = f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    parts = []
    for i in range(PROCESSES):
        res_path = os.path.join(run.scratch, f"result{i}.json")
        run.child([os.path.join(HERE, "worker.py"), "--workload", workload,
                   "--seconds", str(seconds / PROCESSES), "--trace", str(trace),
                   "--synth", datagen.world_dir(CACHE, seed),
                   "--scratch", run.scratch, "--ray-temp", run.ray_temp, "--out-dir", OUT,
                   "--tag", f"{tag}-p{i}", "--full-check", str(int(i == 0)),
                   "--t0", repr(time.monotonic()), "--result", res_path,
                   "--cpu", str(run.cpu)], f"{workload}-p{i}")
        with open(res_path) as f:
            parts.append(json.load(f))
    # the later processes' outputs must equal those the first one checked in full
    for r in parts[1:]:
        r["problems"] += [f"{op}: output differs from the first process's"
                          for op, ds in r["digests"].items() if ds != parts[0]["digests"].get(op)]
        r["correct"] = not r["problems"]
    return {"metrics": worker.summarize(parts, bool(trace)),
            "correct": all(r["correct"] for r in parts),
            "attempted": sum(r["attempted"] for r in parts),
            "failed": sum(r["failed"] for r in parts),
            "problems": [p for r in parts for p in r["problems"]], "processes": parts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(REPO, "raster_functions_ray", "__init__.py"))
            and os.path.isfile(os.path.join(REPO, "__ray_entry__.py"))):
        log(f"the library is not in {REPO}: nothing to benchmark")
        return 2
    t_start = time.monotonic()

    # a terminated runner still stops its children and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run()
    os.makedirs(OUT, exist_ok=True)
    facts = host_facts(worker.NUM_CPUS)
    facts["session_cpu"] = run.cpu
    if worker.NUM_CPUS > (facts["nproc"] or 1):
        log(f"Ray num_cpus {worker.NUM_CPUS} exceeds nproc {facts['nproc']}")
    results, error = {}, None
    try:
        facts["loadavg_before"] = os.getloadavg()
        run.env["RFR_SYNTH_CACHE"] = datagen.synth_cache(CACHE, a.seed)
        built = ensure_inputs(run, a.seed)
        for w in (WORKLOADS if a.workload == "all" else (a.workload,)):
            results[w] = run_workload(run, w, a.seed, a.seconds, a.trace)
        facts["loadavg_after"] = os.getloadavg()
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        error = e
    finally:
        left = run.close()
    if left:
        log(f"processes still alive after cleanup: {left}")
    if error is not None:
        log(f"FAILED: {error}")
        return 1
    log("host: " + json.dumps(facts))
    for w, res in results.items():
        rec = {"workload": w, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
               "inputs_built": built, "host": facts, **res}
        with open(os.path.join(OUT, f"{w}-seed{a.seed}-trace{a.trace}-"
                                    f"{time.strftime('%Y%m%dT%H%M%S')}.json"), "w") as f:
            json.dump(rec, f, indent=1)
        for p in res["problems"]:
            log(f"{w}: CHECK FAILED {p}")
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def line(res, prefix=""):
        return {f"{prefix}{k}": {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}

    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()), "metrics": {}}
    for w, res in results.items():
        if len(results) > 1:
            print(json.dumps({"workload": w, "correct": res["correct"], "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": line(res)}))
        summary["metrics"].update(line(res, f"{w}." if len(results) > 1 else ""))
    log(f"done in {time.monotonic() - t_start:.1f} s")
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
