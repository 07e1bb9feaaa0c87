"""In-memory spans and Ray Data execution records for the traced run.

A ``Tracer`` keeps every span in a list and writes them out once, when the
run ends.  A span has a name, a start, an end (``time.perf_counter``
seconds) and the id of its parent.  ``RayDataLog`` collects Ray Data's own
"Execution plan of Dataset ..." and "... execution finished in N seconds"
log records; each executed Dataset becomes a child span of the span that was
open when it finished.
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
import time
from collections import defaultdict

_PLAN = re.compile(r"Execution plan of Dataset (\S+): (.*)")
_DONE = re.compile(r"Dataset (\S+) execution finished in ([0-9.]+) seconds")
# operators that move every row between blocks (all-to-all shuffles)
_EXCHANGE = re.compile(r"^(AllToAllOperator|HashShuffleOperator|HashAggregateOperator|"
                       r"JoinOperator|.*Shuffle.*)\[")


def count_exchanges(plan: str) -> int:
    return sum(1 for op in plan.split(" -> ") if _EXCHANGE.match(op.strip()))


class RayDataLog(logging.Handler):
    """Captures Ray Data's executed-plan records while attached."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.plans: dict[str, str] = {}
        self.finished: list[tuple[float, str, float]] = []   # (perf time, dataset, exec s)

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        m = _PLAN.search(msg)
        if m:
            self.plans[m.group(1)] = m.group(2)
            return
        m = _DONE.search(msg)
        if m:
            self.finished.append((time.perf_counter(), m.group(1), float(m.group(2))))

    @contextlib.contextmanager
    def attached(self):
        lg = logging.getLogger("ray.data")
        old = lg.level
        lg.addHandler(self)
        if lg.getEffectiveLevel() > logging.INFO:
            lg.setLevel(logging.INFO)
        try:
            yield self
        finally:
            lg.removeHandler(self)
            lg.setLevel(old)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, kind: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "kind": kind,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add_datasets(self, log: RayDataLog, start_index: int = 0) -> None:
        """Attach each Dataset that finished since ``start_index`` as a child
        of the innermost non-dataset span that covers its finish time."""
        for t_end, ds, exec_s in log.finished[start_index:]:
            parent = None
            for s in self.spans:
                if s["kind"] != "dataset" and s["start"] <= t_end <= (s["end"] or t_end):
                    if parent is None or s["start"] >= parent["start"]:
                        parent = s
            plan = log.plans.get(ds, "")
            self.spans.append({"id": len(self.spans), "name": ds, "kind": "dataset",
                               "parent": parent["id"] if parent else None,
                               "start": t_end - exec_s, "end": t_end,
                               "plan": plan, "exchanges": count_exchanges(plan)})

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the union of the
        intervals its direct children cover."""
        kids = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append((s["start"], s["end"]))
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(kids[s["id"]]):
                lo, hi = max(lo, s["start"]), min(hi, s["end"])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    covered += (cur_hi - cur_lo) if cur_hi is not None else 0.0
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            covered += (cur_hi - cur_lo) if cur_hi is not None else 0.0
            key = "dataset" if s["kind"] == "dataset" else s["name"]
            out[key] += (s["end"] - s["start"]) - covered
        return dict(out)

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "self_s": self.self_times(), "spans": self.spans}, f)
