import contextlib
import logging
import os
import re

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    os.environ.setdefault("RAY_DEDUP_LOGS", "1")
    # 8 CPUs: actor pools + read/aggregate tasks must all fit concurrently;
    # 4-CPU sessions have shown intermittent pool-starvation hangs
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def synth_sf001():
    from raster_functions_ray import synth
    return synth.synth_dir(0.001)


@pytest.fixture
def executed_plans():
    """``with executed_plans() as plans:`` collects the operator chain of
    every Dataset that Ray Data executes inside the block, read from its
    "Execution plan of Dataset ..." log records."""
    @contextlib.contextmanager
    def record():
        plans: list[str] = []

        class Plans(logging.Handler):
            def emit(self, rec):
                m = re.search(r"Execution plan of Dataset \S+: (.*)", rec.getMessage())
                if m:
                    plans.append(m.group(1))

        lg = logging.getLogger("ray.data")
        old, h = lg.level, Plans(logging.INFO)
        lg.addHandler(h)
        lg.setLevel(logging.INFO)
        try:
            yield plans
        finally:
            lg.removeHandler(h)
            lg.setLevel(old)

    return record
