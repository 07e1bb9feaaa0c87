"""Local driver-style verification: run every queries() entry at sf0.01 and
compare against oracle_sql() via DuckDB (row count + sorted-column schema +
order-insensitive value hash), mirroring CORRECTNESS_r{N}.json.

Usage: python scripts/verify_queries.py [--sf-dir DIR] [name ...]
(--sf-dir: run the comparison over another scale factor, e.g.
/root/testdata/sf0.1 — the 10x scale spot-check)
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import pandas as pd

SF_DIR = "/root/testdata/sf0.01"
if "--sf-dir" in sys.argv:
    i = sys.argv.index("--sf-dir")
    SF_DIR = sys.argv[i + 1]
    del sys.argv[i:i + 2]
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[ns]").astype("int64")
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    rows = [hashlib.blake2b(("|".join(map(repr, t))).encode(), digest_size=8).hexdigest()
            for t in df.itertuples(index=False, name=None)]
    return hashlib.blake2b("".join(sorted(rows)).encode(), digest_size=16).hexdigest()


def main():
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    # this checkout's own code, wherever it is run from
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    qs = e.queries()
    from raster_functions_ray import synth
    oracles = e.oracle_sql(synth.sf_from_dir(SF_DIR))
    only = set(sys.argv[1:])
    unknown = only - set(qs)
    if unknown:
        # a typo'd name must not yield a silent '0 pass, 0 fail' green
        print(f"FAIL unknown query name(s): {sorted(unknown)}")
        return 1

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(SF_DIR))
        except Exception as ex:
            print(f"FAIL {name}: ray side raised {type(ex).__name__}: {ex}", flush=True)
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(got)} rows, {sorted(got.columns)}) [{dt:.1f}s]", flush=True)
            n_pass += 1
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}", flush=True)
            n_fail += 1
            continue
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(got.columns) != sorted(exp.columns):
            problems.append(f"schema {sorted(got.columns)} != {sorted(exp.columns)}")
        else:
            try:
                if value_hash(got) != value_hash(exp):
                    problems.append("value hash mismatch")
            except Exception as ex:  # un-castable dtype must FAIL this query,
                problems.append(f"value_hash raised {type(ex).__name__}: {ex}")  # not kill the run
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)} [{dt:.1f}s]", flush=True)
            if "value hash mismatch" in problems and len(got) == len(exp):
                key = sorted(got.columns)
                g = got[key].sort_values(key).reset_index(drop=True)
                x = exp[key].sort_values(key).reset_index(drop=True)
                diff = (g != x) & ~(g.isna() & x.isna())
                bad = diff.any(axis=1)
                print(g[bad].head(3))
                print(x[bad].head(3))
            n_fail += 1
        else:
            print(f"PASS {name} ({len(got)} rows) [{dt:.1f}s]", flush=True)
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
