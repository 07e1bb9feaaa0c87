"""stages.join: key_join's two arms against pandas, hash_join against
Ray's empty-first-block fault, every key_join query in the forced shuffle
arm against its DuckDB oracle, and the executed exchange counts of the
key_join queries and of every other gate on the driver budget, in both
arms."""

import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import example, given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.tracing import count_exchanges  # noqa: E402
from scripts.verify_queries import TABLES, value_hash  # noqa: E402

SF001 = "/root/testdata/sf0.001"
HOWS = ("inner", "left_outer", "semi", "anti")
KEYS = st.lists(st.sampled_from([-2**31, -1, 0, 1, 2, 7, 2**31 - 1]), max_size=10)
KEY_TYPES = st.sampled_from([pa.int32(), pa.int64()])


def _arrow(ds: rd.Dataset) -> pa.Table | None:
    tabs = [t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
            if t.num_rows]
    return pa.concat_tables(tabs) if tabs else None


def _rows(df: pd.DataFrame) -> list[str]:
    return sorted(map(repr, df.astype(object).where(df.notna(), None)
                      .itertuples(index=False, name=None)))


@settings(max_examples=3, deadline=None)
@given(fact_keys=KEYS, dim_keys=KEYS, fact_type=KEY_TYPES, dim_type=KEY_TYPES)
@example(fact_keys=[], dim_keys=[1, 1], fact_type=pa.int32(), dim_type=pa.int64())
@example(fact_keys=[1, 1, 2], dim_keys=[], fact_type=pa.int64(), dim_type=pa.int32())
@example(fact_keys=[0, 1, 1, 5], dim_keys=[1, 1, 2, 5, 5, 5],
         fact_type=pa.int32(), dim_type=pa.int32())
def test_key_join_arms_match_pandas(ray_session, fact_keys, dim_keys,
                                    fact_type, dim_type):
    """Both arms equal a pandas merge (inner, left_outer) or isin (semi,
    anti) with repeated keys on both sides, misses and empty sides, and
    agree on column names and dtypes."""
    from raster_functions_ray.stages.join import DRIVER_MAX_BYTES, key_join

    fact = pa.table({"k": pa.array(fact_keys, fact_type),
                     "x": np.arange(len(fact_keys), dtype=np.float64)})
    dim = pa.table({"k": pa.array(dim_keys, dim_type),
                    "y": pa.array([f"d{i}" for i in range(len(dim_keys))], pa.string()),
                    "z": pa.array(range(len(dim_keys)), pa.int16())})
    f = fact.to_pandas().astype({"k": "int64"})
    d = dim.to_pandas().astype({"k": "int64"})
    ref = {"inner": f.merge(d, on="k", how="inner"),
           "left_outer": f.merge(d, on="k", how="left"),
           "semi": f[f["k"].isin(d["k"])],
           "anti": f[~f["k"].isin(d["k"])]}
    for how in HOWS:
        got = [_arrow(key_join(rd.from_arrow(fact), rd.from_arrow(dim), "k", how, n))
               for n in (len(dim_keys), DRIVER_MAX_BYTES // 32 + 1)]
        for t in got:
            if t is None:
                assert ref[how].empty, how
            else:
                assert t.column_names == list(ref[how].columns), how
                assert _rows(t.to_pandas()) == _rows(ref[how]), how
        if got[0] is not None and got[1] is not None:
            assert got[0].schema == got[1].schema, how


ROUTED = ("orders_by_segment", "nation_balance", "orders_filter_join",
          "lineitem_part_join", "anti_join", "q3_shipping", "q17_small_quantity",
          "segment_median_price", "left_outer_join", "ngram_jaccard")


@pytest.fixture(scope="module")
def oracle():
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF001}/{t}.parquet')")
    sql = e.oracle_sql(0.001)
    return lambda name: con.sql(sql[name]).df()


@pytest.mark.parametrize("name", ROUTED)
def test_forced_shuffle_arm_matches_oracle(ray_session, monkeypatch, oracle, name):
    """Every query routed through key_join equals its DuckDB oracle with
    every join forced onto the Dataset.join shuffle arm."""
    import __ray_entry__ as e
    from raster_functions_ray.stages import join

    monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
    got, exp = e.queries()[name](SF001), oracle(name)
    assert len(got) == len(exp) and sorted(got.columns) == sorted(exp.columns)
    assert value_hash(got) == value_hash(exp)


# (exchanges executed in the broadcast arm, key_join calls): the forced
# shuffle arm adds one Join per call and nothing else
EXCHANGES = {"exact_dedup": (2, 0),
             "orders_by_segment": (1, 1), "nation_balance": (1, 1),
             "orders_filter_join": (1, 1), "lineitem_part_join": (1, 1),
             "anti_join": (0, 1), "q3_shipping": (1, 2),
             "q17_small_quantity": (1, 2), "segment_median_price": (1, 1),
             "left_outer_join": (1, 1), "ngram_jaccard": (6, 2)}

# every other gate on the driver budget: (exchanges executed in the
# driver arm at sf0.001, extra exchanges with every gate of the query
# forced to its scale arm).  The driver column is what each query executed
# under its own row-count limit before the one budget, except boilerplate:
# its old limit (64 grams per join partition) took the join at sf0.001,
# and its forced arm is that join.  logreg's scale arm streams its rounds
# without an exchange.
GATES = {"knn_join": (1, 1), "embedding_nn_dedup": (0, 5),
         "minhash_lsh_exact": (2, 2), "logreg_train": (0, 0),
         "bpe_train": (1, 12), "dbscan": (3, 22), "st_dbscan": (3, 28),
         "boilerplate": (2, 1), "segment_join": (0, 1), "flagship": (1, 1)}


def _executed(executed_plans, names):
    """(exchanges, Join operators) executed by each named query at sf0.001."""
    import __ray_entry__ as e
    from raster_functions_ray.pipelines import flagship

    qs = dict(e.queries(), flagship=lambda sf: flagship.run(sf).to_pandas())
    counts, joins = {}, {}
    for name in names:
        with executed_plans() as plans:
            qs[name](SF001)
        counts[name] = sum(count_exchanges(p) for p in plans)
        joins[name] = sum(p.count("JoinOperator[") for p in plans)
    return counts, joins


@pytest.mark.parametrize("forced", [False, True], ids=["broadcast", "shuffle"])
def test_executed_exchange_counts(ray_session, monkeypatch, executed_plans, forced):
    """Exchanges counted from the executed plans, with the operator set the
    benchmark's tracer counts; a Join appears only in the forced arm."""
    from raster_functions_ray.stages import join

    if forced:
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
    counts, joins = _executed(executed_plans, EXCHANGES)
    assert counts == {n: b + forced * k for n, (b, k) in EXCHANGES.items()}
    own = {"ngram_jaccard": 2}  # its candidate self-join, not a key_join
    assert joins == {n: own.get(n, 0) + forced * k for n, (_, k) in EXCHANGES.items()}


@pytest.mark.parametrize("forced", [False, True], ids=["driver", "scale"])
def test_gate_exchange_counts(ray_session, monkeypatch, executed_plans, forced):
    """Every other gate on the driver budget executes the pinned exchanges
    in its driver arm and the pinned extra ones with the budget at 0."""
    from raster_functions_ray.stages import join

    if forced:
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
    counts, _ = _executed(executed_plans, GATES)
    assert counts == {n: d + forced * x for n, (d, x) in GATES.items()}


def test_hash_join_survives_an_empty_first_block(ray_session):
    """A bare Dataset.join over 4 partitions fails in Ray 2.49 when the
    left side's first block is empty; hash_join returns the inner join."""
    import ray

    from raster_functions_ray.stages.join import hash_join

    left = rd.from_arrow_refs([
        ray.put(pa.table({"k": pa.array([], pa.int64()), "x": pa.array([], pa.float64())})),
        ray.put(pa.table({"k": [1, 2, 3, 3], "x": [1.0, 2.0, 3.0, 4.0]}))])
    right = rd.from_arrow(pa.table({"k": [2, 3, 9], "y": ["b", "c", "z"]}))
    with pytest.raises(Exception, match="No match or multiple matches for key field"):
        left.join(right, join_type="inner", num_partitions=4, on=("k",)).materialize()
    got = hash_join(left, right, "k", "inner").to_pandas()
    exp = pd.DataFrame({"k": [2, 3, 3], "x": [2.0, 3.0, 4.0], "y": ["b", "c", "c"]})
    assert sorted(got.columns) == sorted(exp.columns)
    assert _rows(got[exp.columns]) == _rows(exp)
