"""Relational pipelines over the driver's TPC-H-ish tables, Ray-Data-first.

These are the SQL-checkable operators of the engine (driver runs each against
its DuckDB oracle at sf0.01).  Patterns exercised:

- column pruning at the read (every read_parquet passes ``columns``);
- vectorized filters inside map_batches (no per-row ``ds.filter(fn)``);
- pre-aggregation inside map_batches before the groupby shuffle
  (partial combine → small all-to-all), per SURVEY.md §4;
- every keyed equi-join through ``stages.join.key_join``: a broadcast
  ``searchsorted`` attach while the dimension side (footer rows × 32 B)
  fits ``DRIVER_MAX_BYTES``, a ``hash_join`` shuffle above it;
- sort/limit top-k with deterministic tie-breaks.

Float discipline: aggregate outputs are rounded (2 decimals for money,
6 for ratios) in BOTH the Ray pipeline and the oracle SQL so that
non-associative fp summation order cannot flip the value hash.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from .sources import read_table, table_rows
from .stages.join import key_join
from .textops import tokenize


def _round(df: pd.DataFrame, spec: dict[str, int]) -> pd.DataFrame:
    for c, nd in spec.items():
        df[c] = df[c].astype(float).round(nd)
    return df


def q1_pricing(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: filtered scan → grouped aggregate.

    Pre-aggregates per batch (one row per (flag, status) per batch) before
    the groupby, so the shuffle moves O(groups × batches) rows, not O(rows).
    """
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount", "l_shipdate"])

    cutoff = pa.scalar(pd.Timestamp("2000-06-01"), pa.timestamp("us"))

    def partial(b: pa.Table) -> pd.DataFrame:
        b = b.filter(pc.less_equal(b["l_shipdate"], cutoff))
        df = b.to_pandas()
        df["revenue"] = df["l_extendedprice"] * (1.0 - df["l_discount"])
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_revenue=("revenue", "sum"),
            sum_disc=("l_discount", "sum"),
            n=("l_quantity", "size"),
        ).reset_index()
        return g

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = (partials.groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("sum_qty", alias_name="sum_qty"),
                      Sum("sum_base_price", alias_name="sum_base_price"),
                      Sum("sum_revenue", alias_name="sum_revenue"),
                      Sum("sum_disc", alias_name="sum_disc"),
                      Sum("n", alias_name="n"))
           .to_pandas())
    out["avg_qty"] = out["sum_qty"] / out["n"]
    out["avg_disc"] = out["sum_disc"] / out["n"]
    out = out.drop(columns=["sum_disc"])
    return _round(out, {"sum_qty": 2, "sum_base_price": 2, "sum_revenue": 2,
                        "avg_qty": 6, "avg_disc": 6})


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS sum_revenue,
       COUNT(*) AS n,
       ROUND(SUM(l_quantity) / COUNT(*), 6) AS avg_qty,
       ROUND(SUM(l_discount) / COUNT(*), 6) AS avg_disc
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '2000-06-01'
GROUP BY l_returnflag, l_linestatus
"""


def q_orders_by_segment(sf_dir: str) -> pd.DataFrame:
    """Orders ⋈ customer (key_join); aggregate per market segment."""
    cust = (read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
            .rename_columns({"c_custkey": "o_custkey"}))
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = key_join(orders, cust, "o_custkey", "inner",
                      table_rows(sf_dir, "customer"))

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.groupby("c_mktsegment", sort=False).agg(
            n_orders=("o_totalprice", "size"),
            total_price=("o_totalprice", "sum")).reset_index()

    out = (joined.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("c_mktsegment")
           .aggregate(Sum("n_orders", alias_name="n_orders"),
                      Sum("total_price", alias_name="total_price"))
           .to_pandas())
    return _round(out, {"total_price": 2})


Q_ORDERS_BY_SEGMENT_SQL = """
SELECT c_mktsegment,
       COUNT(*) AS n_orders,
       ROUND(SUM(o_totalprice), 2) AS total_price
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_top_parts(sf_dir: str) -> pd.DataFrame:
    """Top-k with deterministic tie-break: (retailprice desc, partkey asc)
    limit 10 — per-batch PARTIAL top-k merged on the driver, not a global
    ds.sort (an all-to-all range shuffle of the whole table is the wrong
    shape for a 10-row answer; same pattern as q_nation_top_customers)."""
    ds = read_table(sf_dir, "part", columns=["p_partkey", "p_retailprice", "p_brand"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.sort_values(["p_retailprice", "p_partkey"],
                              ascending=[False, True]).head(10)

    cand = ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=65536).to_pandas()
    out = cand.sort_values(["p_retailprice", "p_partkey"],
                           ascending=[False, True]).head(10)
    return out.reset_index(drop=True)


Q_TOP_PARTS_SQL = """
SELECT p_partkey, p_retailprice, p_brand
FROM part ORDER BY p_retailprice DESC, p_partkey ASC LIMIT 10
"""


def q_distinct_brands(sf_dir: str) -> pd.DataFrame:
    """Distinct (shuffle dedup) via groupby on the value."""
    ds = read_table(sf_dir, "part", columns=["p_brand"])
    out = ds.groupby("p_brand").aggregate(Count(alias_name="n")).to_pandas()
    return out[["p_brand"]].sort_values("p_brand").reset_index(drop=True)


Q_DISTINCT_BRANDS_SQL = "SELECT DISTINCT p_brand FROM part ORDER BY p_brand"


def q_events_daily(sf_dir: str) -> pd.DataFrame:
    """Tumbling daily window over the events stream:
    groupby (event_type, day) with pre-aggregated partials."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        df["day"] = df["ts"].dt.floor("D")
        return df.groupby(["event_type", "day"], sort=False).agg(
            n=("value", "size"), sum_value=("value", "sum")).reset_index()

    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby(["event_type", "day"])
           .aggregate(Sum("n", alias_name="n"), Sum("sum_value", alias_name="sum_value"))
           .to_pandas())
    return _round(out, {"sum_value": 4})


Q_EVENTS_DAILY_SQL = """
SELECT event_type, date_trunc('day', ts) AS day,
       COUNT(*) AS n, ROUND(SUM(value), 4) AS sum_value
FROM events GROUP BY event_type, day
"""


def q_nation_balance(sf_dir: str) -> pd.DataFrame:
    """Customer ⋈ nation (key_join) + grouped mean."""
    nation = (read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
              .rename_columns({"n_nationkey": "c_nationkey"}))
    cust = read_table(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])
    joined = key_join(cust, nation, "c_nationkey", "inner",
                      table_rows(sf_dir, "nation"))

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.groupby("n_name", sort=False).agg(
            n_customers=("c_acctbal", "size"), sum_bal=("c_acctbal", "sum")).reset_index()

    out = (joined.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("n_name")
           .aggregate(Sum("n_customers", alias_name="n_customers"),
                      Sum("sum_bal", alias_name="sum_bal"))
           .to_pandas())
    out["avg_bal"] = (out["sum_bal"] / out["n_customers"])
    return _round(out, {"sum_bal": 2, "avg_bal": 6})


Q_NATION_BALANCE_SQL = """
SELECT n_name, COUNT(*) AS n_customers,
       ROUND(SUM(c_acctbal), 2) AS sum_bal,
       ROUND(SUM(c_acctbal) / COUNT(*), 6) AS avg_bal
FROM customer JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


def q_user_activity(sf_dir: str) -> pd.DataFrame:
    """Per-user activity profile: count, value stats, last event time —
    grouped aggregate with multiple reducers on a higher-cardinality key."""
    ds = read_table(sf_dir, "events", columns=["user_id", "value", "ts"])
    out = (ds.groupby("user_id")
           .aggregate(Count(alias_name="n_events"),
                      Sum("value", alias_name="sum_value"),
                      Min("ts", alias_name="first_ts"),
                      Max("ts", alias_name="last_ts"))
           .to_pandas())
    return _round(out, {"sum_value": 4})


Q_USER_ACTIVITY_SQL = """
SELECT user_id, COUNT(*) AS n_events, ROUND(SUM(value), 4) AS sum_value,
       MIN(ts) AS first_ts, MAX(ts) AS last_ts
FROM events GROUP BY user_id
"""


def q_orders_filter_join(sf_dir: str) -> pd.DataFrame:
    """Semi-join shape: orders of customers in the BUILDING segment placed
    before a date — a key_join semi join, then aggregate."""
    keys = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], "BUILDING"))
                   .select(["c_custkey"]).rename_columns(["o_custkey"]),
        batch_format="pyarrow")
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_orderdate", "o_totalprice", "o_orderpriority"])
    cutoff = pa.scalar(pd.Timestamp("1998-07-01"), pa.timestamp("us"))
    orders = key_join(orders.map_batches(
        lambda b: b.filter(pc.less(b["o_orderdate"], cutoff)), batch_format="pyarrow"),
        keys, "o_custkey", "semi", table_rows(sf_dir, "customer"))

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.groupby("o_orderpriority", sort=False).agg(
            n=("o_totalprice", "size"), total=("o_totalprice", "sum")).reset_index()

    out = (orders.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("o_orderpriority")
           .aggregate(Sum("n", alias_name="n"), Sum("total", alias_name="total"))
           .to_pandas())
    return _round(out, {"total": 2})


Q_ORDERS_FILTER_JOIN_SQL = """
SELECT o_orderpriority, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total
FROM orders
WHERE o_orderdate < TIMESTAMP '1998-07-01'
  AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
GROUP BY o_orderpriority
"""


def q_lineitem_part_join(sf_dir: str) -> pd.DataFrame:
    """Dimension join lineitem ⨝ part (key_join) → per-brand quantity."""
    part = (read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
            .rename_columns({"p_partkey": "l_partkey"}))
    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
    joined = key_join(li, part, "l_partkey", "inner", table_rows(sf_dir, "part"))

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.groupby("p_brand", sort=False).agg(
            n=("l_quantity", "size"), sum_qty=("l_quantity", "sum")).reset_index()

    out = (joined.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("p_brand")
           .aggregate(Sum("n", alias_name="n"), Sum("sum_qty", alias_name="sum_qty"))
           .to_pandas())
    return _round(out, {"sum_qty": 2})


Q_LINEITEM_PART_JOIN_SQL = """
SELECT p_brand, COUNT(*) AS n, ROUND(SUM(l_quantity), 2) AS sum_qty
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand
"""


def q_sessionize(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization of the events stream (streaming-window
    shape, SURVEY.md §2.7 'no watermarks' note): per user, a new session
    starts after a >30-minute gap; windows computed per ordered group
    (groupby(user).map_groups over ts-sorted rows)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"]).reset_index(drop=True)
        gap = g["ts"].diff() > pd.Timedelta(minutes=30)
        g["session_id"] = gap.cumsum().astype("int64")
        return g[["event_id", "user_id", "session_id"]]

    out = (ds.groupby("user_id").map_groups(sessions, batch_format="pandas")
           .to_pandas())
    out["user_id"] = out["user_id"].astype("int64")
    return out


Q_SESSIONIZE_SQL = """
SELECT event_id, user_id,
       CAST(SUM(CASE WHEN prev_ts IS NOT NULL AND ts - prev_ts > INTERVAL 30 MINUTE
                     THEN 1 ELSE 0 END)
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
FROM (SELECT event_id, user_id, ts,
             LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
      FROM events)
"""


def q_running_totals(sf_dir: str) -> pd.DataFrame:
    """Running (cumulative) per-user aggregates over the ordered stream —
    the ordered-window operator; sequential left-to-right accumulation in
    BOTH engines keeps the doubles bit-identical."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"]).reset_index(drop=True)
        g["rn"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["cum_value"] = np.floor(g["value"].cumsum().to_numpy() * 10000.0 + 0.5) / 10000.0
        return g[["event_id", "user_id", "rn", "cum_value"]]

    out = (ds.groupby("user_id").map_groups(running, batch_format="pandas")
           .to_pandas())
    out["user_id"] = out["user_id"].astype("int64")
    return out


Q_RUNNING_TOTALS_SQL = """
SELECT event_id, user_id,
       ROW_NUMBER() OVER w AS rn,
       floor(SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) * 10000.0 + 0.5) / 10000.0 AS cum_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """As-of join (SURVEY.md §2.7 custom-operator family): each event joins
    the latest order of the same customer with o_orderdate <= ts.

    Lowering: orders (small side) broadcast as per-user ts-sorted arrays;
    events resolved per batch with np.searchsorted — no shuffle.  At equal
    sizes the same kernel runs inside per-user-bucket map_groups.
    """
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate"]).to_pandas()
    orders = orders.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
    per_user: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for ck, g in orders.groupby("o_custkey"):
        # dedupe equal dates keeping the LAST orderkey (max key per date is
        # what 'latest order' resolves to under (date, key) ordering)
        per_user[int(ck)] = (g["o_orderdate"].to_numpy("datetime64[us]").astype("int64"),
                             g["o_orderkey"].to_numpy(np.int64))
    pu_ref = ray.put(per_user)

    events = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def resolve(b: pa.Table) -> pd.DataFrame:
        pu = ray.get(pu_ref)
        df = b.to_pandas()
        # events are 2024 but orders span 1995-2001: derive an in-range
        # as-of timestamp deterministically so the search position varies
        # (same formula in the SQL oracle)
        eid = df["event_id"].to_numpy(np.int64)
        ts = (pd.Timestamp("1995-01-01").value // 1000
              + (eid * 104729 % 2500) * 86_400_000_000)
        out_key = np.full(len(df), -1, dtype=np.int64)
        for uid, idxs in df.groupby("user_id").indices.items():
            ent = pu.get(int(uid))
            if ent is None:
                continue
            dates, keys = ent
            pos = np.searchsorted(dates, ts[idxs], side="right") - 1
            ok = pos >= 0
            out_key[idxs[ok]] = keys[pos[ok]]
        res = pd.DataFrame({"event_id": df["event_id"], "user_id": df["user_id"],
                            "o_orderkey": out_key})
        return res[res["o_orderkey"] >= 0]

    out = events.map_batches(resolve, batch_format="pyarrow", batch_size=65536).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out


Q_ASOF_JOIN_SQL = """
WITH e AS (
  SELECT event_id, user_id,
         TIMESTAMP '1995-01-01' + INTERVAL (CAST(event_id * 104729 % 2500 AS INTEGER)) DAY AS asof_ts
  FROM events)
SELECT e.event_id, e.user_id, o.o_orderkey
FROM e
JOIN orders o
  ON o.o_custkey = e.user_id
 AND o.o_orderdate <= e.asof_ts
QUALIFY ROW_NUMBER() OVER (PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) = 1
"""


def q_anti_join(sf_dir: str) -> pd.DataFrame:
    """Anti join: customers with no order before mid-1995 — a key_join
    anti join against the date-filtered order keys."""
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    cutoff = pa.scalar(pd.Timestamp("1995-06-01"), pa.timestamp("us"))
    keys = orders.map_batches(
        lambda b: b.filter(pc.less(b["o_orderdate"], cutoff)).select(["o_custkey"])
                   .rename_columns(["c_custkey"]),
        batch_format="pyarrow")
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])
    out = key_join(cust, keys, "c_custkey", "anti",
                   table_rows(sf_dir, "orders")).to_pandas()
    if out.empty:
        out = pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"),
                            "c_name": pd.Series([], dtype="object"),
                            "c_acctbal": pd.Series([], dtype="float64")})
    return out.sort_values("c_custkey").reset_index(drop=True)


Q_ANTI_JOIN_SQL = """
SELECT c_custkey, c_name, c_acctbal
FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderdate < TIMESTAMP '1995-06-01')
ORDER BY c_custkey
"""


# ------------------------------------------------- round-2 exact additions

N_VALUE_RANGES = 12


def value_ranges() -> pd.DataFrame:
    """Deterministic overlapping [lo, hi) value ranges (closed-form ints,
    duplicated in SQL) — the small side of the range join."""
    z = np.arange(N_VALUE_RANGES, dtype=np.int64)
    lo = (z * 37 % 400).astype(np.float64)
    return pd.DataFrame({"range_id": z, "lo": lo, "hi": lo + 55.0})


VALUE_RANGES_SQL = f"""
  SELECT z AS range_id,
         CAST((z * 37) %% 400 AS DOUBLE) AS lo,
         CAST((z * 37) %% 400 AS DOUBLE) + 55.0 AS hi
  FROM (SELECT UNNEST(range({N_VALUE_RANGES})) AS z)
""".replace("%%", "%")


def q_range_join(sf_dir: str) -> pd.DataFrame:
    """Range join (an operator Ray Data lacks natively): events joined to
    overlapping value intervals — small side broadcast, containment
    vectorized map-side, per-range partial counts combined in a tiny
    groupby.  The 100-TB shape: the stream never shuffles; only
    pre-aggregated (range_id, n, sum) partial rows do."""
    ranges = value_ranges()
    rref = ray.put(ranges)
    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    def partial(b: pa.Table) -> pd.DataFrame:
        r = ray.get(rref)
        v = np.asarray(b["value"], dtype=np.float64)
        recs = []
        for _, row in r.iterrows():
            hit = (v >= row["lo"]) & (v < row["hi"])
            recs.append((int(row["range_id"]), int(hit.sum()),
                         float(v[hit].sum())))
        part = pd.DataFrame(recs, columns=["range_id", "n_events", "sum_value"])
        return pa.Table.from_pandas(part, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("range_id")
           .aggregate(Sum("n_events", alias_name="n_events"),
                      Sum("sum_value", alias_name="sum_value"))
           .to_pandas())
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = out["sum_value"].round(4)
    return out.sort_values("range_id").reset_index(drop=True)


Q_RANGE_JOIN_SQL = f"""
WITH r AS ({VALUE_RANGES_SQL})
SELECT r.range_id, COUNT(e.event_id) AS n_events,
       ROUND(COALESCE(SUM(e.value), 0), 4) AS sum_value
FROM r LEFT JOIN events e ON e.value >= r.lo AND e.value < r.hi
GROUP BY r.range_id ORDER BY range_id
"""


def q_window_lag(sf_dir: str) -> pd.DataFrame:
    """LAG window: per-user microseconds since the previous event (ordered
    groups — groupby(user).map_groups over ts-sorted rows; INTEGER micro
    deltas, because float-seconds division differs from DuckDB's in the
    last ulp)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def lagged(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"]).reset_index(drop=True)
        delta = g["ts"].diff() // pd.Timedelta(microseconds=1)
        g["gap_us"] = delta.fillna(-1).astype("int64")
        return g[["event_id", "user_id", "gap_us"]]

    out = (ds.groupby("user_id").map_groups(lagged, batch_format="pandas")
           .to_pandas())
    out["user_id"] = out["user_id"].astype("int64")
    return out


Q_WINDOW_LAG_SQL = """
SELECT event_id, user_id,
       COALESCE(epoch_us(ts - LAG(ts) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id)),
                -1) AS gap_us
FROM events
"""


def q_nation_top_customers(sf_dir: str) -> pd.DataFrame:
    """Grouped top-k (window rank): 3 highest-balance customers per nation,
    ties broken by c_custkey.  Per-batch partial top-k (no global sort) →
    tiny driver-side final rank."""
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return (df.sort_values(["c_nationkey", "c_acctbal", "c_custkey"],
                               ascending=[True, False, True])
                .groupby("c_nationkey").head(3))

    cand = cust.map_batches(partial, batch_format="pyarrow", batch_size=65536).to_pandas()
    cand = cand.sort_values(["c_nationkey", "c_acctbal", "c_custkey"],
                            ascending=[True, False, True])
    cand = cand.groupby("c_nationkey").head(3)
    cand["rank"] = cand.groupby("c_nationkey").cumcount() + 1
    out = cand[["c_nationkey", "rank", "c_custkey", "c_name", "c_acctbal"]]
    out = out.reset_index(drop=True)
    out["c_nationkey"] = out["c_nationkey"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    return out


Q_NATION_TOP_CUSTOMERS_SQL = """
SELECT c_nationkey, rank, c_custkey, c_name, c_acctbal FROM (
  SELECT c_nationkey, c_custkey, c_name, c_acctbal,
         ROW_NUMBER() OVER (PARTITION BY c_nationkey
                            ORDER BY c_acctbal DESC, c_custkey) AS rank
  FROM customer)
WHERE rank <= 3
"""


def q_segment_median_price(sf_dir: str) -> pd.DataFrame:
    """Holistic grouped aggregate (exact median — not a sketch): per
    market segment the median order price of its customers' orders.
    groupby(segment).map_groups with np.median == DuckDB median() (both
    average the two middle values)."""
    cust = (read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
            .rename_columns({"c_custkey": "o_custkey"}))
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = key_join(orders, cust, "o_custkey", "inner",
                      table_rows(sf_dir, "customer"))

    def med(g: pd.DataFrame) -> pd.DataFrame:
        # ROUND(4) on both sides: np.median's mean(a,b) and DuckDB's
        # a + (b-a)*0.5 can differ in the last ulp on even-sized groups
        return pd.DataFrame({"c_mktsegment": [g["c_mktsegment"].iloc[0]],
                             "median_price": [round(float(np.median(g["o_totalprice"].to_numpy())), 4)],
                             "n_orders": [np.int64(len(g))]})

    out = (joined.groupby("c_mktsegment").map_groups(med, batch_format="pandas")
           .to_pandas())
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("c_mktsegment").reset_index(drop=True)


Q_SEGMENT_MEDIAN_PRICE_SQL = """
SELECT c_mktsegment, ROUND(median(o_totalprice), 4) AS median_price,
       COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


def q_segment_except(sf_dir: str) -> pd.DataFrame:
    """Set op (EXCEPT): brands carrying a part priced above 995 but NONE
    above 999 — distinct-set difference via one pre-aggregated distinct
    pass per side and a driver-side set difference over the (tiny)
    distinct-brand domain."""
    part = read_table(sf_dir, "part", columns=["p_brand", "p_retailprice"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        lo = df.loc[df["p_retailprice"] > 995.0, "p_brand"].unique()
        hi = df.loc[df["p_retailprice"] > 999.0, "p_brand"].unique()
        return pd.DataFrame({"p_brand": np.concatenate([lo, hi]),
                             "side": ["lo"] * lo.size + ["hi"] * hi.size})

    sides = (part.map_batches(partial, batch_format="pyarrow", batch_size=65536)
             .to_pandas().drop_duplicates())
    lo = set(sides.loc[sides["side"] == "lo", "p_brand"])
    hi = set(sides.loc[sides["side"] == "hi", "p_brand"])
    return pd.DataFrame({"p_brand": sorted(lo - hi)})


Q_SEGMENT_EXCEPT_SQL = """
SELECT p_brand FROM part WHERE p_retailprice > 995
EXCEPT
SELECT p_brand FROM part WHERE p_retailprice > 999
ORDER BY p_brand
"""


def q_nation_segment_rollup(sf_dir: str) -> pd.DataFrame:
    """Two-level grouped aggregate with a HAVING filter: (nation, segment)
    customer counts + balance sums, keeping only groups with ≥ 5 customers
    — partial per-batch combine, one small keyed aggregate."""
    cust = read_table(sf_dir, "customer",
                      columns=["c_nationkey", "c_mktsegment", "c_acctbal"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        part = (df.groupby(["c_nationkey", "c_mktsegment"], sort=False)
                .agg(n_cust=("c_acctbal", "size"), sum_bal=("c_acctbal", "sum"))
                .reset_index())
        return pa.Table.from_pandas(part, preserve_index=False)

    out = (cust.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby(["c_nationkey", "c_mktsegment"])
           .aggregate(Sum("n_cust", alias_name="n_cust"),
                      Sum("sum_bal", alias_name="sum_bal"))
           .to_pandas())
    out = out[out["n_cust"] >= 5]
    out["n_cust"] = out["n_cust"].astype("int64")
    out["c_nationkey"] = out["c_nationkey"].astype("int64")
    out["sum_bal"] = out["sum_bal"].round(4)
    return (out.sort_values(["c_nationkey", "c_mktsegment"])
            .reset_index(drop=True))


Q_NATION_SEGMENT_ROLLUP_SQL = """
SELECT c_nationkey, c_mktsegment, COUNT(*) AS n_cust,
       ROUND(SUM(c_acctbal), 4) AS sum_bal
FROM customer
GROUP BY c_nationkey, c_mktsegment
HAVING COUNT(*) >= 5
ORDER BY c_nationkey, c_mktsegment
"""


def q_event_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Conditional aggregation (pivot shape): per user, counts of each
    event type as columns — partial pivot per batch, Sum-combined."""
    ev = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        # one vectorized pass: indicator columns then a single grouped sum
        # (three per-group Python lambdas were the hot-path alternative)
        df["n_click"] = (df["event_type"] == "click").astype("int64")
        df["n_view"] = (df["event_type"] == "view").astype("int64")
        df["n_other"] = 1 - df["n_click"] - df["n_view"]
        part = (df.groupby("user_id", sort=False)[["n_click", "n_view", "n_other"]]
                .sum().reset_index())
        return pa.Table.from_pandas(part, preserve_index=False)

    out = (ev.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("user_id")
           .aggregate(Sum("n_click", alias_name="n_click"),
                      Sum("n_view", alias_name="n_view"),
                      Sum("n_other", alias_name="n_other"))
           .to_pandas())
    for c in ("user_id", "n_click", "n_view", "n_other"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


Q_EVENT_TYPE_PIVOT_SQL = """
SELECT user_id,
       COUNT(*) FILTER (event_type = 'click') AS n_click,
       COUNT(*) FILTER (event_type = 'view') AS n_view,
       COUNT(*) FILTER (event_type NOT IN ('click', 'view')) AS n_other
FROM events GROUP BY user_id ORDER BY user_id
"""


# ---------------------------------------- round-2 close: join lowerings +
# histogram-exact percentiles

def q_left_outer_join(sf_dir: str) -> pd.DataFrame:
    """Customers LEFT OUTER JOIN their order aggregate (key_join, sized by
    the orders rows that bound the aggregate), null-filled side resolved
    map-side after the join.  Pre-aggregating orders BEFORE the join keeps
    the joined payload one row per customer, not one per order."""
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    per_cust = (orders.groupby("o_custkey")
                .aggregate(Count(alias_name="n_orders"),
                           Sum("o_totalprice", alias_name="sum_price"))
                .map_batches(lambda b: b.rename_columns(
                    ["c_custkey", "n_orders", "sum_price"]),
                    batch_format="pyarrow"))
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = key_join(cust, per_cust, "c_custkey", "left_outer",
                      table_rows(sf_dir, "orders"))

    def finish(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return pd.DataFrame({
            "c_custkey": df["c_custkey"],
            "c_mktsegment": df["c_mktsegment"],
            "n_orders": df["n_orders"].fillna(0).astype("int64"),
            # floor(x*100+0.5)/100 == DuckDB's half-AWAY ROUND for
            # positives (np.round is half-even; see q3_shipping)
            "sum_price": np.floor(df["sum_price"].fillna(0.0).to_numpy(np.float64)
                                  * 100.0 + 0.5) / 100.0,
        })

    out = joined.map_batches(finish, batch_format="pyarrow").to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


Q_LEFT_OUTER_JOIN_SQL = """
SELECT c.c_custkey, c.c_mktsegment,
       COALESCE(o.n_orders, 0) AS n_orders,
       floor(COALESCE(o.sum_price, 0) * 100.0 + 0.5) / 100.0 AS sum_price
FROM customer c
LEFT JOIN (SELECT o_custkey, COUNT(*) AS n_orders, SUM(o_totalprice) AS sum_price
           FROM orders GROUP BY o_custkey) o
  ON c.c_custkey = o.o_custkey
ORDER BY c_custkey
"""


PCT_QS = ((1, 2), (9, 10), (99, 100))  # 0.5 / 0.9 / 0.99 as exact rationals


def q_exact_percentiles(sf_dir: str) -> pd.DataFrame:
    """EXACT corpus percentiles of a bounded-int statistic (per-doc token
    count) via value-histogram partials: each batch emits one bincount row,
    the tiny histograms sum driver-side, and the percentile is read off
    the cumulative counts.  Two passes of nothing — one streaming pass,
    O(value domain) driver state, no sort, no shuffle of row data; the
    standard way to get EXACT (not t-digest approximate) quantiles of a
    bounded statistic at 100 TB.

    Selection rule matches DuckDB quantile_disc: 1-based sorted index
    ceil(q*n), computed in integer arithmetic."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def hist(b: pa.Table) -> pa.Table:
        nt = tokenize(b["text"].to_pandas()).str.len().to_numpy(np.int64)
        h = np.bincount(nt, minlength=1)
        return pa.table({"h": pa.array([h.tolist()],
                                       pa.list_(pa.int64()))})

    parts = ds.map_batches(hist, batch_format="pyarrow", batch_size=8192).to_pandas()
    width = max(len(h) for h in parts["h"])
    total = np.zeros(width, dtype=np.int64)
    for h in parts["h"]:
        total[: len(h)] += np.asarray(h, dtype=np.int64)
    n = int(total.sum())
    cum = np.cumsum(total)
    rows = []
    for num, den in PCT_QS:
        idx = -((-num * n) // den)  # ceil(q*n), integer-exact
        v = int(np.searchsorted(cum, idx, side="left"))
        rows.append({"q": num / den, "n_tokens": v})
    return pd.DataFrame(rows)


Q_EXACT_PERCENTILES_SQL = r"""
WITH t AS (
  SELECT len(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS nt
  FROM documents
), agg AS (
  SELECT CAST(quantile_disc(nt, 0.5) AS BIGINT) AS p50,
         CAST(quantile_disc(nt, 0.9) AS BIGINT) AS p90,
         CAST(quantile_disc(nt, 0.99) AS BIGINT) AS p99
  FROM t
)
SELECT CAST(0.5 AS DOUBLE) AS q, p50 AS n_tokens FROM agg
UNION ALL SELECT CAST(0.9 AS DOUBLE), p90 FROM agg
UNION ALL SELECT CAST(0.99 AS DOUBLE), p99 FROM agg
ORDER BY q
"""


# ---------------------------------------------------- sliding-window max

MOVWIN = 4  # current row + 3 preceding


def _movmax(v: np.ndarray) -> np.ndarray:
    """Sliding max with a {MOVWIN}-row frame: maximum.accumulate covers the
    partial head frames, one sliding_window_view max the rest (shared by
    q_window_moving_max and its parity test)."""
    out = np.empty_like(v)
    head = min(MOVWIN - 1, v.size)
    out[:head] = np.maximum.accumulate(v[:head])
    if v.size >= MOVWIN:
        win = np.lib.stride_tricks.sliding_window_view(v, MOVWIN)
        out[MOVWIN - 1:] = win.max(axis=1)
    return out


def q_window_moving_max(sf_dir: str) -> pd.DataFrame:
    """Bounded window frame (ROWS BETWEEN {MOVWIN-1} PRECEDING AND CURRENT
    ROW): per-user sliding maximum over the time-ordered event stream —
    the frame-window complement of the UNBOUNDED running totals, and the
    kernel shape of every streaming sliding-window aggregate.  MAX is
    order-independent over doubles, so the gate is value-exact with no
    rounding discipline.

    Vectorized: per ordered group, np.maximum.accumulate covers the first
    {MOVWIN-1} partial frames and one sliding_window_view max the rest —
    no per-row Python."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def movmax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"]).reset_index(drop=True)
        out = _movmax(g["value"].to_numpy(np.float64))
        return pd.DataFrame({"event_id": g["event_id"],
                             "user_id": g["user_id"],
                             "mov_max": out})

    out = (ds.groupby("user_id").map_groups(movmax, batch_format="pandas")
           .to_pandas())
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


Q_WINDOW_MOVING_MAX_SQL = f"""
SELECT event_id, user_id,
       MAX(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN {MOVWIN - 1} PRECEDING AND CURRENT ROW)
           AS mov_max
FROM events ORDER BY event_id
"""


# --------------------------------------------------- TPC-H Q3 (3-way join)

Q3_DATE = pd.Timestamp("1998-06-01")
Q3_SEGMENT = "BUILDING"
Q3_TOPK = 10


def _q3_revenue(sf_dir: str) -> rd.Dataset:
    """Q3 leg 1: lineitem reduced to one (orderkey, revenue) row
    per order (date filter pushed per batch, pre-aggregated shuffle)."""
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice", "l_discount",
                             "l_shipdate"])
    ship_cut = pa.scalar(Q3_DATE, pa.timestamp("us"))

    def li_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["l_shipdate"], ship_cut))
        df = b.to_pandas()
        df["revenue"] = df["l_extendedprice"] * (1.0 - df["l_discount"])
        g = df.groupby("l_orderkey", sort=False)["revenue"].sum().reset_index()
        return pa.table({"o_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
                         "revenue": pa.array(g["revenue"].to_numpy(np.float64))})

    return (li.map_batches(li_partial, batch_format="pyarrow", batch_size=65536)
            .groupby("o_orderkey").aggregate(Sum("revenue", alias_name="revenue")))


def _q3_topk(joined: rd.Dataset) -> pd.DataFrame:
    """Q3 final: 2dp revenue rounding (the q1_pricing float
    discipline) + per-batch partial top-k merged on the driver."""
    def topk(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        df["revenue"] = np.floor(df["revenue"].to_numpy(np.float64)
                                 * 100.0 + 0.5) / 100.0
        df = df.sort_values(["revenue", "o_orderdate", "o_orderkey"],
                            ascending=[False, True, True])
        return df.head(Q3_TOPK)[["o_orderkey", "revenue", "o_orderdate",
                                 "o_orderpriority"]]

    parts = joined.map_batches(topk, batch_format="pyarrow").to_pandas()
    out = (parts.sort_values(["revenue", "o_orderdate", "o_orderkey"],
                             ascending=[False, True, True]).head(Q3_TOPK))
    return out.reset_index(drop=True)


def q3_shipping(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shape — the 3-way star join (customer ⋈ orders ⋈ lineitem)
    with filter pushdown on every leg and pre-aggregation BEFORE the join:

    - lineitem is reduced to one (orderkey, revenue) row per order by a
      per-batch partial + groupby-Sum FIRST, so the join ships order-count
      rows, never line items;
    - the customer leg is a key_join semi join (segment-filtered keys),
      and revenue ⋈ orders a key_join inner join;
    - the final top-{Q3_TOPK} is a per-batch partial top-k merged on the
      driver (O(batches × k), no global sort).

    Revenue rounds to 2dp on BOTH sides before ordering, the repo's float
    discipline (q1_pricing)."""
    rev = _q3_revenue(sf_dir)

    # customer leg: segment-filtered keys, semi-joined to date-filtered orders
    ckeys = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], Q3_SEGMENT))
                   .select(["c_custkey"]).rename_columns(["o_custkey"]),
        batch_format="pyarrow")
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate",
                                 "o_orderpriority"])
    date_cut = pa.scalar(Q3_DATE, pa.timestamp("us"))
    o = key_join(orders.map_batches(
        lambda b: b.filter(pc.less(b["o_orderdate"], date_cut)), batch_format="pyarrow"),
        ckeys, "o_custkey", "semi", table_rows(sf_dir, "customer"))
    joined = key_join(rev, o, "o_orderkey", "inner", table_rows(sf_dir, "orders"))
    return _q3_topk(joined)


Q3_SHIPPING_SQL = f"""
SELECT o_orderkey,
       floor(SUM(l_extendedprice * (1.0 - l_discount)) * 100.0 + 0.5) / 100.0 AS revenue,
       o_orderdate, o_orderpriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '{Q3_SEGMENT}'
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1998-06-01'
  AND l_shipdate > DATE '1998-06-01'
GROUP BY o_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, o_orderdate, o_orderkey
LIMIT {Q3_TOPK}
"""


# ------------------------------------- TPC-H Q17 (correlated subquery)

Q17_BRAND = "Brand#1"


def q17_small_quantity(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17 shape — the correlated scalar subquery (per-part average
    quantity) lowered to aggregate → join → filter:

    - the brand's part keys semi-join the lineitems (key_join);
    - per-part avg quantity comes from ONE pre-aggregated groupby over the
      brand-filtered lineitems (sum+count partials; quantities are
      integral so the threshold 0.2*(sum/cnt) is the identical double on
      both sides);
    - the final pass joins the same lineitems to the per-part threshold
      (key_join inner) and keeps those below it."""
    pkeys = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"]).map_batches(
        lambda b: b.filter(pc.equal(b["p_brand"], Q17_BRAND))
                   .select(["p_partkey"]).rename_columns(["l_partkey"]),
        batch_format="pyarrow")
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_quantity", "l_extendedprice"])
    n_part = table_rows(sf_dir, "part")
    brand_li = key_join(li, pkeys, "l_partkey", "semi", n_part).materialize()

    def qty_partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.groupby("l_partkey", sort=False).agg(
            sq=("l_quantity", "sum"), n=("l_quantity", "size")).reset_index()

    thr = (brand_li.map_batches(qty_partial, batch_format="pyarrow",
                                batch_size=65536)
           .groupby("l_partkey")
           .aggregate(Sum("sq", alias_name="sq"), Sum("n", alias_name="n"))
           .map_batches(lambda b: pa.table({
               "l_partkey": b["l_partkey"],
               "thr": 0.2 * (np.asarray(b["sq"], np.float64)
                             / np.asarray(b["n"], np.float64))}),
               batch_format="pyarrow"))

    def below(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        keep = (df["l_quantity"].to_numpy(np.float64)
                < df["thr"].to_numpy(np.float64))
        d = df[keep]
        return pd.DataFrame({"s": [d["l_extendedprice"].sum()],
                             "n": [np.int64(len(d))]})

    parts = key_join(brand_li, thr, "l_partkey", "inner", n_part).map_batches(
        below, batch_format="pyarrow", batch_size=65536).to_pandas()
    return pd.DataFrame({
        "avg_yearly": [np.floor(float(parts["s"].sum()) / 7.0 * 100.0 + 0.5)
                       / 100.0],
        "n": [np.int64(parts["n"].sum())]})


Q17_SQL = f"""
SELECT floor(SUM(l_extendedprice) / 7.0 * 100.0 + 0.5) / 100.0 AS avg_yearly,
       CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem l, part p
WHERE p.p_partkey = l.l_partkey AND p.p_brand = '{Q17_BRAND}'
  AND l.l_quantity < (SELECT 0.2 * AVG(l2.l_quantity) FROM lineitem l2
                      WHERE l2.l_partkey = p.p_partkey)
"""


# ------------------------------------------------------- event funnel

FUNNEL_STAGES = ("view", "click", "purchase")
_FUNNEL_SHARDS = 32


def q_event_funnel(sf_dir: str) -> pd.DataFrame:
    """Strict-order event funnel (the product-analytics classic): per
    user, stage 1 = first 'view', stage 2 = first 'click' STRICTLY after
    it, stage 3 = first 'purchase' strictly after that; report how deep
    each user got.  First-occurrence chaining — a click before the first
    view does not count.

    Scale shape: events hash-shard by user (one shuffle of the 3 funnel
    event types only — other types are dropped before the exchange), and
    each shard resolves ALL its users with vectorized pandas min/merge
    chains — one Python call per shard, not per user (millions of users =
    {_FUNNEL_SHARDS} group calls)."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def pick(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["event_type"],
                              value_set=pa.array(list(FUNNEL_STAGES))))
        uid = np.asarray(t["user_id"], dtype=np.int64)
        return t.append_column("shard",
                               pa.array(uid % _FUNNEL_SHARDS, pa.int64()))

    def funnel_shard(g: pd.DataFrame) -> pd.DataFrame:
        t1 = (g[g["event_type"] == "view"].groupby("user_id")["ts"].min()
              .rename("ts1"))
        b = g[g["event_type"] == "click"].merge(t1, on="user_id")
        t2 = (b[b["ts"] > b["ts1"]].groupby("user_id")["ts"].min()
              .rename("ts2"))
        c = g[g["event_type"] == "purchase"].merge(t2, on="user_id")
        t3 = c[c["ts"] > c["ts2"]].groupby("user_id")["ts"].min()
        out = t1.reset_index()
        out["reached"] = (1 + out["user_id"].isin(t2.index).astype(np.int64)
                          + out["user_id"].isin(t3.index).astype(np.int64))
        out["user_id"] = out["user_id"].astype("int64")
        return out[["user_id", "ts1", "reached"]]

    out = (ds.map_batches(pick, batch_format="pyarrow", batch_size=8192)
           .groupby("shard").map_groups(funnel_shard, batch_format="pandas")
           .to_pandas())
    return out.sort_values("user_id").reset_index(drop=True)


Q_EVENT_FUNNEL_SQL = """
WITH t1 AS (
  SELECT user_id, MIN(ts) AS ts1 FROM events
  WHERE event_type = 'view' GROUP BY user_id
), t2 AS (
  SELECT e.user_id, MIN(e.ts) AS ts2
  FROM events e JOIN t1 ON e.user_id = t1.user_id
  WHERE e.event_type = 'click' AND e.ts > t1.ts1 GROUP BY e.user_id
), t3 AS (
  SELECT e.user_id, MIN(e.ts) AS ts3
  FROM events e JOIN t2 ON e.user_id = t2.user_id
  WHERE e.event_type = 'purchase' AND e.ts > t2.ts2 GROUP BY e.user_id
)
SELECT t1.user_id, t1.ts1,
       CAST(1 + CAST(t2.user_id IS NOT NULL AS INT)
              + CAST(t3.user_id IS NOT NULL AS INT) AS BIGINT) AS reached
FROM t1
LEFT JOIN t2 ON t1.user_id = t2.user_id
LEFT JOIN t3 ON t1.user_id = t3.user_id
ORDER BY t1.user_id
"""


# -------------------------------- exact median via histogram quickselect

MEDIAN_BUCKETS = 4096
MEDIAN_PULL_LIMIT = 4096  # candidates pulled for the final exact select


def q_median_select(sf_dir: str) -> pd.DataFrame:
    """EXACT order statistic (the discrete median, quantile_disc 0.5) of
    an UNBOUNDED double column with NO global sort: multi-pass histogram
    quickselect — the continuous-domain generalization of
    q_exact_percentiles' bounded-int bincount trick.

    Each pass streams the column once, bincounting the surviving
    candidates into {MEDIAN_BUCKETS} buckets (per-batch partials,
    O(B × blocks) driver merge — bytes, not rows); the bucket containing
    the k-th value becomes the next candidate set.  Candidates shrink
    ×{MEDIAN_BUCKETS} per pass, so n≤10¹² isolates ≤{MEDIAN_PULL_LIMIT}
    in ≤3 passes; the final exact select pulls only those.  Membership
    is a CONSTRAINT CHAIN of clipped bucket-index equalities — every
    pass partitions the previous bucket's exact population with the
    identical float expression, so boundary ulps can neither drop nor
    double-count a value — and the answer is an ELEMENT of the column,
    so the SQL comparison is hash-exact on the double.  Degenerate tie
    mass (≥{MEDIAN_PULL_LIMIT} copies of one value) stops shrinking and
    is pulled directly — bounded by the duplicate count of a single
    double, the one distribution where selection is trivial anyway."""
    return _quantile_select(sf_dir, 0.5, "median_price")


def q_p99_select(sf_dir: str) -> pd.DataFrame:
    """quantile_disc(0.99) through the same histogram-quickselect
    machinery — the tail-latency-style order statistic; proves the
    constraint-chain select is rank-agnostic, not a median special
    case."""
    return _quantile_select(sf_dir, 0.99, "p99_price")


def quickselect_bidx(v: np.ndarray, lo_: float, hi_: float) -> np.ndarray:
    """The ONE bucket-index float expression every pass shares — chain
    membership and histograms must use this verbatim so boundary ulps
    can neither drop nor double-count a value."""
    return np.clip(((v - lo_) / (hi_ - lo_) * MEDIAN_BUCKETS).astype(np.int64),
                   0, MEDIAN_BUCKETS - 1)


def quickselect_member(v: np.ndarray, chain) -> np.ndarray:
    m = np.ones(v.size, bool)
    for lo_, hi_, t_ in chain:
        m &= quickselect_bidx(v, lo_, hi_) == t_
    return m


def quickselect_rank(k: int, lo: float, hi: float, hist_of, pull_of,
                     pull_limit: int | None = None) -> float:
    """Pure driver algorithm for the k-th (1-indexed) smallest value via
    histogram quickselect.  ``hist_of(chain, lo, hi)`` must return the
    {MEDIAN_BUCKETS}-bucket counts of values passing the chain, bucketed
    by quickselect_bidx over [lo, hi]; ``pull_of(chain)`` must return the
    passing values as an ndarray.  Factored out of the Dataset plumbing
    so adversarial distributions (boundary ties, collapsed ranges,
    denormal spans) are property-testable without Ray."""
    limit = MEDIAN_PULL_LIMIT if pull_limit is None else pull_limit
    chain: list = []   # (lo_i, hi_i, t_i) — frozen float constraints
    below = 0          # values ranked before the current candidate set
    cur_lo, cur_hi = lo, hi
    for _ in range(4):  # 4096⁴ ≈ 2.8e14 > any corpus this engine targets
        if cur_hi <= cur_lo:
            break  # range collapsed to one double — pull directly
        counts = hist_of(list(chain), cur_lo, cur_hi)
        if int(counts.sum()) <= limit:
            break
        cum = np.cumsum(counts)
        t = int(np.searchsorted(cum, k - below))
        below += int(cum[t - 1]) if t else 0
        chain.append((cur_lo, cur_hi, t))
        width = cur_hi - cur_lo
        new_lo = cur_lo + t * width / MEDIAN_BUCKETS
        new_hi = cur_hi if t == MEDIAN_BUCKETS - 1 else             cur_lo + (t + 1) * width / MEDIAN_BUCKETS
        cur_lo, cur_hi = new_lo, new_hi
    cand = pull_of(list(chain))
    return float(np.partition(cand, k - below - 1)[k - below - 1])


def _quantile_select(sf_dir: str, q: float, out_col: str) -> pd.DataFrame:
    import math

    from ray.data.aggregate import Count, Max, Min

    ds = read_table(sf_dir, "lineitem", columns=["l_extendedprice"]).materialize()
    # one aggregate pass for all three scalars (not three full streams)
    agg = ds.aggregate(Count(alias_name="n"),
                       Min("l_extendedprice", alias_name="lo"),
                       Max("l_extendedprice", alias_name="hi"))
    n, lo, hi = int(agg["n"]), float(agg["lo"]), float(agg["hi"])
    # DuckDB quantile_disc rank = ceil(q*n), 1-indexed — verified
    # empirically over 300 random (n, q) pairs (floor(q*(n-1))+1 agrees
    # only at special n: it coincides for q=0.5 at every n and for
    # q=0.99 exactly when 0.99*n is integral, which the sf fixtures
    # happen to satisfy — a rank-off-by-one trap at any other n)
    k = max(1, int(math.ceil(q * n)))

    def hist_of(chain, lo_, hi_):
        def f(b: pa.Table) -> pd.DataFrame:
            v = np.asarray(b["l_extendedprice"])
            vm = v[quickselect_member(v, chain)]
            c = np.bincount(quickselect_bidx(vm, lo_, hi_),
                            minlength=MEDIAN_BUCKETS)
            return pd.DataFrame({"bucket": np.arange(MEDIAN_BUCKETS, dtype=np.int64),
                                 "c": c})
        return (ds.map_batches(f, batch_format="pyarrow", batch_size=65536)
                .to_pandas().groupby("bucket")["c"].sum().to_numpy())

    def pull_of(chain):
        def f(b: pa.Table) -> pd.DataFrame:
            v = np.asarray(b["l_extendedprice"])
            return pd.DataFrame({"l_extendedprice": v[quickselect_member(v, chain)]})
        return (ds.map_batches(f, batch_format="pyarrow", batch_size=65536)
                .to_pandas()["l_extendedprice"].to_numpy())

    v = quickselect_rank(k, lo, hi, hist_of, pull_of)
    return pd.DataFrame({"n": [np.int64(n)], out_col: [v]})


Q_MEDIAN_SELECT_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       quantile_disc(l_extendedprice, 0.5) AS median_price
FROM lineitem
"""


Q_P99_SELECT_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       quantile_disc(l_extendedprice, 0.99) AS p99_price
FROM lineitem
"""


# ------------------------------------------------------------ Pareto skyline

def _skyline_2d(df: pd.DataFrame) -> pd.DataFrame:
    """Exact 2-D skyline (min price, max size) — vectorized sort + cummax.

    A row survives iff its size strictly exceeds every strictly-cheaper
    row's size and equals its own price-group's max (equal-price rows are
    dominated by a larger-size sibling; equal (price, size) rows co-exist,
    neither dominates)."""
    g = (df.groupby("p_retailprice", as_index=False)
         .agg(gmax=("p_size", "max")).sort_values("p_retailprice"))
    run = g["gmax"].cummax()
    prev = run.shift(1, fill_value=np.iinfo(np.int64).min)
    keep_price = g.loc[g["gmax"] > prev]
    m = df.merge(keep_price, on="p_retailprice")
    return m[m["p_size"] == m["gmax"]][df.columns.tolist()]


def q_skyline(sf_dir: str) -> pd.DataFrame:
    """Pareto frontier (skyline) of parts — minimize p_retailprice,
    maximize p_size: parts no other part dominates.  Two-phase: each block
    computes its LOCAL skyline (a superset restriction: global survivors
    survive locally), the union of local skylines (result-sized) gets one
    exact final pass on the driver.  The shape joins the top-k/heavy-hitter
    family of coordinator-free partial reductions: no shuffle, no sort of
    the full table, candidates ∝ skyline size not corpus size.

    Oracle: NOT EXISTS dominance (strict-on-one-axis rule).
    """
    ds = read_table(sf_dir, "part", columns=["p_partkey", "p_retailprice", "p_size"])

    def partial(b: pa.Table) -> pd.DataFrame:
        return _skyline_2d(b.to_pandas())

    cand = ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=65536).to_pandas()
    out = _skyline_2d(cand)
    return (out.sort_values("p_partkey").reset_index(drop=True)
            .astype({"p_size": "int64"}))


Q_SKYLINE_SQL = """
SELECT p_partkey, p_retailprice, CAST(p_size AS BIGINT) AS p_size
FROM part a
WHERE NOT EXISTS (
  SELECT 1 FROM part b
  WHERE b.p_retailprice <= a.p_retailprice AND b.p_size >= a.p_size
    AND (b.p_retailprice < a.p_retailprice OR b.p_size > a.p_size)
)
"""


# ------------------------------------------- interval union (gaps & islands)

def q_interval_union(sf_dir: str) -> pd.DataFrame:
    """Per-user interval-coverage rollup (gaps-and-islands): each event
    opens the interval [ts, ts + dur) with a deterministic integer
    duration; output is the user's island count and the exact UNION length
    in microseconds — the coverage/utilization aggregate (machine uptime,
    ad exposure, sensor dwell).

    Vectorized per ordered group: sort by (start, end), running max of
    ends, new island where start exceeds the previous running max, one
    groupby per island.  All arithmetic is int64 microseconds — exact and
    order-free once the (start, end) sort fixes the scan order.
    """
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def union_len(g: pd.DataFrame) -> pd.DataFrame:
        s = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        dur = (g["event_id"].to_numpy(np.int64) % 3600 + 60) * 1_000_000
        e = s + dur
        order = np.lexsort((e, s))
        s, e = s[order], e[order]
        run = np.maximum.accumulate(e)
        new_isl = np.ones(len(s), bool)
        if len(s) > 1:
            new_isl[1:] = s[1:] > run[:-1]
        iid = np.cumsum(new_isl) - 1
        starts = s[new_isl]
        ends = np.maximum.reduceat(e, np.flatnonzero(new_isl))
        return pd.DataFrame({
            "user_id": [np.int64(g["user_id"].iloc[0])],
            "n_islands": [np.int64(iid[-1] + 1 if len(s) else 0)],
            "union_us": [np.int64((ends - starts).sum())],
        })

    out = (ds.groupby("user_id").map_groups(union_len, batch_format="pandas")
           .to_pandas())
    return out.sort_values("user_id").reset_index(drop=True).astype(
        {"user_id": "int64", "n_islands": "int64", "union_us": "int64"})


Q_INTERVAL_UNION_SQL = """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s,
         epoch_us(ts) + (event_id % 3600 + 60) * 1000000 AS e
  FROM events
), w AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pmax
  FROM iv
), isl AS (
  SELECT user_id, s, e,
         SUM(CASE WHEN pmax IS NULL OR s > pmax THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s, e
                 ROWS UNBOUNDED PRECEDING) AS iid
  FROM w
), g AS (
  SELECT user_id, iid, MIN(s) AS s0, MAX(e) AS e1
  FROM isl GROUP BY user_id, iid
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(SUM(e1 - s0) AS BIGINT) AS union_us
FROM g GROUP BY user_id
"""


# ------------------------------------------------------ grouping-sets rollup

def q_rollup_sets(sf_dir: str) -> pd.DataFrame:
    """Multi-level rollup — (returnflag, linestatus), (returnflag), grand
    total — computed in ONE exchange: every batch emits partials for all
    three grouping sets (rolled-up keys filled with '*', levels tagged
    with the SQL GROUPING bitmask), then a single groupby-Sum.  At 100 TB
    this shares one shuffle across the whole rollup lattice instead of one
    all-to-all per level.
    """
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity"])

    def partials(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        # scale each row to integer centi-units BEFORE any summation so
        # every aggregate in the lattice is an order-free int64 sum
        df["cq"] = np.round(df["l_quantity"].to_numpy(np.float64) * 100).astype(np.int64)
        lvl0 = (df.groupby(["l_returnflag", "l_linestatus"], as_index=False)
                .agg(sum_cq=("cq", "sum"), n=("cq", "size")))
        lvl0["lvl"] = 0
        lvl1 = (df.groupby(["l_returnflag"], as_index=False)
                .agg(sum_cq=("cq", "sum"), n=("cq", "size")))
        lvl1["l_linestatus"] = "*"; lvl1["lvl"] = 1
        lvl3 = pd.DataFrame({"l_returnflag": ["*"], "l_linestatus": ["*"],
                             "sum_cq": [df["cq"].sum()], "n": [len(df)],
                             "lvl": [3]})
        out = pd.concat([lvl0, lvl1, lvl3], ignore_index=True)
        return out[["lvl", "l_returnflag", "l_linestatus", "sum_cq", "n"]]

    agg = (ds.map_batches(partials, batch_format="pyarrow", batch_size=65536)
           .groupby(["lvl", "l_returnflag", "l_linestatus"])
           .aggregate(Sum("sum_cq", alias_name="sum_cq"),
                      Sum("n", alias_name="n_rows"))
           .to_pandas())
    agg["sum_qty"] = agg["sum_cq"].astype(np.float64) / 100.0
    out = agg[["lvl", "l_returnflag", "l_linestatus", "sum_qty", "n_rows"]]
    return (out.sort_values(["lvl", "l_returnflag", "l_linestatus"])
            .reset_index(drop=True).astype({"lvl": "int64", "n_rows": "int64"}))


Q_ROLLUP_SETS_SQL = """
SELECT CAST(GROUPING(l_returnflag, l_linestatus) AS BIGINT) AS lvl,
       COALESCE(l_returnflag, '*') AS l_returnflag,
       COALESCE(l_linestatus, '*') AS l_linestatus,
       CAST(CAST(SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
            AS DOUBLE) / 100.0 AS sum_qty,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM lineitem
GROUP BY GROUPING SETS ((l_returnflag, l_linestatus), (l_returnflag), ())
"""


# ---------------------------------------------------- SCD2 interval build

def q_scd2_intervals(sf_dir: str) -> pd.DataFrame:
    """Slowly-changing-dimension (type 2) interval build over the event
    stream: per user, each event_type change opens a validity interval
    [valid_from, valid_to) closed by the next change (open intervals get
    valid_to = -1) — the lakehouse history-table materialization.

    Per ordered group, fully vectorized: lexsort by (ts, event_id),
    change-point mask vs the previous row, valid_to = next change's ts via
    a shifted take.  Microsecond int64 timestamps end to end.
    """
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def intervals(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["event_id"].to_numpy(np.int64),
                            g["ts"].to_numpy("datetime64[us]").astype(np.int64)))
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)[order]
        et = g["event_type"].to_numpy(dtype=object)[order]
        change = np.ones(len(ts), bool)
        if len(ts) > 1:
            change[1:] = et[1:] != et[:-1]
        starts = np.flatnonzero(change)
        v_from = ts[starts]
        v_to = np.concatenate([ts[starts[1:]], [np.int64(-1)]])
        return pd.DataFrame({
            "user_id": np.full(len(starts), np.int64(g["user_id"].iloc[0])),
            "event_type": et[starts],
            "valid_from": v_from, "valid_to": v_to})

    out = (ds.groupby("user_id").map_groups(intervals, batch_format="pandas")
           .to_pandas())
    return (out.sort_values(["user_id", "valid_from"]).reset_index(drop=True)
            .astype({"user_id": "int64", "valid_from": "int64",
                     "valid_to": "int64"}))


Q_SCD2_INTERVALS_SQL = """
WITH o AS (
  SELECT user_id, event_type, epoch_us(ts) AS ts,
         LAG(event_type) OVER w AS prev_type,
         ROW_NUMBER() OVER w AS rn
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), c AS (
  SELECT user_id, event_type, ts, rn
  FROM o WHERE prev_type IS NULL OR event_type <> prev_type
)
SELECT user_id, event_type, ts AS valid_from,
       COALESCE(LEAD(ts) OVER (PARTITION BY user_id ORDER BY rn), -1) AS valid_to
FROM c
"""


# ----------------------------------------------- median absolute deviation

def q_mad_select(sf_dir: str) -> pd.DataFrame:
    """Median absolute deviation — the robust dispersion statistic — as
    TWO chained histogram quickselects over an unbounded double column:
    pass set 1 isolates the exact median m, pass set 2 runs the identical
    machinery over the derived column |x − m| (computed per batch, never
    materialized).  Each pass streams once with O(buckets) driver bytes;
    |x − m| is one IEEE subtraction both sides, so the result is an
    element-exact double."""
    import math

    from ray.data.aggregate import Count, Max, Min

    ds = read_table(sf_dir, "lineitem", columns=["l_extendedprice"]).materialize()
    agg = ds.aggregate(Count(alias_name="n"),
                       Min("l_extendedprice", alias_name="lo"),
                       Max("l_extendedprice", alias_name="hi"))
    n, lo, hi = int(agg["n"]), float(agg["lo"]), float(agg["hi"])
    k = max(1, int(math.ceil(0.5 * n)))

    def make_ops(transform):
        def hist_of(chain, lo_, hi_):
            def f(b: pa.Table) -> pd.DataFrame:
                v = transform(np.asarray(b["l_extendedprice"]))
                vm = v[quickselect_member(v, chain)]
                c = np.bincount(quickselect_bidx(vm, lo_, hi_),
                                minlength=MEDIAN_BUCKETS)
                return pd.DataFrame({"bucket": np.arange(MEDIAN_BUCKETS,
                                                         dtype=np.int64),
                                     "c": c})
            return (ds.map_batches(f, batch_format="pyarrow", batch_size=65536)
                    .to_pandas().groupby("bucket")["c"].sum().to_numpy())

        def pull_of(chain):
            def f(b: pa.Table) -> pd.DataFrame:
                v = transform(np.asarray(b["l_extendedprice"]))
                return pd.DataFrame({"v": v[quickselect_member(v, chain)]})
            return (ds.map_batches(f, batch_format="pyarrow", batch_size=65536)
                    .to_pandas()["v"].to_numpy())
        return hist_of, pull_of

    h1, p1 = make_ops(lambda v: v)
    med = quickselect_rank(k, lo, hi, h1, p1)
    dev_hi = max(hi - med, med - lo)
    h2, p2 = make_ops(lambda v: np.abs(v - med))
    mad = quickselect_rank(k, 0.0, dev_hi, h2, p2)
    return pd.DataFrame({"n": [np.int64(n)], "median_price": [med],
                         "mad_price": [mad]})


Q_MAD_SELECT_SQL = """
WITH m AS (
  SELECT quantile_disc(l_extendedprice, 0.5) AS v,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM lineitem
)
SELECT m.n AS n, m.v AS median_price,
       quantile_disc(abs(l_extendedprice - m.v), 0.5) AS mad_price
FROM lineitem, m GROUP BY m.n, m.v
"""


# -------------------------------------------- running distinct / type sets

def q_running_distinct(sf_dir: str) -> pd.DataFrame:
    """Per-event running COUNT(DISTINCT event_type) for its user — the
    engagement-breadth window (how many distinct behaviours so far).
    Vectorized per ordered group: first-occurrence mask + cumsum; the
    oracle sums first-occurrence flags in the same (ts, event_id) order."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"]).reset_index(drop=True)
        first = ~g["event_type"].duplicated()
        return pd.DataFrame({
            "event_id": g["event_id"].astype(np.int64),
            "user_id": g["user_id"].astype(np.int64),
            "n_types_seen": first.cumsum().astype(np.int64)})

    out = (ds.groupby("user_id").map_groups(running, batch_format="pandas")
           .to_pandas())
    return (out.sort_values("event_id").reset_index(drop=True)
            .astype({"event_id": "int64", "user_id": "int64",
                     "n_types_seen": "int64"}))


Q_RUNNING_DISTINCT_SQL = """
WITH f AS (
  SELECT event_id, user_id, ts,
         CASE WHEN ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                      ORDER BY ts, event_id) = 1
              THEN 1 ELSE 0 END AS first_seen
  FROM events
)
SELECT event_id, user_id,
       CAST(SUM(first_seen) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS UNBOUNDED PRECEDING) AS BIGINT)
       AS n_types_seen
FROM f
"""


def q_user_type_sets(sf_dir: str) -> pd.DataFrame:
    """Per-user behaviour-set fingerprint: the sorted distinct event-type
    list joined with ',' — the set-valued aggregate (cohort signatures).
    Sorted-distinct-join is deterministic on both sides, so the string
    compares hash-exact."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def sets(g: pd.DataFrame) -> pd.DataFrame:
        types = sorted(set(g["event_type"]))
        return pd.DataFrame({"user_id": [np.int64(g["user_id"].iloc[0])],
                             "type_set": [",".join(types)],
                             "n_types": [np.int64(len(types))]})

    out = (ds.groupby("user_id").map_groups(sets, batch_format="pandas")
           .to_pandas())
    return (out.sort_values("user_id").reset_index(drop=True)
            .astype({"user_id": "int64", "n_types": "int64"}))


Q_USER_TYPE_SETS_SQL = """
SELECT user_id,
       string_agg(DISTINCT event_type, ',' ORDER BY event_type) AS type_set,
       CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_types
FROM events GROUP BY user_id
"""


# ----------------------- exact distributed NTILE (rank classes, no sort)

NTILE_K = 7


def q_ntile_slice(sf_dir: str) -> pd.DataFrame:
    """Exact global NTILE({NTILE_K}) over (cents, event_id) order WITHOUT
    a global sort (the ArcGIS Slice / quantile-reclass shape, and the
    general 'assign every row its global rank class' primitive): per-class
    count, sum, min and max of the quantized value.

    Engine shape, three streaming passes and NO all-to-all:
    1. value histogram — per-batch bincount partials over cents, summed
       driver-side (distinct-value-sized, bounded by the value domain);
    2. prefix sums locate each class boundary's VALUE; only rows AT a
       boundary value (≤ K−1 values) need id-order tie-breaks, so only
       those ids ship to the driver (boundary-tie-sized);
    3. classify pass — searchsorted against the K−1 (value, id) cut pairs,
       per-class aggregate partials.
    NTILE semantics: the first N % K classes get ⌈N/K⌉ rows."""
    from .sources import read_table as _rt

    ds = _rt(sf_dir, "events", columns=["event_id", "value"])

    def cents_of(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        eid = np.asarray(b["event_id"], dtype=np.int64)
        cents = np.floor(b["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        return eid, cents

    # pass 1: exact histogram of cents (domain-bounded)
    def hist_partial(b: pa.Table) -> pa.Table:
        _, cents = cents_of(b)
        vals, cnt = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(vals), "n": pa.array(cnt.astype(np.int64))})

    hp = (ds.map_batches(hist_partial, batch_format="pyarrow",
                         batch_size=65536).to_pandas()
          .groupby("v", as_index=False)["n"].sum().sort_values("v"))
    vals = hp["v"].to_numpy(np.int64)
    cnts = hp["n"].to_numpy(np.int64)
    cum = np.concatenate(([0], np.cumsum(cnts)))   # cnt_less per value
    N = int(cum[-1])
    if N < NTILE_K:
        raise ValueError(f"NTILE({NTILE_K}) needs at least {NTILE_K} rows, "
                         f"got {N}")
    base, extra = divmod(N, NTILE_K)
    # boundary ranks: first `extra` classes hold base+1 rows
    bounds = np.cumsum([base + (1 if t < extra else 0)
                        for t in range(NTILE_K - 1)]).astype(np.int64)
    # each boundary rank falls inside some value's tie run
    bv_idx = np.searchsorted(cum, bounds, side="right") - 1
    bound_vals = vals[bv_idx]
    split_within = bounds - cum[bv_idx]     # ids going LEFT of the cut

    # pass 2: collect ids at boundary values only (≤ K−1 tie runs)
    bset = np.unique(bound_vals)

    def boundary_ids(b: pa.Table) -> pa.Table:
        eid, cents = cents_of(b)
        m = np.isin(cents, bset)
        return pa.table({"v": pa.array(cents[m]), "event_id": pa.array(eid[m])})

    bi = (ds.map_batches(boundary_ids, batch_format="pyarrow",
                         batch_size=65536).to_pandas())
    cut_id = np.empty(NTILE_K - 1, np.int64)
    for t in range(NTILE_K - 1):
        ids = np.sort(bi[bi["v"] == bound_vals[t]]["event_id"]
                      .to_numpy(np.int64))
        k = int(split_within[t])
        # cut pair: rows with (v, id) < (bound_vals[t], cut_id[t]) go left
        cut_id[t] = ids[k] if k < ids.size else np.iinfo(np.int64).max
    cuts_v, cuts_i = bound_vals, cut_id

    # pass 3: classify + per-class aggregate partials
    def classify(b: pa.Table) -> pd.DataFrame:
        eid, cents = cents_of(b)
        cls = np.searchsorted(cuts_v, cents, side="left")
        at = cents[:, None] == cuts_v[None, :]
        if at.any():
            # at a boundary value the id decides the side
            ge = at & (eid[:, None] >= cuts_i[None, :])
            cls = (cls + ge.sum(axis=1)).astype(np.int64)
        mn = np.full(NTILE_K, np.iinfo(np.int64).max)
        mx = np.full(NTILE_K, np.iinfo(np.int64).min)
        np.minimum.at(mn, cls, cents)
        np.maximum.at(mx, cls, cents)
        return pd.DataFrame({
            "tile_no": np.arange(NTILE_K, dtype=np.int64),
            "n": np.bincount(cls, minlength=NTILE_K).astype(np.int64),
            "sum_cents": np.bincount(cls, weights=cents,
                                     minlength=NTILE_K).astype(np.int64),
            "min_cents": mn, "max_cents": mx})

    p = (ds.map_batches(classify, batch_format="pyarrow", batch_size=65536)
         .to_pandas())
    g = p.groupby("tile_no")
    out = pd.DataFrame({
        "tile_no": np.arange(1, NTILE_K + 1, dtype=np.int64),
        "n": g["n"].sum().to_numpy(np.int64),
        "sum_cents": g["sum_cents"].sum().to_numpy(np.int64),
        "min_cents": g["min_cents"].min().to_numpy(np.int64),
        "max_cents": g["max_cents"].max().to_numpy(np.int64)})
    return out.reset_index(drop=True)


Q_NTILE_SLICE_SQL = f"""
WITH v AS (
  SELECT event_id,
         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS cents,
         NTILE({NTILE_K}) OVER (ORDER BY floor(value * 100.0 + 0.5),
                                event_id) AS tile_no
  FROM events
)
SELECT CAST(tile_no AS BIGINT) AS tile_no,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(cents) AS BIGINT) AS sum_cents,
       CAST(MIN(cents) AS BIGINT) AS min_cents,
       CAST(MAX(cents) AS BIGINT) AS max_cents
FROM v GROUP BY tile_no ORDER BY tile_no
"""


# -------------------- group-wise OLS via mergeable sufficient statistics

def q_group_regression(sf_dir: str) -> pd.DataFrame:
    """Distributed per-group linear regression (price-vs-quantity OLS per
    (returnflag, linestatus)) expressed as its MERGEABLE sufficient
    statistics — n, Σx, Σy, Σxy, Σx² in exact integers (x = quantity,
    y = price cents) — the 'model fit as associative aggregate' shape:
    slope/intercept are pure driver-side formulas over one tiny row per
    group, so a 100 TB fit is a single streaming pass + an O(groups)
    exchange, and the statistics from two partitions merge by addition."""
    from ray.data.aggregate import Sum

    from .sources import read_table as _rt

    ds = _rt(sf_dir, "lineitem",
             columns=["l_returnflag", "l_linestatus",
                      "l_quantity", "l_extendedprice"])

    def partial(b: pa.Table) -> pd.DataFrame:
        x = np.floor(b["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        y = np.floor(b["l_extendedprice"].to_numpy() * 100.0
                     + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "l_returnflag": b["l_returnflag"].to_numpy(zero_copy_only=False),
            "l_linestatus": b["l_linestatus"].to_numpy(zero_copy_only=False),
            "n": np.ones(x.size, np.int64), "sum_x": x, "sum_y": y,
            "sum_xy": x * y, "sum_x2": x * x})
        return df.groupby(["l_returnflag", "l_linestatus"],
                          as_index=False).sum()

    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_x", alias_name="sum_x"),
                      Sum("sum_y", alias_name="sum_y"),
                      Sum("sum_xy", alias_name="sum_xy"),
                      Sum("sum_x2", alias_name="sum_x2"))
           .to_pandas())
    out = out.astype({c: "int64" for c in ["n", "sum_x", "sum_y",
                                           "sum_xy", "sum_x2"]})
    return (out.sort_values(["l_returnflag", "l_linestatus"])
            .reset_index(drop=True))


def ols_from_moments(row) -> tuple[float, float]:
    """slope, intercept from the sufficient statistics (driver formula)."""
    n, sx, sy = float(row["n"]), float(row["sum_x"]), float(row["sum_y"])
    sxy, sx2 = float(row["sum_xy"]), float(row["sum_x2"])
    slope = (n * sxy - sx * sy) / (n * sx2 - sx * sx)
    return slope, (sy - slope * sx) / n


Q_GROUP_REGRESSION_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_x,
       CAST(SUM(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS sum_y,
       CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)
              * CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS sum_xy,
       CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)
              * CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_x2
FROM lineitem
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# -------------------- incremental view maintenance (merge old + delta)

IVM_SPLIT = "2024-01-16"   # checkpoint boundary: days < split are "old"


def q_incremental_daily(sf_dir: str) -> pd.DataFrame:
    """Incremental materialized-view maintenance (the lakehouse delta
    shape): the daily (event_type, day) aggregate is produced by MERGING
    a checkpointed aggregate of the old days (written to parquet, read
    back — yesterday's view state) with a freshly aggregated delta of the
    new days — and must equal the one-shot aggregate over everything,
    which is exactly what the shared-form oracle checks.  Values are
    integer cents so partial merges are order-free.

    Scale shape: the delta pass filters at the read, the old state is
    view-sized (groups, not events), and the merge is one group-keyed
    exchange of view-sized rows."""
    import os
    import shutil
    import tempfile

    from ray.data.aggregate import Sum as ASum

    from .sources import read_table as _rt

    split_us = int(pd.Timestamp(IVM_SPLIT).value // 1000)

    def agg(ds, old_side: bool):
        def partial(b: pa.Table) -> pd.DataFrame:
            us = b["ts"].cast(pa.int64()).to_numpy()
            keep = us < split_us if old_side else us >= split_us
            us = us[keep]
            cents = np.floor(b["value"].to_numpy()[keep] * 100.0
                             + 0.5).astype(np.int64)
            day = us // 86_400_000_000
            df = pd.DataFrame({
                "event_type": b["event_type"].to_numpy(
                    zero_copy_only=False)[keep],
                "day_no": day, "n": np.ones(us.size, np.int64),
                "sum_cents": cents})
            g = df.groupby(["event_type", "day_no"], as_index=False).sum()
            return pa.Table.from_pandas(g, preserve_index=False)

        return (ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536)
                .groupby(["event_type", "day_no"])
                .aggregate(ASum("n", alias_name="n"),
                           ASum("sum_cents", alias_name="sum_cents")))

    ds = _rt(sf_dir, "events", columns=["ts", "event_type", "value"])
    old_dir = tempfile.mkdtemp(prefix="rfr_ivm_")
    try:
        # checkpoint: the OLD view state materializes to parquet (hive
        # layout per event_type, the resumable-sink discipline) …
        agg(ds, old_side=True).write_parquet(old_dir,
                                             partition_cols=["event_type"])
        # hive read-back puts the partition column last — align schemas
        cols = ["event_type", "day_no", "n", "sum_cents"]
        import glob as _glob
        have_old = bool(_glob.glob(os.path.join(old_dir, "**", "*.parquet"),
                                   recursive=True))
        delta = agg(ds, old_side=False).select_columns(cols)
        if have_old:
            old = (rd.read_parquet(old_dir).select_columns(cols)
                   .map_batches(lambda t: t.cast(pa.schema(
                       [("event_type", pa.string()), ("day_no", pa.int64()),
                        ("n", pa.int64()), ("sum_cents", pa.int64())])),
                       batch_format="pyarrow"))
            delta = old.union(delta)
        # a corpus wholly after the checkpoint degrades to delta-only
        merged = (delta
                  .groupby(["event_type", "day_no"])
                  .aggregate(ASum("n", alias_name="n"),
                             ASum("sum_cents", alias_name="sum_cents"))
                  .to_pandas())
    finally:
        shutil.rmtree(old_dir, ignore_errors=True)
    merged = merged.astype({"day_no": "int64", "n": "int64",
                            "sum_cents": "int64"})
    return (merged.sort_values(["event_type", "day_no"])
            .reset_index(drop=True))


Q_INCREMENTAL_DAILY_SQL = """
SELECT event_type,
       CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day_no,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_cents
FROM events
GROUP BY event_type, day_no
ORDER BY event_type, day_no
"""


# ------------------------------- late-data watermark accounting

LATE_US = 3_600_000_000   # 1 h watermark


def q_late_events(sf_dir: str) -> pd.DataFrame:
    """Streaming late-data accounting: an event is LATE when its event
    time sits more than {LATE_US} µs behind the running per-user
    watermark (the max event time seen earlier in ARRIVAL order =
    event_id).  Output per user: total events and late count — what a
    watermarking engine must know to size its allowed-lateness.

    Engine shape: user-hash shards; within a shard the composite key
    user·2⁵¹+ts cumulative-maxes in ONE pass (a later user's keys all
    dominate an earlier user's, so runs never leak across the boundary)."""
    from .sources import read_table as _rt
    from .windows import _user_shard

    ds = _rt(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def late_shard(g: pd.DataFrame) -> pd.DataFrame:
        eid = g["event_id"].to_numpy(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        order = np.lexsort((eid, u))      # arrival order within user
        ts, u = ts[order], u[order]
        # segmented prefix-max via run-id groupby cummax (cython path) —
        # a user·2⁵¹+ts composite pack silently wrapped at user_id ≥ 4096
        run = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        s = pd.Series(ts)
        wm = s.groupby(run).cummax().shift(1).to_numpy()
        first = np.r_[True, u[1:] != u[:-1]]
        has_prev = ~first
        wm_ts = np.where(has_prev, np.nan_to_num(wm, nan=0.0), 0)
        late = has_prev & (ts < wm_ts - LATE_US)
        df = pd.DataFrame({"user_id": u,
                           "n_events": np.ones(u.size, np.int64),
                           "n_late": late.astype(np.int64)})
        return df.groupby("user_id", as_index=False).sum()

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(late_shard, batch_format="pandas")
           .to_pandas())
    return (out.astype({"user_id": "int64", "n_events": "int64",
                        "n_late": "int64"})
            .sort_values("user_id").reset_index(drop=True))


Q_LATE_EVENTS_SQL = f"""
WITH w AS (
  SELECT user_id, epoch_us(ts) AS us,
         MAX(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY event_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING) AS wm
  FROM events
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN wm IS NOT NULL AND us < wm - {LATE_US}
                THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY user_id ORDER BY user_id
"""


def q_json_props(sf_dir: str) -> pd.DataFrame:
    """Schema-on-read over the events ``props`` JSON column (the
    semi-structured column every log table carries): extract the numeric
    ``k`` property with ONE vectorized Arrow regex kernel — no per-row
    json.loads — and roll up per event_type.  The oracle parses with
    DuckDB's real JSON extractor, so the regex fast path is held to
    full-parser semantics."""
    from .sources import read_table as _rt

    ds = _rt(sf_dir, "events", columns=["event_type", "props"])

    def partial(b: pa.Table) -> pd.DataFrame:
        # sign-aware: json integers may be negative; a k the regex cannot
        # parse (fractional/nested) stays NULL, which pandas aggregation
        # skips — matching SUM/MIN/MAX-over-NULL SQL semantics (COUNT
        # still counts the row).  All-null groups are out of contract.
        k = pc.cast(pc.struct_field(
            pc.extract_regex(b["props"], r'"k":\s*(?P<k>-?\d+)'), "k"),
            pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "event_type": b["event_type"].to_numpy(zero_copy_only=False),
            "n": np.ones(len(k), np.int64), "sum_k": k,
            "min_k": k, "max_k": k})
        return df.groupby("event_type", as_index=False).agg(
            n=("n", "sum"), sum_k=("sum_k", "sum"),
            min_k=("min_k", "min"), max_k=("max_k", "max"))

    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_k", alias_name="sum_k"),
                      Min("min_k", alias_name="min_k"),
                      Max("max_k", alias_name="max_k"))
           .to_pandas())
    out = out.astype({c: "int64" for c in ["n", "sum_k", "min_k", "max_k"]})
    return out.sort_values("event_type").reset_index(drop=True)


Q_JSON_PROPS_SQL = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
         AS sum_k,
       CAST(MIN(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
         AS min_k,
       CAST(MAX(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
         AS max_k
FROM events GROUP BY event_type ORDER BY event_type
"""


# ----------------------------- retention cohort matrix

def q_retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Retention cohort matrix (the product-analytics staple): users
    cohort by their FIRST active day; the cell (cohort_day, age) counts
    distinct users active age days later.  One user-keyed exchange: each
    shard knows its users' full history, so first-day, age set and the
    (cohort, age) partials all compute in-shard; the final sum moves
    O(days² · shards) counter rows."""
    from .sources import read_table as _rt
    from .windows import _user_shard

    ds = _rt(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def cohort_shard(g: pd.DataFrame) -> pd.DataFrame:
        us = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        day = us // 86_400_000_000
        # distinct (user, day)
        # np.unique(axis=1) already returns columns lexicographically
        # sorted by (user, day) — no second sort needed
        uu, dd = np.unique(np.stack([u, day]), axis=1)
        head = np.ones(uu.size, bool)
        head[1:] = uu[1:] != uu[:-1]
        # broadcast each user run's first day across the run (vectorized)
        starts = np.flatnonzero(head)
        run_len = np.diff(np.r_[starts, uu.size])
        cohort = np.repeat(dd[head], run_len)
        age = dd - cohort
        df = pd.DataFrame({"cohort_day": cohort, "age_days": age,
                           "n_users": np.ones(uu.size, np.int64)})
        return df.groupby(["cohort_day", "age_days"], as_index=False).sum()

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(cohort_shard, batch_format="pandas")
           .to_pandas()
           .groupby(["cohort_day", "age_days"], as_index=False)
           ["n_users"].sum())
    return (out.astype("int64").sort_values(["cohort_day", "age_days"])
            .reset_index(drop=True))


Q_RETENTION_COHORTS_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
  FROM events
), f AS (
  SELECT user_id, day,
         MIN(day) OVER (PARTITION BY user_id) AS cohort_day
  FROM ud
)
SELECT cohort_day,
       day - cohort_day AS age_days,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM f GROUP BY cohort_day, age_days ORDER BY cohort_day, age_days
"""


# ---------------------- grouped top-k with DENSE_RANK tie semantics

TOPK_PER_GROUP = 3


def q_group_topk_dense(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k with DENSE_RANK tie semantics (every row tying a
    kept value is kept — the leaderboard rule, unlike ROW_NUMBER's
    arbitrary cut): per (returnflag, linestatus), all lineitems whose
    price-cents sit in the group's top-{TOPK_PER_GROUP} DISTINCT values.

    Engine shape: a per-batch partial keeps each group's top-k distinct
    values with their rows (any row outside its batch-local top-k can
    never be in the global top-k), then one group-keyed exchange of the
    survivor rows and a final exact cut — the classic top-k pushdown
    with tie-safe partials."""
    from .sources import read_table as _rt

    ds = _rt(sf_dir, "lineitem",
             columns=["l_orderkey", "l_linenumber", "l_returnflag",
                      "l_linestatus", "l_extendedprice"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        df["cents"] = np.floor(df["l_extendedprice"].to_numpy()
                               * 100.0 + 0.5).astype(np.int64)
        df = df.drop(columns=["l_extendedprice"])
        keep = []
        for _, g in df.groupby(["l_returnflag", "l_linestatus"],
                               sort=False):
            top = np.sort(g["cents"].unique())[-TOPK_PER_GROUP:]
            keep.append(g[g["cents"].isin(top)])
        return pd.concat(keep) if keep else df.iloc[:0]

    def final(g: pd.DataFrame) -> pd.DataFrame:
        top = np.sort(g["cents"].unique())[-TOPK_PER_GROUP:]
        out = g[g["cents"].isin(top)].copy()
        # dense rank: 1 = highest distinct value (top is ascending)
        out["rnk"] = (len(top) - np.searchsorted(top, out["cents"].to_numpy())
                      ).astype(np.int64)
        return out

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby(["l_returnflag", "l_linestatus"])
           .map_groups(final, batch_format="pandas")
           .to_pandas())
    out = out.astype({"l_orderkey": "int64", "l_linenumber": "int64",
                      "cents": "int64", "rnk": "int64"})
    return (out[["l_returnflag", "l_linestatus", "l_orderkey",
                 "l_linenumber", "cents", "rnk"]]
            .sort_values(["l_returnflag", "l_linestatus", "l_orderkey",
                          "l_linenumber"]).reset_index(drop=True))


Q_GROUP_TOPK_DENSE_SQL = f"""
WITH r AS (
  SELECT l_returnflag, l_linestatus, l_orderkey,
         CAST(l_linenumber AS BIGINT) AS l_linenumber,
         CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT) AS cents,
         DENSE_RANK() OVER (PARTITION BY l_returnflag, l_linestatus
                            ORDER BY floor(l_extendedprice * 100.0 + 0.5)
                            DESC) AS rnk
  FROM lineitem
)
SELECT l_returnflag, l_linestatus, l_orderkey, l_linenumber, cents,
       CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= {TOPK_PER_GROUP}
ORDER BY l_returnflag, l_linestatus, l_orderkey, l_linenumber
"""


# --------------------- latest-snapshot compaction (SCD1 / upsert)

def q_latest_snapshot(sf_dir: str) -> pd.DataFrame:
    """Last-writer-wins snapshot compaction (the lakehouse MERGE/upsert
    read path; SCD1 to q_scd2_intervals' SCD2): treating events as keyed
    updates, emit each user's LATEST state by (ts, event_id) — type and
    value-cents at the last write plus the write count.

    Engine shape: user-hash shards, ONE lexsort per shard, run-tail
    selection — compaction never shuffles more than each shard once."""
    from .sources import read_table as _rt
    from .windows import _user_shard

    ds = _rt(sf_dir, "events",
             columns=["event_id", "ts", "user_id", "event_type", "value"])

    def last_shard(g: pd.DataFrame) -> pd.DataFrame:
        eid = g["event_id"].to_numpy(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        u = u[order]
        tail = np.ones(u.size, bool)
        tail[:-1] = u[1:] != u[:-1]   # last row of each user run
        cents = np.floor(g["value"].to_numpy()[order] * 100.0
                         + 0.5).astype(np.int64)
        et = g["event_type"].to_numpy()[order]
        n = np.bincount(np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1)
        return pd.DataFrame({
            "user_id": u[tail],
            "last_type": et[tail],
            "last_cents": cents[tail],
            "n_writes": n.astype(np.int64)})

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(last_shard, batch_format="pandas")
           .to_pandas())
    out = out.astype({"user_id": "int64", "last_cents": "int64",
                      "n_writes": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


Q_LATEST_SNAPSHOT_SQL = """
WITH r AS (
  SELECT user_id, event_type,
         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS cents,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS n_writes
  FROM events
)
SELECT user_id, event_type AS last_type, cents AS last_cents,
       CAST(n_writes AS BIGINT) AS n_writes
FROM r WHERE rn = 1 ORDER BY user_id
"""


# ------------------- argmax as ONE associative aggregate (packed key)

_AM_SHIFT = np.int64(1 << 40)   # cents < 2^21, custkey < 2^40 at any SF here


def q_argmax_customer(sf_dir: str) -> pd.DataFrame:
    """Per-nation argmax (the MAX_BY / 'who holds the max' lookup) as ONE
    associative aggregate: pack (balance-cents, ¬custkey) into a single
    int64 whose MAX is simultaneously (max cents, then MIN custkey) —
    no second join pass, no per-group sort; ties break deterministically.

    The euc_allocation packed-argmin trick applied to the relational
    surface."""
    from .sources import read_table as _rt

    ds = _rt(sf_dir, "customer",
             columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = np.floor(b["c_acctbal"].to_numpy() * 100.0
                         + 0.5).astype(np.int64)
        key = np.asarray(b["c_custkey"], dtype=np.int64)
        nat = np.asarray(b["c_nationkey"], dtype=np.int64)
        # cents may be negative (TPC-H balances ≥ −999.99): offset to
        # non-negative so the packed order is still lexicographic
        packed = (cents + 100_000) * _AM_SHIFT + (_AM_SHIFT - 1 - key)
        df = pd.DataFrame({"c_nationkey": nat, "packed": packed})
        return df.groupby("c_nationkey", as_index=False).max()

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby("c_nationkey")
           .aggregate(Max("packed", alias_name="packed"))
           .to_pandas())
    packed = out["packed"].to_numpy(np.int64)
    res = pd.DataFrame({
        "c_nationkey": out["c_nationkey"].to_numpy(np.int64),
        "max_cents": packed // _AM_SHIFT - 100_000,
        "top_custkey": _AM_SHIFT - 1 - packed % _AM_SHIFT})
    return (res.astype("int64").sort_values("c_nationkey")
            .reset_index(drop=True))


Q_ARGMAX_CUSTOMER_SQL = """
WITH m AS (
  SELECT c_nationkey,
         MAX(CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT)) AS max_cents
  FROM customer GROUP BY c_nationkey
)
SELECT m.c_nationkey, m.max_cents,
       CAST(MIN(c.c_custkey) AS BIGINT) AS top_custkey
FROM m JOIN customer c
  ON c.c_nationkey = m.c_nationkey
 AND CAST(floor(c.c_acctbal * 100.0 + 0.5) AS BIGINT) = m.max_cents
GROUP BY m.c_nationkey, m.max_cents
ORDER BY m.c_nationkey
"""
