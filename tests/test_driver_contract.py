"""Mimic the driver's verify: every queries() entry runs at sf0.01; entries
with an oracle_sql() twin must match DuckDB row-for-row (order-insensitive,
column names equal)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.01"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    return c


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object or str(df[c].dtype).startswith("string"):
            df[c] = df[c].astype(object).where(df[c].notna(), None)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


QUERIES = entrymod.queries()
ORACLES = entrymod.oracle_sql()


def test_oracle_keys_subset_of_queries():
    assert set(ORACLES) <= set(QUERIES)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_oracle(ray_session, con, name):
    got = normalize(to_pandas(QUERIES[name](SF_DIR)))
    want = normalize(con.sql(ORACLES[name]).df())
    assert list(got.columns) == list(want.columns), f"{name}: column mismatch"
    assert len(got) == len(want), f"{name}: row count {len(got)} vs {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


@pytest.mark.parametrize("name", sorted(set(QUERIES) - set(ORACLES)))
def test_rows_only_queries_run(ray_session, name):
    got = to_pandas(QUERIES[name](SF_DIR))
    assert len(got) >= 1


def test_entry_smoke(ray_session):
    ds = entrymod.entry()
    assert ds.count() > 0
    names = set(ds.schema().names)
    assert {"event_id", "error_type", "status"} <= names


def test_asof_join_matches_pandas_reference(ray_session, force_buckets):
    """asof_join (bucketed merge_asof) vs a driver-side global merge_asof."""
    force_buckets(7)
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from events_validator_ray.stages.joins import asof_join

    rng = np.random.default_rng(17)
    left = pd.DataFrame(
        {
            "lid": np.arange(400),
            "k": rng.integers(0, 12, 400),
            "t": rng.integers(0, 1000, 400).astype("int64"),
        }
    )
    right = (
        pd.DataFrame(
            {
                "k": rng.integers(0, 14, 300),
                "t": rng.integers(0, 1000, 300).astype("int64"),
                "val": np.arange(300),
            }
        )
        .groupby(["k", "t"], as_index=False)["val"]
        .max()
    )
    got = (
        asof_join(
            rd.from_pandas(left).repartition(5),
            rd.from_pandas(right).repartition(3),
            on="t",
            by="k",
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    want = pd.merge_asof(
        left.sort_values("t", kind="stable"),
        right.sort_values("t", kind="stable"),
        on="t",
        by="k",
        direction="backward",
    ).sort_values("lid").reset_index(drop=True)
    assert len(got) == len(left)
    lw = want.set_index("lid")["val"]
    lg = got.set_index("lid")["val"]
    lg.index = lg.index.astype("int64")  # union NA-padding makes lid object
    pd.testing.assert_series_equal(lg.astype("float64"), lw.astype("float64"))
