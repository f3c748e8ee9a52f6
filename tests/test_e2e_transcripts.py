"""End-to-end parity on the deterministic synthetic transcript corpus:
Ray pipeline vs DuckDB oracle SQL generated from the SAME spec, and
salted vs unsalted conversation checks."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from events_validator_ray.pipelines.sqlgen import (
    column_kinds_for_transcripts,
    conversation_violations_sql,
    scalar_violations_sql,
    valid_rows_condition,
)
from events_validator_ray.sources.transcripts import ensure_transcripts, transcripts_glob
from events_validator_ray.spec import transcript_spec
from events_validator_ray.stages.conversation import (
    conversation_violations,
    conversation_violations_salted,
)
from events_validator_ray.stages.validate import ValidateBatch

SF = 0.001
VCOLS = ["event_id", "field", "error_type", "expected", "actual", "event_name", "status"]


@pytest.fixture(scope="module")
def tdir():
    return ensure_transcripts(SF)


@pytest.fixture(scope="module")
def con(tdir):
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW transcripts AS SELECT * FROM read_parquet('{transcripts_glob(SF)}')"
    )
    return c


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[VCOLS].copy()
    for c in VCOLS:
        df[c] = df[c].astype(object).where(df[c].notna(), None)
    return df.sort_values(VCOLS).reset_index(drop=True)


def test_scalar_violations_match_sql(ray_session, tdir, con):
    import ray.data as rd

    spec = transcript_spec()
    ds = rd.read_parquet(tdir)
    out = ds.map_batches(
        ValidateBatch(spec, log_valid=False), batch_format="pyarrow", zero_copy_batch=True
    )
    got = norm(out.select_columns(VCOLS).to_pandas())
    sql = scalar_violations_sql(spec, "transcripts", column_kinds_for_transcripts())
    want = norm(con.sql(sql).df())
    assert len(got) > 50  # injected violations exist
    pd.testing.assert_frame_equal(got, want)


def test_valid_rows_match_sql(ray_session, tdir, con):
    import ray.data as rd
    import pyarrow.compute as pc

    spec = transcript_spec()
    ds = rd.read_parquet(tdir)
    out = ds.map_batches(
        ValidateBatch(spec, log_valid=True), batch_format="pyarrow", zero_copy_batch=True
    )
    got_valid = (
        out.filter(expr="status == 'valid'").select_columns(["event_id"]).to_pandas()
    )
    cond = valid_rows_condition(spec, column_kinds_for_transcripts())
    want = con.sql(
        f"SELECT conv_id || ':' || CAST(turn_idx AS VARCHAR) AS event_id "
        f"FROM transcripts WHERE {cond}"
    ).df()
    assert len(got_valid) == len(want) > 1000
    assert sorted(got_valid["event_id"]) == sorted(want["event_id"])


def test_conversation_checks_match_sql(ray_session, tdir, con):
    import ray.data as rd

    spec = transcript_spec()
    ds = rd.read_parquet(tdir)
    out = conversation_violations(ds, spec)
    got = norm(out.select_columns(VCOLS).to_pandas())
    want = norm(con.sql(conversation_violations_sql(spec, "transcripts")).df())
    # every check kind fires on the fixture
    kinds = set(got["error_type"]) | set(got["field"])
    assert {"unique", "order", "ref"} <= set(got["error_type"])
    pd.testing.assert_frame_equal(got, want)


def test_salted_equals_unsalted(ray_session, tdir):
    import ray.data as rd

    spec = transcript_spec()
    ds = rd.read_parquet(tdir)
    plain = norm(conversation_violations(ds, spec).select_columns(VCOLS).to_pandas())
    salted = norm(
        conversation_violations_salted(ds, spec, chunk=5)
        .select_columns(VCOLS)
        .to_pandas()
    )
    pd.testing.assert_frame_equal(plain, salted)


def test_salted_equals_unsalted_with_alternation(ray_session, tdir):
    """Alternation rules must survive the salted two-phase split (chunk
    boundary role carry)."""
    import json as _json

    import ray.data as rd

    from events_validator_ray.spec import TRANSCRIPT_SPEC_JSON, load_spec

    raw = _json.loads(_json.dumps(TRANSCRIPT_SPEC_JSON))
    raw["_table"]["order"]["alternate"] = ["user", "assistant"]
    spec = load_spec(raw, event_name="transcript")
    ds = rd.read_parquet(tdir)
    plain = norm(conversation_violations(ds, spec).select_columns(VCOLS).to_pandas())
    salted = norm(
        conversation_violations_salted(rd.read_parquet(tdir), spec, chunk=4)
        .select_columns(VCOLS)
        .to_pandas()
    )
    assert (plain.error_type == "alt").sum() > 10
    pd.testing.assert_frame_equal(plain, salted)


def test_salted_forward_outlier_expected_matches_global_prefix_max(ray_session):
    """ADVICE repro: when an EARLIER chunk holds the running ts max (forward
    outlier), within-chunk disorder in a later chunk must report `expected` =
    the conversation-global prefix max, not the within-chunk one. Phase 2
    owns every ts row of a hot conversation's chunk>0 slices."""
    import datetime as dt

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    base = 1_704_067_200_000_000  # 2024-01-01 UTC, epoch us
    n = 14
    ts = base + np.arange(n, dtype=np.int64) * 100_000_000
    ts[5] = base + 1_000_000_000_000  # forward outlier at turn 5 (chunk 0)
    # within-chunk disorder in chunk 1 (turns 10-13): turn 12 < turn 11
    ts[12] = ts[11] - 50_000_000
    tbl = pa.table(
        {
            "conv_id": pa.array(["conv_00000000"] * n),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
            "role": pa.array(
                ["user" if i % 2 == 0 else "assistant" for i in range(n)]
            ),
            "text": pa.array([f"turn {i}" for i in range(n)]),
            "tool": pa.array([None] * n, type=pa.string()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }
    )
    spec = transcript_spec()
    plain = norm(
        conversation_violations(rd.from_arrow(tbl), spec)
        .select_columns(VCOLS)
        .to_pandas()
    )
    salted = norm(
        conversation_violations_salted(rd.from_arrow(tbl), spec, chunk=10)
        .select_columns(VCOLS)
        .to_pandas()
    )
    ts_rows = plain[(plain.field == "ts") & (plain.error_type == "order")]
    # turns 6..13 all undercut the outlier; every expected is the GLOBAL max
    assert len(ts_rows) == 8
    assert set(ts_rows["expected"]) == {str(base + 1_000_000_000_000)}
    pd.testing.assert_frame_equal(plain, salted)


def test_salted_many_suspect_conversations(ray_session):
    """>100 conversations whose chunk 1 undercuts chunk 0's max ts: phase 2
    checks every one of them from the carried payloads, and the salted rows
    still equal the unsalted path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    n_conv, n_turns = 120, 12
    base = 1_704_067_200_000_000
    conv = np.repeat([f"conv_{i:08d}" for i in range(n_conv)], n_turns)
    turn = np.tile(np.arange(n_turns, dtype=np.int32), n_conv)
    ts = base + turn.astype(np.int64) * 100_000_000
    ts = ts + np.repeat(np.arange(n_conv, dtype=np.int64), n_turns) * 10_000_000_000
    # forward outlier at turn 2 of EVERY conversation -> chunk 1 suspect
    ts[turn == 2] += 500_000_000_000
    tbl = pa.table(
        {
            "conv_id": pa.array(conv),
            "turn_idx": pa.array(turn),
            "role": pa.array(np.where(turn % 2 == 0, "user", "assistant")),
            "text": pa.array([f"t{i}" for i in range(len(conv))]),
            "tool": pa.array([None] * len(conv), type=pa.string()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }
    )
    spec = transcript_spec()
    plain = norm(
        conversation_violations(rd.from_arrow(tbl), spec).select_columns(VCOLS).to_pandas()
    )
    salted = norm(
        conversation_violations_salted(rd.from_arrow(tbl), spec, chunk=5)
        .select_columns(VCOLS)
        .to_pandas()
    )
    assert len(plain) >= n_conv  # every conversation violates after its outlier
    pd.testing.assert_frame_equal(plain, salted)
