"""Round-5 hardening regressions (self-review findings): the salted
conversation path's phase-2 merge and edge cases (corrected-row drop
ordering, all-null-ts chunk prefix carry, negative turn_idx, empty input),
distributed_components convergence on chain components, and typed
empty-batch emission in the LSH signature stages."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from events_validator_ray.spec import transcript_spec
from events_validator_ray.stages.conversation import (
    conversation_violations,
    conversation_violations_salted,
)

VCOLS = ["event_id", "field", "error_type", "expected", "actual"]


def norm(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df[VCOLS]
        .fillna("")
        .sort_values(VCOLS)
        .reset_index(drop=True)
        .astype(str)
    )


def _assert_matches_references(tbl: pa.Table, spec, got: pd.DataFrame) -> None:
    """`got` (normed) equals the per-conversation ConversationChecker
    reference and the DuckDB twin on the fixture table."""
    import duckdb
    import pyarrow.compute as pc

    from events_validator_ray.pipelines.sqlgen import conversation_violations_sql
    from events_validator_ray.stages.conversation import ConversationChecker

    cc = ConversationChecker(spec)
    ref = [
        cc(tbl.filter(pc.equal(tbl["conv_id"], c)))
        for c in tbl["conv_id"].unique().to_pylist()
    ]
    want = pd.DataFrame({c: [] for c in VCOLS})
    if ref:
        want = pa.concat_tables(ref).select(VCOLS).to_pandas()
    pd.testing.assert_frame_equal(got, norm(want))
    con = duckdb.connect()
    con.register("fixture", tbl)
    twin = con.sql(conversation_violations_sql(spec, "fixture")).df()
    pd.testing.assert_frame_equal(got, norm(twin))


def _conv_with_forward_outlier(shift_us: int = 0) -> pa.Table:
    """One conversation where an EARLY chunk holds the running ts max and a
    LATER chunk has within-chunk disorder — the scenario whose cross-chunk
    ts rows the distributed branch once dropped. `shift_us` moves every
    timestamp by the same amount."""
    base = 1_704_067_200_000_000 + shift_us
    n = 14
    ts = base + np.arange(n, dtype=np.int64) * 100_000_000
    ts[5] = base + 1_000_000_000_000  # forward outlier (chunk 0 at chunk=10)
    ts[12] = ts[11] - 50_000_000  # within-chunk disorder in chunk 1
    return pa.table(
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


@pytest.mark.parametrize("shift_us", [0, 2_000_000])
def test_salted_distributed_branch_equals_unsalted(ray_session, shift_us):
    """The forward-outlier fixture at chunk=10 (its 14 rows make it hot):
    phase 2's ts rows of chunk 1 carry chunk 0's max as their expected, and
    phase 1 emits none for chunk 1. Parametrized over a uniform
    timestamp shift, which must not change which rows are flagged."""
    import ray.data as rd

    tbl = _conv_with_forward_outlier(shift_us)
    spec = transcript_spec()
    plain = norm(
        conversation_violations(rd.from_arrow(tbl), spec)
        .select_columns(VCOLS)
        .to_pandas()
    )
    assert (plain["error_type"] == "order").any()  # fixture actually fires
    salted = norm(
        conversation_violations_salted(rd.from_arrow(tbl), spec, chunk=10)
        .select_columns(VCOLS)
        .to_pandas()
    )
    pd.testing.assert_frame_equal(plain, salted)
    _assert_matches_references(tbl, spec, salted)


def test_salted_allnull_ts_chunk_carries_prefix(ray_session):
    """An all-null-ts chunk between the running max and later disorder must
    not reset the cross-chunk prefix (an all-null chunk's max ts reads as
    INT64_MIN, so the running max carries past it)."""
    import ray.data as rd

    base = 1_704_067_200_000_000
    n = 12  # chunk=4 -> chunks 0..2
    ts = [base + i * 100_000_000 for i in range(n)]
    ts[3] = base + 1_000_000_000_000  # chunk-0 running max
    for i in range(4, 8):  # chunk 1: all-null ts
        ts[i] = None
    # chunk 2 starts below chunk 0's max -> cross-chunk violation
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
    assert (plain["error_type"] == "order").any()
    salted = norm(
        conversation_violations_salted(rd.from_arrow(tbl), spec, chunk=4)
        .select_columns(VCOLS)
        .to_pandas()
    )
    pd.testing.assert_frame_equal(plain, salted)
    _assert_matches_references(tbl, spec, salted)


def test_salted_negative_turn_idx_equals_unsalted(ray_session):
    """Dirty data with negative turn_idx: floor division would put it in
    chunk -1, outside every chunk-0-anchored assumption — the clamp folds it
    into chunk 0 and the salted path stays row-identical to the unsalted."""
    import ray.data as rd

    base = 1_704_067_200_000_000
    turns = np.arange(-2, 6, dtype=np.int32)  # -2..5
    n = len(turns)
    tbl = pa.table(
        {
            "conv_id": pa.array(["conv_00000000"] * n),
            "turn_idx": pa.array(turns),
            "role": pa.array(
                ["user" if i % 2 == 0 else "assistant" for i in range(n)]
            ),
            "text": pa.array([f"turn {t}" for t in turns]),
            "tool": pa.array([None] * n, type=pa.string()),
            "ts": pa.array(
                base + np.arange(n, dtype=np.int64) * 100_000_000,
                type=pa.timestamp("us"),
            ),
        }
    )
    spec = transcript_spec()
    plain = norm(
        conversation_violations(rd.from_arrow(tbl), spec)
        .select_columns(VCOLS)
        .to_pandas()
    )
    # min-turn violation fires (min turn is -2, not 0)
    assert ("-2" == plain["actual"]).any()
    salted = norm(
        conversation_violations_salted(rd.from_arrow(tbl), spec, chunk=4)
        .select_columns(VCOLS)
        .to_pandas()
    )
    pd.testing.assert_frame_equal(plain, salted)
    _assert_matches_references(tbl, spec, salted)


def test_salted_empty_input_returns_empty(ray_session):
    """Empty/fully-clean shard: the path must return an empty dataset that
    still carries the violation schema."""
    import ray.data as rd

    tbl = pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
            "ts": pa.array([], pa.timestamp("us")),
        }
    )
    out = conversation_violations_salted(
        rd.from_arrow(tbl), transcript_spec(), chunk=4
    )
    assert out.count() == 0
    assert "event_id" in out.schema().names
    _assert_matches_references(tbl, transcript_spec(), norm(pd.DataFrame({c: [] for c in VCOLS})))


def test_first_role_min_nulls_case_unicode():
    """The first-role check reports the MIN non-null role among the first
    turn's rows (code-point order: upper before lower case, ASCII before
    Cyrillic before CJK), or NULL when every role there is NULL; BucketChecker
    agrees with ConversationChecker and the DuckDB twin."""
    from events_validator_ray.stages.conversation import BucketChecker

    first_turn_roles = {
        "c_case": ["assistant", None, "Assistant"],
        "c_null": [None, None],
        "c_accent": ["ünïcode", "Zed"],
        "c_script": ["用户", "ассистент", None],
        "c_hit": ["System", "user"],
    }
    rows = []
    for cid, roles in first_turn_roles.items():
        rows += [(cid, 0, r) for r in roles] + [(cid, 1, "assistant")]
    tbl = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows]),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array(["x"] * len(rows)),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array([1_704_067_200_000_000 + 1_000_000 * r[1] for r in rows], pa.timestamp("us")),
        }
    )
    spec = transcript_spec()
    got = BucketChecker(spec)(tbl).to_pandas()
    first = got[got["error_type"] == "ref"].set_index("event_id")["actual"]
    assert first.to_dict() == {
        "c_case:0": "Assistant",
        "c_null:0": None,
        "c_accent:0": "Zed",
        "c_script:0": "ассистент",
    }
    _assert_matches_references(tbl, spec, norm(got))


def _chain_pairs(n: int):
    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame(
            {
                "a": np.arange(n - 1, dtype=np.int64),
                "b": np.arange(1, n, dtype=np.int64),
            }
        )
    )


def test_distributed_components_long_chain_broadcast(ray_session):
    """A 30-hop chain (the _bucket_pairs chain-fallback worst case) must
    resolve to ONE component within the default round budget — driver path
    compression makes broadcast-mode convergence O(log diameter)."""
    from events_validator_ray.stages.dedup import distributed_components

    labels = {
        r["src"]: r["label"]
        for r in distributed_components(_chain_pairs(30)).take_all()
    }
    assert set(labels.values()) == {0} and len(labels) == 30


def test_distributed_components_long_chain_join_mode(ray_session):
    """Join mode (broadcast_max_labels=0): the distributed pointer-jump must
    converge a 40-hop chain within the default budget."""
    from events_validator_ray.stages.dedup import distributed_components

    labels = {
        r["src"]: r["label"]
        for r in distributed_components(
            _chain_pairs(40), broadcast_max_labels=0
        ).take_all()
    }
    assert set(labels.values()) == {0} and len(labels) == 40


def test_distributed_components_nonconvergence_raises(ray_session):
    """Exhausting max_rounds without convergence must raise, never return a
    silently split component."""
    from events_validator_ray.stages.dedup import distributed_components

    with pytest.raises(RuntimeError, match="not converged"):
        distributed_components(
            _chain_pairs(64), broadcast_max_labels=0, max_rounds=2
        )


def test_signature_stages_typed_empty_batches():
    """Empty blocks must keep the id column's type (string here), never flip
    it to Arrow null type and desynchronize block schemas."""
    from events_validator_ray.stages.dedup import (
        MinHashSignatures,
        SimHashSignatures,
    )

    empty = pa.table(
        {"doc_id": pa.array([], pa.string()), "text": pa.array([], pa.string())}
    )
    for stage in (MinHashSignatures(), SimHashSignatures()):
        out = stage(empty)
        assert out.num_rows == 0
        assert out.schema.field("doc_id").type == pa.string()
        assert out.schema.field("band_hash").type == pa.int64()


def test_embedding_candidate_pairs_empty_input(ray_session):
    """Empty embedding input: no pairs, not IndexError on dim inference."""
    import ray.data as rd

    from events_validator_ray.stages.dedup import embedding_candidate_pairs

    empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
        }
    )
    out = embedding_candidate_pairs(rd.from_arrow(empty))
    assert out.count() == 0


def test_bucketed_reducers_merge_mixed_dtype_key_blocks(ray_session):
    """A key arriving int64 in one block and float64 in another (the
    int64-with-nulls Arrow->pandas round trip) must land in ONE bucket and
    merge — non-canonical astype(str) bucketing split it ('5' vs '5.0') and
    emitted duplicate key rows."""
    import ray.data as rd

    from events_validator_ray.stages.assembly import (
        bucketed_count_per_key,
        bucketed_distinct_values,
        bucketed_reduce_per_key,
        distinct_count_per_key,
    )

    # block A: int64 keys (no nulls); block B: same keys + a null -> pandas
    # float64 in the partial stage
    a = pa.table({"k": pa.array([5, 5, 7], pa.int64()), "v": pa.array([1, 2, 3], pa.int64())})
    b = pa.table({"k": pa.array([5, 7, None], pa.int64()), "v": pa.array([4, 5, 6], pa.int64())})
    ds = rd.from_arrow(a).union(rd.from_arrow(b))

    counts = bucketed_count_per_key(ds, "k", "n").to_pandas()
    got = {int(r.k): int(r.n) for r in counts.itertuples() if pd.notna(r.k)}
    assert got == {5: 3, 7: 2}
    assert len(counts[counts["k"].notna()]) == 2  # one row per key, merged

    distinct = bucketed_distinct_values(ds, "k").to_pandas()
    vals = sorted(int(v) for v in distinct["k"] if pd.notna(v))
    assert vals == [5, 7]

    red = bucketed_reduce_per_key(ds, "k", [("s", "v", "sum")]).to_pandas()
    rgot = {int(r.k): int(r.s) for r in red.itertuples() if pd.notna(r.k)}
    assert rgot == {5: 1 + 2 + 4, 7: 3 + 5}

    dc = distinct_count_per_key(ds, "k", "v", "nv").to_pandas()
    dgot = {int(r.k): int(r.nv) for r in dc.itertuples() if pd.notna(r.k)}
    assert dgot == {5: 3, 7: 2}


def test_asof_join_null_left_keys_kept_unmatched(ray_session):
    """Left rows with NULL on/by keys must survive as unmatched (SQL ASOF
    LEFT JOIN), not crash pandas merge_asof."""
    import ray.data as rd

    from events_validator_ray.stages.joins import asof_join

    left = pa.table(
        {
            "u": pa.array([1, 1, None, 2], pa.int64()),
            "t": pa.array([10, None, 5, 8], pa.int64()),
            "ev": pa.array(["a", "b", "c", "d"]),
        }
    )
    right = pa.table(
        {
            "u": pa.array([1, 2], pa.int64()),
            "t": pa.array([7, 9], pa.int64()),
            "price": pa.array([100, 200], pa.int64()),
        }
    )
    out = (
        asof_join(rd.from_arrow(left), rd.from_arrow(right), on="t", by="u")
        .to_pandas()
        .sort_values("ev")
        .reset_index(drop=True)
    )
    assert len(out) == 4  # every left row kept
    by_ev = out.set_index("ev")
    assert int(by_ev.loc["a", "price"]) == 100  # 10 >= 7 matched
    assert pd.isna(by_ev.loc["b", "price"])  # null t -> unmatched
    assert pd.isna(by_ev.loc["c", "price"])  # null u -> unmatched
    assert pd.isna(by_ev.loc["d", "price"])  # 8 < 9 -> no as-of match


def test_mixture_sample_null_ids_dropped(ray_session):
    """NULL ids drop (the SQL twin's id % scale is NULL), never crash the
    int64 cast on a NaN-bearing float column."""
    import ray.data as rd

    from events_validator_ray.stages.sampling import mixture_sample

    t = pa.table(
        {
            "src": pa.array(["web"] * 4),
            "doc_id": pa.array([0, 999, None, 499], pa.int64()),
        }
    )
    out = mixture_sample(
        rd.from_arrow(t), "src", "doc_id", rates={"web": 0.5}, scale=1000
    ).to_pandas()
    assert sorted(int(x) for x in out["doc_id"]) == [0, 499]


def test_grouped_quantiles_matches_duckdb(ray_session):
    """The bucketed pair-count shape must stay exact vs quantile_disc on a
    continuous column (the shape the old corpus-cardinality aggregate paid
    its sort on)."""
    import duckdb
    import ray.data as rd

    from events_validator_ray.stages.sampling import grouped_quantiles

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {
            "seg": rng.choice(["a", "b", "c"], 4_000),
            "price": np.round(rng.uniform(1, 1000, 4_000), 2),
        }
    )
    got = (
        grouped_quantiles(rd.from_pandas(df).repartition(6), "seg", "price")
        .to_pandas()
        .sort_values(["seg", "q_permille"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        "SELECT seg, q_permille, value FROM ("
        "  SELECT seg, 500 AS q_permille, quantile_disc(price, 0.5) AS value FROM df GROUP BY seg"
        "  UNION ALL SELECT seg, 900, quantile_disc(price, 0.9) FROM df GROUP BY seg"
        "  UNION ALL SELECT seg, 990, quantile_disc(price, 0.99) FROM df GROUP BY seg"
        ") ORDER BY seg, q_permille"
    ).df()
    assert got["seg"].to_list() == want["seg"].to_list()
    assert got["q_permille"].to_list() == want["q_permille"].to_list()
    assert np.allclose(got["value"].to_numpy(), want["value"].to_numpy())


def test_range_join_column_collision_raises(ray_session):
    import ray.data as rd

    from events_validator_ray.stages.joins import range_join

    l = rd.from_arrow(pa.table({"k": pa.array([1]), "p": pa.array([5]), "v": pa.array([1])}))
    r = rd.from_arrow(pa.table({"k": pa.array([1]), "lo": pa.array([0]), "hi": pa.array([9]), "v": pa.array([2])}))
    with pytest.raises(ValueError, match="both sides"):
        range_join(l, r, on="k", point="p", lo="lo", hi="hi")


def test_numhist_nan_and_overflow_binning():
    """NaN counts as missing and huge/infinite values land in over/under by
    VALUE comparison — the float->int64 index cast sent both to INT64_MIN
    and reported them as low-side drift."""
    from events_validator_ray.stages.sketches import NumHist

    h = NumHist(0, 500, 10)
    h.add_column(pa.array([1e30, float("nan"), 600.0, -5.0, 100.0, float("inf"), float("-inf")]))
    d = h.as_dict()
    assert d["<under>"] == 2  # -5.0, -inf
    assert d["<over>"] == 3  # 1e30, 600.0, +inf
    assert d["<null>"] == 1  # NaN counts as missing
    assert d["bin_2"] == 1  # 100.0


def test_sketch_plan_rejects_bare_numhist():
    from events_validator_ray.stages.sketches import SketchPartials

    with pytest.raises(ValueError, match="numhist"):
        SketchPartials({"v": ("numhist",)})
    SketchPartials({"v": ("numhist:0:10:5",)})  # parametrized form ok


def test_ann_topk_tie_break_across_batches(ray_session):
    """Exact-duplicate embeddings (bit-identical scores) spanning more than
    k candidates in one batch: the batch-level truncation must keep the
    smallest vec_ids, not an arbitrary argpartition subset."""
    import ray.data as rd

    from events_validator_ray.stages.similarity import ann_topk

    base = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
    other = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.float32)
    n_dup = 12
    rows = [{"vec_id": i, "embedding": base.copy()} for i in range(n_dup)]
    rows += [{"vec_id": 100 + i, "embedding": other.copy()} for i in range(4)]
    ds = rd.from_pandas(pd.DataFrame(rows))  # one block: all dups in a batch
    out = ann_topk(ds, query_ids=[0], k=5)
    got = out[out["query_id"] == 0].sort_values("rank")["vec_id"].to_list()
    assert got == [0, 1, 2, 3, 4]  # smallest ids among the 12 tied duplicates


def test_knn_graph_tie_break_with_duplicates(ray_session):
    """knn_graph neighbor sets under >k-way score ties must match the SQL
    order (score DESC, neighbor_id ASC)."""
    import ray.data as rd

    from events_validator_ray.stages.similarity import knn_graph

    base = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    n_dup = 9
    rows = [{"vec_id": i, "embedding": base.copy()} for i in range(n_dup)]
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = knn_graph(ds, k=3).to_pandas()
    # every vector's 3 neighbors = the 3 smallest OTHER ids
    for vid, g in out.groupby("vec_id"):
        want = [i for i in range(n_dup) if i != vid][:3]
        assert sorted(g["neighbor_id"].to_list()) == want, (vid, g)


def test_ann_topk_ivf_probes_per_query(ray_session):
    """nprobe < n_centroids must restrict each query to ITS probed buckets;
    the full-probe config stays exact vs brute force (the oracle config)."""
    import ray.data as rd

    from events_validator_ray.stages.similarity import ann_topk, ann_topk_ivf

    rng = np.random.default_rng(7)
    emb = rng.standard_normal((300, 8)).astype(np.float32)
    df = pd.DataFrame({"vec_id": range(300), "embedding": list(emb)})
    ds = rd.from_pandas(df).repartition(4)
    exact = ann_topk(ds, query_ids=[3, 50], k=5)
    full = ann_topk_ivf(ds, query_ids=[3, 50], k=5, n_centroids=8, nprobe=8)
    pd.testing.assert_frame_equal(
        exact.reset_index(drop=True), full.reset_index(drop=True)
    )
    # approximate config still returns k rows per query with sane recall
    approx = ann_topk_ivf(ds, query_ids=[3, 50], k=5, n_centroids=8, nprobe=3)
    assert (approx.groupby("query_id").size() == 5).all()
    hits = len(
        set(map(tuple, approx[["query_id", "vec_id"]].to_numpy()))
        & set(map(tuple, exact[["query_id", "vec_id"]].to_numpy()))
    )
    assert hits >= 5  # >= 50% recall across the 10 exact pairs


def test_session_window_null_ts_matches_sql_semantics(ray_session):
    """NaT rows join the preceding session and count in n (the SQL twin's
    falsy `tsu - LAG > g`), but MIN/MAX skip them — previously NaT's
    int64-min cast poisoned session_start."""
    import duckdb
    import ray.data as rd

    from events_validator_ray.stages.windows import session_window_agg

    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2],
            "ts": [base, base + pd.Timedelta(seconds=5), pd.NaT, base],
        }
    )
    got = (
        session_window_agg(rd.from_pandas(df), key="user_id", ts_col="ts", gap_s=60)
        .to_pandas()
        .sort_values(["user_id", "session_start"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        "WITH t AS (SELECT user_id, epoch_us(ts) AS tsu FROM df), "
        "o AS (SELECT user_id, tsu, CASE WHEN LAG(tsu) OVER w IS NULL "
        "OR tsu - LAG(tsu) OVER w > 60000000 THEN 1 ELSE 0 END AS brk "
        "FROM t WINDOW w AS (PARTITION BY user_id ORDER BY tsu)), "
        "s AS (SELECT user_id, tsu, SUM(brk) OVER "
        "(PARTITION BY user_id ORDER BY tsu ROWS UNBOUNDED PRECEDING) AS sid FROM o) "
        "SELECT user_id, MIN(tsu) AS session_start, MAX(tsu) AS session_end, "
        "COUNT(*) AS n FROM s GROUP BY user_id, sid ORDER BY user_id, session_start"
    ).df()
    assert got["n"].to_list() == want["n"].to_list()
    assert [int(x) for x in got["session_start"]] == [int(x) for x in want["session_start"]]
    assert [int(x) for x in got["session_end"]] == [int(x) for x in want["session_end"]]


def test_validate_dispatch_empty_batch():
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.validate import ValidateDispatchBatch

    vb = ValidateDispatchBatch({"transcript": transcript_spec()}, dispatch_col="role")
    empty = pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
            "ts": pa.array([], pa.timestamp("us")),
        }
    )
    out = vb(empty)
    assert out.num_rows == 0 and "event_id" in out.schema.names


def test_sliding_windows_empty_block(ray_session):
    """Empty blocks must not crash the replication kernels."""
    import ray.data as rd

    from events_validator_ray.stages.windows import (
        sliding_window_agg,
        sliding_window_distinct,
    )

    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {"user_id": [1, 2], "event_type": ["a", "b"], "ts": [base, base]}
    )
    # repartition(8) of 2 rows produces empty blocks
    ds = rd.from_pandas(df).repartition(8)
    out = sliding_window_agg(ds, key="user_id", ts_col="ts", window_s=86400, slide_s=43200)
    assert out.count() == 4  # 2 users x 2 overlapping windows
    out2 = sliding_window_distinct(
        ds, key="event_type", val="user_id", ts_col="ts", window_s=86400, slide_s=43200
    )
    assert out2.count() == 4


def test_sliding_windows_null_ts(ray_session):
    """A NULL-ts event lies in no window — the SQL twin's
    unnest(range(NULL, ...)) yields no rows — instead of crashing the
    replication with a garbage window count."""
    import ray.data as rd

    from events_validator_ray.stages.windows import (
        sliding_window_agg,
        sliding_window_distinct,
    )

    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {"user_id": [1, 2, 3], "event_type": ["a", "b", "a"], "ts": [base, base, pd.NaT]}
    )
    out = sliding_window_agg(
        rd.from_pandas(df), key="user_id", ts_col="ts", window_s=86400, slide_s=43200
    ).to_pandas()
    assert sorted(out["user_id"].unique()) == [1, 2] and out["n"].sum() == 4
    out2 = sliding_window_distinct(
        rd.from_pandas(df), key="event_type", val="user_id", ts_col="ts",
        window_s=86400, slide_s=43200,
    ).to_pandas()
    assert out2["n_distinct"].sum() == 4


def test_validate_regex_on_list_column():
    """A regex rule over a list column validates via JS toString semantics
    (the oracle's js_tostring) instead of crashing the Arrow cast."""
    from events_validator_ray.spec import load_spec
    from events_validator_ray.stages.validate import ValidateBatch

    spec = load_spec(
        {"tags": {"type": "array", "regex": "x"}}, event_name="e"
    )
    vb = ValidateBatch(spec, id_cols=("doc_id",))
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "tags": pa.array([["ax", "b"], ["no", "match"]], pa.list_(pa.string())),
        }
    )
    out = vb(t).to_pylist()
    # doc 1: 'ax,b' partial-matches 'x' -> no violation; doc 2: 'no,match'
    # has no 'x' -> one regex violation with the JS-joined actual
    viol = [r for r in out if r["error_type"] == "regex"]
    assert len(viol) == 1 and viol[0]["actual"] == "no,match"


def test_validate_regex_lookahead_falls_back_to_python_re():
    """RE2-rejected patterns (lookahead) must validate like the oracle's
    re.search, not crash the task."""
    from events_validator_ray.spec import load_spec
    from events_validator_ray.stages.validate import ValidateBatch

    spec = load_spec(
        {"pw": {"type": "string", "regex": "^(?=.*[0-9])"}}, event_name="e"
    )
    vb = ValidateBatch(spec, id_cols=("doc_id",))
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "pw": pa.array(["abc1", "abc"], pa.string()),
        }
    )
    out = vb(t).to_pylist()
    viol = [r for r in out if r["error_type"] == "regex"]
    assert len(viol) == 1 and viol[0]["actual"] == "abc"


def test_y4m_truncated_chroma_and_frameless_raise():
    import numpy as np

    from events_validator_ray.stages.multimodal import y4m_decode

    # C420 stream cut after the final frame's luma, mid-chroma
    w = h = 4
    y = bytes(range(16))
    chroma = bytes(8)  # full 420 chroma = 2 * (2*2) = 8 bytes
    head = b"YUV4MPEG2 W4 H4 F25:1 C420\n"
    full = head + b"FRAME\n" + y + chroma
    wd, hd, frames = y4m_decode(full)
    assert (wd, hd, len(frames)) == (4, 4, 1)
    with pytest.raises(ValueError, match="truncated"):
        y4m_decode(head + b"FRAME\n" + y + chroma[:4])
    with pytest.raises(ValueError, match="no frames"):
        y4m_decode(b"YUV4MPEG2 W4 H4 F25:1 Cmono\n")


def test_manifest_tolerates_torn_trailing_line(tmp_path):
    """A kill mid-append leaves a partial JSON line — resume must skip it
    (that partition re-runs), never die in load()."""
    from events_validator_ray.state.manifest import Manifest, PartitionRecord

    m = Manifest(str(tmp_path))
    m.append(
        PartitionRecord(
            partition_id="part_00000",
            input_files=["a.parquet"],
            fingerprint="f0",
            spec_hash="s0",
            status="done",
        )
    )
    with open(m.path, "a") as f:
        f.write('{"partition_id": "part_0')  # torn tail
    fresh = Manifest(str(tmp_path))
    with pytest.warns(UserWarning, match="torn"):
        rec = fresh.completed("part_00000", "f0", "s0")
    assert rec is not None and rec.status == "done"


def test_manifest_append_after_torn_line(tmp_path):
    """Appending after a crash-torn tail must not merge the new record onto
    the fragment — the torn line is terminated first, so resume keeps the new
    record and skips only the fragment."""
    from events_validator_ray.state.manifest import Manifest, PartitionRecord

    m = Manifest(str(tmp_path))
    with open(m.path, "w") as f:
        f.write('{"partition_id": "part_0')  # torn tail, no newline
    m.append(
        PartitionRecord(
            partition_id="part_00001",
            input_files=["b.parquet"],
            fingerprint="f1",
            spec_hash="s0",
            status="done",
        )
    )
    fresh = Manifest(str(tmp_path))
    with pytest.warns(UserWarning, match="torn"):
        rec = fresh.completed("part_00001", "f1", "s0")
    assert rec is not None and rec.status == "done"


def test_js_string_cast_fixed_size_list():
    """fixed_size_list columns (embeddings round-tripped through Parquet /
    TensorArray) must stringify like JS arrays, not crash in pc.cast."""
    from events_validator_ray.functions.kernels import js_string_cast

    arr = pa.array(
        [[1.0, 2.5], [3.0, 4.0], None], type=pa.list_(pa.float64(), 2)
    )
    assert pa.types.is_fixed_size_list(arr.type)
    got = js_string_cast(arr).to_pylist()
    assert got == ["1,2.5", "3,4", None]
    # chunked input takes the combine_chunks path
    ch = pa.chunked_array([arr.slice(0, 1), arr.slice(1)])
    assert js_string_cast(ch).to_pylist() == got


def test_daily_error_rate_empty_log(ray_session):
    """Fully-filtered logs return the typed empty report on BOTH paths —
    the exact path previously KeyError'd on the column-less to_pandas."""
    import ray.data as rd

    from events_validator_ray.pipelines.report import daily_error_rate

    ts = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "event_id": ["a:1"],
            "status": ["valid"],
            "timestamp": [ts],
            "event_name": ["e"],
        }
    )
    empty = rd.from_pandas(df).filter(expr="status == 'error'").materialize()
    for approx in (False, True):
        out = daily_error_rate(empty, approx=approx)
        assert len(out) == 0
        assert list(out.columns) == [
            "date_utc",
            "n_events",
            "n_error_events",
            "error_rate",
        ]
        assert str(out["n_events"].dtype) == "int64"


def test_resume_sweeps_orphaned_partitions(tmp_path, ray_session):
    """Re-running with a different files_per_partition must remove stale
    part_* outputs so the read-back plane can't double-count."""
    import pyarrow.parquet as pq

    from events_validator_ray.pipelines.validate_pipeline import (
        read_violations,
        run_validation,
    )
    from events_validator_ray.sources.transcripts import ensure_transcripts

    import glob
    import os

    import pyarrow.parquet as _pq

    src_dir = str(tmp_path / "in")
    os.makedirs(src_dir)
    cached = ensure_transcripts(0.001)
    tbl = _pq.read_table(sorted(glob.glob(f"{cached}/*.parquet"))[0])
    step = max(1, tbl.num_rows // 4)
    for i in range(4):
        _pq.write_table(tbl.slice(i * step, step), f"{src_dir}/f{i}.parquet")
    from events_validator_ray.spec import transcript_spec

    out_dir = str(tmp_path / "out")
    run_validation(src_dir, out_dir, transcript_spec(), files_per_partition=1)
    assert len(__import__("glob").glob(f"{out_dir}/violations/part_*")) == 4
    n1 = read_violations(out_dir).count()
    # rerun with 4 files per partition: 1 partition; orphans must vanish
    run_validation(src_dir, out_dir, transcript_spec(), files_per_partition=4)
    assert len(__import__("glob").glob(f"{out_dir}/violations/part_*")) == 1
    assert read_violations(out_dir).count() == n1


def test_resume_rebuilds_profile_on_plan_change(tmp_path, ray_session):
    """A different sketch plan is a different computation — resume must not
    serve the old plan's profile."""
    import glob
    import json
    import os

    from events_validator_ray.pipelines.validate_pipeline import run_validation
    from events_validator_ray.sources.transcripts import ensure_transcripts
    from events_validator_ray.spec import transcript_spec

    import pyarrow.parquet as _pq

    src_dir = str(tmp_path / "in")
    os.makedirs(src_dir)
    cached = ensure_transcripts(0.001)
    tbl = _pq.read_table(sorted(glob.glob(f"{cached}/*.parquet"))[0])
    step = max(1, tbl.num_rows // 2)
    for i in range(2):
        _pq.write_table(tbl.slice(i * step, step), f"{src_dir}/f{i}.parquet")
    out_dir = str(tmp_path / "out")
    run_validation(src_dir, out_dir, transcript_spec(), files_per_partition=2)
    prof1 = json.load(open(f"{out_dir}/profile.json"))
    run_validation(
        src_dir,
        out_dir,
        transcript_spec(),
        files_per_partition=2,
        sketch_plan={"turn_idx": ("stats",)},
    )
    prof2 = json.load(open(f"{out_dir}/profile.json"))
    assert prof1 != prof2
    cols2 = {r.get("column") for r in prof2.get("profile", [])}
    assert cols2 == {"turn_idx"}  # ONLY the new plan's column


def test_bucketed_reduce_composite_key(ray_session, force_buckets):
    """bucketed_reduce_per_key with a list key must equal a pandas
    groupby([k1, k2]) reduce — the q_asof_join right-side dedup shape."""
    force_buckets(8)
    import numpy as np
    import pandas as pd
    import ray

    from events_validator_ray.stages.assembly import bucketed_reduce_per_key

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, 500),
            "tsu": rng.integers(0, 20, 500),
            "event_id": rng.integers(0, 10**9, 500),
        }
    )
    ds = ray.data.from_pandas(df).repartition(7)
    got = (
        bucketed_reduce_per_key(
            ds, ["user_id", "tsu"], [("view_event_id", "event_id", "max")]
        )
        .to_pandas()
        .sort_values(["user_id", "tsu"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["user_id", "tsu"])["event_id"]
        .max()
        .rename("view_event_id")
        .reset_index()
        .sort_values(["user_id", "tsu"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"), check_dtype=False
    )


def test_text_stats_nonascii_and_null_parity(ray_session, tmp_path):
    """q_text_stats must agree with its DuckDB twin on NULL text rows and
    non-ASCII punctuation (the two latent divergences the round-5 review
    found: fillna('') vs missing coalesce, Unicode \\w vs RE2 ASCII \\w)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from events_validator_ray.pipelines.queries import build_oracles, q_text_stats

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["plain ascii, with punct!", None, "café — déjà-vu…", ""],
                pa.string(),
            ),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(["t"] * 4),
        }
    )
    sf_dir = str(tmp_path)
    pq.write_table(docs, f"{sf_dir}/documents.parquet")
    got = q_text_stats(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    sql = build_oracles(sf=0.001)["text_stats"]
    want = con.execute(sql).df().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)].astype("int64"),
        want[sorted(want.columns)].astype("int64"),
        check_dtype=False,
    )
