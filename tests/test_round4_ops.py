"""Edge semantics for the round-4 operator additions: strict-order funnel,
priority dedup, n-gram census, and conversation segmentation."""

import numpy as np
import pandas as pd
import pytest


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


def test_funnel_strict_order_and_ties(ray_session, force_buckets):
    """B before A never counts; B at the SAME ts as A never counts (strict >);
    the earliest qualifying event is what the next stage must beat."""
    force_buckets(4)
    from events_validator_ray.stages.windows import funnel_counts

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    rows = [
        # u1: clean A -> B -> C
        (1, "A", t0), (1, "B", t0 + s), (1, "C", t0 + 2 * s),
        # u2: B before A only -> stops at A
        (2, "B", t0), (2, "A", t0 + s),
        # u3: B at the same ts as A -> strict > excludes it
        (3, "A", t0), (3, "B", t0),
        # u4: two A's; B after the FIRST A counts even though it precedes the second A
        (4, "A", t0), (4, "B", t0 + s), (4, "A", t0 + 5 * s),
        # u5: noise event types are prefiltered
        (5, "X", t0),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    got = (
        funnel_counts(_ds(df), stages=["A", "B", "C"])
        .to_pandas()
        .sort_values("stage_idx")
        .reset_index(drop=True)
    )
    assert list(got["stage"]) == ["A", "B", "C"]
    assert list(got["n_users"]) == [4, 2, 1]  # A: u1-u4; B: u1,u4; C: u1


def test_keep_best_priority_and_null_pref(ray_session):
    """Keeper = (source ASC, doc_id ASC) per exact text; NULL source packs as
    '' and wins over any named source (mirrors the twin's coalesce)."""
    from events_validator_ray.stages.dedup import keep_best_dedup

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5, 6],
            "text": ["x", "x", "x", "y", "y", "z"],
            "source": ["b", "a", "a", "c", None, "d"],
        }
    )
    got = (
        keep_best_dedup(_ds(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # x: source a ties -> min doc_id 2; y: NULL ('') beats 'c' -> doc 5; z: doc 6
    assert list(got["doc_id"]) == [2, 5, 6]
    assert list(got["source"]) == ["a", "", "d"]


def test_ngram_topk_doc_boundary_and_ties(ray_session):
    """Bigrams never cross documents; the k-boundary tie is broken on the
    gram ascending."""
    from events_validator_ray.stages.text import ngram_topk

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["a b c", "c a b", "zz a"],
        }
    )
    got = ngram_topk(_ds(df), n=2, k=2).to_pandas()
    # counts: 'a b' 2; 'b c', 'c a', 'zz a' 1 each. No 'c c' (doc boundary).
    assert list(got["gram"]) == ["a b", "b c"]  # tie at n=1 -> gram asc
    assert list(got["n"]) == [2, 1]


def test_conv_segments_null_ts_neither_breaks_nor_extends(ray_session, force_buckets):
    """A >gap hole bridged only by null-ts turns still splits; a conversation
    with no timestamps has 0 segments."""
    force_buckets(4)
    from events_validator_ray.stages.assembly import conv_segments

    t0 = pd.Timestamp("2024-01-01")
    m = pd.Timedelta(minutes=1)
    df = pd.DataFrame(
        {
            "conv_id": ["c1"] * 4 + ["c2"] * 2,
            "turn_idx": [0, 1, 2, 3, 0, 1],
            "role": ["user", "assistant", "user", "assistant", "user", "assistant"],
            "text": ["a", "b", "c", "d", "e", "f"],
            "ts": [t0, None, t0 + 60 * m, t0 + 61 * m, None, None],
        }
    )
    got = (
        conv_segments(_ds(df), gap_s=1800)
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    assert list(got["conv_id"]) == ["c1", "c2"]
    assert list(got["n_segments"]) == [2, 0]


def test_role_transitions_skips_nulls_and_conv_boundaries(ray_session, force_buckets):
    force_buckets(4)
    from events_validator_ray.stages.assembly import role_transitions

    df = pd.DataFrame(
        {
            "conv_id": ["c1", "c1", "c1", "c2", "c2"],
            "turn_idx": [0, 1, 2, 0, 1],
            "role": ["user", None, "assistant", "assistant", "user"],
            "text": ["a", "b", "c", "d", "e"],
        }
    )
    got = (
        role_transitions(_ds(df))
        .to_pandas()
        .sort_values(["from_role", "to_role"])
        .reset_index(drop=True)
    )
    # c1: user->None skipped, None->assistant skipped; c2: assistant->user.
    # No cross-conversation (assistant->assistant) edge.
    assert got.to_dict("records") == [
        {"from_role": "assistant", "to_role": "user", "n": 1}
    ]


def _local_funnel(df: pd.DataFrame, stages):
    """Row-at-a-time reference: stage-0 time = min ts of stage-0 events;
    stage-i time = min ts of stage-i events strictly after stage-(i-1)."""
    counts = []
    reached = {}
    for u, g in df[df.event_type == stages[0]].groupby("user_id"):
        reached[u] = g.ts.min()
    counts.append(len(reached))
    for stage in stages[1:]:
        nxt = {}
        for u, g in df[df.event_type == stage].groupby("user_id"):
            if u in reached:
                after = g.ts[g.ts > reached[u]]
                if len(after):
                    nxt[u] = after.min()
        reached = nxt
        counts.append(len(reached))
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_funnel_fuzz_vs_local(ray_session, seed, force_buckets):
    """Randomized streams with ts ties, duplicate events and null
    timestamps: the distributed funnel equals the per-user reference."""
    force_buckets(8)
    from events_validator_ray.stages.windows import funnel_counts

    rng = np.random.default_rng(seed)
    n = 600
    t0 = pd.Timestamp("2024-01-01").value // 1000
    ts_us = t0 + rng.integers(0, 50, size=n) * 1_000_000  # coarse -> many ties
    ts = pd.Series(pd.to_datetime(ts_us, unit="us"))
    ts[rng.random(n) < 0.05] = pd.NaT
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, size=n),
            "event_type": rng.choice(["A", "B", "C", "X"], size=n),
            "ts": ts,
        }
    )
    got = (
        funnel_counts(_ds(df), stages=["A", "B", "C"])
        .to_pandas()
        .sort_values("stage_idx")
    )
    assert list(got["n_users"]) == _local_funnel(df, ["A", "B", "C"])


@pytest.mark.parametrize("seed", [0, 1])
def test_window_distinct_fuzz_vs_local(ray_session, seed, force_buckets):
    """Randomized event streams: the skew-safe distinct reduction equals a
    local replicate-and-nunique reference."""
    force_buckets(16)
    from events_validator_ray.stages.windows import sliding_window_distinct

    rng = np.random.default_rng(100 + seed)
    n = 500
    w_s, s_s = 20, 10
    t0 = pd.Timestamp("2024-01-01").value // 1000
    ts_us = t0 + rng.integers(0, 200, size=n) * 1_000_000
    df = pd.DataFrame(
        {
            "event_type": rng.choice(["a", "b"], size=n),
            "user_id": rng.integers(0, 15, size=n),
            # timestamp[us] like the events corpus: the window math (shared
            # with sliding_window_agg / the epoch_us SQL twins) casts the
            # Arrow timestamp to int64 and treats it as MICROseconds
            "ts": pd.to_datetime(ts_us, unit="us").astype("datetime64[us]"),
        }
    )
    got = (
        sliding_window_distinct(
            _ds(df), key="event_type", val="user_id", ts_col="ts",
            window_s=w_s, slide_s=s_s,
        )
        .to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    # local reference: replicate each event to its covering windows
    rows = []
    w_us, s_us = w_s * 1_000_000, s_s * 1_000_000
    for _, r in df.iterrows():
        e = r.ts.value // 1000
        first = max(((e - w_us) // s_us + 1) * s_us, 0)
        last = (e // s_us) * s_us
        w = first
        while w <= last:
            rows.append((r.event_type, w // 1_000_000, r.user_id))
            w += s_us
    ref = (
        pd.DataFrame(rows, columns=["event_type", "window_start", "user_id"])
        .groupby(["event_type", "window_start"])["user_id"]
        .nunique()
        .rename("n_distinct")
        .reset_index()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_ngram_pmi_paths_equal(ray_session):
    """Broadcast and bucketed-join unigram attach produce identical rows
    (same gate-equality discipline as tfidf/curate)."""
    from events_validator_ray.stages.text import ngram_pmi

    df = pd.DataFrame(
        {
            "doc_id": range(8),
            "text": ["a b c a b", "b c d", "a b", "c d a b", "d d d", "a c", "b a", "x y"] ,
        }
    )
    kw = dict(min_count=2)
    a = (
        ngram_pmi(_ds(df), broadcast_max_terms=1_000_000, **kw)
        .to_pandas()
        .sort_values(["w1", "w2"])
        .reset_index(drop=True)
    )
    b = (
        ngram_pmi(_ds(df), broadcast_max_terms=0, **kw)
        .to_pandas()
        .sort_values(["w1", "w2"])
        .reset_index(drop=True)
    )
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_hard_negatives_paths_equal(ray_session):
    """Broadcast and bucketed-join label attach produce identical rows."""
    import ray.data as rd

    from events_validator_ray.stages.similarity import hard_negatives

    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    a = (
        hard_negatives(emb, k=3, broadcast_max_labels=1_000_000)
        .to_pandas()
        .sort_values(["vec_id", "rank"])
        .reset_index(drop=True)
    )
    b = (
        hard_negatives(emb, k=3, broadcast_max_labels=0)
        .to_pandas()
        .sort_values(["vec_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_validate_mixed_schema_files(ray_session, tmp_path):
    """Schema evolution: a corpus where one file predates the `tool` column
    validates without crashing — Ray's parquet union null-fills the missing
    column and the validator treats it as absent (same as an all-null
    column)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from events_validator_ray.pipelines.queries import transcript_spec
    from events_validator_ray.stages.validate import ValidateBatch

    def table(conv: str, with_tool: bool) -> pa.Table:
        t = pa.table(
            {
                "conv_id": [conv, conv],
                "turn_idx": pa.array([0, 1], pa.int32()),
                "role": ["user", "assistant"],
                "text": ["hi", "hello"],
                "ts": pa.array([1, 2], pa.timestamp("us")),
            }
        )
        if with_tool:
            t = t.append_column("tool", pa.array(["search", None], pa.string()))
        return t

    pq.write_table(table("old_conv", False), tmp_path / "old.parquet")
    pq.write_table(table("new_conv", True), tmp_path / "new.parquet")
    ds = rd.read_parquet(str(tmp_path))
    log = ds.map_batches(
        ValidateBatch(transcript_spec(), log_valid=True), batch_format="pyarrow"
    ).to_pandas()
    # all 4 rows validated (the union null-fills `tool` for the old file);
    # absent tool is never itself an error, and the old-file rows behave
    # exactly like explicit-NULL tool rows from the new file
    assert len(log) > 0
    old_rows = log[log["event_id"].astype(str).str.contains("old_conv")]
    assert len(old_rows) > 0  # the old file's rows WERE validated
    assert not (
        (old_rows["field"] == "tool") & (old_rows["status"] == "error")
    ).any()
