"""Partitioning invariance: violations must not depend on block layout
(SURVEY.md §5.2 property 3 — pass/fail invariant under repartitioning)."""

from collections import Counter

import pytest

from events_validator_ray.sources.transcripts import ensure_transcripts
from events_validator_ray.spec import transcript_spec
from events_validator_ray.stages.conversation import conversation_violations
from events_validator_ray.stages.validate import ValidateBatch

VCOLS = ["event_id", "field", "error_type", "expected", "actual"]


def _multiset(ds):
    return Counter(tuple(r[c] for c in VCOLS) for r in ds.take_all())


@pytest.mark.parametrize("blocks", [1, 7])
def test_scalar_invariant_under_repartition(ray_session, blocks):
    import ray.data as rd

    tdir = ensure_transcripts(0.001)
    spec = transcript_spec()
    base = rd.read_parquet(tdir).map_batches(
        ValidateBatch(spec, log_valid=False), batch_format="pyarrow", zero_copy_batch=True
    )
    repart = (
        rd.read_parquet(tdir)
        .repartition(blocks)
        .map_batches(
            ValidateBatch(spec, log_valid=False),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    assert _multiset(base) == _multiset(repart)


def test_conversation_invariant_under_repartition_and_buckets(ray_session, force_buckets):
    import ray.data as rd

    tdir = ensure_transcripts(0.001)
    spec = transcript_spec()
    force_buckets(64)
    a = conversation_violations(rd.read_parquet(tdir), spec)
    force_buckets(3)
    b = conversation_violations(
        rd.read_parquet(tdir).repartition(5, shuffle=True), spec
    )
    assert _multiset(a) == _multiset(b)


def test_skew_detection_and_auto(ray_session):
    """The hot set holds the planted heavy conversation (120 of ~6k turns)
    once `chunk` drops below its size in one block, and salting it leaves
    the output unchanged."""
    import ray.data as rd

    from events_validator_ray.stages.conversation import detect_skew

    tdir = ensure_transcripts(0.001)
    # one block: the corpus is row-shuffled on disk, so the heavy
    # conversation's rows only share a block when the block is the corpus;
    # every other conversation has at most 21 turns plus a few duplicates
    ds = rd.read_parquet(tdir).repartition(1).materialize()
    n = ds.count()
    assert detect_skew(ds, chunk=60) == (n, ["conv_00000000"])
    assert detect_skew(ds) == (n, [])
    spec = transcript_spec()
    salted = _multiset(conversation_violations(ds, spec, chunk=60))
    whole = _multiset(conversation_violations(ds, spec))
    assert salted == whole


def test_salted_bounds_group_size(ray_session, force_buckets):
    """Structural skew guarantee: with salt chunk K, no phase-1 group of a
    hot conversation spans more than K distinct turn values (verified from
    the one path's summary rows)."""
    import ray.data as rd

    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.conversation import (
        _phase1,
        detect_skew,
        parse_summary_payload,
    )
    from events_validator_ray.stages.validate import DEFAULT_RUN_TS

    K = 5
    ds = rd.read_parquet(ensure_transcripts(0.001))
    _, hot = detect_skew(ds, K)
    assert hot
    force_buckets(8)
    phase1 = _phase1(ds, transcript_spec(), DEFAULT_RUN_TS, hot, K)
    sums = [
        parse_summary_payload(r["event_data"])
        for r in phase1.filter(expr="status == 'summary'").take_all()
    ]
    assert sums
    assert all(s["max_turn"] - s["min_turn"] < K for s in sums)


def test_bucket_checker_equals_per_conversation_reference(ray_session):
    """Differential: the vectorized multi-conversation BucketChecker must
    reproduce the simple per-conversation ConversationChecker on randomized
    conversations (dups, gaps, ts disorder, null ts/roles)."""
    import datetime as dt

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from events_validator_ray.stages.conversation import (
        BucketChecker,
        ConversationChecker,
    )

    rng = np.random.default_rng(21)
    rows = []
    base = dt.datetime(2024, 1, 1)
    for c in range(60):
        conv = f"conv_{c:08d}"
        n = int(rng.integers(1, 15))
        turns = list(range(n))
        if rng.random() < 0.3 and n > 2:
            turns[rng.integers(1, n)] += int(rng.integers(2, 5))  # gap
        if rng.random() < 0.3:
            turns.append(turns[int(rng.integers(0, n))])  # dup
        if rng.random() < 0.2:
            turns = [t + 1 for t in turns]  # min != 0
        for i, t in enumerate(turns):
            ts = base + dt.timedelta(seconds=int(t) * 10 + int(rng.integers(0, 5)))
            if rng.random() < 0.1:
                ts = base - dt.timedelta(seconds=100)  # disorder
            if rng.random() < 0.05:
                ts = None
            role = rng.choice(["user", "assistant", "tool", None])
            rows.append((conv, t, role, ts))
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "ts"])
    df["turn_idx"] = df["turn_idx"].astype("int32")
    spec = transcript_spec()

    got = Counter()
    bc = BucketChecker(spec)
    for r in bc(pa.Table.from_pandas(df, preserve_index=False)).to_pylist():
        got[(r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])] += 1

    want = Counter()
    cc = ConversationChecker(spec)
    for conv, g in df.groupby("conv_id"):
        tbl = pa.Table.from_pandas(
            g.assign(ts=pd.to_datetime(g["ts"])), preserve_index=False
        ).select(["conv_id", "turn_idx", "role", "ts"])
        tbl = tbl.set_column(
            tbl.schema.get_field_index("ts"), "ts", tbl["ts"].cast(pa.timestamp("us"))
        )
        for r in cc(tbl).to_pylist():
            want[(r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])] += 1

    assert got == want
