"""The one conversation path's hot set: which conversations get salted, that
salting a hot conversation keeps the output equal to the per-conversation
reference, that a corpus with no hot conversation skips phase 2, and that
the hot-set driver pull stays within Σ rows / chunk + blocks."""

import glob
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from events_validator_ray.pipelines.queries import _alternating_spec
from events_validator_ray.spec import transcript_spec
from events_validator_ray.stages import conversation as cv
from events_validator_ray.stages.validate import DEFAULT_RUN_TS

KEY = ("event_id", "field", "error_type", "expected", "actual")


def _multiset(rows) -> Counter:
    return Counter(tuple(r[c] for c in KEY) for r in rows)


def _reference(tbl: pa.Table, spec) -> Counter:
    cc = cv.ConversationChecker(spec)
    want = Counter()
    for conv in tbl["conv_id"].unique().to_pylist():
        want += _multiset(cc(tbl.filter(pc.equal(tbl["conv_id"], conv))).to_pylist())
    return want


def _twin(tbl: pa.Table, spec) -> Counter:
    import duckdb

    from events_validator_ray.pipelines.sqlgen import conversation_violations_sql

    con = duckdb.connect()
    con.register("fixture", tbl)
    return _multiset(con.sql(conversation_violations_sql(spec, "fixture")).df().to_dict("records"))


def _table(conv_ids, turns, roles, ts_us) -> pa.Table:
    return pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turns, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "ts": pa.array(ts_us, pa.timestamp("us")),
        }
    )


def test_hot_conversation_split_across_blocks_matches_reference(ray_session, force_buckets):
    """A 64-row conversation spread over two blocks (32 rows each) is hot at
    chunk=10 and lands in 7 phase-1 slices; the rows equal
    ConversationChecker's and the DuckDB twin's."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    base = 1_704_067_200_000_000
    turns = list(range(62)) + [7, 40]  # duplicates in slices 0 and 4
    turns[30] = 31  # gap at 30 plus a duplicate of 31
    ts = [base + t * 1_000_000 for t in turns]
    ts[3] = base + 10**12  # forward outlier: every later slice is a suspect
    ts[25] = ts[24] - 500_000  # within-slice disorder under the outlier's max
    ts[45] = None
    roles = ["assistant"] + [["user", "assistant"][i % 2] for i in range(1, 64)]
    roles[20] = roles[19]  # alternation violation inside a slice
    roles[10] = roles[9]  # ... and one across the slice boundary 9|10
    hot = ("conv_big", turns, roles, ts)
    cold = [
        (f"conv_{c}", list(range(n)), [["user", "assistant"][i % 2] for i in range(n)],
         [base + i * 1_000_000 for i in range(n)])
        for c, n in ((1, 5), (2, 9), (3, 3))
    ]
    rows = [
        (conv, t, r, s)
        for conv, ts_list, rl, sl in [hot] + cold
        for t, r, s in zip(ts_list, rl, sl)
    ]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    tbl = _table(*zip(*rows))
    big = np.flatnonzero(np.asarray(tbl["conv_id"].to_pylist()) == "conv_big")
    half = int(big[31]) + 1  # 32 rows of conv_big in each block
    ds = rd.from_arrow([tbl.slice(0, half), tbl.slice(half)])
    assert ds.num_blocks() == 2

    n_rows, hot_set = cv.detect_skew(ds, chunk=10)
    assert (n_rows, hot_set) == (len(tbl), ["conv_big"])
    force_buckets(4)
    phase1 = cv._phase1(ds, transcript_spec(), DEFAULT_RUN_TS, hot_set, 10).take_all()
    slices = {r["event_id"] for r in phase1 if r["status"] == "summary"}
    assert slices == {f"conv_big:{c}" for c in range(7)}

    spec = transcript_spec()
    got = _multiset(cv.conversation_violations(ds, spec, chunk=10).take_all())
    want = _reference(tbl, spec)
    assert got == want == _twin(tbl, spec)
    assert {"unique", "order", "ref"} <= {k[2] for k in want}
    # ConversationChecker has no alternation check: the twin is the reference
    spec = _alternating_spec()
    got = _multiset(cv.conversation_violations(ds, spec, chunk=10).take_all())
    assert got == _twin(tbl, spec)
    assert "alt" in {k[2] for k in got}


def test_no_hot_conversation_skips_phase2(ray_session, monkeypatch, force_buckets):
    """No conversation of the sf0.001 corpus reaches 10,000 rows, so the
    path emits no summary row and never builds phase 2 — the gap-injected
    conversations (turn_idx += 1,000,000) included."""
    import ray.data as rd

    from events_validator_ray.sources.transcripts import ensure_transcripts

    tdir = ensure_transcripts(0.001)
    ds = rd.read_parquet(tdir)
    tbl = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(tdir, "*.parquet")))]
    )
    assert pc.max(tbl["turn_idx"]).as_py() >= 1_000_000
    spec = transcript_spec()
    n_rows, hot = cv.detect_skew(ds)
    assert n_rows == len(tbl) and hot == []
    force_buckets(8)
    phase1 = cv._phase1(ds, spec, DEFAULT_RUN_TS, hot, 10_000)
    assert phase1.filter(expr="status != 'error'").count() == 0

    built = []

    class NoPhase2:
        def __init__(self, *a, **k):
            built.append(a)

    monkeypatch.setattr(cv, "_Phase2Packed", NoPhase2)
    got = _multiset(cv.conversation_violations(ds, spec).take_all())
    assert built == []
    placed = tbl.filter(pc.and_(pc.is_valid(tbl["conv_id"]), pc.is_valid(tbl["turn_idx"])))
    assert got == _reference(placed, spec)


def test_hot_set_driver_pull_within_bound(ray_session):
    """The candidate pass pulls at most Σ rows / chunk values (plus one row
    count per block): tight on blocks made only of chunk-sized
    conversations, and below it on a random layout."""
    import ray.data as rd

    from events_validator_ray.stages.sketches import local_frequency_candidates

    chunk = 10
    blocks = [
        pa.table({"conv_id": [f"b{b}_c{c}" for c in range(10) for _ in range(chunk)]})
        for b in range(3)
    ]
    ds = rd.from_arrow(blocks)
    n_rows, pulled = local_frequency_candidates(ds, "conv_id", lambda _nb: chunk)
    assert n_rows == 300 and len(pulled) == n_rows // chunk

    rng = np.random.default_rng(3)
    ids = [f"c{i}" for i in rng.zipf(1.5, size=2000) % 300]
    ds = rd.from_arrow([pa.table({"conv_id": ids[i : i + 400]}) for i in range(0, 2000, 400)])
    n_rows, pulled = local_frequency_candidates(ds, "conv_id", lambda _nb: chunk)
    assert n_rows == 2000
    assert 0 < len(pulled) <= n_rows // chunk
    assert cv.detect_skew(ds, chunk) == (n_rows, sorted(set(pulled)))
