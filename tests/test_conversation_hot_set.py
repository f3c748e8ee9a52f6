"""The one conversation path's hot set: which conversations get salted, that
salting a hot conversation keeps the output equal to the per-conversation
reference, that a corpus with no hot conversation skips phase 2, that the
hot-set driver pull stays within Σ rows / chunk + blocks, and that
``run_validation`` takes the hot set from its stage 1 (kept in the manifest
for resume) instead of a pass of its own, and that its conversation read
unifies files whose key columns drift in dtype."""

import glob
import os
import shutil
from collections import Counter

import pytest

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
    ts[3] = base + 10**12  # forward outlier: every later slice undercuts it
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


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_fuzz_hot_slices_match_reference_and_twin(ray_session, force_buckets, seed):
    """Random conversations over two blocks at chunk=4, so most are hot and
    split into slices: NULL ts and roles, duplicate and negative turns, gaps
    and ts disorder. Six more are hot with a forward ts outlier at their
    second turn: two straddle 2^53 µs (where float64 loses odd values), two
    have carried slices whose every ts is NULL (one of them a one-row
    slice), and two start past chunk 0, so phase 2's first slice of them
    is one it owns. The output equals ConversationChecker and the DuckDB
    twin (the twin alone for alternation)."""
    import ray.data as rd

    rng = np.random.default_rng(seed)
    base = 1_704_067_200_000_000
    rows = []
    for c in range(12):
        n = int(rng.integers(1, 25))
        turns = list(range(n))
        if n > 2 and rng.random() < 0.5:
            turns[int(rng.integers(1, n))] += int(rng.integers(2, 9))  # gap
        if rng.random() < 0.5:
            turns += [turns[int(rng.integers(0, n))]] * int(rng.integers(1, 3))  # duplicates
        if rng.random() < 0.3:
            turns = [t - int(rng.integers(1, 4)) for t in turns]  # negative head
        for t in turns:
            ts = base + t * 10_000_000 + int(rng.integers(0, 5))
            if rng.random() < 0.15:
                ts -= int(rng.integers(50, 400)) * 1_000_000  # disorder
            rows.append(
                (
                    f"conv_{c:08d}",
                    t,
                    [None, "user", "assistant", "tool"][int(rng.integers(0, 4))],
                    None if rng.random() < 0.1 else ts,
                )
            )
    for c, kind in enumerate(["big", "big", "null", "null", "headless", "headless"], start=12):
        k = int(rng.integers(2, 5))
        head = int(rng.integers(4, 9)) if kind == "headless" else 0
        turns = list(range(head, head + 4 * k + 1))  # the last slice holds one row
        t0 = 2**53 - 5 * 10_000_000 if kind == "big" else base
        ts = [t0 + t * 10_000_000 + int(rng.integers(0, 5)) for t in turns]
        ts[1] += int(rng.integers(50, 400)) * 2_000_000 + 1  # forward outlier, odd
        ts[int(rng.integers(2, len(ts)))] -= int(rng.integers(1, 10**9))
        if kind == "null":
            j = int(rng.integers(1, k))
            ts = [None if t // 4 in (j, k) else v for t, v in zip(turns, ts)]
        for t, v in zip(turns, ts):
            role = [None, "user", "assistant", "tool"][int(rng.integers(0, 4))]
            rows.append((f"conv_{c:08d}", t, role, v))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    tbl = _table(*zip(*rows))
    half = len(tbl) // 2
    ds = rd.from_arrow([tbl.slice(0, half), tbl.slice(half)])
    _, hot = cv.detect_skew(ds, 4)
    assert len(hot) >= 3 and {f"conv_{c:08d}" for c in range(12, 18)} <= set(hot)
    force_buckets(4)
    spec = transcript_spec()
    got = _multiset(cv.conversation_violations(ds, spec, chunk=4).take_all())
    assert got == _reference(tbl, spec) == _twin(tbl, spec)
    spec = _alternating_spec()
    assert _multiset(cv.conversation_violations(ds, spec, chunk=4).take_all()) == _twin(tbl, spec)


def test_phase2_compares_timestamps_as_int64(ray_session):
    """A ts past 2^53 µs is the running max of a hot conversation's chunk 0:
    the rows of chunk 1 that undercut it report it exactly (float64 would
    read 2^53 + 1 as 2^53)."""
    import ray.data as rd

    base = 1_704_067_200_000_000
    ts = [base + t * 1_000_000 for t in range(14)]
    ts[5] = 2**53 + 1
    tbl = _table(["c0"] * 14, list(range(14)), ["user", "assistant"] * 7, ts)
    spec = transcript_spec()
    got = _multiset(cv.conversation_violations(rd.from_arrow(tbl), spec, chunk=10).take_all())
    assert got == _reference(tbl, spec)
    ts_rows = {k[0]: k[3] for k in got if k[1] == "ts"}
    assert ts_rows == {f"c0:{t}": str(2**53 + 1) for t in range(6, 14)}


def _hot_corpus(d: str) -> pa.Table:
    """Three parquet files with every transcript column: ``conv_big`` (40
    rows: a duplicate, a gap, a forward ts outlier, a NULL ts, a wrong first
    role) fills the first; the others hold small conversations and three
    more ``conv_big`` turns. Returns their concatenation."""
    base = 1_704_067_200_000_000
    turns = list(range(38)) + [5, 30]
    turns[20] = 21
    ts = [base + t * 1_000_000 for t in turns]
    ts[3] = base + 10**12
    ts[17] = None
    roles = [["assistant", "user"][i % 2] for i in range(40)]
    files = [
        (["conv_big"] * 40, turns, roles, ts),
        (
            ["conv_a"] * 4 + ["conv_big"] * 3,
            [0, 1, 3, 3, 38, 39, 40],
            ["user", "assistant", "user", None, "user", "user", "assistant"],
            [base, base + 1, base, None, base + 38_000_000, base, base + 40_000_000],
        ),
        (["conv_b"] * 5, [1, 2, 3, 4, 5], ["user"] * 5, [base + i for i in range(5)]),
    ]
    os.makedirs(d)
    tables = []
    for i, cols in enumerate(files):
        t = _table(*cols)
        t = t.append_column("text", pa.array(["x"] * len(t)))
        t = t.append_column("tool", pa.nulls(len(t), pa.string()))
        pq.write_table(t, os.path.join(d, f"t_{i}.parquet"))
        tables.append(t)
    return pa.concat_tables(tables)


def _conversation_log(out: str) -> Counter:
    return _multiset(pq.read_table(os.path.join(out, "violations", "conversation")).to_pylist())


@pytest.fixture
def small_chunk(monkeypatch):
    """CHUNK = 10 for both stages, and the `skew` argument of each
    conversation_violations call recorded."""
    monkeypatch.setattr(cv, "CHUNK", 10)
    skews = []
    real = cv.conversation_violations

    def spy(*args, **kwargs):
        skews.append(kwargs.get("skew"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cv, "conversation_violations", spy)
    return skews


def test_run_validation_takes_hot_set_from_stage1(ray_session, tmp_path, monkeypatch, small_chunk):
    """The conversation that fills one file is hot through run_validation:
    stage 1 keeps it in that partition's manifest ``extra``, phase 2 runs,
    and the log equals the per-conversation reference and the DuckDB twin.
    Neither detect_skew nor any other candidate pass runs."""
    from events_validator_ray.pipelines.validate_pipeline import run_validation
    from events_validator_ray.stages import sketches
    from events_validator_ray.state.manifest import Manifest

    def separate_pass(*_a, **_k):
        raise AssertionError("run_validation ran a hot-set pass of its own")

    monkeypatch.setattr(cv, "detect_skew", separate_pass)
    monkeypatch.setattr(sketches, "local_frequency_candidates", separate_pass)
    reducers = []
    real_exchange = cv.exchange

    def exchange(ds, key, reduce_fn, **kwargs):
        reducers.append(type(reduce_fn).__name__)
        return real_exchange(ds, key, reduce_fn, **kwargs)

    monkeypatch.setattr(cv, "exchange", exchange)
    tbl = _hot_corpus(str(tmp_path / "in"))
    out = str(tmp_path / "out")
    spec = transcript_spec()
    run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)

    recs = Manifest(out).load()
    assert [recs[p].extra["hot_convs"] for p in ("part_00000", "part_00001", "part_00002")] == [
        ["conv_big"], [], []
    ]
    assert small_chunk == [(len(tbl), ["conv_big"])]
    assert reducers == ["BucketChecker", "_Phase2Packed"]
    got = _conversation_log(out)
    assert got == _reference(tbl, spec) == _twin(tbl, spec)
    assert {"unique", "order", "ref"} <= {k[2] for k in got}


def test_conversation_module_pulls_nothing_to_the_driver():
    """stages/conversation.py imports neither pandas nor the broadcast
    module and calls no take_all / to_pandas: both phases stay in the
    Dataset, and the output is phase 1's error rows unioned with phase 2's
    exchange."""
    import ast
    import inspect

    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(cv))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for a in node.names for part in a.name.split(".")}
            names |= {a.asname for a in node.names if a.asname}
            names |= set((getattr(node, "module", None) or "").split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"take_all", "to_pandas", "broadcast", "pandas", "pd"}


def test_hot_set_run_validation_pulls_nothing_in_conversation_stage(
    ray_session, tmp_path, monkeypatch, small_chunk
):
    """With a hot conversation, run_validation's conversation stage runs
    phase 2 and calls no Dataset.take_all, take or to_pandas from
    stages/conversation.py; its log still equals the reference."""
    import traceback

    import ray.data as rd

    conv_py = os.path.join("stages", "conversation.py")
    pulls = []

    def spy(name):
        real = getattr(rd.Dataset, name)

        def pull(self, *args, **kwargs):
            if any(f.filename.endswith(conv_py) for f in traceback.extract_stack()):
                pulls.append(name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(rd.Dataset, name, pull)

    for name in ("take_all", "take", "to_pandas"):
        spy(name)
    built = []
    real_phase2 = cv._Phase2Packed

    class Phase2(real_phase2):
        def __init__(self, *a, **k):
            built.append(a)
            super().__init__(*a, **k)

    monkeypatch.setattr(cv, "_Phase2Packed", Phase2)
    from events_validator_ray.pipelines.validate_pipeline import run_validation

    tbl = _hot_corpus(str(tmp_path / "in"))
    out = str(tmp_path / "out")
    spec = transcript_spec()
    run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)
    assert small_chunk[0][1] == ["conv_big"] and len(built) == 1
    assert pulls == []
    assert _conversation_log(out) == _reference(tbl, spec)


def test_resume_reads_hot_set_from_manifest(ray_session, tmp_path, small_chunk):
    """A run that resumes with every stage-1 partition skipped passes the
    same (rows, hot set) to the conversation stage and writes the same log
    as the fresh run."""
    from events_validator_ray.pipelines.validate_pipeline import run_validation

    _hot_corpus(str(tmp_path / "in"))
    out = str(tmp_path / "out")
    spec = transcript_spec()
    run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)
    fresh = _conversation_log(out)
    shutil.rmtree(os.path.join(out, "violations", "conversation"))
    s = run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)
    assert (s["executed"], s["skipped"]) == (1, 4)  # conversation; 3 partitions + profile
    assert small_chunk[0] == small_chunk[1] and small_chunk[0][1] == ["conv_big"]
    assert _conversation_log(out) == fresh


def test_record_without_hot_candidates_is_rerun(ray_session, tmp_path, small_chunk):
    """A done stage-1 record that lacks the hot candidates counts as not
    done: its partition re-runs and the record gets them back."""
    from events_validator_ray.pipelines.validate_pipeline import run_validation
    from events_validator_ray.state.manifest import Manifest

    _hot_corpus(str(tmp_path / "in"))
    out = str(tmp_path / "out")
    spec = transcript_spec()
    run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)
    fresh = _conversation_log(out)
    m = Manifest(out)
    rec = m.load()["part_00000"]
    del rec.extra["hot_convs"]
    m.append(rec)
    shutil.rmtree(os.path.join(out, "violations", "conversation"))
    s = run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)
    assert s["executed"] == 2  # part_00000 and the conversation stage
    assert Manifest(out).load()["part_00000"].extra["hot_convs"] == ["conv_big"]
    assert small_chunk[1][1] == ["conv_big"]
    assert _conversation_log(out) == fresh


def test_conversation_read_unifies_turn_idx_dtypes(ray_session, tmp_path, monkeypatch):
    """Three files whose ``turn_idx`` is int32, int64 and float64, every
    conversation spread over all three. With one session CPU they share one
    read task of the conversation stage and arrive as one block; the log
    equals ConversationChecker over the promoted table and the DuckDB twin
    (which reads the integral turns as BIGINT, the engine's rendering). One
    float64 turn is NULL, and one duplicates an int64 turn."""
    from events_validator_ray.pipelines import validate_pipeline as vp
    from events_validator_ray.stages import exchange

    base = 1_704_067_200_000_000
    os.makedirs(tmp_path / "in")
    tables = []
    for i, typ in enumerate([pa.int32(), pa.int64(), pa.float64()]):
        rows = [(j, t) for j in range(6) for t in range(4)]
        turns = [10 * i + t + (t == 3 and (j + i) % 3 == 0) for j, t in rows]
        # duplicates within the int64 file and across int64 / float64
        turns[1 * 4 + 2] -= i == 1
        turns[5 * 4 + 0] -= 8 * (i == 2)
        t = _table(
            [f"c{j}" for j, _ in rows],
            [None if (i, j, t) == (2, 4, 2) else v for (j, t), v in zip(rows, turns)],
            [["user", "assistant"][(t + (j == i)) % 2] for j, t in rows],
            [base + t * 1_000_000 + (j == 2 and t == 1) * 10**9 for j, t in rows],
        )
        t = t.set_column(1, "turn_idx", t["turn_idx"].cast(typ))
        t = t.append_column("text", pa.array(["x"] * len(t)))
        t = t.append_column("tool", pa.nulls(len(t), pa.string()))
        pq.write_table(t, str(tmp_path / "in" / f"t_{i}.parquet"))
        tables.append(t)
    monkeypatch.setattr(exchange, "session_cpus", lambda: 1)
    reads = []
    real_read = vp.read_parquet_per_cpu

    def read(paths, **kwargs):
        ds = real_read(paths, **kwargs).materialize()
        reads.append((ds.num_blocks(), ds.schema().base_schema.field("turn_idx").type))
        return ds

    monkeypatch.setattr(vp, "read_parquet_per_cpu", read)
    out = str(tmp_path / "out")
    spec = transcript_spec()
    vp.run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)

    assert reads == [(1, pa.float64())]
    tbl = pa.concat_tables(tables, promote_options="permissive")
    as_int = tbl.set_column(1, "turn_idx", tbl["turn_idx"].cast(pa.int64()))
    got = _conversation_log(out)
    # the engine (and ConversationChecker) drops NULL-turn rows before
    # checking; so does the twin
    assert got == _reference(tbl, spec) == _twin(as_int, spec)
    assert sum(got.values()) > 40 and {"unique", "order", "ref"} <= {k[2] for k in got}


def test_checkers_drop_null_turns():
    """A group holding a NULL turn (or a NULL conv_id) gives exactly the
    rows of the same group without it, from ConversationChecker and
    BucketChecker called directly: the NULL never reads as INT64_MIN. A
    group of NULL turns only gives no rows."""
    base = 1_704_067_200_000_000
    turns = [0, 1, 3, 3, 4]
    clean = _table(
        ["c4"] * 5,
        turns,
        ["assistant", "user", "assistant", "user", "user"],
        [base + t * 10**6 - (t == 4) * 10**8 for t in turns],
    )
    extra = _table(["c4", None], [None, 2], ["user", "user"], [base + 10**9, base])
    dirty = pa.concat_tables([clean.slice(0, 2), extra, clean.slice(2)])
    spec = transcript_spec()
    for checker in (cv.ConversationChecker(spec), cv.BucketChecker(spec)):
        want = _multiset(checker(clean).to_pylist())
        assert {"unique", "order", "ref"} <= {k[2] for k in want}
        assert _multiset(checker(dirty).to_pylist()) == want
        assert checker(extra.slice(0, 1)).num_rows == 0
    assert not any(str(np.iinfo(np.int64).min) in repr(k) for k in want)
