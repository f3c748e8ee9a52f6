"""The keyed exchange (`stages/exchange.py`): every ported operator gives the
same rows at any bucket count, even when a key arrives int64 in one block
and float64-with-NaN in another; a string key hashes alike in every Arrow
and pandas layout; the bucket count comes from the cluster; and no module
outside `exchange.py` builds its own hash-bucket shuffle."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import events_validator_ray
from events_validator_ray.stages import conversation as cv
from events_validator_ray.stages import exchange

BUCKET_COUNTS = (1, 7, 256)
BASE_US = 1_704_067_200_000_000


def _keyed(payload: str, seed: int, null_every: int = 5):
    """Two blocks keyed by `k`: int64 in the first, float64 with NaN keys in
    the second (the int64-with-nulls Arrow->pandas round trip)."""
    import ray.data as rd

    rng = np.random.default_rng(seed)
    a = pd.DataFrame(
        {"k": rng.integers(0, 12, 40).astype("int64"), payload: np.arange(40, dtype="int64")}
    )
    kb = rng.integers(0, 12, 40).astype("float64")
    kb[::null_every] = np.nan
    b = pd.DataFrame({"k": kb, payload: np.arange(40, 80, dtype="int64")})
    return rd.from_pandas([a, b])


def _events():
    """(k, v, x, ts) events over two blocks with the int64/float64 key
    drift; `ts` spans a few hours with NULLs."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    blocks = []
    for i, kind in enumerate(("int64", "float64")):
        n = 60
        k = rng.integers(0, 6, n).astype(kind)
        if kind == "float64":
            k[::7] = np.nan
        ts = pd.to_datetime(BASE_US + rng.integers(0, 6 * 3600, n) * 1_000_000, unit="us")
        ts = pd.Series(ts).where(rng.random(n) > 0.1)
        blocks.append(
            pd.DataFrame(
                {
                    "k": k,
                    "v": rng.integers(0, 9, n).astype("int64") + 100 * i,
                    "x": rng.normal(size=n),
                    "ts": ts,
                }
            )
        )
    return rd.from_pandas(blocks)


def _transcripts(hot_rows: int = 0):
    """Transcript rows over two blocks; with `hot_rows`, one conversation of
    that many rows sits in the first block (gap, duplicate, disorder)."""
    import ray.data as rd

    rng = np.random.default_rng(3)

    def conv(cid, turns):
        n = len(turns)
        return pd.DataFrame(
            {
                "conv_id": cid,
                "turn_idx": np.asarray(turns, dtype="int32"),
                "role": [["user", "assistant"][t % 2] for t in turns],
                "text": [f"t{t % 4}" if t % 5 else None for t in turns],
                "tool": [None if t % 3 else "search" for t in turns],
                "ts": pd.to_datetime(
                    BASE_US + np.asarray(turns, dtype="int64") * 60_000_000, unit="us"
                ),
            }
        )

    first = [conv(f"c{i}", list(range(rng.integers(1, 7)))) for i in range(8)]
    if hot_rows:
        turns = list(range(hot_rows))
        turns[9] = 10  # gap at 9 plus a duplicate of 10
        big = conv("c_hot", turns)
        big.loc[5, "ts"] = big.loc[5, "ts"] + pd.Timedelta(days=1)  # forward outlier
        big.loc[14, "role"] = big.loc[13, "role"]  # alternation break
        first.append(big)
    second = [conv(f"c{i}", list(range(rng.integers(1, 7)))) for i in range(8, 14)]
    return rd.from_pandas([pd.concat(first), pd.concat(second)])


def _violation_log():
    """A validation log over three days: error/valid rows, repeated event
    ids across blocks, NULL timestamps."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    blocks = []
    for _ in range(2):
        n = 80
        ts = BASE_US + rng.integers(0, 3, n) * 86_400_000_000
        tbl = pd.DataFrame(
            {
                "event_id": [f"e{i}" for i in rng.integers(0, 50, n)],
                "status": np.where(rng.random(n) < 0.4, "error", "valid"),
                "timestamp": pd.Series(pd.to_datetime(ts, unit="us")).where(
                    rng.random(n) > 0.05
                ),
            }
        )
        blocks.append(tbl)
    return rd.from_pandas(blocks)


def _docs():
    import ray.data as rd

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "a quick brown fox jumps over the lazy cat today",
        "nothing shared here at all",
        "the lazy dog sleeps while the quick brown fox jumps",
        "lorem ipsum dolor sit amet",
        "quick brown fox jumps over the lazy dog again",
    ]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"), "text": texts})
    return rd.from_pandas([df.iloc[:3], df.iloc[3:]])


def _joins(how):
    from events_validator_ray.stages import joins

    left, right = _keyed("lv", 1), _keyed("rv", 2, null_every=4)
    if how == "full":
        return joins.full_outer_join(left, right, on="k")
    return joins.bucketed_hash_join(left, right, on="k", how=how)


def _asof():
    from events_validator_ray.stages.joins import asof_join

    ev = _events()
    left = ev.map_batches(lambda d: d.assign(t=d["v"]).drop(columns=["ts", "x"]), batch_format="pandas")
    right = ev.map_batches(
        lambda d: d.assign(t=d["v"] * 3, rx=d["x"]).drop(columns=["ts", "x", "v"])
        .drop_duplicates(["k", "t"]),
        batch_format="pandas",
    )
    return asof_join(left, right, on="t", by="k")


def _range():
    from events_validator_ray.stages.joins import range_join

    ev = _events()
    pts = ev.map_batches(lambda d: d[["k", "v"]], batch_format="pandas")
    iv = ev.map_batches(
        lambda d: pd.DataFrame({"k": d["k"], "lo": d["v"] - 2, "hi": d["v"] + 1}),
        batch_format="pandas",
    )
    return range_join(pts, iv, on="k", point="v", lo="lo", hi="hi")


def _conversation():
    from events_validator_ray.spec import transcript_spec

    ds = _transcripts(hot_rows=40)
    assert cv.detect_skew(ds, 8)[1] == ["c_hot"]
    return cv.conversation_violations(ds, transcript_spec(), chunk=8)


def _ops():
    from events_validator_ray.pipelines.report import daily_error_rate
    from events_validator_ray.stages import assembly, sampling, sketches, text, windows

    return {
        "inner_join": lambda: _joins("inner"),
        "left_join": lambda: _joins("left"),
        "full_outer_join": lambda: _joins("full"),
        "asof_join": _asof,
        "range_join": _range,
        "conversation_violations": _conversation,
        "daily_error_rate": lambda: daily_error_rate(_violation_log()),
        "distinct_count_per_key": lambda: assembly.distinct_count_per_key(
            _events(), "k", "v", "n_distinct"
        ),
        "conversation_stats": lambda: assembly.conversation_stats(_transcripts()),
        "bucketed_count_per_key": lambda: assembly.bucketed_count_per_key(_keyed("v", 4), "k", "n"),
        "bucketed_distinct_values": lambda: assembly.bucketed_distinct_values(_keyed("v", 5), "k"),
        "bucketed_reduce_per_key": lambda: assembly.bucketed_reduce_per_key(
            _keyed("v", 6), "k", [("n", None, "size"), ("s", "v", "sum")], dropna=False
        ),
        "conversation_docs": lambda: assembly.conversation_docs(_transcripts()),
        "turn_pairs": lambda: assembly.turn_pairs(_transcripts()),
        "hll_count_per_key": lambda: sketches.hll_count_per_key(_events(), "k", "v", "n_est"),
        "tdigest_quantile_per_key": lambda: sketches.tdigest_quantile_per_key(_events(), "k", "x"),
        "grouped_quantiles": lambda: sampling.grouped_quantiles(_events(), "k", "v"),
        "tumbling_window_agg": lambda: windows.tumbling_window_agg(_events(), "k", "ts", 3600, "v"),
        "sliding_window_agg": lambda: windows.sliding_window_agg(_events(), "k", "ts", 7200, 3600),
        "session_window_agg": lambda: windows.session_window_agg(_events(), "k", "ts", 1800),
        "dup_spans": lambda: text.dup_spans(_docs(), k=3),
        "tfidf_top_terms": lambda: text.tfidf_top_terms(_docs(), n_docs=6, broadcast_max_terms=0),
    }


def _cell(v):
    if isinstance(v, (list, np.ndarray)):
        return tuple(_cell(x) for x in v)
    if v is None or pd.isna(v):
        return None
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def _rows(out) -> list:
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    cols = sorted(df.columns)
    return sorted((tuple(_cell(v) for v in r) for r in df[cols].itertuples(index=False)), key=repr)


@pytest.mark.parametrize("op", sorted(_ops()))
def test_output_identical_at_every_bucket_count(ray_session, force_buckets, op):
    build = _ops()[op]
    got = []
    for n in BUCKET_COUNTS:
        force_buckets(n)
        got.append(_rows(build()))
    assert got[0], op
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("how", ["inner", "left", "full"])
def test_joins_with_null_keys_match_duckdb(ray_session, force_buckets, how):
    """NULL keys never match — not even each other — and FULL OUTER keeps
    them from both sides; the DuckDB twin decides."""
    import duckdb

    force_buckets(7)
    got = _rows(_joins(how))
    l = _keyed("lv", 1).to_pandas()
    r = _keyed("rv", 2, null_every=4).to_pandas()
    kind = {"inner": "JOIN", "left": "LEFT JOIN", "full": "FULL OUTER JOIN"}[how]
    key = "l.k AS k" if how != "full" else "coalesce(l.k, r.k) AS k"
    want = duckdb.sql(f"SELECT {key}, lv, rv FROM l {kind} r ON l.k = r.k").df()
    assert got == _rows(want)


def test_bucket_count_is_four_per_cpu(ray_session):
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    assert exchange.bucket_count() == 4 * cpus == 16


def test_canonical_key_hash_ignores_block_dtype():
    h_int = exchange._column_hash(pd.Series([1, 5, 2**62 + 1], dtype="int64"))
    h_float = exchange._column_hash(pd.Series([1.0, 5.0, np.nan]))
    h_nullable = exchange._column_hash(pd.Series([1, 5, None], dtype="Int64"))
    h_obj = exchange._column_hash(pd.Series([None, "x", np.nan], dtype=object))
    assert (h_int[:2] == h_float[:2]).all() and (h_int[:2] == h_nullable[:2]).all()
    # every NULL form lands in one bucket
    assert h_float[2] == h_nullable[2] == h_obj[0] == h_obj[2]
    t = pa.table({"k": pa.array([1, None, 5]), "s": ["a", "b", None]})
    a = exchange._add_bucket(t, ["k", "s"], 7)[exchange.BUCKET].to_pylist()
    b = exchange._add_bucket(t.to_pandas(), ["k", "s"], 7)[exchange.BUCKET].tolist()
    assert a == b


STR_KEYS = ["a", "", None, "héllo wörld", "日本語", "emoji 🙂", "5", "convX00008514:10"]


def _str_layouts(keys):
    """The same string keys in every layout a block can carry them in."""
    arr = pa.array(keys, pa.string())
    return {
        "string": pa.chunked_array([arr]),
        "large_string": pa.chunked_array([pa.array(keys, pa.large_string())]),
        "dictionary": pa.chunked_array([arr.dictionary_encode()]),
        "slice": pa.chunked_array([pa.array(["pad", "x" * 9, *keys])[2:]]),
        "chunks": pa.chunked_array([keys[:3], keys[3:]], pa.string()),
        "pandas_object": pd.Series(keys, dtype=object),
        "pandas_string": pd.Series(keys, dtype="string"),
        "pandas_category": pd.Series(keys, dtype="category"),
    }


def test_string_key_hash_is_layout_independent():
    """string, large_string, dictionary<int32,string>, a slice with a
    non-zero offset, a multi-chunk column and the pandas forms of the same
    keys (non-ASCII UTF-8 included) hash alike; "" and NULL differ, and
    every key gets its own hash."""
    layouts = _str_layouts(STR_KEYS)
    assert layouts["dictionary"].type == pa.dictionary(pa.int32(), pa.string())
    assert layouts["slice"].chunk(0).offset == 2
    want = exchange._column_hash(layouts["string"])
    for name, col in layouts.items():
        assert exchange._column_hash(col).tolist() == want.tolist(), name
    assert want[2] == exchange._NULL_HASH
    assert want[1] != want[2]
    assert len(set(want.tolist())) == len(STR_KEYS)


def test_object_key_hashes_by_str_form():
    """A non-str object in an object column hashes as its str() form: the
    int 5 and the string "5" share a hash, and NULLs stay NULL."""
    mixed = exchange._column_hash(pd.Series([5, "x", None, 2.5, True], dtype=object))
    text = exchange._column_hash(pa.chunked_array([["5", "x", None, "2.5", "True"]]))
    assert mixed.tolist() == text.tolist()


def test_long_key_hash_has_no_per_length_loop(monkeypatch):
    """A 1 MiB key takes the same numpy steps as a one-byte key: the byte
    hash has no Python loop, and calls the splitmix finisher twice (the
    position weights and the result) whatever the key length."""
    import inspect

    src = ast.parse(inspect.getsource(exchange._utf8_hash))
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    assert not [n for n in ast.walk(src) if isinstance(n, loops)]
    calls = []
    real = exchange._splitmix
    monkeypatch.setattr(exchange, "_splitmix", lambda z: calls.append(len(z)) or real(z))
    big = "k" * 2**20
    h = exchange._column_hash(pa.chunked_array([[big, big[:-1] + "j", "k"]]))
    assert calls == [2**20, 3]
    assert len(set(h.tolist())) == 3
    assert exchange._column_hash(pd.Series([big], dtype=object))[0] == h[0]


def test_arrow_and_pandas_routes_agree_on_random_keys():
    """Thousands of random keys (random lengths, non-ASCII, NULLs), one
    key column or two: `_add_bucket` gives each row the same bucket from the
    Arrow table and from its pandas frame, and the string hashes are
    distinct."""
    rng = np.random.default_rng(17)
    alphabet = list("abcxyz019:-_ éüß日本🙂")
    n = 4000
    keys = [
        None if rng.random() < 0.05 else "".join(rng.choice(alphabet, rng.integers(0, 40)))
        for _ in range(n)
    ]
    t = pa.table({"s": pa.array(keys, pa.string()), "k": pa.array(rng.integers(0, 50, n))})
    for cols in (["s"], ["s", "k"], ["k", "s"]):
        a = exchange._add_bucket(t, cols, 256)[exchange.BUCKET].to_pylist()
        b = exchange._add_bucket(t.to_pandas(), cols, 256)[exchange.BUCKET].tolist()
        assert a == b
    distinct = {k for k in keys if k is not None}
    h = exchange._column_hash(pa.chunked_array([list(distinct)], pa.string()))
    assert len(set(h.tolist())) == len(distinct)


#: the only `map_groups` calls outside exchange.py: groupbys on a NATURAL
#: key whose groups are the unit of work (cluster, IVF bucket, vector,
#: stratum), plus the (day, kind) HLL merge of the approximate error rate
NATURAL_KEY_SITES = {
    ("stages/similarity.py", "semantic_dedup"),
    ("stages/similarity.py", "knn_graph_ivf"),
    ("stages/sampling.py", "stratified_sample"),
    ("stages/sampling.py", "group_topk"),
    ("pipelines/report.py", "_daily_error_rate_hll"),
}


def _calls(node, name):
    return any(
        isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) == name or getattr(n.func, "attr", None) == name)
        for n in ast.walk(node)
    )


def test_mostly_empty_buckets_call_reduce_once_per_bucket(ray_session, force_buckets):
    """3 keys at 256 buckets: the sample-free range partition gives each
    bucket its own block, so `reduce_fn` runs once per NON-empty bucket,
    with every row of that bucket's keys, and never on an empty one."""
    import ray.data as rd

    df = pd.DataFrame({"k": ["alpha", "beta", "gamma"] * 30, "v": np.arange(90)})
    bucket_of = exchange._add_bucket(df, ["k"], 256).groupby("k")[exchange.BUCKET].first()
    want = sorted(",".join(sorted(g.index)) for _, g in bucket_of.groupby(bucket_of))

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"keys": [",".join(sorted(set(g["k"])))], "rows": [len(g)]})

    force_buckets(256)
    calls = exchange.exchange(rd.from_pandas([df.iloc[:40], df.iloc[40:]]), "k", reduce).to_pandas()
    assert sorted(calls["keys"]) == want
    assert calls["rows"].sum() == 90


@pytest.mark.parametrize("combine", [False, True])
def test_empty_input_gives_empty_output(ray_session, force_buckets, combine):
    """An empty block, or no block at all, runs no reduce and gives no rows."""
    import ray.data as rd

    force_buckets(7)
    ds = rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="int64")}))
    out = exchange.exchange(
        ds,
        "k",
        lambda g: g.groupby("k", sort=False, as_index=False)["v"].sum(),
        combine_fn=(lambda b: b) if combine else None,
    )
    assert out.count() == 0
    assert exchange.exchange(ds.limit(0), "k", lambda g: g).count() == 0


def test_no_hash_bucket_shuffle_outside_exchange():
    """A `hash64(...) % n` (or any `% np.uint64(...)`) bucket expression, or
    a `.map_groups(` call, anywhere but `stages/exchange.py` is a copy of
    the exchange; route it through `exchange()` instead."""
    root = pathlib.Path(events_validator_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "stages/exchange.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for n in ast.walk(top):
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod):
                    if _calls(n.left, "hash64") or (
                        isinstance(n.right, ast.Call) and getattr(n.right.func, "attr", None) == "uint64"
                    ):
                        found.append(f"{rel}:{n.lineno} bucket expression")
                if (
                    isinstance(n, ast.Call)
                    and getattr(n.func, "attr", None) == "map_groups"
                    and (rel, getattr(top, "name", "")) not in NATURAL_KEY_SITES
                ):
                    found.append(f"{rel}:{n.lineno} map_groups")
    assert found == []


#: the `read_parquet` calls of the read modules that are not the per-CPU
#: helper: the helper itself and the transcript read that passes a caller's
#: projection through
READ_PARQUET_SITES = {
    ("sources/readers.py", "read_parquet_per_cpu"),
    ("sources/readers.py", "read_transcripts"),
}
#: the stage-1 read of `run_validation` and `run_profile`: one read over
#: every pending partition's files, one task per session CPU but never more
#: tasks than files (each file's log file, hot-candidate list and sketch
#: partial stays its own, so `profile.json` does not move)
CAPPED_READS = {("pipelines/validate_pipeline.py", "_stream_partitions")}


def _per_cpu_capped_at_files(call: ast.Call) -> bool:
    """``override_num_blocks=min(len(files), <session CPUs>)`` over the
    read's own file list: not one task per file, and not a per-CPU split
    of fewer files than CPUs."""
    n = {k.arg: k.value for k in call.keywords}.get("override_num_blocks")
    if not (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "min" and len(n.args) == 2):
        return False
    files, cpus = n.args
    return (
        isinstance(files, ast.Call)
        and getattr(files.func, "id", None) == "len"
        and bool(call.args)
        and ast.dump(files.args[0]) == ast.dump(call.args[0])
        and "session_cpus" in ast.dump(cpus)
        and "len" not in ast.dump(cpus)
    )


def test_log_and_conversation_reads_use_one_task_per_cpu():
    """In `sources/readers.py` and `pipelines/validate_pipeline.py` every
    `read_parquet(` outside the listed sites goes through
    `read_parquet_per_cpu`; the stage-1 site's only bare read is the one
    capped per-CPU read over its own file list, so neither stage 1 nor the
    conversation read beside it can slip back to one task per file or to
    Ray's default."""
    root = pathlib.Path(events_validator_ray.__file__).parent
    found, capped = [], set()
    for rel in ("sources/readers.py", "pipelines/validate_pipeline.py"):
        for top in ast.parse((root / rel).read_text()).body:
            site = (rel, getattr(top, "name", ""))
            for n in ast.walk(top):
                if not (isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "read_parquet"):
                    continue
                if site in CAPPED_READS and _per_cpu_capped_at_files(n):
                    capped.add(site)
                elif site not in READ_PARQUET_SITES:
                    found.append(f"{rel}:{n.lineno} read_parquet(")
    assert found == []
    assert capped == CAPPED_READS


def test_tdigest_merge_order_is_canonical(ray_session, force_buckets):
    """The per-key digest merge sorts its partials, so reversing the block
    order (which reverses the order the exchange delivers them) changes
    nothing."""
    import ray.data as rd

    from events_validator_ray.stages.sketches import tdigest_quantile_per_key

    rng = np.random.default_rng(9)
    blocks = [
        pd.DataFrame({"k": ["a"] * 300, "x": rng.lognormal(size=300) * (i + 1)})
        for i in range(4)
    ]
    force_buckets(1)
    fwd = tdigest_quantile_per_key(rd.from_pandas(blocks), "k", "x", delta=20.0).to_pandas()
    rev = tdigest_quantile_per_key(rd.from_pandas(blocks[::-1]), "k", "x", delta=20.0).to_pandas()
    pd.testing.assert_frame_equal(fwd, rev)


#: the only Ray barrier the report plane keeps: the approximate error
#: rate's (day, kind) HLL merge (a natural key)
REPORT_BARRIER_SITES = {"_daily_error_rate_hll"}


def test_report_plane_has_no_ray_barrier():
    """`pipelines/report.py` counts bounded-cardinality keys per block and
    folds them on the driver, and routes corpus-cardinality keys through
    `exchange()`; it calls no Ray `.sort(` and no Ray `.groupby(` outside the
    listed sites. Ray's `Dataset.groupby` takes no `sort=` argument, so a
    `.groupby(` that passes one is a pandas groupby and is allowed."""
    path = pathlib.Path(events_validator_ray.__file__).parent / "pipelines" / "report.py"
    found = []
    for top in ast.parse(path.read_text()).body:
        if getattr(top, "name", "") in REPORT_BARRIER_SITES:
            continue
        for n in ast.walk(top):
            attr = getattr(getattr(n, "func", None), "attr", None) if isinstance(n, ast.Call) else None
            if attr == "sort" or (
                attr == "groupby" and not any(kw.arg == "sort" for kw in n.keywords)
            ):
                found.append(f"report.py:{n.lineno} .{attr}(")
    assert found == []


#: the only Ray reduction barrier outside exchange.py and fold.py:
#: build_bloom's `repartition` combine, kept because its 512 KB Bloom
#: partial is 32× the 16 KB HLL partial fold.py folds per block on the
#: driver (the `map_groups` natural-key sites are NATURAL_KEY_SITES)
REDUCTION_BARRIER_SITES = {("stages/joins.py", "build_bloom")}
#: keywords only pandas' `DataFrame.groupby` takes: Ray's `Dataset.groupby`
#: takes a key and `num_partitions`, and Arrow's is `group_by`
PANDAS_GROUPBY_KWARGS = {"sort", "dropna", "as_index", "observed", "group_keys", "level"}
#: modules whose `.unique(` is not `Dataset.unique`
NOT_A_DATASET = {"np", "numpy", "pc", "pd"}


def _reduction_barriers(rel: str, tree: ast.Module) -> list[str]:
    found = []
    for top in tree.body:
        if (rel, getattr(top, "name", "")) in REDUCTION_BARRIER_SITES:
            continue
        for n in ast.walk(top):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
                continue
            attr, recv = n.func.attr, n.func.value
            ray_groupby = (
                isinstance(recv, ast.Call)
                and getattr(recv.func, "attr", None) == "groupby"
                and not PANDAS_GROUPBY_KWARGS & {k.arg for k in recv.keywords}
            )
            if attr in ("aggregate", "count") and ray_groupby:
                found.append(f"{rel}:{n.lineno} groupby().{attr}(")
            elif attr == "unique" and (n.args or n.keywords) and getattr(recv, "id", None) not in NOT_A_DATASET:
                found.append(f"{rel}:{n.lineno} .unique(")
            elif attr == "repartition":
                found.append(f"{rel}:{n.lineno} .repartition(")
    return found


def test_no_ray_reduction_barrier_outside_fold():
    """Library-wide: outside `stages/exchange.py` and `stages/fold.py`, no
    Ray `groupby(...).aggregate(...)` or `groupby(...).count()`, no
    `Dataset.unique(` and no `.repartition(` but the listed site. Bounded
    reductions fold per block (`fold.sum_by_key`, `fold.fold_payloads`);
    corpus-cardinality keys go through `exchange()`. A pandas `groupby`
    (one that passes a pandas-only keyword such as `sort=`), Arrow's
    `group_by` and `np`/`pc`/`pd.unique` or `Series.unique()` are not Ray
    barriers."""
    root = pathlib.Path(events_validator_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel not in ("stages/exchange.py", "stages/fold.py"):
            found += _reduction_barriers(rel, ast.parse(path.read_text()))
    assert found == []


@pytest.mark.parametrize(
    "src,hit",
    [
        ("def f(ds):\n    return ds.groupby('k').aggregate(Sum('n'))", True),
        ("def f(ds):\n    return ds.groupby('k').count()", True),
        ("def f(ds):\n    return ds.unique('k')", True),
        ("def f(ds):\n    return ds.repartition(4)", True),
        ("def f(df):\n    return df.groupby('k', sort=False).count()", False),
        ("def f(t):\n    return t.group_by('k').aggregate([])", False),
        ("def f(v, s):\n    return np.unique(v), pc.unique(v), s.unique()", False),
        ("def build_bloom(ds):\n    return ds.repartition(8)", False),
    ],
)
def test_reduction_barrier_guard_tells_shapes_apart(src, hit):
    """The guard flags each Ray shape and passes pandas, Arrow and numpy
    look-alikes and the listed site."""
    assert bool(_reduction_barriers("stages/joins.py", ast.parse(src))) == hit
