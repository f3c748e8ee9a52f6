"""The violation log's sink. Every log file the engine writes (stage 1's
per-file logs, the conversation log, the merged log of an incremental
round) is zstd-compressed, keeps `event_id` plain (no dictionary: it is
unique per valid row), and reads back with `VIOLATION_SCHEMA`'s types and
the rows the engine computed. Each manifest record's counts come from its
files' footers and its `extra["log_bytes"]` is their size on disk, and no
Dataset is materialized or counted only to write a log. A guard keeps every
log write in `validate_pipeline.py` on the shared `LOG_PARQUET` options."""

import ast
import glob
import os
import pathlib
import sys
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import events_validator_ray
from events_validator_ray.spec import transcript_spec
from events_validator_ray.stages import conversation as cv
from events_validator_ray.stages.validate import DEFAULT_RUN_TS, VIOLATION_SCHEMA, ValidateBatch
from test_conversation_hot_set import _hot_corpus, _table


def _clean_corpus(d: str) -> pa.Table:
    """Two files of one conversation that passes every conversation check."""
    base = 1_704_067_200_000_000
    n = 6
    t = _table(["conv_00000001"] * n, list(range(n)), ["user", "assistant"] * (n // 2),
               [base + i * 1_000_000 for i in range(n)])
    t = t.append_column("text", pa.array(["x"] * n)).append_column("tool", pa.nulls(n, pa.string()))
    os.makedirs(d)
    for i, piece in enumerate((t.slice(0, 4), t.slice(4))):
        pq.write_table(piece, os.path.join(d, f"t_{i}.parquet"))
    return t


def _rows(t: pa.Table) -> Counter:
    return Counter(tuple(r.values()) for r in t.to_pylist())


def _files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))


def _read_log(d: str) -> pa.Table:
    """Every log file under ``d``, each checked for the sink's format."""
    tables = []
    for path in _files(d):
        meta = pq.read_metadata(path)
        for g in range(meta.num_row_groups):
            for i in range(meta.num_columns):
                chunk = meta.row_group(g).column(i)
                assert chunk.compression == "ZSTD", (path, chunk.path_in_schema)
                if chunk.path_in_schema == "event_id":
                    assert not chunk.has_dictionary_page, path
                    assert not {"RLE_DICTIONARY", "PLAIN_DICTIONARY"} & set(chunk.encodings), path
        t = pq.read_table(path)
        assert t.schema.equals(VIOLATION_SCHEMA), path
        tables.append(t)
    return pa.concat_tables(tables) if tables else VIOLATION_SCHEMA.empty_table()


def _conversation_reference(tbl: pa.Table, spec) -> Counter:
    checker = cv.ConversationChecker(spec, DEFAULT_RUN_TS)
    want = Counter()
    for conv in tbl["conv_id"].unique().to_pylist():
        want += _rows(checker(tbl.filter(pc.equal(tbl["conv_id"], conv))))
    return want


@pytest.mark.parametrize("corpus", ["cold", "hot", "clean"])
def test_log_files_are_zstd_with_a_plain_event_id(ray_session, tmp_path, monkeypatch, corpus):
    """`cold`: the hot corpus at the default chunk, so the hot set is empty
    and the conversation stage is one exchange; `hot`: chunk 10, so
    `conv_big` is hot and phase 2 runs; `clean`: a conversation log of 0
    rows. Stage-1, conversation and merged logs all pass `_read_log`, hold
    the rows `ValidateBatch` and `ConversationChecker` compute, and match
    their manifest records' counts and `log_bytes`."""
    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import merge_violations, run_validation
    from events_validator_ray.state.manifest import Manifest

    if corpus == "hot":
        monkeypatch.setattr(cv, "CHUNK", 10)
    calls = []
    for name in ("materialize", "count"):
        real = getattr(rd.Dataset, name)

        def spy(self, *a, _real=real, _name=name, **k):
            # Ray's own write materializes; count only the library's calls
            if sys._getframe(1).f_globals["__name__"].startswith("events_validator_ray"):
                calls.append(_name)
            return _real(self, *a, **k)

        monkeypatch.setattr(rd.Dataset, name, spy)
    src = str(tmp_path / "in")
    tbl = _clean_corpus(src) if corpus == "clean" else _hot_corpus(src)
    out, merged = str(tmp_path / "out"), str(tmp_path / "merged")
    spec = transcript_spec()
    run_validation(src, out, spec, files_per_partition=1)
    n_merged = merge_violations(out, ["conv_a"], None, merged)
    if corpus != "hot":
        # phase 2 materializes its phase-1 summaries; no log write does
        assert calls == []

    recs = Manifest(out).load()
    parts = sorted(p for p in recs if p.startswith("part_"))
    hot = sorted({c for p in parts for c in recs[p].extra["hot_convs"]})
    assert hot == (["conv_big"] if corpus == "hot" else [])
    stage1 = []
    for p in parts:
        log = _read_log(recs[p].output_path)
        n_err = pc.sum(pc.equal(log["status"], "error")).as_py() or 0
        assert (recs[p].n_violations, recs[p].n_valid) == (n_err, log.num_rows - n_err)
        assert recs[p].extra["log_bytes"] == sum(map(os.path.getsize, _files(recs[p].output_path)))
        stage1.append(log)
    assert _rows(pa.concat_tables(stage1)) == _rows(ValidateBatch(spec, run_ts=DEFAULT_RUN_TS, log_valid=True)(tbl))

    conv = recs["conversation"]
    conv_log = _read_log(conv.output_path)
    assert conv.n_violations == conv_log.num_rows
    assert conv.extra["log_bytes"] == sum(map(os.path.getsize, _files(conv.output_path)))
    assert _rows(conv_log) == _conversation_reference(tbl, spec)
    assert (conv_log.num_rows == 0) == (corpus == "clean")

    want = Counter({
        row: n for row, n in (_rows(pa.concat_tables(stage1)) + _rows(conv_log)).items()
        if row[0] is None or row[0].rsplit(":", 1)[0] != "conv_a"
    })
    got = _read_log(merged)
    assert n_merged == got.num_rows == sum(want.values())
    assert _rows(got) == want


def _log_writes(tree: ast.AST):
    """(line, passes LOG_PARQUET) of each `write_table(` / `write_parquet(`."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) in ("write_table", "write_parquet"):
            shared = any(kw.arg is None and getattr(kw.value, "id", None) == "LOG_PARQUET" for kw in n.keywords)
            yield n.lineno, shared


def test_every_log_write_passes_the_shared_options():
    """Every `pq.write_table(` and `.write_parquet(` in
    `validate_pipeline.py` (all of them write the violation log) passes
    `**LOG_PARQUET`, so no log file goes back to the default encodings."""
    path = pathlib.Path(events_validator_ray.__file__).parent / "pipelines" / "validate_pipeline.py"
    writes = list(_log_writes(ast.parse(path.read_text())))
    assert len(writes) == 3
    assert [line for line, shared in writes if not shared] == []


@pytest.mark.parametrize(
    "src, shared",
    [
        ("pq.write_table(log, p, **LOG_PARQUET)", True),
        ("ds.write_parquet(tmp, min_rows_per_file=1, **LOG_PARQUET)", True),
        ("ds.write_parquet(tmp)", False),
        ("pq.write_table(log, p, compression='zstd')", False),
        ("ds.write_parquet(tmp, **OTHER)", False),
    ],
)
def test_log_write_guard_reads_the_call(src, shared):
    assert [s for _, s in _log_writes(ast.parse(src))] == [shared]
