"""Checkpoint/resume: a second run skips completed partitions; a damaged
partition is recomputed; final output is identical."""

import json
import os
import shutil

import pytest

from events_validator_ray.pipelines.validate_pipeline import read_violations, run_validation
from events_validator_ray.sources.transcripts import ensure_transcripts
from events_validator_ray.spec import transcript_spec


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


def _violation_set(out_dir):
    rows = read_violations(out_dir).filter(expr="status == 'error'").take_all()
    return sorted(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"]) for r in rows
    )


def test_run_resume_and_recompute(ray_session, out_dir):
    tdir = ensure_transcripts(0.001)
    spec = transcript_spec()

    s1 = run_validation(tdir, out_dir, spec, files_per_partition=1)
    assert s1["executed"] >= 3 and s1["skipped"] == 0
    first = _violation_set(out_dir)
    assert len(first) > 100

    # full resume: everything skipped
    s2 = run_validation(tdir, out_dir, spec, files_per_partition=1)
    assert s2["executed"] == 0
    assert s2["skipped"] == s1["executed"]
    assert _violation_set(out_dir) == first

    # damage one scalar partition -> only it is recomputed
    victim = os.path.join(out_dir, "violations", "part_00000")
    shutil.rmtree(victim)
    s3 = run_validation(tdir, out_dir, spec, files_per_partition=1)
    assert s3["executed"] == 1
    assert _violation_set(out_dir) == first

    # manifest carries lineage + metrics
    with open(os.path.join(out_dir, "manifest.jsonl")) as f:
        recs = [json.loads(l) for l in f if l.strip()]
    done = {r["partition_id"]: r for r in recs if r["status"] == "done"}
    assert "conversation" in done and "profile" in done
    part = done["part_00000"]
    assert part["n_rows"] > 0 and part["fingerprint"] and part["spec_hash"]
    assert os.path.exists(os.path.join(out_dir, "profile.json"))


def test_spec_change_invalidates(ray_session, out_dir):
    from events_validator_ray.spec import load_spec, TRANSCRIPT_SPEC_JSON

    tdir = ensure_transcripts(0.001)
    run_validation(tdir, out_dir, transcript_spec(), files_per_partition=2)
    changed = json.loads(json.dumps(TRANSCRIPT_SPEC_JSON))
    changed["text"]["optional"] = True
    s = run_validation(tdir, out_dir, load_spec(changed), files_per_partition=2)
    assert s["executed"] > 0  # new spec hash -> partitions recomputed


def test_profile_merged_from_partition_sidecars(ray_session, tmp_path):
    """The profile equals the merge of per-partition sketch partials, and
    equals a whole-corpus computation (mergeability across the resume
    quantum)."""
    import ray.data as rd

    from events_validator_ray.stages.sketches import sketch_dataset

    tdir = ensure_transcripts(0.001)
    out = str(tmp_path / "o")
    run_validation(tdir, out, transcript_spec(), files_per_partition=1)
    with open(os.path.join(out, "profile.json")) as f:
        prof = json.load(f)
    by_col = {p["column"]: p for p in prof["profile"]}
    whole = sketch_dataset(
        rd.read_parquet(tdir), {"conv_id": ("stats", "hll"), "turn_idx": ("tdigest",)}
    )
    st = whole[("conv_id", "stats")]
    assert by_col["conv_id"]["count"] == st.count
    assert by_col["conv_id"]["nulls"] == st.nulls
    assert by_col["conv_id"]["approx_distinct"] == round(whole[("conv_id", "hll")].estimate())
    # sidecars exist, one per partition
    parts = os.listdir(os.path.join(out, "profile_parts"))
    assert len([p for p in parts if p.endswith(".pkl")]) >= 1


def test_run_profile_one_partial_per_file(ray_session, tmp_path, monkeypatch):
    """run_profile reads one block per file, as stage 1 does: two 10,009-row
    files (above Ray's 10k-row reader batches) send the payload fold one partial
    per file and (column, kind), and the profile.json it writes equals the
    one run_validation writes for the same files."""
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from events_validator_ray.pipelines.validate_pipeline import run_profile
    from events_validator_ray.stages import fold

    src = tmp_path / "in"
    src.mkdir()
    rng = np.random.default_rng(7)
    n = 10_009
    for i in range(2):
        ts = 1_704_067_200_000_000 + rng.integers(0, 10**12, n)
        tbl = pa.table(
            {
                "conv_id": [f"conv_{c:08d}" for c in rng.integers(0, 500, n)],
                "turn_idx": pa.array(rng.integers(0, 30, n), pa.int32()),
                "role": rng.choice(["user", "assistant", "tool"], n),
                "text": ["x"] * n,
                "tool": rng.choice(["search", "calc"], n),
                "ts": pa.array(ts, pa.timestamp("us")),
            }
        )
        pq.write_table(tbl, src / f"t_{i}.parquet")
    partials = Counter()
    real_add = fold.PayloadFold.add

    def add(self, rows):
        for col, kind, payload in zip(*(rows[c].to_pylist() for c in ("col", "kind", "payload"))):
            if payload is not None:
                partials[(col, kind)] += 1
        real_add(self, rows)

    monkeypatch.setattr(fold.PayloadFold, "add", add)
    run_profile(str(src), str(tmp_path / "prof"))
    assert len(partials) == 8 and set(partials.values()) == {2}
    partials.clear()
    run_validation(str(src), str(tmp_path / "val"), transcript_spec())
    assert len(partials) == 8 and set(partials.values()) == {2}
    with open(tmp_path / "prof" / "profile.json") as a, open(tmp_path / "val" / "profile.json") as b:
        assert a.read() == b.read()


def test_kill_and_resume_mid_run(tmp_path):
    """North-rule resume evidence: SIGKILL the runner once >=2 partitions have
    committed, resume, and verify completed partitions are skipped and the
    final violations equal a clean run's."""
    import signal
    import subprocess
    import sys
    import time

    from events_validator_ray.sources.transcripts import ensure_transcripts

    tdir = ensure_transcripts(0.1)  # 12 shards -> 12 scalar partitions
    out = str(tmp_path / "killed")
    cmd = [
        sys.executable, "-m", "events_validator_ray.runner",
        "--input", tdir, "--out", out,
        "--files-per-partition", "1", "--num-cpus", "4",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    manifest = os.path.join(out, "manifest.jsonl")
    deadline = time.time() + 240
    done = 0
    while time.time() < deadline:
        if os.path.exists(manifest):
            with open(manifest) as f:
                done = sum(1 for l in f if '"status": "done"' in l)
            if done >= 2:
                break
        if proc.poll() is not None:
            break  # finished before we could kill (fast host) — still valid
        time.sleep(0.5)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    if done < 2:
        pytest.skip("host too slow: runner committed <2 partitions in 240s")

    # resume in a fresh process
    res = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600
    )
    assert res.returncode == 0, res.stderr[-2000:]
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    interrupted = proc.returncode != 0
    if interrupted:
        assert summary["skipped"] >= 2  # committed partitions not revalidated

    # clean-run equivalence
    clean = str(tmp_path / "clean")
    res2 = subprocess.run(
        [
            sys.executable, "-m", "events_validator_ray.runner",
            "--input", tdir, "--out", clean,
            "--files-per-partition", "1", "--num-cpus", "4",
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert res2.returncode == 0, res2.stderr[-2000:]
    import duckdb

    con = duckdb.connect()
    h1 = con.sql(
        f"SELECT COUNT(*), COUNT(DISTINCT event_id || field || error_type || COALESCE(actual,'')) "
        f"FROM read_parquet('{out}/violations/*/*.parquet') WHERE status='error'"
    ).fetchone()
    h2 = con.sql(
        f"SELECT COUNT(*), COUNT(DISTINCT event_id || field || error_type || COALESCE(actual,'')) "
        f"FROM read_parquet('{clean}/violations/*/*.parquet') WHERE status='error'"
    ).fetchone()
    assert h1 == h2


def test_single_read_per_partition(ray_session, tmp_path, monkeypatch):
    """Stage 1 issues ONE read_parquet for every pending partition (counts,
    hot candidates and sketch partials come from its one map-only pass over
    the blocks), plus one for the conversation stage."""
    import glob

    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import run_validation
    from events_validator_ray.sources.transcripts import ensure_transcripts
    from events_validator_ray.spec import transcript_spec

    tdir = ensure_transcripts(0.002, n_files=4)
    calls = []
    real = rd.read_parquet

    def counting(*args, **kwargs):
        calls.append(args[0] if args else kwargs.get("paths"))
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", counting)
    summary = run_validation(
        tdir, str(tmp_path / "out"), transcript_spec(), files_per_partition=2
    )
    assert len(summary["partitions"]) >= 2
    assert len(calls) == 2  # one stage-1 read + one conversation pass
    assert calls[0] == sorted(glob.glob(os.path.join(tdir, "*.parquet")))


def test_only_convs_incremental_revalidation(ray_session, out_dir):
    """only_convs restricts both planes to the given conversations, folds
    the id set into the resume identity (same set resumes, different set
    re-executes), and never reports violations from other conversations."""
    tdir = ensure_transcripts(0.001)
    spec = transcript_spec()

    full = run_validation(tdir, str(out_dir) + "_full", spec, files_per_partition=2)
    assert full["executed"] > 0
    all_viols = _violation_set(str(out_dir) + "_full")
    convs_with_viols = sorted({e.split(":")[0] for e, *_ in all_viols})
    assert len(convs_with_viols) >= 4
    subset = set(convs_with_viols[:2])

    s1 = run_validation(
        tdir, out_dir, spec, files_per_partition=2, only_convs=subset
    )
    assert s1["executed"] > 0
    sub_viols = _violation_set(out_dir)
    assert {e.split(":")[0] for e, *_ in sub_viols} <= subset
    # the filtered run reproduces exactly the full run's rows for those convs
    assert sub_viols == [v for v in all_viols if v[0].split(":")[0] in subset]

    # same set -> full resume
    s2 = run_validation(
        tdir, out_dir, spec, files_per_partition=2, only_convs=subset
    )
    assert s2["executed"] == 0 and s2["skipped"] == s1["executed"]

    # different set -> nothing is served from the old identity
    s3 = run_validation(
        tdir, out_dir, spec, files_per_partition=2,
        only_convs=set(convs_with_viols[:3]),
    )
    assert s3["executed"] == s1["executed"]


def test_stray_tmp_file_never_reaches_log(ray_session, tmp_path, monkeypatch):
    """A parquet file in a partition's tmp dir that no block summary names
    — what a retried stage-1 task leaves behind — is deleted before the
    rename: the final violations/part_* hold only the named files, and the
    counts and rows equal a clean run's."""
    import contextlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from events_validator_ray.pipelines import validate_pipeline as vp
    from events_validator_ray.stages.validate import VIOLATION_SCHEMA

    tdir = ensure_transcripts(0.002, n_files=4)
    spec = transcript_spec()
    clean = str(tmp_path / "clean")
    run_validation(tdir, clean, spec, files_per_partition=2)

    stray = pa.table(
        {
            f.name: pa.array(
                ["stray:0" if f.name == "event_id" else "error" if f.name == "status" else None],
                f.type,
            )
            for f in VIOLATION_SCHEMA
        }
    )
    real = vp.atomic_output_dir
    planted = []

    @contextlib.contextmanager
    def planting(final_dir):
        with real(final_dir) as tmp:
            if os.path.basename(final_dir).startswith("part_"):
                path = os.path.join(tmp, "0" * 32 + ".parquet")
                pq.write_table(stray, path)
                planted.append(path)
            yield tmp

    monkeypatch.setattr(vp, "atomic_output_dir", planting)
    out = str(tmp_path / "out")
    summary = run_validation(tdir, out, spec, files_per_partition=2)
    assert len(planted) == len(summary["partitions"]) >= 2
    for part_id in summary["partitions"]:
        assert "0" * 32 + ".parquet" not in os.listdir(os.path.join(out, "violations", part_id))
    assert _violation_set(out) == _violation_set(clean)

    def counts(d):
        with open(os.path.join(d, "manifest.jsonl")) as f:
            recs = [json.loads(l) for l in f if l.strip()]
        return sorted(
            (r["partition_id"], r["n_rows"], r["n_violations"], r["n_valid"]) for r in recs
        )

    assert counts(out) == counts(clean)


def test_stage1_has_no_barriers(ray_session, tmp_path, monkeypatch):
    """Stage 1 is one streaming pass per partition: nothing before the last
    partition's manifest record calls Dataset.materialize, .count or
    .repartition (the conversation stage after it may)."""
    import ray.data as rd

    from events_validator_ray.state.manifest import Manifest

    events = []
    for name in ("materialize", "count", "repartition"):
        real = getattr(rd.Dataset, name)

        def spy(self, *a, _real=real, _name=name, **k):
            events.append(("call", _name))
            return _real(self, *a, **k)

        monkeypatch.setattr(rd.Dataset, name, spy)
    real_append = Manifest.append

    def append(self, rec):
        events.append(("record", rec.partition_id))
        return real_append(self, rec)

    monkeypatch.setattr(Manifest, "append", append)
    tdir = ensure_transcripts(0.002, n_files=4)
    run_validation(tdir, str(tmp_path / "out"), transcript_spec(), files_per_partition=2)
    last = max(i for i, (kind, pid) in enumerate(events) if kind == "record" and pid.startswith("part_"))
    assert sum(1 for kind, pid in events[: last + 1] if kind == "record") >= 2
    assert [e for e in events[:last] if e[0] == "call"] == []


def _disjoint_corpus(path, empty_at=None):
    """sf0.002's rows with a non-NULL conv_id in three files whose
    conversations are disjoint (sorted by conv_id, cut between
    conversations); ``empty_at`` also writes a zero-row file in that place.
    Returns the non-empty files' conv_id sets."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    src = sorted(glob.glob(os.path.join(ensure_transcripts(0.002, n_files=4), "*.parquet")))
    tbl = pa.concat_tables([pq.read_table(f) for f in src])
    tbl = tbl.filter(pc.is_valid(tbl["conv_id"])).sort_by("conv_id")
    keys = tbl["conv_id"].to_pylist()
    convs = sorted(set(keys))
    bounds = [0, keys.index(convs[len(convs) // 3]), keys.index(convs[2 * len(convs) // 3]), len(keys)]
    pieces = [tbl.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    if empty_at is not None:
        pieces.insert(empty_at, tbl.slice(0, 0))
    os.makedirs(path)
    for i, piece in enumerate(pieces):
        pq.write_table(piece, os.path.join(path, f"t_{i}.parquet"))
    return [set(p["conv_id"].to_pylist()) for p in pieces if p.num_rows]


def _records(out_dir):
    with open(os.path.join(out_dir, "manifest.jsonl")) as f:
        recs = [json.loads(l) for l in f if l.strip()]
    return {r["partition_id"]: r for r in recs if r["status"] == "done"}


def _part_counts(out_dir):
    return {
        p: (r["n_rows"], r["n_violations"], r["n_valid"])
        for p, r in sorted(_records(out_dir).items())
        if p.startswith("part_")
    }


def test_zero_row_partition_commits(ray_session, tmp_path):
    """A partition whose one file holds zero rows gets no summary (Ray
    drops empty tables) and still commits: its record counts 0 rows, its
    log dir is empty, and the run's log, other counts and profile.json equal
    the same run without the empty file."""
    _disjoint_corpus(str(tmp_path / "in"), empty_at=1)
    _disjoint_corpus(str(tmp_path / "ref_in"))
    spec = transcript_spec()
    out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
    s = run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1)
    run_validation(str(tmp_path / "ref_in"), ref, spec, files_per_partition=1)
    assert s["partitions"] == [f"part_{i:05d}" for i in range(4)]
    counts = _part_counts(out)
    assert counts.pop("part_00001") == (0, 0, 0)
    assert _records(out)["part_00001"]["extra"]["hot_convs"] == []
    assert os.listdir(os.path.join(out, "violations", "part_00001")) == []
    assert list(counts.values()) == list(_part_counts(ref).values())
    assert _violation_set(out) == _violation_set(ref)
    with open(os.path.join(out, "profile.json")) as a, open(os.path.join(ref, "profile.json")) as b:
        assert a.read() == b.read()


def test_only_convs_that_empty_whole_blocks_commit_every_partition(ray_session, tmp_path):
    """An ``only_convs`` set drawn from one file empties every block of the
    other two after the filter. Rows are counted before the filter, so each
    partition still commits: the first with the full run's counts for it,
    the others with zero counts, and the log holds exactly the full run's
    rows of those conversations."""
    convs = _disjoint_corpus(str(tmp_path / "in"))
    subset = set(sorted(convs[0])[:5])
    spec = transcript_spec()
    full, out = str(tmp_path / "full"), str(tmp_path / "out")
    run_validation(str(tmp_path / "in"), full, spec, files_per_partition=1)
    s = run_validation(str(tmp_path / "in"), out, spec, files_per_partition=1, only_convs=subset)
    assert s["partitions"] == ["part_00000", "part_00001", "part_00002"]
    assert s["executed"] == 5  # three partitions, conversation, profile
    counts = _part_counts(out)
    assert counts["part_00001"] == counts["part_00002"] == (0, 0, 0)
    got = _violation_set(out)
    assert got and got == [v for v in _violation_set(full) if v[0].split(":")[0] in subset]
    n_rows, n_err, _ = counts["part_00000"]
    assert n_err + _records(out)["conversation"]["n_violations"] == len(got)
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    conv_col = pq.read_table(os.path.join(tmp_path, "in", "t_0.parquet"))["conv_id"]
    assert n_rows == pc.sum(pc.is_in(conv_col, value_set=pa.array(sorted(subset)))).as_py()


def test_stream_short_of_footer_rows_raises(ray_session, tmp_path, monkeypatch):
    """If the stage-1 stream ends before a partition's rows reach its
    parquet footers' count, run_validation raises and never commits that
    partition: no record, no final log dir, no tmp dir left behind."""
    from events_validator_ray.pipelines import validate_pipeline as vp

    tdir = ensure_transcripts(0.002, n_files=4)
    real = vp._footer_rows

    def one_row_more(files, columns=None):
        rows = real(files, columns)
        rows[files[0]] += 1
        return rows

    monkeypatch.setattr(vp, "_footer_rows", one_row_more)
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match=r"part_00000 \(6006 of 6007 rows\)"):
        run_validation(tdir, out, transcript_spec(), files_per_partition=2)
    assert "part_00000" not in _records(out)
    assert sorted(os.listdir(os.path.join(out, "violations"))) == ["part_00001"]


def test_corpus_with_a_path_column_is_refused(ray_session, tmp_path, monkeypatch):
    """Stage 1 reads each row's source file into Ray's ``path`` column, so
    a corpus with a ``path`` column of its own is refused with a
    ValueError before any read is planned or any output written.
    ``run_profile`` reads only the planned columns, so it profiles the
    same corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import run_profile

    _disjoint_corpus(str(tmp_path / "src"))
    os.makedirs(tmp_path / "in")
    for name in sorted(os.listdir(tmp_path / "src")):
        t = pq.read_table(tmp_path / "src" / name)
        pq.write_table(t.append_column("path", pa.array(["x"] * t.num_rows)), tmp_path / "in" / name)
    reads = []
    real = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet", lambda *a, **k: reads.append(a) or real(*a, **k))
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="column named 'path'"):
        run_validation(str(tmp_path / "in"), out, transcript_spec(), files_per_partition=1)
    assert reads == []
    assert not os.path.exists(os.path.join(out, "manifest.jsonl"))
    assert not os.path.exists(os.path.join(out, "violations"))
    run_profile(str(tmp_path / "in"), str(tmp_path / "prof"))
    run_profile(str(tmp_path / "src"), str(tmp_path / "ref"))
    with open(tmp_path / "prof" / "profile.json") as a, open(tmp_path / "ref" / "profile.json") as b:
        assert a.read() == b.read()


def test_partitions_commit_as_their_rows_arrive(ray_session, tmp_path, monkeypatch):
    """In the 4-CPU session, two partitions of two files each stream
    through one stage-1 read, one summary per file: a partition record is
    appended before the stream's last summary (the first partition to
    complete does so before the other), and none before every row of its
    own files is summarized."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from events_validator_ray.state.manifest import Manifest

    events = []
    real_iter = rd.Dataset.iter_batches

    def iter_batches(self, *a, **k):
        for batch in real_iter(self, *a, **k):
            if isinstance(batch, pa.Table) and "n_in" in batch.column_names:
                for part in pc.unique(batch["part"]).to_pylist():
                    mine = batch.filter(pc.equal(batch["part"], part))
                    events.append(("summary", part, pc.sum(mine["n_in"]).as_py() or 0))
            yield batch

    real_append = Manifest.append

    def append(self, rec):
        events.append(("record", rec.partition_id, None))
        return real_append(self, rec)

    monkeypatch.setattr(rd.Dataset, "iter_batches", iter_batches)
    monkeypatch.setattr(Manifest, "append", append)
    tdir = ensure_transcripts(0.002, n_files=4)
    files = sorted(glob.glob(os.path.join(tdir, "*.parquet")))
    run_validation(tdir, str(tmp_path / "out"), transcript_spec(), files_per_partition=2)
    summaries = [i for i, e in enumerate(events) if e[0] == "summary"]
    records = [i for i, e in enumerate(events) if e[0] == "record" and e[1].startswith("part_")]
    assert len(records) == 2 and len(summaries) == 4
    assert records[0] < summaries[-1]
    for i in records:
        part = events[i][1]
        k = int(part.removeprefix("part_"))
        rows = sum(pq.read_metadata(f).num_rows for f in files[2 * k : 2 * k + 2])
        assert sum(n for kind, p, n in events[:i] if kind == "summary" and p == part) == rows
