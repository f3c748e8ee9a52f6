"""The flagship end-to-end pipeline: read -> vectorized scalar validation ->
conversation checks -> sketch profile -> partitioned violations parquet +
checkpoint manifest.

Stage layout (all Ray-Data-native; raw Ray tasks are never needed):

1. scalar stage — per input-file partition, ONE map-only pass:
   ``read_parquet(files)`` with one read task per file (the log, the hot
   candidates and the sketch partials are per file; ``run_profile`` reads
   the same way) -> one stateless ``map_batches(ScalarPass)`` that
   validates each block, writes its log file into the partition's atomic tmp
   dir and returns counts, the block's hot-conversation candidates and
   sketch partials, folded on the driver as they stream in; then the
   rename, the sketch sidecar and one manifest record (its ``extra`` keeps
   the candidates). No materialize, count or exchange barrier; resumable
   per partition.
2. conversation stage — the keyed exchange of ``stages/conversation.py``
   over the PROJECTED key columns (conv_id, turn_idx, ts, role — never
   `text`), with the hot set stage 1 proposed, so its input executes once;
   its input is read as one block per session CPU
   (``sources/readers.py:read_parquet_per_cpu``), as the read-back of the
   log is; written once, its own manifest record (resume skips it
   wholesale).
3. profile stage — mergeable sketches (stats/HLL/t-digest/cat-hist), partials
   merged to a JSON profile in the manifest directory; drift scored against a
   stored reference profile when provided.

Scale: partition granularity (`files_per_partition`) controls the resume
quantum; within a partition Ray's streaming executor pipelines
read->validate->write with backpressure. At 10^12 turns, one partition ≈ one
cluster-filling wave of blocks.
"""

from __future__ import annotations

import datetime as _dt
import glob as _glob
import hashlib as _hashlib
import json
import os
import pickle
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.readers import read_parquet_per_cpu, read_violations_dir
from ..spec import Spec
from ..stages import conversation
from ..stages.fold import PayloadFold
from ..stages.sketches import SketchPartials, drift_report, frequent_values, profile_table
from ..stages.sketches import sketch_dataset
from ..stages.validate import DEFAULT_RUN_TS, ValidateBatch
from ..state.manifest import (
    Manifest,
    PartitionRecord,
    atomic_output_dir,
    fingerprint_files,
)

DEFAULT_SKETCH_PLAN = {
    "conv_id": ("stats", "hll"),
    "turn_idx": ("stats", "tdigest"),
    "role": ("stats", "cathist"),
    "tool": ("cathist",),
    "ts": ("stats",),
}


class ScalarPass:
    """Stage 1's map-only UDF: validate a block, write its log as one parquet
    file into ``log_dir``, and return one row of (file, n_rows, n_err,
    n_valid, hot) — file null for an empty log, hot the conv_ids that hold
    at least ``conversation.CHUNK`` of the block's rows — followed by the
    block's sketch partial rows (``SketchPartials``)."""

    def __init__(self, spec: Spec, run_ts, log_valid: bool, plan: dict, log_dir: str):
        self.validate = ValidateBatch(spec, run_ts=run_ts, log_valid=log_valid)
        self.sketch = SketchPartials(plan)
        self.log_dir = log_dir
        self.chunk = conversation.CHUNK  # read on the driver; travels with the UDF

    def __call__(self, block: pa.Table) -> pa.Table:
        log = self.validate(block)
        name = None
        if log.num_rows:
            name = f"{uuid.uuid4().hex}.parquet"
            pq.write_table(log, os.path.join(self.log_dir, name))
        n_err = pc.sum(pc.equal(log["status"], "error")).as_py() or 0
        hot = frequent_values(block["conv_id"], self.chunk)
        counts = pa.table({"file": pa.array([name], pa.string()), "n_rows": [block.num_rows],
                           "n_err": [n_err], "n_valid": [log.num_rows - n_err],
                           "hot": pa.ListArray.from_arrays([0, len(hot)], hot)})
        return pa.concat_tables([counts, self.sketch(block)], promote_options="default")


def _plan(sketch_plan: dict | None) -> tuple[dict, str]:
    plan = {c: tuple(k) for c, k in (sketch_plan or DEFAULT_SKETCH_PLAN).items()}
    return plan, _hashlib.sha256(repr(sorted(plan.items())).encode()).hexdigest()[:8]


def _partitions(files: list[str], files_per_partition: int) -> list[tuple[str, list[str]]]:
    files = sorted(files)
    out = []
    for i in range(0, len(files), files_per_partition):
        out.append((f"part_{i // files_per_partition:05d}", files[i : i + files_per_partition]))
    return out


def run_validation(
    input_path: str,
    out_dir: str,
    spec: Spec,
    run_ts: _dt.datetime = DEFAULT_RUN_TS,
    files_per_partition: int = 8,
    log_valid: bool = True,
    sketch_plan: dict | None = None,
    reference_profile: dict[str, dict[str, int]] | None = None,
    resume: bool = True,
    only_convs=None,
) -> dict:
    """Run the full validation pipeline; returns a summary dict. Safe to
    re-run after a kill: completed partitions (matching fingerprint + spec
    hash) are skipped.

    ``only_convs`` (set/list of conv_id strings) restricts BOTH planes to
    those conversations — the incremental-revalidation path downstream of
    ``changed_conversations`` / ``runner --diff``. The id set is part of
    the resume identity (folded into the spec hash), so a re-run with a
    different set never serves stale partitions. The set is broadcast once
    (ray.put) and applied as a map-side Arrow ``is_in`` filter — fine to
    ~10^7 ids on the driver; beyond that, pre-filter the corpus with
    ``stages.joins.bloom_semi_join`` instead."""
    import ray.data as rd

    files = sorted(_glob.glob(os.path.join(input_path, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_path}")
    manifest = Manifest(out_dir)
    spec_hash = spec.spec_hash()
    summary: dict = {"partitions": [], "skipped": 0, "executed": 0}

    # sweep half-written temp dirs/files left by a killed attempt — they must
    # never be readable as output (atomic rename means a partition is either
    # fully present or absent; this removes the "absent" side's debris)
    import shutil as _shutil

    for stale in _glob.glob(os.path.join(out_dir, "violations", ".tmp_*")):
        _shutil.rmtree(stale, ignore_errors=True)
    for stale in _glob.glob(os.path.join(out_dir, "profile_parts", "*.tmp")):
        try:
            os.remove(stale)
        except OSError:
            pass

    # ---- stage 1: scalar validation + sketch partials, per partition
    # the sketch PLAN is part of the resume identity: fold its hash into the
    # spec hash used by every stage-1/profile record, or a re-run with a
    # different plan would silently serve the OLD plan's sidecars/profile
    plan, plan_hash = _plan(sketch_plan)
    spec_hash = f"{spec_hash}+plan:{plan_hash}"
    conv_filter = None
    if only_convs is not None:
        from ..stages.joins import arrow_semi_filter

        conv_list = sorted({c for c in only_convs if c is not None})
        convs_hash = _hashlib.sha256("\x1f".join(conv_list).encode()).hexdigest()[:8]
        # the id set is part of the resume identity, like the sketch plan
        spec_hash = f"{spec_hash}+convs:{convs_hash}"

        import ray as _ray

        # broadcast ONCE — stage 1 filters every partition against this set
        convs_ref = _ray.put(pa.array(conv_list, type=pa.string()))

        # keep_nulls: NULL-conv_id rows are invisible to the snapshot diff
        # (no key to match), so the incremental pass must always revalidate
        # them — dropping them would silently skip their violations
        def conv_filter(ds):
            return arrow_semi_filter(ds, convs_ref, on="conv_id", keep_nulls=True)
    parts_dir = os.path.join(out_dir, "profile_parts")
    os.makedirs(parts_dir, exist_ok=True)
    parts = _partitions(files, files_per_partition)
    # (Σ rows, hot set) for the conversation stage, as detect_skew returns it
    total_rows, hot = 0, set()
    # reconcile ORPHANED final outputs: a re-run with fewer inputs or a
    # different files_per_partition leaves stale violations/part_* dirs that
    # the read-back plane would double-count — remove any final dir not in
    # the CURRENT partition set (tmp debris was swept above)
    current_ids = {pid for pid, _ in parts}
    for d in _glob.glob(os.path.join(out_dir, "violations", "part_*")):
        if os.path.basename(d) not in current_ids:
            _shutil.rmtree(d, ignore_errors=True)
    for p in _glob.glob(os.path.join(parts_dir, "part_*.pkl")):
        if os.path.basename(p).removesuffix(".pkl") not in current_ids:
            try:
                os.remove(p)
            except OSError:
                pass
    for part_id, part_files in parts:
        fp = fingerprint_files(part_files)
        done = manifest.completed(part_id, fp, spec_hash) if resume else None
        sidecar = os.path.join(parts_dir, f"{part_id}.pkl")
        # a record without hot candidates predates them: re-run it
        if done and os.path.exists(sidecar) and "hot_convs" in done.extra:
            total_rows += done.n_rows
            hot.update(done.extra["hot_convs"])
            summary["skipped"] += 1
            summary["partitions"].append(done.partition_id)
            continue
        t0 = time.time()
        final_dir = os.path.join(out_dir, "violations", part_id)
        # one read per partition; one task per file and pyarrow's batching (a
        # block per row group, at most 2^17 rows) rather than Ray's 10k-row
        # reader batches, so the log is about one file per input file
        src = rd.read_parquet(part_files, override_num_blocks=len(part_files), batch_size=None)
        if conv_filter is not None:
            src = conv_filter(src)
        fold, named, part_hot = PayloadFold(("col", "kind")), set(), set()
        n_rows = n_err = n_valid = 0
        with atomic_output_dir(final_dir) as tmp:
            summaries = src.map_batches(
                ScalarPass(spec, run_ts, log_valid, plan, tmp),
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
            for rows in summaries.iter_batches(batch_size=None, batch_format="pyarrow"):
                fold.add(rows)
                named.update(f for f in rows["file"].to_pylist() if f is not None)
                n_rows += pc.sum(rows["n_rows"]).as_py() or 0
                n_err += pc.sum(rows["n_err"]).as_py() or 0
                n_valid += pc.sum(rows["n_valid"]).as_py() or 0
                part_hot.update(pc.list_flatten(rows["hot"]).to_pylist())
            # drop what no summary names: a retried task's leftover file
            for f in os.listdir(tmp):
                if f not in named:
                    os.remove(os.path.join(tmp, f))
        # mergeable sketch partials for THIS partition (persisted so a resumed
        # run merges without recomputing — SURVEY.md §7.4 item 4)
        with open(sidecar + ".tmp", "wb") as f:
            pickle.dump(fold.result(), f)
        os.replace(sidecar + ".tmp", sidecar)
        manifest.append(
            PartitionRecord(
                partition_id=part_id,
                input_files=part_files,
                fingerprint=fp,
                spec_hash=spec_hash,
                status="done",
                n_rows=n_rows,
                n_violations=n_err,
                n_valid=n_valid,
                output_path=final_dir,
                wall_s=round(time.time() - t0, 3),
                extra={"profile_part": sidecar, "hot_convs": sorted(part_hot)},
            )
        )
        total_rows += n_rows
        hot |= part_hot
        summary["executed"] += 1
        summary["partitions"].append(part_id)

    # ---- stage 2: conversation checks (one keyed exchange over all inputs)
    conv_fp = fingerprint_files(files)
    conv_done = manifest.completed("conversation", conv_fp, spec_hash) if resume else None
    if conv_done:
        summary["skipped"] += 1
    else:
        t0 = time.time()
        final_dir = os.path.join(out_dir, "violations", "conversation")
        # one block per CPU: the exchange re-blocks by bucket anyway, so a
        # block per MiB would only add scheduling to every stage before it
        ds = read_parquet_per_cpu(files)
        if conv_filter is not None:
            ds = conv_filter(ds)
        # small (violations only); count without re-reading
        conv = conversation.conversation_violations(
            ds, spec, run_ts, chunk=conversation.CHUNK, skew=(total_rows, sorted(hot))
        ).materialize()
        with atomic_output_dir(final_dir) as tmp:
            # the bucketed exchange leaves one small block per task; bundle
            # them so the log is not a file per bucket
            conv.write_parquet(tmp, min_rows_per_file=1_000_000)
        n_err = conv.count()
        manifest.append(
            PartitionRecord(
                partition_id="conversation",
                input_files=files,
                fingerprint=conv_fp,
                spec_hash=spec_hash,
                status="done",
                n_violations=n_err,
                output_path=final_dir,
                wall_s=round(time.time() - t0, 3),
            )
        )
        summary["executed"] += 1

    # ---- stage 3: profile = merge of the per-partition sketch sidecars
    prof_path = _merge_profile_stage(
        manifest,
        files,
        files_per_partition,
        parts_dir,
        out_dir,
        conv_fp,
        spec_hash,
        reference_profile,
        summary,
        resume,
    )

    summary["violations_dir"] = os.path.join(out_dir, "violations")
    summary["profile_path"] = prof_path
    summary["manifest_path"] = manifest.path
    return summary


def _merge_profile_stage(
    manifest: Manifest,
    files: list[str],
    files_per_partition: int,
    parts_dir: str,
    out_dir: str,
    fp: str,
    spec_hash: str,
    reference_profile,
    summary: dict,
    resume: bool,
) -> str:
    """Merge the per-partition sketch sidecars into profile.json (+ drift vs
    a reference) under one manifest record — shared by the full pipeline and
    the profile-only pass."""
    prof_done = manifest.completed("profile", fp, spec_hash) if resume else None
    prof_path = os.path.join(out_dir, "profile.json")
    if prof_done:
        summary["skipped"] += 1
        return prof_path
    t0 = time.time()
    sketches: dict = {}
    for part_id, _pf in _partitions(files, files_per_partition):
        sidecar = os.path.join(parts_dir, f"{part_id}.pkl")
        with open(sidecar, "rb") as f:
            part_sketches = pickle.load(f)
        for key, sk in part_sketches.items():
            if key in sketches:
                sketches[key].merge(sk)
            else:
                sketches[key] = sk
    prof = profile_table(sketches)
    payload = {"profile": prof.to_dict(orient="records")}
    payload["histograms"] = {
        c: sk.counts for (c, kind), sk in sketches.items() if kind == "cathist"
    }
    if reference_profile:
        dr = drift_report(sketches, reference_profile)
        payload["drift"] = dr.to_dict(orient="records")
    with open(prof_path + ".tmp", "w") as f:
        json.dump(payload, f, default=str)
    os.replace(prof_path + ".tmp", prof_path)
    manifest.append(
        PartitionRecord(
            partition_id="profile",
            input_files=files,
            fingerprint=fp,
            spec_hash=spec_hash,
            status="done",
            output_path=prof_path,
            wall_s=round(time.time() - t0, 3),
        )
    )
    summary["executed"] += 1
    return prof_path


def run_profile(
    input_path: str,
    out_dir: str,
    files_per_partition: int = 8,
    sketch_plan: dict | None = None,
    reference_profile: dict[str, dict[str, int]] | None = None,
    resume: bool = True,
) -> dict:
    """Profile-ONLY pass: per-partition mergeable sketch sidecars → merged
    profile.json (+ drift vs a reference), with manifest resume — no
    validation, no shuffle, one map-only read of the corpus.

    This is the cheap way to refresh the FULL-corpus drift profile after an
    incremental revalidation (`--only-convs` runs profile only the
    revalidated conversations; sketches merge but cannot subtract, so an
    exact full profile needs a pass over the corpus — this one costs a
    single projected scan). For corpora updated IN PLACE (new files added,
    few rewritten), the per-partition fingerprints make the refresh cost
    ∝ changed partitions: unchanged sidecars are reused by resume."""
    import ray.data as rd

    files = sorted(_glob.glob(os.path.join(input_path, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_path}")
    manifest = Manifest(out_dir)
    plan, plan_hash = _plan(sketch_plan)
    spec_hash = f"profile-only+plan:{plan_hash}"
    summary: dict = {"partitions": [], "skipped": 0, "executed": 0}

    parts_dir = os.path.join(out_dir, "profile_parts")
    os.makedirs(parts_dir, exist_ok=True)
    for stale in _glob.glob(os.path.join(parts_dir, "*.tmp")):
        try:
            os.remove(stale)
        except OSError:
            pass
    for part_id, part_files in _partitions(files, files_per_partition):
        fp = fingerprint_files(part_files)
        done = manifest.completed(part_id, fp, spec_hash) if resume else None
        sidecar = os.path.join(parts_dir, f"{part_id}.pkl")
        if done and os.path.exists(sidecar):
            summary["skipped"] += 1
            summary["partitions"].append(part_id)
            continue
        t0 = time.time()
        # projection to the planned columns happens inside sketch_dataset;
        # map-only partials folded on the driver, nothing shuffles. Read as
        # stage 1 does: one block per row group, so one partial per file
        src = rd.read_parquet(part_files, override_num_blocks=len(part_files), batch_size=None)
        part_sketches = sketch_dataset(src, plan)
        with open(sidecar + ".tmp", "wb") as f:
            pickle.dump(part_sketches, f)
        os.replace(sidecar + ".tmp", sidecar)
        manifest.append(
            PartitionRecord(
                partition_id=part_id,
                input_files=part_files,
                fingerprint=fp,
                spec_hash=spec_hash,
                status="done",
                output_path=sidecar,
                wall_s=round(time.time() - t0, 3),
            )
        )
        summary["executed"] += 1
        summary["partitions"].append(part_id)

    prof_path = _merge_profile_stage(
        manifest,
        files,
        files_per_partition,
        parts_dir,
        out_dir,
        fingerprint_files(files),
        spec_hash,
        reference_profile,
        summary,
        resume,
    )
    summary["profile_path"] = prof_path
    summary["manifest_path"] = manifest.path
    return summary


def read_violations(out_dir: str):
    # delegate to the documented S4 reader (sources/readers.py) so the
    # read-back plane has ONE implementation (date pushdown included)
    return read_violations_dir(os.path.join(out_dir, "violations"))


def read_complete_log(run_dir: str):
    """The run's COMPLETE violation log: ``violations_merged`` when the run
    was incremental (its ``violations/`` holds only the revalidated
    conversations), else ``violations/``. This is what the NEXT incremental
    round must use as its merge base — reading the partial ``violations/``
    of a prior incremental run would silently drop every conversation that
    round left untouched."""
    merged = os.path.join(run_dir, "violations_merged")
    if os.path.isdir(merged):
        return read_parquet_per_cpu(merged)
    return read_violations(run_dir)


def merge_violations(
    base_dir: str,
    stale_convs,
    new_dir: str | None,
    out_path: str,
    drop_null_rows: bool | None = None,
) -> int:
    """Advance the violation log across an incremental revalidation: the
    merged view = the BASE run's rows for conversations the snapshot diff
    did NOT touch (status 'same'), plus ALL of the NEW incremental run's
    rows. This is the artifact the loop exists to maintain — equal, row for
    row, to a full revalidation of the new snapshot (the gold property
    tests/test_incremental_loop.py asserts), and the loop ITERATES: the base
    may itself be an incremental run (its merged log is read, via
    ``read_complete_log``).

    ``stale_convs`` = conv_ids with diff status added/changed/removed: their
    base rows are dropped (removed convs are gone; added/changed convs were
    re-validated into ``new_dir``). When a new run executed (``new_dir`` not
    None), base rows with a NULL event_id are also dropped — event_id is
    NULL iff conv_id was NULL (functions/kernels.py:make_event_id), and
    NULL-conv rows are revalidated unconditionally by ``only_convs`` and
    re-emitted.

    Scale shape: base rows stream through one broadcast anti-filter on the
    event_id conv prefix (the stale set is diff-sized — conversations, not
    turns); the count comes from the in-flight materialized blocks, never a
    re-read of the sink (object-store resident, spills if huge)."""
    from ..stages.joins import arrow_semi_filter
    from ..state.manifest import atomic_output_dir

    if drop_null_rows is None:
        # default: a new run revalidated (and re-emitted) the NULL-conv rows;
        # the runner's short-circuit path overrides this when the diff's
        # NULL_CONV_MARKER says the null rows were REMOVED from the snapshot
        drop_null_rows = new_dir is not None
    stale = sorted({c for c in stale_convs if c is not None})

    def conv_prefix(t):
        import pyarrow.compute as _pc

        return _pc.replace_substring_regex(
            t["event_id"], pattern=":[^:]*$", replacement=""
        )

    merged = arrow_semi_filter(
        read_complete_log(base_dir),
        stale,
        key_of=conv_prefix,
        anti=True,
        # NULL event_id == NULL conv_id (functions/kernels.py:make_event_id)
        keep_nulls=not drop_null_rows,
    )
    if new_dir is not None:
        merged = merged.union(read_violations(new_dir))
    merged = merged.materialize()
    n = merged.count()
    with atomic_output_dir(out_path) as tmp:
        merged.write_parquet(tmp)
    return n
