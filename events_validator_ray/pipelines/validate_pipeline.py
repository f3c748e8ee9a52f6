"""The flagship end-to-end pipeline: read -> vectorized scalar validation ->
conversation checks -> sketch profile -> partitioned violations parquet +
checkpoint manifest.

Stage layout (all Ray-Data-native; raw Ray tasks are never needed):

1. scalar stage — ONE map-only streaming pass over every pending
   input-file partition (``_stream_partitions``): one
   ``read_parquet(files, include_paths=True)`` with one read task per
   session CPU, never more than one per file (the log, the hot candidates
   and the sketch partials stay per file; ``run_profile`` reads the same
   way) -> one stateless ``map_batches(ScalarPass)`` that validates each
   file's rows, writes their log file into the partition's atomic tmp dir
   and returns counts, hot-conversation candidates and sketch partials,
   each row tagged with its partition. The driver folds them per partition
   as they stream in, and commits a partition — the rename, the sketch
   sidecar and one manifest record (its ``extra`` keeps the candidates) —
   as soon as all its input rows, counted against the parquet footers, are
   summarized. No materialize, count or exchange barrier; resumable per
   partition.
2. conversation stage — the keyed exchange of ``stages/conversation.py``
   over the key columns (``conversation.key_columns``: conv_id, turn_idx,
   ts, role — never `text`), projected in the read, with the hot set stage
   1 proposed, so its input executes once; its input is read as one block
   per session CPU (``sources/readers.py:read_parquet_per_cpu``), as the
   read-back of the log is; written in one Ray execution, with its row
   count taken from the written files' footers; its own manifest record
   (resume skips it wholesale).
3. profile stage — mergeable sketches (stats/HLL/t-digest/cat-hist), partials
   merged to a JSON profile in the manifest directory; drift scored against a
   stored reference profile when provided.

Scale: partition granularity (`files_per_partition`) sets the resume
quantum only; stage 1's parallelism is the cluster's, since one read spans
every pending partition and Ray's streaming executor pipelines
read->validate->write across them with backpressure, committing each
partition as its last rows land.
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
from ..stages.exchange import session_cpus
from ..stages.fold import PayloadFold
from ..stages.sketches import SketchPartials, drift_report, frequent_values, profile_table
from ..stages.validate import DEFAULT_RUN_TS, LOG_PARQUET, ValidateBatch
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


class FilePass:
    """Base of stage 1's map-only UDFs. Its blocks come from the one read
    over every pending partition's files, each row with its source file in
    Ray's ``path`` column. A block is split by file (the read yields one
    block per file or per 2^17 rows of it, so there is usually one), and each
    file's rows go to ``summarize(rows, part_id)``. Every summary row is
    tagged with its partition (``part``), after a leading row per file
    whose ``n_in`` counts the file's rows before any filter: the driver
    commits a partition once these counts reach its parquet footers'."""

    def __init__(self, parts: list[tuple[str, list[str]]]):
        self.part_of = {f: part_id for part_id, files in parts for f in files}

    def __call__(self, block: pa.Table) -> pa.Table:
        paths = block["path"]
        block = block.drop_columns(["path"])
        names = pc.unique(paths).to_pylist()
        out = []
        for path in names:
            rows = block if len(names) == 1 else block.filter(pc.equal(paths, path))
            part = self.part_of[path]
            summary = self.summarize(rows, part)
            out.append(pa.table({"part": [part], "n_in": [rows.num_rows]}))
            out.append(summary.append_column("part", pa.array([part] * summary.num_rows, pa.string())))
        return pa.concat_tables(out, promote_options="default")

    def summarize(self, rows: pa.Table, part_id: str) -> pa.Table:
        raise NotImplementedError


class ScalarPass(FilePass):
    """``run_validation``'s stage 1: keep a file's rows of the ``convs``
    conversations (and its NULL-conv_id rows) when a set is given, validate
    them, write their log as one parquet file into the partition's tmp dir
    (``tmp_dirs``), and return one row of (file, n_rows, n_err, n_valid, hot)
    — file null for an empty log, hot the conv_ids that hold at least
    ``conversation.CHUNK`` of the rows — followed by the rows' sketch
    partial rows (``SketchPartials``)."""

    def __init__(self, parts, spec: Spec, run_ts, log_valid: bool, plan: dict,
                 tmp_dirs: dict[str, str], convs: pa.Array | None = None):
        super().__init__(parts)
        self.validate = ValidateBatch(spec, run_ts=run_ts, log_valid=log_valid)
        self.sketch = SketchPartials(plan)
        self.tmp_dirs, self.convs = tmp_dirs, convs
        self.chunk = conversation.CHUNK  # read on the driver; travels with the UDF

    def summarize(self, block: pa.Table, part_id: str) -> pa.Table:
        if self.convs is not None:
            key = block["conv_id"]
            member = pc.fill_null(pc.is_in(key, value_set=self.convs), False)
            block = block.filter(pc.or_(member, pc.is_null(key)))
        log = self.validate(block)
        name = None
        if log.num_rows:
            name = f"{uuid.uuid4().hex}.parquet"
            pq.write_table(log, os.path.join(self.tmp_dirs[part_id], name), **LOG_PARQUET)
        n_err = pc.sum(pc.equal(log["status"], "error")).as_py() or 0
        hot = frequent_values(block["conv_id"], self.chunk)
        counts = pa.table({"file": pa.array([name], pa.string()), "n_rows": [block.num_rows],
                           "n_err": [n_err], "n_valid": [log.num_rows - n_err],
                           "hot": pa.ListArray.from_arrays([0, len(hot)], hot)})
        return pa.concat_tables([counts, self.sketch(block)], promote_options="default")


class ProfilePass(FilePass):
    """``run_profile``'s stage 1: a file's sketch partial rows."""

    def __init__(self, parts, plan: dict):
        super().__init__(parts)
        self.sketch = SketchPartials(plan)

    def summarize(self, rows: pa.Table, part_id: str) -> pa.Table:
        return self.sketch(rows)


class _Stage1Fold:
    """The driver's fold of one partition's ``ScalarPass`` rows."""

    def __init__(self):
        self.sketches = PayloadFold(("col", "kind"))
        self.files, self.hot = set(), set()
        self.n_rows = self.n_err = self.n_valid = 0

    def add(self, rows: pa.Table) -> None:
        self.sketches.add(rows)
        self.files.update(f for f in rows["file"].to_pylist() if f is not None)
        self.n_rows += pc.sum(rows["n_rows"]).as_py() or 0
        self.n_err += pc.sum(rows["n_err"]).as_py() or 0
        self.n_valid += pc.sum(rows["n_valid"]).as_py() or 0
        self.hot.update(pc.list_flatten(rows["hot"]).to_pylist())


def _footer_rows(files: list[str], columns: list[str] | None = None) -> dict[str, int]:
    """Each file's row count, from its parquet footer. Refuses a read whose
    columns include ``path``: Ray adds each row's source file under that
    name, and cannot when the file has such a column of its own."""
    rows = {}
    for f in files:
        meta = pq.read_metadata(f)
        if "path" in (columns if columns is not None else meta.schema.to_arrow_schema().names):
            raise ValueError(
                f"{f} has a column named 'path'; stage 1 reads each row's source "
                "file under that name, so rename the column to validate or profile this corpus"
            )
        rows[f] = meta.num_rows
    return rows


def _stream_partitions(parts: list[tuple[str, list[str]]], rows_in: dict[str, int], block_pass: FilePass,
                       new_fold, columns: list[str] | None = None):
    """Stage 1's one streaming pass over every partition in ``parts``
    ((part_id, files) pairs): one ``read_parquet`` of their files with one
    read task per session CPU but never more tasks than files (a task reads
    whole files, so blocks, log files and partials stay per file, as with
    one task per file), then ``block_pass`` once per block. ``rows_in`` is
    ``_footer_rows`` of the files, taken before the caller opens anything.

    The driver folds each partition's summary rows into its own
    ``new_fold()`` and yields (part_id, fold) as soon as the partition's
    input rows are all summarized; partitions of zero rows come first.
    Raises if the stream ends with a partition whose summarized rows do not
    match its footers."""
    import ray
    import ray.data as rd

    files = list(rows_in)
    want = {part_id: sum(rows_in[f] for f in part_files) for part_id, part_files in parts}
    folds = {part_id: new_fold() for part_id in want}
    for part_id in [p for p, n in want.items() if n == 0]:
        yield part_id, folds.pop(part_id)
    if not folds:
        return
    got = dict.fromkeys(folds, 0)
    # pyarrow's batches (at most 2^17 rows, never from two files) rather
    # than Ray's 10k-row reader batches, so the log is about one file per
    # input file
    src = rd.read_parquet(
        files,
        columns=columns,
        override_num_blocks=min(len(files), session_cpus() if ray.is_initialized() else os.cpu_count() or 1),
        batch_size=None,
        include_paths=True,
    )
    summaries = src.map_batches(block_pass, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    for rows in summaries.iter_batches(batch_size=None, batch_format="pyarrow"):
        for part_id in pc.unique(rows["part"]).to_pylist():
            mine = rows.filter(pc.equal(rows["part"], part_id))
            folds[part_id].add(mine)
            got[part_id] += pc.sum(mine["n_in"]).as_py() or 0
            if got[part_id] == want[part_id]:
                yield part_id, folds.pop(part_id)
    if folds:
        short = ", ".join(f"{p} ({got[p]} of {want[p]} rows)" for p in sorted(folds))
        raise RuntimeError(f"stage 1 ended with partitions whose rows do not match their parquet footers: {short}")


def _log_totals(log_dir: str) -> tuple[int, int]:
    """(rows, bytes) of the parquet files a ``write_parquet`` left in
    ``log_dir``. The rows come from their footers, so a log write needs no
    count of its own."""
    paths = _glob.glob(os.path.join(log_dir, "*.parquet"))
    return sum(pq.read_metadata(f).num_rows for f in paths), sum(os.path.getsize(f) for f in paths)


def _write_sidecar(parts_dir: str, part_id: str, sketches: dict) -> str:
    """Persist a partition's merged sketch partials (so a resumed run merges
    without recomputing — SURVEY.md §7.4 item 4); returns the path."""
    sidecar = os.path.join(parts_dir, f"{part_id}.pkl")
    with open(sidecar + ".tmp", "wb") as f:
        pickle.dump(sketches, f)
    os.replace(sidecar + ".tmp", sidecar)
    return sidecar


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
    different set never serves stale partitions. The set travels once with
    stage 1's UDF (Ray puts a map's UDF in the object store once per run)
    and once with the conversation stage's filter, and is applied as a
    map-side Arrow ``is_in`` filter — fine to ~10^7 ids on the driver;
    beyond that, pre-filter the corpus with ``stages.joins.bloom_semi_join``
    instead.

    Stage 1 is one streaming pass over every pending partition
    (``_stream_partitions``): one read, one Ray execution, as many read
    tasks as the session has CPUs (at most one per file). Each partition is
    committed — stray files swept, tmp dir renamed, sketch sidecar and
    manifest record written — as soon as all its input rows are
    summarized, so the resume quantum stays one partition while the
    parallelism is the cluster's. A record's ``wall_s`` is the time since
    the previous stage-1 commit; the walls add up to stage 1."""
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

    # ---- stage 1: scalar validation + sketch partials, one streaming pass
    # the sketch PLAN is part of the resume identity: fold its hash into the
    # spec hash used by every stage-1/profile record, or a re-run with a
    # different plan would silently serve the OLD plan's sidecars/profile
    plan, plan_hash = _plan(sketch_plan)
    spec_hash = f"{spec_hash}+plan:{plan_hash}"
    conv_list = None
    if only_convs is not None:
        conv_list = sorted({c for c in only_convs if c is not None})
        convs_hash = _hashlib.sha256("\x1f".join(conv_list).encode()).hexdigest()[:8]
        # the id set is part of the resume identity, like the sketch plan
        spec_hash = f"{spec_hash}+convs:{convs_hash}"
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
    pending, fps, files_of = [], {}, dict(parts)
    for part_id, part_files in parts:
        fps[part_id] = fp = fingerprint_files(part_files)
        done = manifest.completed(part_id, fp, spec_hash) if resume else None
        # a record without hot candidates predates them: re-run it
        if done and os.path.exists(os.path.join(parts_dir, f"{part_id}.pkl")) and "hot_convs" in done.extra:
            total_rows += done.n_rows
            hot.update(done.extra["hot_convs"])
            summary["skipped"] += 1
        else:
            pending.append((part_id, part_files))
    rows_in = _footer_rows([f for _, part_files in pending for f in part_files])
    # every pending partition's atomic tmp dir is open for the whole pass;
    # each is renamed at its partition's commit, and removed if the pass fails
    opened, t_last = {}, time.time()
    try:
        for part_id, _ in pending:
            cm = atomic_output_dir(os.path.join(out_dir, "violations", part_id))
            opened[part_id] = (cm, cm.__enter__())
        convs = None if conv_list is None else pa.array(conv_list, pa.string())
        block_pass = ScalarPass(
            pending, spec, run_ts, log_valid, plan, {p: tmp for p, (_, tmp) in opened.items()}, convs
        )
        for part_id, fold in _stream_partitions(pending, rows_in, block_pass, _Stage1Fold):
            cm, tmp = opened.pop(part_id)
            # drop what no summary names: a retried task's leftover file
            for f in os.listdir(tmp):
                if f not in fold.files:
                    os.remove(os.path.join(tmp, f))
            log_bytes = sum(os.path.getsize(os.path.join(tmp, f)) for f in fold.files)
            cm.__exit__(None, None, None)
            sidecar = _write_sidecar(parts_dir, part_id, fold.sketches.result())
            now = time.time()
            manifest.append(
                PartitionRecord(
                    partition_id=part_id,
                    input_files=files_of[part_id],
                    fingerprint=fps[part_id],
                    spec_hash=spec_hash,
                    status="done",
                    n_rows=fold.n_rows,
                    n_violations=fold.n_err,
                    n_valid=fold.n_valid,
                    output_path=os.path.join(out_dir, "violations", part_id),
                    wall_s=round(now - t_last, 3),
                    extra={"profile_part": sidecar, "hot_convs": sorted(fold.hot), "log_bytes": log_bytes},
                )
            )
            t_last = now
            total_rows += fold.n_rows
            hot |= fold.hot
            summary["executed"] += 1
    except BaseException as e:
        for cm, _ in opened.values():
            cm.__exit__(type(e), e, e.__traceback__)
        raise
    summary["partitions"] = [part_id for part_id, _ in parts]

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
        ds = read_parquet_per_cpu(files, columns=conversation.key_columns(spec))
        if conv_list is not None:
            from ..stages.joins import arrow_semi_filter

            # keep_nulls: NULL-conv_id rows are invisible to the snapshot diff
            # (no key to match), so the incremental pass must always
            # revalidate them — dropping them would silently skip their
            # violations (ScalarPass keeps them too)
            ds = arrow_semi_filter(ds, conv_list, on="conv_id", keep_nulls=True)
        conv = conversation.conversation_violations(
            ds, spec, run_ts, chunk=conversation.CHUNK, skew=(total_rows, sorted(hot))
        )
        with atomic_output_dir(final_dir) as tmp:
            # the bucketed exchange leaves one small block per task; bundle
            # them so the log is not a file per bucket
            conv.write_parquet(tmp, min_rows_per_file=1_000_000, **LOG_PARQUET)
            n_err, log_bytes = _log_totals(tmp)
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
                extra={"log_bytes": log_bytes},
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
    ∝ changed partitions: unchanged sidecars are reused by resume. The
    pending partitions go through stage 1's one streaming pass
    (``_stream_partitions``), projected to the planned columns, and each is
    committed as soon as its rows are in."""
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
    parts = _partitions(files, files_per_partition)
    pending, fps, files_of = [], {}, dict(parts)
    for part_id, part_files in parts:
        fps[part_id] = fp = fingerprint_files(part_files)
        done = manifest.completed(part_id, fp, spec_hash) if resume else None
        if done and os.path.exists(os.path.join(parts_dir, f"{part_id}.pkl")):
            summary["skipped"] += 1
        else:
            pending.append((part_id, part_files))
    columns = list(plan)
    rows_in = _footer_rows([f for _, part_files in pending for f in part_files], columns)
    t_last = time.time()
    commits = _stream_partitions(
        pending, rows_in, ProfilePass(pending, plan), lambda: PayloadFold(("col", "kind")), columns
    )
    for part_id, fold in commits:
        sidecar = _write_sidecar(parts_dir, part_id, fold.result())
        now = time.time()
        manifest.append(
            PartitionRecord(
                partition_id=part_id,
                input_files=files_of[part_id],
                fingerprint=fps[part_id],
                spec_hash=spec_hash,
                status="done",
                output_path=sidecar,
                wall_s=round(now - t_last, 3),
            )
        )
        t_last = now
        summary["executed"] += 1
    summary["partitions"] = [part_id for part_id, _ in parts]

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
    turns), written in one Ray execution; the count comes from the written
    files' parquet footers, never a count pass or a re-read of the sink."""
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
    with atomic_output_dir(out_path) as tmp:
        merged.write_parquet(tmp, **LOG_PARQUET)
        n, _ = _log_totals(tmp)
    return n
