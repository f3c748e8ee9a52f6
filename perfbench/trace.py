"""Spans and counts for the traced run, and the per-layer probes.

A span is ``(name, start, end, parent, op)``: the benchmark opens one around
each call it makes into a layer of the engine, so a layer's time is the
duration of its span. Counts are recorded at the same boundaries. Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import time


class Spans:
    def __init__(self):
        self.records: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.records), "name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "op": self.op}
        self._stack.append(rec["id"])
        self.records.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, seconds: float, parent: dict) -> None:
        """A span the engine timed itself (a manifest ``wall_s``) inside ``parent``."""
        self.records.append(
            {
                "id": len(self.records),
                "name": name,
                "start": start,
                "end": start + seconds,
                "parent": parent["id"],
                "op": self.op,
            }
        )

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value

    def seconds(self, name: str) -> float:
        """Median duration of the spans named ``name``; 0.0 when there are
        none because the operation that opens them failed."""
        durations = [r["end"] - r["start"] for r in self.records if r["name"] == name]
        return statistics.median(durations) if durations else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.records, "counts": self.counts}, f)


def control_s() -> float:
    """A fixed CPU loop on the driver: it moves only with host noise."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    b = a.copy()
    t0 = time.perf_counter()
    for _ in range(40):
        b = b @ a
        b /= np.abs(b).max()
    return time.perf_counter() - t0


def _sub_spec(kind: str):
    """The transcript spec cut down to one rule kind."""
    from events_validator_ray.spec import load_spec, spec_to_dict, transcript_spec

    full = spec_to_dict(transcript_spec())
    table = full.pop("_table")
    if kind == "ref":
        return load_spec({"_table": {"refs": table["refs"]}})
    keep = {"type": ("type", "optional"), "enum": ("enum",), "regex": ("regex", "optional")}[kind]
    out = {}
    for name, rule in full.items():
        if kind in rule:
            out[name] = {k: v for k, v in rule.items() if k in keep}
    return load_spec(out)


def layer_probes(
    spans: Spans, scan: tuple[list[str], dict], run: tuple[list[str], dict], out_dir: str
) -> list[str]:
    """Time each layer on its own, on the corpus the layer table names
    (``scan`` and ``run`` are each shard paths and expected outcomes).
    Returns the counts that differ from the expected ones."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import DEFAULT_SKETCH_PLAN
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages import conversation
    from events_validator_ray.stages.sketches import sketch_dataset
    from events_validator_ray.stages.validate import ValidateBatch
    from events_validator_ray.state.manifest import atomic_output_dir

    from perfbench import config
    from perfbench.workloads import dir_bytes

    spec = transcript_spec()
    (scan_shards, scan_expected), (run_shards, run_expected) = scan, run
    problems = []

    # sources: Ray's read of the scan corpus, then an in-process decode of it
    with spans.span("sources.read_s"):
        rd.read_parquet(scan_shards, override_num_blocks=config.SCAN_BLOCKS).materialize()
    with spans.span("sources.decode_s"):
        tables = [pq.read_table(p) for p in scan_shards]
    spans.count(
        "sources.bytes_uncompressed",
        sum(
            md.row_group(i).total_byte_size
            for md in (pq.ParquetFile(p).metadata for p in scan_shards)
            for i in range(md.num_row_groups)
        ),
    )

    # validate: the kernel in-process on the pinned tables, whole spec and
    # one rule kind at a time
    validate = ValidateBatch(spec, log_valid=True)
    with spans.span("validate.kernel_s"):
        outs = [validate(t) for t in tables]
    spans.count("validate.rows_out", sum(o.num_rows for o in outs))
    spans.count(
        "validate.violations", sum(pc.sum(pc.equal(o["status"], "error")).as_py() or 0 for o in outs)
    )
    del outs
    for kind in ("type", "enum", "regex", "ref"):
        sub = ValidateBatch(_sub_spec(kind), log_valid=True)
        with spans.span(f"validate.{kind}_s"):
            for t in tables:
                sub(t)
    del tables

    # conversation: the skew probe and both exchange paths on the full_run corpus
    with spans.span("conversation.detect_skew_s"):
        conversation.detect_skew(rd.read_parquet(run_shards))
    with spans.span("conversation.salted_s"):
        salted = conversation.conversation_violations_salted(
            rd.read_parquet(run_shards), spec, chunk=10_000
        ).materialize()
    with spans.span("conversation.plain_s"):
        plain = conversation.conversation_violations(rd.read_parquet(run_shards), spec).materialize()
    spans.count("conversation.rows_in", rd.read_parquet(run_shards).count())
    spans.count("conversation.violations", salted.count())
    if plain.count() != salted.count():
        problems.append(f"conversation: plain path {plain.count()} rows, salted {salted.count()}")
    del salted, plain

    with spans.span("sketches.partials_s"):
        sketch_dataset(rd.read_parquet(run_shards), DEFAULT_SKETCH_PLAN)

    # manifest: the atomic write of a materialized violation log
    log = (
        rd.read_parquet(run_shards)
        .map_batches(ValidateBatch(spec, log_valid=True), batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .materialize()
    )
    final = os.path.join(out_dir, "log_write")
    with spans.span("manifest.log_write_s"):
        with atomic_output_dir(final) as tmp:
            log.write_parquet(tmp)
    spans.count("manifest.log_bytes", dir_bytes(final))
    shutil.rmtree(final, ignore_errors=True)

    want = {
        "validate.rows_out": scan_expected["n_error"] + scan_expected["n_valid"],
        "validate.violations": scan_expected["n_error"],
        "conversation.rows_in": run_expected["n_rows"],
        "conversation.violations": run_expected["n_conv"],
    }
    problems += [
        f"{k}: got {spans.counts[k]}, expected {v}" for k, v in want.items() if spans.counts[k] != v
    ]
    return problems
