"""The three workloads: one operation each, its warm-up, and its outcome check.

Each operation drives only the engine's public functions and returns an
outcome: the counts it produced. ``check`` compares an outcome with the
expected counts that ``prepare`` derived from the DuckDB twins; any
difference makes the operation a failed one. Checks run outside the timed
region.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc

from perfbench import config, prepare


def dir_bytes(path: str) -> int:
    """Bytes of the files under ``path``."""
    return sum(os.path.getsize(os.path.join(d, n)) for d, _, names in os.walk(path) for n in names)


def status_partial(t: pa.Table) -> pa.Table:
    """Per-block ``(status, n)`` counts; ``block`` is 1 on the first row only,
    so its sum is the number of blocks that reached this stage."""
    counts = t.select(["status"]).group_by("status").aggregate([("status", "count")])
    n = counts.num_rows
    return pa.table(
        {
            "status": counts["status"],
            "n": counts["status_count"],
            "block": pa.array([1] + [0] * (n - 1) if n else [], pa.int64()),
        }
    )


def scan_op(files: list[str], n_blocks: int) -> dict:
    """``read_parquet`` → ``ValidateBatch(log_valid=True)`` → per-block
    status counts → driver sum."""
    import ray
    import ray.data as rd

    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.validate import ValidateBatch

    partials = (
        rd.read_parquet(files, override_num_blocks=n_blocks)
        .map_batches(
            ValidateBatch(transcript_spec(), log_valid=True),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .map_batches(status_partial, batch_format="pyarrow")
        .to_arrow_refs()
    )
    table = pa.concat_tables(ray.get(partials))
    sums = table.group_by("status").aggregate([("n", "sum")]).to_pydict()
    counts = dict(zip(sums["status"], sums["n_sum"]))
    return {
        "error": counts.get("error", 0),
        "valid": counts.get("valid", 0),
        "blocks": pc.sum(table["block"]).as_py() or 0,
        "driver_rows": table.num_rows,
        "out_bytes": table.nbytes,
    }


def full_run_op(input_dir: str, out_dir: str) -> dict:
    """``run_validation`` with the runner's defaults into a fresh directory."""
    from events_validator_ray.pipelines.validate_pipeline import run_validation
    from events_validator_ray.spec import transcript_spec

    return run_validation(input_dir, out_dir, transcript_spec(), resume=False)


def full_run_outcome(out_dir: str) -> dict:
    """Counts and stage walls from the run's manifest, and its output bytes."""
    parts = {"n_rows": 0, "n_error": 0, "n_valid": 0, "stage1_s": 0.0}
    stages = {}
    with open(os.path.join(out_dir, "manifest.jsonl")) as f:
        for line in f:
            rec = json.loads(line)
            pid = rec["partition_id"]
            if pid.startswith("part_"):
                parts["n_rows"] += rec["n_rows"]
                parts["n_error"] += rec["n_violations"]
                parts["n_valid"] += rec["n_valid"]
                parts["stage1_s"] += rec["wall_s"]
                parts["partitions"] = parts.get("partitions", 0) + 1
            stages[pid] = rec
    return {
        **parts,
        "n_conv": stages["conversation"]["n_violations"] if "conversation" in stages else None,
        "conversation_s": stages.get("conversation", {}).get("wall_s", 0.0),
        "profile_s": stages.get("profile", {}).get("wall_s", 0.0),
        "profile": os.path.exists(os.path.join(out_dir, "profile.json")),
        "out_bytes": dir_bytes(out_dir),
    }


def report_op(log_dir: str, spans=None) -> dict:
    """The ``runner --report`` body (exact rates) over a violation log.

    ``spans``, when given, times each call into the reporting plane."""
    from events_validator_ray.pipelines.report import daily_error_rate, failures_by_day
    from events_validator_ray.sources.readers import read_violations_dir

    span = spans.span if spans is not None else (lambda name: contextlib.nullcontext())
    with span("report.read_s"):
        log = read_violations_dir(log_dir).materialize()
    with span("report.failures_by_day_s"):
        fbd = failures_by_day(log, dim="field").take_all()
    with span("report.daily_error_rate_s"):
        rate = daily_error_rate(log, approx=False)
    summary = {
        "mode": "exact",
        "n_failure_groups": len(fbd),
        "top_failures": fbd[:10],
        "daily_error_rate": rate.to_dict("records")[:31],
        "n_days": len(rate),
    }
    return {
        "log_rows": log.count(),
        "fbd_groups": summary["n_failure_groups"],
        "fbd_failures": sum(r["n_failures"] for r in fbd),
        "days": summary["n_days"],
        "n_events": int(rate["n_events"].sum()),
        "n_error_events": int(rate["n_error_events"].sum()),
        "driver_rows": len(fbd) + len(rate),
        "out_bytes": pa.Table.from_pylist(fbd).nbytes + pa.Table.from_pandas(rate).nbytes,
    }


def check(workload: str, outcome: dict, expected: dict) -> list[str]:
    """Differences between an operation's outcome and the expected counts;
    an empty list means the operation is correct."""
    if workload == "scan":
        want = {"error": expected["n_error"], "valid": expected["n_valid"]}
    elif workload == "full_run":
        want = {
            "n_rows": expected["n_rows"],
            "n_error": expected["n_error"],
            "n_valid": expected["n_valid"],
            "n_conv": expected["n_conv"],
            "partitions": -(-expected["n_shards"] // config.FILES_PER_PARTITION),
            "profile": True,
        }
    elif workload == "report":
        want = {
            "log_rows": expected["n_error"] + expected["n_valid"],
            "fbd_groups": expected["fbd_groups"],
            "fbd_failures": expected["fbd_failures"],
            "days": expected["days"],
            "n_events": expected["n_events"],
            "n_error_events": expected["n_error_events"],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        f"{k}: got {outcome.get(k)!r}, expected {v!r}"
        for k, v in want.items()
        if outcome.get(k) != v
    ]


class Workload:
    """One workload bound to its prepared inputs.

    ``rows`` is the input size that ``rows_per_s`` divides by: turns for
    ``scan`` and ``full_run``, log rows for ``report``."""

    def __init__(self, name: str, root: str, seed: int, out_root: str):
        self.name = name
        corpus = "scan" if name == "scan" else "run"
        self.data_dir, self.expected = prepare.load(root, corpus, seed)
        self.shards = prepare.shard_paths(self.data_dir)
        self.out_root = out_root
        self._n = 0
        if name == "report":
            self.rows = self.expected["n_error"] + self.expected["n_valid"]
        else:
            self.rows = self.expected["n_rows"]

    def warm_up(self) -> None:
        """The operation on a one-shard slice (part of set-up, untimed)."""
        if self.name == "scan":
            scan_op(self.shards[:1], 1)
        elif self.name == "full_run":
            src = os.path.join(self.out_root, "warm_in")
            os.makedirs(src, exist_ok=True)
            shutil.copy(self.shards[0], src)
            out = os.path.join(self.out_root, "warm_out")
            full_run_op(src, out)
            shutil.rmtree(out)
        else:
            report_op(prepare.shard_paths(self.data_dir, "log")[0])

    def run(self, spans=None) -> dict:
        """One timed operation; returns what ``finish`` needs (untimed).

        ``spans``, when given, times the calls into each layer."""
        if self.name == "scan":
            with spans.span("ray_data.scan_s") if spans else contextlib.nullcontext():
                return scan_op(self.shards, config.SCAN_BLOCKS)
        if self.name == "report":
            return report_op(os.path.join(self.data_dir, "log"), spans)
        self._n += 1
        out = os.path.join(self.out_root, f"run_{self._n:04d}")
        if spans is None:
            full_run_op(os.path.join(self.data_dir, "corpus"), out)
            return {"out_dir": out}
        with spans.span("validate_pipeline.run_s") as rec:
            full_run_op(os.path.join(self.data_dir, "corpus"), out)
        # the stage walls the run recorded in its own manifest; the stages
        # run one after another
        stages = full_run_outcome(out)
        start = rec["start"]
        for name in ("stage1_s", "conversation_s", "profile_s"):
            spans.add(f"validate_pipeline.{name}", start, stages[name], rec)
            start += stages[name]
        return {"out_dir": out}

    def finish(self, raw: dict) -> dict:
        """Outcome of one operation; removes its output directory."""
        if self.name != "full_run":
            return raw
        try:
            return full_run_outcome(raw["out_dir"])
        finally:
            shutil.rmtree(raw["out_dir"], ignore_errors=True)
