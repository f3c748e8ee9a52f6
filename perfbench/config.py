"""Fixed settings of the benchmark. Both sides of any comparison run with
these values; a change to one of them is a change to the benchmark."""

from __future__ import annotations

WORKLOADS = ("scan", "full_run", "report")

#: Ray session shape: one local node, one schedulable CPU, a fixed object store
NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 * 1024 * 1024

#: corpus sizes in turns and shard counts, per workload. ``full_run`` and
#: ``report`` share one corpus; the report log is derived from its shards.
SCAN_TURNS, SCAN_SHARDS = 600_000, 12
RUN_TURNS, RUN_SHARDS = 120_000, 12

#: ``run_validation``'s default partition size, which ``full_run`` keeps
FILES_PER_PARTITION = 8

#: ``read_parquet`` block count of the scan operation (one block per shard)
SCAN_BLOCKS = SCAN_SHARDS

#: cold set-ups per untraced run; ``setup_s`` is their median. A ``full_run``
#: set-up takes about 8 s on one CPU, so two keep 70 runs of the three
#: workloads well under an hour.
SETUPS = 2

#: per-operation time limit, seconds; an operation past it counts as failed
OP_TIMEOUT_S = 60

#: hard limit for preparing plus measuring, seconds (the supervisor kills the
#: measured process group past it)
RUN_TIMEOUT_S = 170

#: directories the benchmark writes under the checkout root (all ignored by git)
DATA_DIR = ".bench_data"  # cached corpora, logs and expected outcomes
OUT_DIR = ".bench_out"  # operation records, logs and run outputs
RAY_DIR = ".bench_ray"  # the Ray session's temp directory
