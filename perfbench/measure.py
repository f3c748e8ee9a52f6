"""The measured process: one Ray session, one client, a closed loop.

    python3 -m perfbench.measure --workload W --seed N --seconds S --trace 0|1 --result PATH

``perfbench/run.py`` starts it in a process group of its own, after
``perfbench.prepare`` has built the inputs, and stops and reaps the whole
group when it ends. Each operation is appended to ``.bench_out/ops.jsonl`` as
it completes, so a killed run still leaves its evidence.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

from perfbench import config, prepare
from perfbench.session import RaySession, host_cpu, tree_cpu_s
from perfbench.trace import Spans, control_s, layer_probes
from perfbench.workloads import Workload, check

#: per-layer metrics that are the median duration of the spans of that name
SPAN_METRICS = (
    "sources.read_s", "sources.decode_s", "validate.kernel_s", "validate.type_s",
    "validate.enum_s", "validate.regex_s", "validate.ref_s", "ray_data.scan_s",
    "conversation.detect_skew_s", "conversation.salted_s", "conversation.plain_s",
    "sketches.partials_s", "manifest.log_write_s", "validate_pipeline.stage1_s",
    "validate_pipeline.conversation_s", "validate_pipeline.profile_s", "report.read_s",
    "report.failures_by_day_s", "report.daily_error_rate_s",
)
#: per-layer counts the layer probes record, with their units
COUNT_METRICS = {
    "sources.bytes_uncompressed": "bytes",
    "validate.rows_out": "count",
    "validate.violations": "count",
    "conversation.rows_in": "count",
    "conversation.violations": "count",
    "manifest.log_bytes": "bytes",
}
#: per-layer counts taken from a traced operation's outcome
OUTCOME_METRICS = {
    "traced:scan": {"ray_data.blocks": "blocks", "ray_data.driver_rows": "driver_rows"},
    "traced:report": {
        "report.log_rows": "log_rows",
        "report.days": "days",
        "report.fbd_groups": "fbd_groups",
        "report.driver_rows": "driver_rows",
    },
}


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Loop:
    """Runs operations one after another, checks each, and records it."""

    def __init__(self, record_path: str, run_id: dict):
        self.record = open(record_path, "a")
        self.run_id = run_id
        self.attempted = 0
        self.failed = 0
        self.timed_out = False
        self.samples: dict[str, list[dict]] = {}

    def log(self, **entry) -> None:
        self.record.write(json.dumps({**self.run_id, **entry}, default=str) + "\n")
        self.record.flush()

    def op(self, wl: Workload, kind: str, spans: Spans | None = None) -> dict | None:
        """One operation of ``wl``; its outcome, or None when it failed."""
        gc.collect()  # free the previous operation's blocks outside the timed region
        outcome, problems = None, []
        cpu0, t0 = tree_cpu_s(), time.perf_counter()
        try:
            with time_limit(config.OP_TIMEOUT_S):
                raw = wl.run(spans)
            wall = time.perf_counter() - t0
            cpu = tree_cpu_s() - cpu0
            outcome = wl.finish(raw)
            problems = check(wl.name, outcome, wl.expected)
        except OpTimeout as e:
            wall, cpu, problems, self.timed_out = time.perf_counter() - t0, None, [str(e)], True
        except Exception:
            wall, cpu, problems = time.perf_counter() - t0, None, [traceback.format_exc()]
        self.attempted += 1
        self.failed += bool(problems)
        self.log(workload=wl.name, kind=kind, n=self.attempted, wall_s=wall, cpu_s=cpu, problems=problems)
        if problems:
            return None
        sample = {"wall_s": wall, "cpu_s": cpu, **outcome}
        self.samples.setdefault(kind, []).append(sample)
        return sample

    def close(self) -> None:
        self.record.close()


def median_of(samples: list[dict], key: str) -> float:
    """Median of ``key`` over correct operations; 0.0 when there were none
    (the run then reports ``correct: false``)."""
    return statistics.median(s[key] for s in samples) if samples else 0.0


def tail(walls: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return {"n": n, "tail": None}
    k = n - 11  # index of the sample with exactly ten above it
    return {"n": n, "tail_pct": round(100 * (k + 1) / n, 1), "tail_s": sorted(walls)[k]}


def measure_untraced(wl: Workload, loop: Loop, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not loop.timed_out:
        loop.op(wl, "op")
    ok = loop.samples.get("op", [])
    wall = median_of(ok, "wall_s")
    detail = {"wall": tail([s["wall_s"] for s in ok]), "tree_cpu_s": median_of(ok, "cpu_s")}
    metrics = {
        "rows_per_s": (wl.rows / wall if wall else 0.0, "rows/s"),
        "wall_s": (wall, "s"),
        "out_bytes_per_row": (median_of(ok, "out_bytes") / wl.rows, "bytes/row"),
    }
    return metrics, detail


def measure_traced(wl: Workload, loop: Loop, seconds: float, root: str, seed: int, work: str):
    """Per-layer metrics: the layer probes and one traced operation of every
    workload, then untraced and traced operations of ``wl`` in turn."""
    spans = Spans()
    workloads = {w: (wl if w == wl.name else Workload(w, root, seed, work)) for w in config.WORKLOADS}
    scan_d, scan_exp = prepare.load(root, "scan", seed)
    run_d, run_exp = prepare.load(root, "run", seed)
    t0 = time.perf_counter()
    problems = layer_probes(
        spans, (prepare.shard_paths(scan_d), scan_exp), (prepare.shard_paths(run_d), run_exp), work
    )
    loop.attempted += 1
    loop.failed += bool(problems)
    loop.log(kind="layer_probes", wall_s=time.perf_counter() - t0, problems=problems)
    for name, other in workloads.items():
        if other is not wl:
            spans.op += 1
            loop.op(other, f"traced:{name}", spans)
    controls = []
    deadline = time.perf_counter() + seconds
    while not loop.timed_out:
        controls.append(control_s())
        loop.op(wl, "op")
        spans.op += 1
        loop.op(wl, f"traced:{wl.name}", spans)
        if time.perf_counter() >= deadline:
            break

    m: dict[str, tuple[float, str]] = {name: (spans.seconds(name), "s") for name in SPAN_METRICS}
    m["ray_data.plumbing_s"] = (
        m["ray_data.scan_s"][0] - m["sources.decode_s"][0] - m["validate.kernel_s"][0], "s"
    )
    for name, unit in COUNT_METRICS.items():
        m[name] = (spans.counts[name], unit)
    for kind, names in OUTCOME_METRICS.items():
        first = (loop.samples.get(kind) or [{}])[0]
        for name, key in names.items():
            m[name] = (first.get(key, 0), "count")
    untraced = loop.samples.get("op", [])
    traced_ops = loop.samples.get(f"traced:{wl.name}", [])
    m["host.control_s"] = (statistics.median(controls), "s")
    m["host.tree_cpu_s"] = (median_of(untraced, "cpu_s"), "s")
    m["trace.overhead_s"] = (median_of(traced_ops, "wall_s") - median_of(untraced, "wall_s"), "s")
    spans.write(os.path.join(os.path.dirname(loop.record.name), "spans.json"))
    return m, {"untraced_ops": len(untraced), "traced_ops": len(traced_ops)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=config.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ray-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    root = os.getcwd()
    out = os.path.join(root, config.OUT_DIR)
    work = os.path.join(out, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run_id = {"run": f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"}
    loop = Loop(os.path.join(out, "ops.jsonl"), run_id)
    wl = Workload(args.workload, root, args.seed, work)
    session = RaySession(args.ray_dir)

    busy0, steal0, t_start = *host_cpu(), time.perf_counter()
    setups = []
    n_setups = 1 if args.trace else config.SETUPS  # setup_s is an end-to-end metric
    for i in range(n_setups):
        t0 = time.perf_counter()
        session.start()
        wl.warm_up()
        setups.append(time.perf_counter() - t0)
        loop.log(kind="setup", n=i, wall_s=setups[-1])
        if i < n_setups - 1:
            session.stop()

    if args.trace:
        metrics, detail = measure_traced(wl, loop, args.seconds, root, args.seed, work)
        metrics["ray_data.spilled_mb"] = (session.spilled_mb(), "MiB")
    else:
        metrics, detail = measure_untraced(wl, loop, args.seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["driver_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        )
        metrics["ok_share"] = ((loop.attempted - loop.failed) / max(1, loop.attempted), "share")
        detail["spilled_mb"] = session.spilled_mb()
    session.stop()
    loop.close()
    busy1, steal1 = host_cpu()
    elapsed = time.perf_counter() - t_start
    detail.update(
        workload=args.workload,
        seed=args.seed,
        cpus=config.NUM_CPUS,
        host_cpus=os.cpu_count(),
        setups_s=setups,
        host_busy_cpus=(busy1 - busy0) / elapsed,
        host_steal_cpus=(steal1 - steal0) / elapsed,
    )
    result = {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(args.result, "w") as f:
        json.dump({"detail": detail, "result": result}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
