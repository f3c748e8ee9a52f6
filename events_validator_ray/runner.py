"""CLI entry point — the `ray job submit` surface.

    python -m events_validator_ray.runner \
        --input /data/transcripts --out /data/validation_out \
        [--spec spec.json] [--sample 0.01] [--no-resume]

Owns the Ray session (the ONLY library-adjacent place that calls ray.init,
guarded for pre-initialised cluster drivers). On a multi-node cluster, run
the same command via `ray job submit -- python -m events_validator_ray.runner ...`
— the pipeline code is identical; only `ray.init(address=...)` changes.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Ray-Data-native transcript validation engine")
    p.add_argument("--input", required=True, help="directory of transcript parquet files")
    p.add_argument(
        "--out",
        help="output directory (violations + manifest); not needed for --report",
    )
    p.add_argument("--spec", help="constraint-spec JSON file (default: transcript spec)")
    p.add_argument("--sample", type=float, default=None, help="validate a random fraction (GTM-style sampling, reference README.md:62-64)")
    p.add_argument("--files-per-partition", type=int, default=8)
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--no-log-valid", action="store_true")
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--lint-only", action="store_true", help="check spec vs observed schema and exit")
    p.add_argument(
        "--curate",
        action="store_true",
        help="run the training-data curation pipeline (quality -> exact dedup -> "
        "near-dup -> clean parquet) instead of validation; expects a documents "
        "table (doc_id, text)",
    )
    p.add_argument(
        "--pairs",
        action="store_true",
        help="export SFT training pairs instead of validating: mine adjacent "
        "user→assistant turn pairs (assembly.turn_pairs) and write them as "
        "partitioned parquet under OUT/pairs with a resumable summary marker",
    )
    p.add_argument(
        "--diff",
        action="store_true",
        help="snapshot diff for incremental revalidation: classify each "
        "conversation in --input (the NEW snapshot) vs --against (the OLD "
        "one) as added/removed/changed/same; writes OUT/diff parquet + a "
        "summary line — re-validate only the added/changed conv_ids",
    )
    p.add_argument(
        "--against",
        help="with --diff: directory of the OLD snapshot's transcript parquet",
    )
    p.add_argument(
        "--only-convs",
        help="parquet file/dir of conv_ids to validate (e.g. the --diff "
        "output: rows with status added/changed are taken automatically); "
        "all other conversations are skipped — the incremental-revalidation "
        "path. The id set folds into the resume identity.",
    )
    p.add_argument(
        "--merge-base",
        help="with --only-convs: the OLD snapshot's validation-run dir. After "
        "the incremental run, writes OUT/violations_merged = the base run's "
        "rows for untouched conversations + the new run's rows — the "
        "up-to-date complete violation log a full revalidation would have "
        "produced. Requires --only-convs pointing at the --diff output (the "
        "removed statuses are needed to retire stale rows).",
    )
    p.add_argument(
        "--reference-profile",
        help="JSON file of reference histograms {column: {value: count}} to score drift against",
    )
    p.add_argument(
        "--drift",
        action="store_true",
        help="temporal-drift audit over a transcript dir: writes "
        "len_drift_days.parquet (per UTC day x length-bin chi parts) and "
        "transition_drift.parquet (role-transition independence parts) to "
        "--out and prints the top drifting cells — the always-on cheap "
        "guard in front of a full validation run",
    )
    p.add_argument(
        "--profile-only",
        action="store_true",
        help="compute ONLY the sketch profile (stats/HLL/t-digest/cat-hist "
        "+ drift vs --reference-profile): one map-only projected scan, no "
        "validation, resumable per partition — the cheap full-corpus "
        "profile refresh after an incremental revalidation, and cost ∝ "
        "changed partitions for corpora updated in place",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="report plane over an EXISTING validation run: --input = the run's "
        "out dir (reads violations/); prints failures-by-day and daily error "
        "rate (the reference's Validation Report views)",
    )
    p.add_argument(
        "--approx-rate",
        action="store_true",
        help="with --report: HLL-sketched distinct rates (the 10^12 path — "
        "map-only, no shuffle, ~0.8%% relative error at p=14)",
    )
    p.add_argument("--date-from", help="report date-range start (predicate pushdown)")
    p.add_argument("--date-to", help="report date-range end")
    args = p.parse_args(argv)
    if not args.report and not args.out:
        p.error("--out is required (except with --report)")

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            **({"num_cpus": args.num_cpus} if args.num_cpus else {}),
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from .logutil import suppress_empty_shuffle_partition_warning

    suppress_empty_shuffle_partition_warning()

    if args.curate:
        from .pipelines.curate import curate_documents

        summary = curate_documents(args.input, args.out, resume=not args.no_resume)
        print(json.dumps(summary, default=str))
        ray.shutdown()
        return 0

    if args.pairs:
        import os as _os

        from .stages.assembly import turn_pairs

        marker = _os.path.join(args.out, "pairs_summary.json")
        if not args.no_resume and _os.path.exists(marker):
            with open(marker) as f:
                done = json.load(f)
            done["skipped"] = True
            print(json.dumps(done))
            ray.shutdown()
            return 0
        from .state.manifest import atomic_output_dir

        outdir = _os.path.join(args.out, "pairs")
        pairs = turn_pairs(rd.read_parquet(args.input))
        # atomic sink: a crash between write and marker must not leave a
        # partial (or, on rerun, doubled — write_parquet appends fresh
        # UUID-named files) pairs directory; same protocol as --sample
        with atomic_output_dir(outdir) as tmp:
            pairs.write_parquet(tmp)
        # count from the SINK (lineage check: what landed is what we report)
        n_pairs = rd.read_parquet(outdir).count()
        summary = {"skipped": False, "output_path": outdir, "n_pairs": n_pairs}
        with open(marker, "w") as f:
            json.dump(summary, f)
        print(json.dumps(summary))
        ray.shutdown()
        return 0

    if args.diff:
        if not args.against:
            p.error("--diff requires --against OLD_DIR")
        import os as _os

        from .stages.assembly import changed_conversations
        from .state.manifest import atomic_output_dir

        # left = OLD, right = NEW → 'added' means new in --input
        diff = changed_conversations(
            rd.read_parquet(args.against), rd.read_parquet(args.input)
        )
        outdir = _os.path.join(args.out, "diff")
        with atomic_output_dir(outdir) as tmp:
            diff.write_parquet(tmp)
        # count from the SINK; 4-status cardinality bounds the fold
        import pyarrow as pa

        from .stages.fold import sum_by_key

        counts = sum_by_key(
            rd.read_parquet(outdir),
            pa.schema([("status", pa.string()), ("count_all", pa.int64())]),
            ["status"],
            lambda t: t.group_by("status", use_threads=False).aggregate([([], "count_all")]),
        )
        summary = {
            "output_path": outdir,
            "counts": dict(zip(counts["status"].to_pylist(), counts["count_all"].to_pylist())),
        }
        print(json.dumps(summary))
        ray.shutdown()
        return 0

    if args.drift:
        import os as _os

        from .stages.sketches import len_drift_days, transition_drift

        ds = rd.read_parquet(args.input)
        ld = len_drift_days(ds)
        td = transition_drift(ds)
        _os.makedirs(args.out, exist_ok=True)
        ld.to_parquet(_os.path.join(args.out, "len_drift_days.parquet"), index=False)
        td.to_parquet(
            _os.path.join(args.out, "transition_drift.parquet"), index=False
        )
        summary = {
            "mode": "drift",
            "n_len_cells": len(ld),
            "n_transition_cells": len(td),
            "top_len_drift": ld.nlargest(5, "chi_part_micro").to_dict("records"),
            "top_transition_drift": td.nlargest(5, "chi_part_micro").to_dict(
                "records"
            ),
        }
        print(json.dumps(summary, default=str))
        ray.shutdown()
        return 0

    if args.profile_only:
        from .pipelines.validate_pipeline import run_profile

        reference_profile = None
        if args.reference_profile:
            with open(args.reference_profile) as f:
                reference_profile = json.load(f)
        summary = run_profile(
            args.input,
            args.out,
            files_per_partition=args.files_per_partition,
            reference_profile=reference_profile,
            resume=not args.no_resume,
        )
        print(json.dumps(summary, default=str))
        ray.shutdown()
        return 0

    if args.report:
        import os as _os

        from .pipelines.report import daily_error_rate, failures_by_day
        from .sources.readers import read_violations_dir

        vdir = _os.path.join(args.input, "violations")
        if not _os.path.isdir(vdir):
            vdir = args.input  # accept a bare violations dir too
        # materialize once: failures-by-day + both distinct-rate lineages
        # consume the same blocks instead of re-scanning the parquet 3x
        log = read_violations_dir(vdir, args.date_from, args.date_to).materialize()
        fbd = failures_by_day(log, dim="field").take_all()
        rate = daily_error_rate(log, approx=args.approx_rate)
        summary = {
            "mode": "approx_hll" if args.approx_rate else "exact",
            "n_failure_groups": len(fbd),
            "top_failures": fbd[:10],
            "daily_error_rate": rate.to_dict("records")[:31],
            "n_days": len(rate),
        }
        print(json.dumps(summary, default=str))
        ray.shutdown()
        return 0

    from .spec import load_spec_file, transcript_spec

    spec = load_spec_file(args.spec) if args.spec else transcript_spec()

    import glob

    import pyarrow.parquet as pq

    files = sorted(glob.glob(f"{args.input}/*.parquet"))
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2
    schema = pq.read_schema(files[0])

    from .functions.lint import spec_lint

    findings = spec_lint(spec, schema)
    for f in findings:
        print(f"[lint:{f.severity}] {f.field}: {f.message}", file=sys.stderr)
    if args.lint_only:
        return 1 if any(f.severity == "critical" for f in findings) else 0

    ds = rd.read_parquet(files)
    if args.sample:
        from .state.manifest import atomic_output_dir

        ds = ds.random_sample(args.sample, seed=42)
        tmp_in = args.out + "/_sampled_input"
        # atomic replace (tmp + rename, prior dir removed): re-running the
        # same command must not APPEND a second copy of the sample
        with atomic_output_dir(tmp_in) as tmp:
            ds.write_parquet(tmp)
        input_path = tmp_in
    else:
        input_path = args.input

    from .pipelines.validate_pipeline import run_validation

    reference_profile = None
    if args.reference_profile:
        with open(args.reference_profile) as f:
            reference_profile = json.load(f)

    if args.merge_base and not args.only_convs:
        p.error("--merge-base requires --only-convs (the --diff output)")

    only_convs = None
    stale_convs: set = set()
    if args.only_convs:
        import os as _os

        import pyarrow as pa
        import pyarrow.compute as pc

        t = pq.read_table(args.only_convs)
        if "status" in t.column_names:
            # stale = every conversation the diff touched: their BASE-run
            # rows must be retired by --merge-base (removed convs are gone;
            # added/changed are re-validated here)
            touched = t.filter(
                pc.is_in(
                    t["status"], value_set=pa.array(["added", "changed", "removed"])
                )
            )
            stale_convs = set(touched["conv_id"].to_pylist())
            t = t.filter(
                pc.is_in(t["status"], value_set=pa.array(["added", "changed"]))
            )
        elif args.merge_base:
            p.error("--merge-base needs the --diff output (a status column) "
                    "to retire removed conversations")
        only_convs = set(t["conv_id"].to_pylist())
        if not stale_convs:
            stale_convs = set(only_convs)
        # clobber guard: an incremental run REPLACES the out dir's partitions
        # (the conv set changes the resume identity) — refuse to destroy a
        # previous FULL run's violation log in place
        mpath = _os.path.join(args.out, "manifest.jsonl")
        if _os.path.exists(mpath):
            # parse records (not raw lines): a torn trailing fragment from a
            # killed append must not misclassify a resumable incremental dir
            # as a full run (Manifest.load tolerates the same tear)
            full_run = False
            with open(mpath) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if "+convs:" not in rec.get("spec_hash", ""):
                        full_run = True
                        break
            if full_run:
                print(
                    f"refusing --only-convs into {args.out}: it holds a "
                    "full run's outputs, which this incremental run would "
                    "overwrite for every unchanged conversation. Use a "
                    "fresh --out and --merge-base OLD_DIR to advance the "
                    "complete violation log.",
                    file=sys.stderr,
                )
                ray.shutdown()
                return 2
        if not only_convs:
            # steady state of the incremental loop: nothing added/changed →
            # do NOT pay a full-corpus scan just to filter every row out
            summary = {
                "partitions": [],
                "skipped": 0,
                "executed": 0,
                "note": "only-convs set empty; nothing to revalidate",
            }
            if args.merge_base:
                from .pipelines.validate_pipeline import merge_violations
                from .stages.assembly import NULL_CONV_MARKER

                merged_dir = _os.path.join(args.out, "violations_merged")
                # removed conversations may still need retiring from the
                # log; the marker in the stale set means the snapshot's
                # NULL-conv rows were all removed — retire those too
                summary["merged_rows"] = merge_violations(
                    args.merge_base,
                    stale_convs,
                    None,
                    merged_dir,
                    drop_null_rows=NULL_CONV_MARKER in stale_convs,
                )
                summary["merged_path"] = merged_dir
            print(json.dumps(summary))
            ray.shutdown()
            return 0

    summary = run_validation(
        input_path,
        args.out,
        spec,
        files_per_partition=args.files_per_partition,
        log_valid=not args.no_log_valid,
        resume=not args.no_resume,
        reference_profile=reference_profile,
        only_convs=only_convs,
    )
    if args.merge_base:
        import os as _os

        from .pipelines.validate_pipeline import merge_violations

        merged_dir = _os.path.join(args.out, "violations_merged")
        summary["merged_rows"] = merge_violations(
            args.merge_base, stale_convs, args.out, merged_dir
        )
        summary["merged_path"] = merged_dir
    print(json.dumps(summary, default=str))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
