"""Build a workload's inputs and its expected outcomes, in a process of its own.

    python3 -m perfbench.prepare --corpus scan|run --seed N

Generation and DuckDB stay out of the measured process, so they do not count
towards its memory or its set-up time. Everything is a pure function of the
corpus kind and the seed, cached under ``.bench_data/<corpus>_s<seed>/``:

- ``corpus/transcripts_*.parquet``: ``generate_transcripts(n, seed)`` split
  into equal shards;
- ``log/log_*.parquet`` (``run`` only): each shard passed through
  ``ValidateBatch(log_valid=True, date_from="ts")``, one log file per shard,
  the input of the ``report`` workload;
- ``expected.json``: counts from the repository's DuckDB twins over the corpus
  files (``sqlgen`` and the ``failures_by_day`` / ``error_rate`` twins of
  ``build_oracles``), which the operations are checked against.

The directory is built under a temporary name and renamed into place, so a
killed preparation never leaves a half-built cache behind.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile

from perfbench import config

CORPORA = {
    "scan": (config.SCAN_TURNS, config.SCAN_SHARDS),
    "run": (config.RUN_TURNS, config.RUN_SHARDS),
}


def cache_dir(root: str, corpus: str, seed: int) -> str:
    return os.path.join(root, config.DATA_DIR, f"{corpus}_s{seed}")


def _write_shards(table, out: str, prefix: str, n_shards: int) -> list[str]:
    import pyarrow.parquet as pq

    os.makedirs(out)
    step = (table.num_rows + n_shards - 1) // n_shards
    paths = []
    for i in range(n_shards):
        path = os.path.join(out, f"{prefix}_{i:04d}.parquet")
        pq.write_table(table.slice(i * step, step), path, row_group_size=131_072)
        paths.append(path)
    return paths


def _write_log(shards: list[str], out: str) -> None:
    """One violation log file per corpus shard, event-time dated."""
    import pyarrow.parquet as pq

    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.validate import ValidateBatch

    validate = ValidateBatch(transcript_spec(), log_valid=True, date_from="ts")
    os.makedirs(out)
    for i, shard in enumerate(shards):
        pq.write_table(validate(pq.read_table(shard)), os.path.join(out, f"log_{i:04d}.parquet"))


def expected_outcomes(corpus_glob: str, with_conversation: bool, tmp_dir: str) -> dict:
    """Counts the operations must reproduce, from the DuckDB twins."""
    import duckdb

    from events_validator_ray.pipelines.sqlgen import (
        column_kinds_for_transcripts,
        conversation_violations_sql,
        scalar_violations_sql,
        valid_rows_condition,
    )
    from events_validator_ray.spec import transcript_spec

    spec = transcript_spec()
    kinds = column_kinds_for_transcripts()
    t = f"read_parquet('{corpus_glob}')"
    con = duckdb.connect()
    con.execute("SET threads = 1")
    con.execute(f"SET temp_directory = '{tmp_dir}'")

    def one(sql: str):
        return con.execute(sql).fetchone()

    out = {
        "n_rows": one(f"SELECT COUNT(*) FROM {t}")[0],
        "n_error": one(f"SELECT COUNT(*) FROM ({scalar_violations_sql(spec, t, kinds)})")[0],
        "n_valid": one(f"SELECT COUNT(*) FROM {t} WHERE {valid_rows_condition(spec, kinds)}")[0],
    }
    if not with_conversation:
        return out
    out["n_conv"] = one(f"SELECT COUNT(*) FROM ({conversation_violations_sql(spec, t)})")[0]
    # the failures_by_day and error_rate twins of pipelines.queries.transcript_oracles
    dated = scalar_violations_sql(spec, t, kinds, date_col="ts")
    eid = "conv_id || ':' || CAST(turn_idx AS VARCHAR)"
    groups, failures = one(
        f"WITH viol AS ({dated}), g AS (SELECT date_utc, field, COUNT(*) AS n_failures "
        "FROM viol GROUP BY date_utc, field) SELECT COUNT(*), SUM(n_failures) FROM g"
    )
    days, n_events, n_error_events = one(
        f"WITH viol AS ({dated}), "
        f"valid_rows AS (SELECT {eid} AS event_id, "
        "COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc "
        f"FROM {t} WHERE {valid_rows_condition(spec, kinds)}), "
        "log AS (SELECT event_id, date_utc FROM viol "
        "UNION ALL SELECT event_id, date_utc FROM valid_rows), "
        "tot AS (SELECT date_utc, COUNT(DISTINCT event_id) AS n_events FROM log GROUP BY date_utc), "
        "err AS (SELECT date_utc, COUNT(DISTINCT event_id) AS n_error_events FROM viol GROUP BY date_utc) "
        "SELECT COUNT(*), SUM(tot.n_events), SUM(COALESCE(err.n_error_events, 0)) "
        "FROM tot LEFT JOIN err ON tot.date_utc = err.date_utc"
    )
    out.update(
        fbd_groups=groups,
        fbd_failures=int(failures),
        days=days,
        n_events=int(n_events),
        n_error_events=int(n_error_events),
    )
    return out


def ensure(root: str, corpus: str, seed: int) -> str:
    """Build the cache for ``(corpus, seed)`` unless it exists; return its path."""
    from events_validator_ray.sources.transcripts import generate_transcripts

    final = cache_dir(root, corpus, seed)
    if os.path.exists(os.path.join(final, "expected.json")):
        return final
    n_turns, n_shards = CORPORA[corpus]
    parent = os.path.dirname(final)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent, prefix=f".{corpus}_s{seed}_")
    try:
        shards = _write_shards(
            generate_transcripts(n_turns, seed), os.path.join(tmp, "corpus"), "transcripts", n_shards
        )
        if corpus == "run":
            _write_log(shards, os.path.join(tmp, "log"))
        expected = expected_outcomes(
            os.path.join(tmp, "corpus", "transcripts_*.parquet"), corpus == "run", tmp
        )
        expected.update(corpus=corpus, seed=seed, n_turns=n_turns, n_shards=n_shards)
        with open(os.path.join(tmp, "expected.json"), "w") as f:
            json.dump(expected, f, indent=1)
        if os.path.exists(final):  # a stale partial cache from an older layout
            shutil.rmtree(final)
        os.rename(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def load(root: str, corpus: str, seed: int) -> tuple[str, dict]:
    """(cache dir, expected outcomes) of a prepared corpus."""
    d = cache_dir(root, corpus, seed)
    with open(os.path.join(d, "expected.json")) as f:
        return d, json.load(f)


def shard_paths(d: str, sub: str = "corpus") -> list[str]:
    return sorted(glob.glob(os.path.join(d, sub, "*.parquet")))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--corpus", choices=sorted(CORPORA), required=True, action="append")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", default=os.getcwd())
    args = p.parse_args(argv)
    for corpus in args.corpus:
        print(ensure(args.root, corpus, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
