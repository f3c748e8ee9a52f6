"""Registry queries that once hung in a one-CPU session (an actor pool held
the only CPU, so the read tasks feeding it never ran) finish there and
equal their DuckDB twins. The queries run in their own Ray session
(`num_cpus=1`) in a child process, like `test_runner_curate_cli`; each
must report within `PER_QUERY_S` or the test fails naming it."""

import json
import os
import pathlib
import queue
import subprocess
import sys
import threading

import duckdb
import pandas as pd
import pytest

from test_driver_contract import ORACLES, SF_DIR, TABLES, normalize

REPO = pathlib.Path(__file__).resolve().parents[1]
#: every query that had an actor pool or a task cap, plus `heavy_hitters`
#: as a control that never had one
ONE_CPU_QUERIES = [
    "contamination_scan",
    "tfidf_top_terms",
    "multimodal_resize",
    "multimodal_decode",
    "multimodal_audio",
    "multimodal_frames",
    "hard_negatives",
    "ngram_pmi",
    "lang_id",
    "heavy_hitters",
]
PER_QUERY_S = 60
#: `ray.init` and the first imports
STARTUP_S = 120

CHILD = """
import json, sys, time
import pandas as pd
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as entry

queries = entry.queries()
sf_dir, out = sys.argv[1], sys.argv[2]
print("ONE_CPU " + json.dumps({"ready": True}), flush=True)
for name in sys.argv[3:]:
    t0 = time.perf_counter()
    res = queries[name](sf_dir)
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    wall = time.perf_counter() - t0
    df.to_pickle(f"{out}/{name}.pkl")
    print("ONE_CPU " + json.dumps({"name": name, "wall_s": round(wall, 2)}), flush=True)
ray.shutdown()
"""


def _lines(stream, q):
    for line in stream:
        if line.startswith("ONE_CPU "):
            q.put(json.loads(line[len("ONE_CPU "):]))
    q.put(None)


def test_one_cpu_session_runs_former_actor_pool_queries(tmp_path):
    assert set(ONE_CPU_QUERIES) <= set(ORACLES)
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, SF_DIR, str(tmp_path), *ONE_CPU_QUERIES],
            cwd=REPO,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        msgs: queue.Queue = queue.Queue()
        threading.Thread(target=_lines, args=(proc.stdout, msgs), daemon=True).start()
        walls = {}
        try:
            pending = ["(startup)", *ONE_CPU_QUERIES]
            for i, name in enumerate(pending):
                try:
                    msg = msgs.get(timeout=STARTUP_S if i == 0 else PER_QUERY_S)
                except queue.Empty:
                    pytest.fail(f"{name} did not finish within {PER_QUERY_S} s at num_cpus=1")
                assert msg is not None, (tmp_path / "stderr.txt").read_text()[-3000:]
                if i:
                    assert msg["name"] == name
                    walls[name] = msg["wall_s"]
            assert proc.wait(timeout=60) == 0, (tmp_path / "stderr.txt").read_text()[-3000:]
        finally:
            if proc.poll() is None:
                # SIGTERM first: the child's Ray shuts its own session down
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    print("one-CPU wall s:", walls)

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    for name in ONE_CPU_QUERIES:
        got = normalize(pd.read_pickle(tmp_path / f"{name}.pkl"))
        want = normalize(con.sql(ORACLES[name]).df())
        assert list(got.columns) == list(want.columns), name
        assert len(got) == len(want), f"{name}: row count {len(got)} vs {len(want)}"
        pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True, obj=name)
