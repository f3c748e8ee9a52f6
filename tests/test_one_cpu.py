"""Registry queries that once hung in a one-CPU session (an actor pool held
the only CPU, so the read tasks feeding it never ran) finish there and
equal their DuckDB twins, and so does the conversation checks' hot path
(phase 1's error rows unioned with the phase-2 exchange). Each runs in its
own Ray session (`num_cpus=1`) in a child process, like
`test_runner_curate_cli`; each must report within `PER_QUERY_S` or the
test fails naming it."""

import json
import os
import pathlib
import queue
import subprocess
import sys
import threading
from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
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


def _run_child(tmp_path, child: str, args: list, names: list) -> dict:
    """Run ``child`` in a new interpreter with ``args``; it prints one
    ``ONE_CPU`` line when ready and one per name in ``names``, in order.
    Returns each name's ``wall_s``; fails naming the first that is late."""
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", child, *map(str, args)],
            cwd=REPO,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        msgs: queue.Queue = queue.Queue()
        threading.Thread(target=_lines, args=(proc.stdout, msgs), daemon=True).start()
        walls = {}
        try:
            pending = ["(startup)", *names]
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
    return walls


def test_one_cpu_session_runs_former_actor_pool_queries(tmp_path):
    assert set(ONE_CPU_QUERIES) <= set(ORACLES)
    walls = _run_child(tmp_path, CHILD, [SF_DIR, tmp_path, *ONE_CPU_QUERIES], ONE_CPU_QUERIES)
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


CONV_CHILD = """
import json, sys, time
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from events_validator_ray.spec import transcript_spec
from events_validator_ray.stages import conversation as cv

out, chunk = sys.argv[1], int(sys.argv[2])
tbl = pq.read_table(f"{out}/corpus.parquet")
half = len(tbl) // 2
print("ONE_CPU " + json.dumps({"ready": True}), flush=True)
t0 = time.perf_counter()
ds = rd.from_arrow([tbl.slice(0, half), tbl.slice(half)])
rows = cv.conversation_violations(ds, transcript_spec(), chunk=chunk).take_all()
wall = time.perf_counter() - t0
hot = cv.detect_skew(ds, chunk)[1]
keys = ("event_id", "field", "error_type", "expected", "actual")
with open(f"{out}/rows.json", "w") as f:
    json.dump({"hot": hot, "rows": [[r[k] for k in keys] for r in rows]}, f)
print("ONE_CPU " + json.dumps({"name": "conversation_violations", "wall_s": round(wall, 2)}), flush=True)
ray.shutdown()
"""


def test_one_cpu_conversation_hot_path(tmp_path):
    """Three conversations of 300 rows (each hot at chunk=20, split into 15
    slices, with forward ts outliers, disorder and NULL ts) among 200 cold
    ones: `conversation_violations` at num_cpus=1 finishes within
    `PER_QUERY_S` and equals ConversationChecker."""
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.conversation import ConversationChecker

    rng = np.random.default_rng(11)
    base = 1_704_067_200_000_000
    conv, turn, ts = [], [], []
    for c, n in [(f"hot_{h}", 300) for h in range(3)] + [(f"cold_{c:03d}", 8) for c in range(200)]:
        t = np.arange(n)
        v = base + t * 1_000_000
        v[rng.integers(0, n, 2)] += 10**9  # forward outliers
        v[rng.integers(0, n, 3)] -= 10**8  # disorder
        conv += [c] * n
        turn += list(t)
        ts += [None if rng.random() < 0.02 else int(x) for x in v]
    o = rng.permutation(len(conv))
    tbl = pa.table(
        {
            "conv_id": pa.array(np.asarray(conv)[o]),
            "turn_idx": pa.array(np.asarray(turn, np.int32)[o]),
            "role": pa.array(np.where(np.asarray(turn)[o] % 2 == 0, "user", "assistant")),
            "ts": pa.array([ts[i] for i in o], pa.int64()).cast(pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, tmp_path / "corpus.parquet")
    walls = _run_child(tmp_path, CONV_CHILD, [tmp_path, 20], ["conversation_violations"])
    print("one-CPU wall s:", walls)

    got = json.loads((tmp_path / "rows.json").read_text())
    assert got["hot"] == ["hot_0", "hot_1", "hot_2"]
    cc = ConversationChecker(transcript_spec())
    keys = ("event_id", "field", "error_type", "expected", "actual")
    want = Counter()
    for c in tbl["conv_id"].unique().to_pylist():
        g = cc(tbl.filter(pc.equal(tbl["conv_id"], c)))
        want += Counter(zip(*(g[k].to_pylist() for k in keys)))
    assert Counter(map(tuple, got["rows"])) == want
    assert sum(k[1] == "ts" for k in want.elements()) > 100
