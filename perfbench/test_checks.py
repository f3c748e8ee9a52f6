"""Tests of the benchmark's outcome check (no Ray session needed).

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from perfbench import measure, prepare, workloads


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A 3k-turn corpus in two shards, its expected outcomes from the DuckDB
    twins, and the engine's scan outcome computed in-process."""
    from events_validator_ray.sources.transcripts import generate_transcripts
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.validate import ValidateBatch

    d = str(tmp_path_factory.mktemp("corpus"))
    shards = prepare._write_shards(generate_transcripts(3000, 5), os.path.join(d, "corpus"), "t", 2)
    expected = prepare.expected_outcomes(os.path.join(d, "corpus", "*.parquet"), True, d)
    validate = ValidateBatch(transcript_spec(), log_valid=True)
    import pyarrow.parquet as pq

    partials = pa.concat_tables(workloads.status_partial(validate(pq.read_table(p))) for p in shards)
    outcome = {
        s: pc.sum(partials.filter(pc.equal(partials["status"], s))["n"]).as_py()
        for s in ("error", "valid")
    }
    return expected, outcome


def test_engine_matches_twin_counts(small_corpus):
    expected, outcome = small_corpus
    assert expected["n_error"] > 0
    assert workloads.check("scan", outcome, expected) == []


@pytest.mark.parametrize("key", ["n_error", "n_valid"])
def test_perturbed_expected_count_fails_scan(small_corpus, key):
    expected, outcome = small_corpus
    wrong = dict(expected, **{key: expected[key] + 1})
    assert workloads.check("scan", outcome, wrong)


def _matching_outcome(workload: str, expected: dict) -> dict:
    if workload == "full_run":
        return {
            "n_rows": expected["n_rows"],
            "n_error": expected["n_error"],
            "n_valid": expected["n_valid"],
            "n_conv": expected["n_conv"],
            "partitions": 1,
            "profile": True,
        }
    return {
        "log_rows": expected["n_error"] + expected["n_valid"],
        **{k: expected[k] for k in ("fbd_groups", "fbd_failures", "days", "n_events", "n_error_events")},
    }


@pytest.mark.parametrize(
    "workload,key",
    [("full_run", "n_conv"), ("full_run", "n_rows"), ("report", "fbd_groups"), ("report", "n_events")],
)
def test_perturbed_expected_count_fails(small_corpus, workload, key):
    expected = dict(small_corpus[0], n_shards=2)
    outcome = _matching_outcome(workload, expected)
    assert workloads.check(workload, outcome, expected) == []
    assert workloads.check(workload, outcome, dict(expected, **{key: expected[key] + 1}))


class _FakeWorkload:
    name = "scan"

    def __init__(self, outcome, expected):
        self.outcome, self.expected = outcome, expected

    def run(self, spans=None):
        return dict(self.outcome)

    def finish(self, raw):
        return raw


def test_loop_counts_a_wrong_count_as_failed(small_corpus, tmp_path):
    expected, outcome = small_corpus
    loop = measure.Loop(str(tmp_path / "ops.jsonl"), {"run": "test"})
    assert loop.op(_FakeWorkload(outcome, expected), "op") is not None
    wrong = dict(expected, n_valid=expected["n_valid"] - 1)
    assert loop.op(_FakeWorkload(outcome, wrong), "op") is None
    loop.close()
    assert (loop.attempted, loop.failed) == (2, 1)
    records = [json.loads(line) for line in open(tmp_path / "ops.jsonl")]
    assert [bool(r["problems"]) for r in records] == [False, True]
