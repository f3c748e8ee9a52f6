"""Mergeable per-column sketches: basic stats, HyperLogLog distinct, t-digest
quantiles, categorical histograms, and distribution-drift scores (PSI /
chi-square).

These generalize the reference's only distinct-count (n_unique(event_id),
streamlit_ev/app/validation_report.py:119-131) into the stateful profile plane
the north rule mandates (SURVEY.md §2.3 ST1, §2.5 A5).

Execution pattern (scale-sane): a map-only ``map_batches`` stage emits ONE
serialized partial sketch row per (block, column, kind), and the driver folds
the rows as they stream in (``stages/fold.py``) — no exchange barrier, never
the data. Once the held payloads pass ``fold.FOLD_WINDOW_BYTES`` the driver
collapses them into one partial per (column, kind), so it holds at most one
window of partials whatever the block count. All sketches merge
associatively, so the same partials can be persisted in the checkpoint
manifest and merged across resumed runs.

Hashing: ``hash64`` = pandas.util.hash_array (64-bit, stable across processes
and runs — unlike Python's salted hash()). It stays the hash of the HLL and
Bloom sketches and of the ``queries.py`` hash sidecars, so profiles and twins
keep their values. Bucket routing does not use it for string keys: the
keyed exchange (``stages/exchange.py``) hashes their Arrow UTF-8 bytes.
"""

from __future__ import annotations

import math
import pickle
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .fold import fold_payloads, sum_by_key


def hash64(values: np.ndarray) -> np.ndarray:
    """Stable vectorized 64-bit hash of an object/str/numeric array."""
    arr = np.asarray(values)
    if arr.dtype == object:
        # hash_array handles str elements directly and falls back to
        # astype(str) internally for mixed objects. Caveat: None hashes to
        # its own sentinel (2^64-1), NOT to hash("None") as an astype(str)
        # round-trip would — self-consistent within and across runs, but a
        # null-bearing hashed column changes values vs a str-cast pipeline
        return pd.util.hash_array(arr)
    if arr.dtype.kind == "U":
        return pd.util.hash_array(arr.astype(object))
    return pd.util.hash_array(arr)


# ---------------------------------------------------------------------------
# Basic per-column stats
# ---------------------------------------------------------------------------


class ColumnStats:
    """count / nulls / min / max / (numeric) sum & sum-of-squares — mergeable."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.nulls = 0
        self.min: Any = None
        self.max: Any = None
        self.sum = 0.0
        self.sumsq = 0.0
        self.numeric = False

    def add_column(self, col: pa.ChunkedArray | pa.Array) -> None:
        n = len(col)
        nn = col.null_count
        self.count += n
        self.nulls += nn
        if n == nn:
            return
        mn = pc.min(col).as_py()
        mx = pc.max(col).as_py()
        self.min = mn if self.min is None else min(self.min, mn)
        self.max = mx if self.max is None else max(self.max, mx)
        if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
            self.numeric = True
            self.sum += pc.sum(col).as_py() or 0
            f = pc.cast(col, pa.float64())  # an integer square wraps silently
            self.sumsq += pc.sum(pc.multiply(f, f)).as_py() or 0

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        self.count += other.count
        self.nulls += other.nulls
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        self.sum += other.sum
        self.sumsq += other.sumsq
        self.numeric = self.numeric or other.numeric
        return self

    def mean(self) -> float | None:
        nn = self.count - self.nulls
        return self.sum / nn if (self.numeric and nn) else None

    def std(self) -> float | None:
        nn = self.count - self.nulls
        if not (self.numeric and nn):
            return None
        var = max(0.0, self.sumsq / nn - (self.sum / nn) ** 2)
        return math.sqrt(var)


# ---------------------------------------------------------------------------
# HyperLogLog (Flajolet et al.; standard dense registers + linear counting)
# ---------------------------------------------------------------------------


HLL_DEFAULT_P = 14  # single source of truth — the hll_registers SQL twin's
# bit arithmetic (pipelines/queries.py) imports this so a default change
# cannot silently desynchronize engine and oracle


class HLL:
    def __init__(self, p: int = HLL_DEFAULT_P):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = (h << np.uint64(self.p)).astype(np.uint64)
        # rank = leading zeros of w in (64-p) bits + 1; frexp exponent is exact
        # for the leading-bit position (values < 2^53 after the shift-down)
        bits = 64 - self.p
        wf = (w >> np.uint64(64 - bits)).astype(np.float64)  # top `bits` bits
        _, exp = np.frexp(wf)
        rank = np.where(wf == 0, bits + 1, bits - exp + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def add_values(self, values: np.ndarray) -> None:
        self.add_hashes(hash64(values))

    def merge(self, other: "HLL") -> "HLL":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * math.log(m / zeros)  # linear counting
        return e


# ---------------------------------------------------------------------------
# t-digest (Dunning; merge-based compression with the k1 scale function)
# ---------------------------------------------------------------------------


class TDigest:
    def __init__(self, delta: float = 200.0):
        self.delta = delta
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)

    def add_values(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if not v.size:
            return
        # batch insert: treat each value as a unit-weight centroid, compress
        self.means = np.concatenate([self.means, v])
        self.weights = np.concatenate([self.weights, np.ones(v.size)])
        self._compress()

    def merge(self, other: "TDigest") -> "TDigest":
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self._compress()
        return self

    def _k(self, q: np.ndarray) -> np.ndarray:
        return (self.delta / (2 * math.pi)) * np.arcsin(2 * q - 1)

    def _compress(self) -> None:
        if self.means.size <= self.delta:
            if self.means.size and not np.all(np.diff(self.means) >= 0):
                order = np.argsort(self.means, kind="stable")
                self.means, self.weights = self.means[order], self.weights[order]
            return
        order = np.argsort(self.means, kind="stable")
        means, weights = self.means[order], self.weights[order]
        total = weights.sum()
        # vectorized unit-k-bin clustering (the MergingDigest bin-assignment
        # variant): each sorted centroid lands in floor(k(q_mid)); k1 is
        # monotone, so bins are consecutive runs each spanning k-width <= 1
        # — the t-digest size invariant — merged with one add.at pass. The
        # previous sequential greedy paid a Python loop with two 1-element
        # numpy k() calls PER VALUE on every sketched batch.
        cum = np.cumsum(weights)
        q_mid = (cum - weights / 2) / total
        bins = np.floor(self._k(q_mid)).astype(np.int64)
        first = np.r_[True, bins[1:] != bins[:-1]]
        gidx = np.cumsum(first) - 1
        n = int(gidx[-1]) + 1
        w_out = np.zeros(n)
        np.add.at(w_out, gidx, weights)
        mw = np.zeros(n)
        np.add.at(mw, gidx, means * weights)
        self.means = mw / w_out
        self.weights = w_out

    def quantile(self, q: float) -> float | None:
        if not self.means.size:
            return None
        cum = np.cumsum(self.weights) - self.weights / 2
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))


# ---------------------------------------------------------------------------
# Categorical histogram + drift scores
# ---------------------------------------------------------------------------


class CatHist:
    """Bounded value-counts (top-K keys + 'other' spill) — mergeable."""

    NULL = "\x00<null>"
    OTHER = "\x00<other>"

    def __init__(self, max_keys: int = 1000):
        self.max_keys = max_keys
        self.counts: dict[str, int] = {}

    def add_column(self, col: pa.ChunkedArray | pa.Array) -> None:
        vc = pc.value_counts(pc.cast(col, pa.string()))
        for item in vc.to_pylist():
            key = item["values"] if item["values"] is not None else self.NULL
            self.counts[key] = self.counts.get(key, 0) + item["counts"]
        self._trim()

    def merge(self, other: "CatHist") -> "CatHist":
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        self._trim()
        return self

    def _trim(self) -> None:
        if len(self.counts) <= self.max_keys:
            return
        items = sorted(self.counts.items(), key=lambda kv: -kv[1])
        keep = dict(items[: self.max_keys])
        spilled = sum(v for _, v in items[self.max_keys :])
        keep[self.OTHER] = keep.get(self.OTHER, 0) + spilled
        self.counts = keep


def psi(observed: dict[str, int], reference: dict[str, int], eps: float = 1e-6) -> float:
    """Population Stability Index between two categorical histograms."""
    keys = set(observed) | set(reference)
    n_o = max(1, sum(observed.values()))
    n_r = max(1, sum(reference.values()))
    score = 0.0
    for k in keys:
        po = max(observed.get(k, 0) / n_o, eps)
        pr = max(reference.get(k, 0) / n_r, eps)
        score += (po - pr) * math.log(po / pr)
    return score


def chi_square(observed: dict[str, int], reference: dict[str, int]) -> float:
    """Chi-square statistic of observed counts vs reference-derived expected."""
    n_o = sum(observed.values())
    n_r = max(1, sum(reference.values()))
    stat = 0.0
    for k in set(observed) | set(reference):
        exp = n_o * reference.get(k, 0) / n_r
        if exp > 0:
            stat += (observed.get(k, 0) - exp) ** 2 / exp
    return stat


class NumHist:
    """Fixed-bin numeric histogram (mergeable) for PSI / chi-square drift on
    continuous columns: `bins` equal-width buckets over [lo, hi) plus
    underflow/overflow/null buckets. Bin edges must be fixed up front (take
    them from the reference profile being drifted against) so partials merge
    associatively."""

    def __init__(self, lo: float, hi: float, bins: int = 20):
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = np.zeros(self.bins + 3, dtype=np.int64)  # [under, bins..., over, null]

    def add_column(self, col: pa.ChunkedArray | pa.Array) -> None:
        self.counts[-1] += col.null_count
        vals = col.drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
        if not vals.size:
            return
        # classify by VALUE comparison, never by the float->int64 cast of
        # the bin index: NaN and overflow-huge values cast to INT64_MIN
        # (undefined), which silently misbinned them as LOW-side drift.
        # NaN counts with the missing bucket (the engine's NaN-as-null
        # stance); ±inf and out-of-range land in under/over correctly.
        nan = np.isnan(vals)
        if nan.any():
            self.counts[-1] += int(nan.sum())
            vals = vals[~nan]
            if not vals.size:
                return
        under = vals < self.lo
        over = vals >= self.hi
        mid = ~(under | over)
        self.counts[0] += int(under.sum())
        self.counts[self.bins + 1] += int(over.sum())
        idx = np.floor(
            (vals[mid] - self.lo) / (self.hi - self.lo) * self.bins
        ).astype(np.int64)
        # float edge rounding can nudge an in-range value onto a boundary
        np.add.at(self.counts, np.clip(idx, 0, self.bins - 1) + 1, 1)

    def merge(self, other: "NumHist") -> "NumHist":
        self.counts += other.counts
        return self

    def as_dict(self) -> dict[str, int]:
        out = {"<under>": int(self.counts[0]), "<over>": int(self.counts[self.bins + 1]), "<null>": int(self.counts[-1])}
        for i in range(self.bins):
            out[f"bin_{i}"] = int(self.counts[i + 1])
        return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Ray plumbing: map-only partial-sketch rows -> windowed driver fold
# ---------------------------------------------------------------------------

# bare 'numhist' is NOT valid — it always needs the parametrized
# 'numhist:lo:hi:bins' form (fixed edges make partials merge associatively);
# listing it here made plan validation accept a kind every remote batch
# would then crash on
_KINDS = ("stats", "hll", "tdigest", "cathist")


def _new_sketch(kind: str, col: str):
    if kind == "stats":
        return ColumnStats(col)
    if kind == "hll":
        return HLL()
    if kind == "tdigest":
        return TDigest()
    if kind == "cathist":
        return CatHist()
    if kind.startswith("numhist"):
        # parametrized kind string: "numhist:lo:hi:bins"
        parts = kind.split(":")
        if len(parts) != 4:
            raise ValueError(
                f"numhist requires explicit edges: 'numhist:lo:hi:bins', "
                f"got {kind!r} (fixed edges are what makes partials merge "
                "associatively — take them from the reference profile)"
            )
        _, lo, hi, bins = parts
        return NumHist(float(lo), float(hi), int(bins))
    raise ValueError(kind)


def _hash64_strings(col: pa.ChunkedArray) -> np.ndarray:
    """``hash64`` of a null-free string column: each chunk's distinct values
    (Arrow's ``dictionary_encode``) hashed once, gathered by index. These
    are the uint64s of ``hash64(col.to_numpy())``, whose ``hash_array`` also
    hashes the factorized distinct values, without a Python object per row
    or pandas' object factorize (the dictionary needs no second one)."""
    out = [np.empty(0, np.uint64)]
    for chunk in col.chunks:
        enc = pc.dictionary_encode(chunk)
        values = enc.dictionary.to_numpy(zero_copy_only=False)
        out.append(pd.util.hash_array(values, categorize=False)[enc.indices.to_numpy()])
    return np.concatenate(out)


def _add(sketch, kind: str, col: pa.ChunkedArray) -> None:
    if kind == "stats" or kind == "cathist" or kind.startswith("numhist"):
        sketch.add_column(col)
    else:
        valid = col.drop_null()
        if len(valid) == 0:
            return
        if kind == "hll" and (pa.types.is_string(valid.type) or pa.types.is_large_string(valid.type)):
            sketch.add_hashes(_hash64_strings(valid))
        elif kind == "hll":
            sketch.add_values(valid.to_numpy(zero_copy_only=False))
        elif kind == "tdigest":
            sketch.add_values(valid.to_numpy(zero_copy_only=False).astype(np.float64))


class SketchPartials:
    """map_batches stage: one serialized partial per (column, kind) per batch.

    `plan` maps column -> tuple of kinds, e.g.
    {"conv_id": ("stats", "hll"), "turn_idx": ("stats", "tdigest"),
     "role": ("stats", "cathist")}.
    """

    def __init__(self, plan: dict[str, tuple[str, ...]]):
        for col, kinds in plan.items():
            for k in kinds:
                if k not in _KINDS and not k.startswith("numhist:"):
                    raise ValueError(f"unknown sketch kind {k!r} for {col!r}")
        self.plan = plan

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols, kinds, payloads = [], [], []
        for col, kk in self.plan.items():
            if col not in batch.schema.names:
                continue
            for kind in kk:
                sk = _new_sketch(kind, col)
                _add(sk, kind, batch[col])
                cols.append(col)
                kinds.append(kind)
                payloads.append(pickle.dumps(sk))
        return pa.table(
            {
                "col": pa.array(cols, pa.string()),
                "kind": pa.array(kinds, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )


def sketch_dataset(ds, plan: dict[str, tuple[str, ...]]):
    """ds -> merged sketches {(col, kind): sketch}. Projects to the planned
    columns, emits one partial row per (block, column, kind) map-side, and
    folds the rows on the driver as they stream in (``fold.fold_payloads``)."""
    return fold_payloads(ds.select_columns(list(plan)), SketchPartials(plan), ("col", "kind"))


def profile_table(sketches: dict[tuple[str, str], Any]) -> pd.DataFrame:
    """Flatten merged sketches into a profile DataFrame (one row per column)."""
    cols = sorted({c for c, _ in sketches})
    rows = []
    for c in cols:
        st: ColumnStats | None = sketches.get((c, "stats"))
        hll: HLL | None = sketches.get((c, "hll"))
        td: TDigest | None = sketches.get((c, "tdigest"))
        rows.append(
            {
                "column": c,
                "count": st.count if st else None,
                "nulls": st.nulls if st else None,
                "min": str(st.min) if st and st.min is not None else None,
                "max": str(st.max) if st and st.max is not None else None,
                "mean": st.mean() if st else None,
                "std": st.std() if st else None,
                "approx_distinct": round(hll.estimate()) if hll else None,
                "p50": td.quantile(0.5) if td else None,
                "p95": td.quantile(0.95) if td else None,
                "p99": td.quantile(0.99) if td else None,
            }
        )
    return pd.DataFrame(rows)


def drift_report(
    sketches: dict[tuple[str, str], Any],
    reference: dict[str, dict[str, int]],
    method: str = "psi",
    threshold: float = 0.2,
) -> pd.DataFrame:
    """Drift of observed categorical histograms vs a stored reference profile
    (one row per column: score + pass/fail)."""
    rows = []
    for col, ref_hist in reference.items():
        h = sketches.get((col, "cathist"))
        if h is None:
            # numeric drift: any numhist kind registered for this column
            for (c, kind), sk in sketches.items():
                if c == col and kind.startswith("numhist"):
                    h = sk
                    break
        obs = (
            h.counts if isinstance(h, CatHist) else (h.as_dict() if h is not None else {})
        )
        score = psi(obs, ref_hist) if method == "psi" else chi_square(obs, ref_hist)
        rows.append(
            {
                "column": col,
                "method": method,
                "score": score,
                "drifted": bool(score > threshold),
            }
        )
    return pd.DataFrame(rows)


def frequent_values(col, need: int) -> pa.Array:
    """The values of one block's Arrow column that occur at least
    max(need, 1) times in it; nulls and NaN never qualify."""
    vc = pc.value_counts(col)
    vals = vc.field("values").filter(pc.greater_equal(vc.field("counts"), max(need, 1)))
    if pa.types.is_floating(vals.type):
        return vals.filter(pc.invert(pc.is_nan(vals)))  # a null is_nan drops too
    return vals.drop_null()


def local_frequency_candidates(ds, col: str, need) -> tuple[int, list]:
    """Map-only candidate pass: every value of `col` that one block holds at
    least `need(block_rows)` times (``frequent_values``). At most
    block_rows / need values qualify per block, so the driver pull — one
    value per (block, qualifying value) plus one row count per block — is
    bounded by Σ rows / need + blocks, whatever the number of distinct
    values. Returns (rows seen, pulled values with duplicates across
    blocks)."""

    def local_candidates(t: pa.Table) -> pa.Table:
        cand = frequent_values(t[col], need(len(t)))
        # the block's row count rides on a trailing null-value row
        return pa.table(
            {
                col: pa.concat_arrays([cand, pa.nulls(1, cand.type)]),
                "_rows": pa.array([0] * len(cand) + [len(t)], pa.int64()),
            }
        )

    local_candidates.__name__ = "local_frequency_candidates"
    rows = (
        ds.select_columns([col])
        .map_batches(local_candidates, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    return (
        sum(r["_rows"] for r in rows),
        [r[col] for r in rows if r[col] is not None],
    )


def heavy_hitters_exact(ds, col: str, threshold_permille: int = 8):
    """Distributed frequent-items with an EXACT answer in two linear passes
    (the space-saving/Misra-Gries pipeline with the exact verify that makes
    it oracle-checkable):

    - Pass 1 (candidates, `local_frequency_candidates`): per-block
      value_counts emits items whose LOCAL frequency ≥ threshold.
      Pigeonhole guarantees a superset: an item with global frequency ≥ t
      has frequency ≥ t in at least one block. The candidate set is
      bounded by blocks × 1000/threshold_permille — a documented bounded
      driver pull, independent of corpus size. The same pass counts rows.
    - Pass 2 (exact verify): each block counts ONLY candidate occurrences
      (vectorized pc.is_in + Arrow group_by), the driver sums the counts
      (``fold.sum_by_key``); keep count ≥ ceil(n × t).

    No corpus shuffle — only candidate-count rows move. Returns (col, n)."""
    thr = int(threshold_permille)
    # ceil(nb * thr / 1000) occurrences = local frequency >= threshold
    n_total, pulled = local_frequency_candidates(
        ds, col, lambda nb: (nb * thr + 999) // 1000
    )
    support = (n_total * thr + 999) // 1000
    sch = ds.schema()
    schema = pa.schema([(col, dict(zip(sch.names, sch.types))[col]), ("n", pa.int64())])
    cand = pa.array(sorted(set(pulled)), schema.field(col).type)
    if not len(cand):
        return schema.empty_table()

    def count_candidates(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.fill_null(pc.is_in(t[col], value_set=cand), False))
        c = kept.group_by(col, use_threads=False).aggregate([([], "count_all")])
        return c.select([col, "count_all"]).rename_columns(schema.names)

    # bounded driver fold: <= blocks × |candidates| rows, the same bound
    # class as the pass-1 candidate pull. Returned as a typed pyarrow Table
    # (col, n), whether 0 or 10k hitters survive.
    counts = sum_by_key(ds.select_columns([col]), schema, [col], count_candidates)
    return counts.filter(pc.greater_equal(counts["n"], support))


# --- round-5 temporal drift suite (shared by pipelines/queries.py and the
# runner's --drift mode) ---

LEN_BIN_WIDTH = 32
LEN_BIN_MAX = 15


def independence_chi_parts(df: pd.DataFrame, a_col: str, b_col: str,
                           n_col: str = "n_obs") -> pd.DataFrame:
    """Per-cell chi-square drift contribution under (a, b) independence:
    exp = DOUBLE(n_a * n_b) / DOUBLE(n_total); chi_part_micro =
    floor(((diff * diff) / exp) * 1e6 + 0.5) with diff = n_obs - exp.

    Every float op is multiply/divide/subtract-only IEEE double, mirrored
    OP-FOR-OP by the SQL twins (same rationale as drift_roles: no float SUM
    across cells, no transcendentals → the compare is bit-exact). The
    marginal products are converted int→double BEFORE the division
    (``float(n_a * n_b) / float(n)``) so python matches DuckDB's
    ``CAST(na*nb AS DOUBLE) / CAST(n AS DOUBLE)`` even when the exact
    product exceeds 2^53 (python's int/int true division would round the
    exact rational instead). Driver-side over a bounded cell table
    (days × types / days × bins / roles² — never corpus-cardinality)."""
    import math

    na = df.groupby(a_col)[n_col].sum().to_dict()
    nb = df.groupby(b_col)[n_col].sum().to_dict()
    n_total = float(int(df[n_col].sum()))
    micro = []
    for a, b, o in zip(df[a_col], df[b_col], df[n_col]):
        exp = float(int(na[a]) * int(nb[b])) / n_total
        diff = float(o) - exp
        micro.append(int(math.floor(((diff * diff) / exp) * 1_000_000 + 0.5)))
    out = df.copy()
    out["chi_part_micro"] = pd.Series(micro, dtype="int64", index=df.index)
    return out


def len_drift_days(ds) -> pd.DataFrame:
    """Temporal NUMERIC drift over a transcript Dataset: per (UTC day,
    text-length bin) cell, observed count + chi-square contribution vs the
    corpus-wide length profile. Binning is ALL-INTEGER map-side
    (bin = min(len // 32, 15); NULL text → -1); one bucketed count over a
    day|bin key; cells = days × 17, bounded at any corpus size."""
    from .assembly import bucketed_count_per_key
    from .windows import utc_day

    sub = ds.select_columns(["ts", "text"])

    def day_bin_key(t: pa.Table) -> pa.Table:
        d = utc_day(t["ts"])
        # NULL text → NaN after to_pandas; floordiv/clip propagate it and the
        # fillna(-1) lands the NULL bin — all vectorized, no python rows
        ln = pc.utf8_length(t["text"]).to_pandas()
        bins = (
            (ln // LEN_BIN_WIDTH).clip(upper=LEN_BIN_MAX).fillna(-1).astype("int64")
        )
        key = pc.binary_join_element_wise(
            d, pa.array(bins.astype(str), pa.string()), "|"
        )
        return pa.table({"_db": key})

    day_bin_key.__name__ = "day_len_bin_key"
    counts = bucketed_count_per_key(
        sub.map_batches(day_bin_key, batch_format="pyarrow"),
        "_db",
        "n_obs",
    )
    df = counts.to_pandas()  # bounded: days × 17 cells
    parts = df["_db"].str.split("|", n=1, expand=True)
    df = pd.DataFrame(
        {
            "date_utc": parts[0],
            "len_bin": parts[1].astype("int64"),
            "n_obs": df["n_obs"].astype("int64"),
        }
    )
    return (
        independence_chi_parts(df, "date_utc", "len_bin")
        .sort_values(["date_utc", "len_bin"])
        .reset_index(drop=True)
    )


def transition_drift(ds) -> pd.DataFrame:
    """Role-transition independence drift (alternation-health score) over a
    transcript Dataset: per (from_role, to_role) adjacency cell, observed
    count + chi-square contribution vs the marginal-independence
    expectation. Composes the role_transitions distributed profile
    (roles²-bounded) with the shared bit-exact chi kernel."""
    from .assembly import role_transitions

    df = role_transitions(ds).to_pandas()  # roles² rows
    df = df.rename(columns={"n": "n_obs"})
    df["n_obs"] = df["n_obs"].astype("int64")
    return (
        independence_chi_parts(df, "from_role", "to_role")
        .sort_values(["from_role", "to_role"])
        .reset_index(drop=True)
    )


def _per_key_partials(df: pd.DataFrame, key_col: str, sketch) -> pd.DataFrame:
    """One serialized sketch per canonical key of a block: ``sketch(sub)``
    maps the key's rows to bytes. The loop is over KEYS in the block, never
    rows."""
    from .exchange import canon_key_str

    canon = pd.Series(canon_key_str(df[key_col]), index=df.index)
    keys, blobs = [], []
    for k, sub in df.groupby(canon, sort=False):
        keys.append(k)
        blobs.append(sketch(sub))
    return pd.DataFrame({key_col: keys, "_sk": blobs})


def hll_count_per_key(ds, key_col: str, val_col: str, out_col: str, p: int = 12):
    """Approximate COUNT(DISTINCT val) GROUP BY key — the 10^12-scale cheap
    path next to assembly.distinct_count_per_key's exact one. The exact
    operator must ship every DISTINCT (key, val) pair through the exchange
    (∝ corpus for high-distinct columns); this one ships one 2^p-byte HLL
    register array per (block, key) — shuffle ∝ blocks × keys_per_block ×
    4 KB at p=12, independent of the value cardinality, with ~1.04/√2^p
    (≈1.6%) relative error.

    Shape: per-block partials (one vectorized hash64+register pass per key
    group) → keyed exchange → per-bucket register max-merge + estimate. The
    final reduce never uses groupby(key).aggregate (the documented
    sort-aggregate hazard). Intended for key cardinalities where a 4 KB
    sketch per key is cheap (days, days×dims, shards); the EXACT operator
    remains the tool when keys are few but values must be exact."""
    from .exchange import exchange

    def registers(sub: pd.DataFrame) -> bytes:
        h = HLL(p)
        vals = sub[val_col].dropna().to_numpy()
        if len(vals):
            h.add_values(vals)
        return h.registers.tobytes()

    def hll_key_partials(df: pd.DataFrame) -> pd.DataFrame:
        return _per_key_partials(df, key_col, registers)

    def hll_key_merge(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {key_col: pd.Series(dtype=object), out_col: pd.Series(dtype="int64")}
            )
        rows = []
        for k, sub in g.groupby(key_col, sort=False):
            merged = HLL(p)
            stacked = np.stack(
                [np.frombuffer(b, dtype=np.uint8) for b in sub["_sk"]]
            )
            merged.registers = stacked.max(axis=0)
            rows.append((k, int(math.floor(merged.estimate() + 0.5))))
        return pd.DataFrame(rows, columns=[key_col, out_col]).astype(
            {out_col: "int64"}
        )

    return exchange(
        ds.select_columns([key_col, val_col]), key_col, hll_key_merge, hll_key_partials
    )


def tdigest_quantile_per_key(ds, key_col: str, val_col: str,
                             qs: tuple[float, ...] = (0.5, 0.95),
                             delta: float = 200.0):
    """Approximate per-key quantiles via mergeable t-digests — the
    sketch-per-group counterpart of `hll_count_per_key` for the quantile
    plane (sampling.grouped_quantiles stays the EXACT tool when per-key
    value sets are small enough to co-locate). Shuffle is one serialized
    digest (≤ delta centroids ≈ 3 KB) per (block, key), independent of the
    per-key row count — per-day p95 latency at 10^12 rows without shipping
    the column.

    Each key's partial digests merge in a canonical order (sorted by their
    payload bytes), so the estimate depends only on the set of partials —
    not on the order the exchange delivers them, nor on the bucket count.

    Emits one row per key with q{...}_est float columns (digest estimates
    are approximate by contract — no SQL twin; tests pin them against the
    exact quantiles)."""
    from .exchange import exchange

    def digest(sub: pd.DataFrame) -> bytes:
        td = TDigest(delta)
        td.add_values(sub[val_col].to_numpy(dtype="float64", na_value=np.nan))
        return np.concatenate([td.means, td.weights]).astype("float64").tobytes()

    def tdigest_key_partials(df: pd.DataFrame) -> pd.DataFrame:
        return _per_key_partials(df, key_col, digest)

    def tdigest_key_merge(g: pd.DataFrame) -> pd.DataFrame:
        cols = {key_col: []}
        for q in qs:
            cols[f"q{int(round(q * 100)):02d}_est"] = []
        if len(g) == 0:
            return pd.DataFrame(cols)
        for k, sub in g.groupby(key_col, sort=False):
            merged = TDigest(delta)
            for b in sorted(sub["_sk"]):
                arr = np.frombuffer(b, dtype=np.float64)
                half = len(arr) // 2
                other = TDigest(delta)
                other.means, other.weights = arr[:half].copy(), arr[half:].copy()
                merged.merge(other)
            cols[key_col].append(k)
            for q in qs:
                v = merged.quantile(q)
                cols[f"q{int(round(q * 100)):02d}_est"].append(
                    float("nan") if v is None else v
                )
        return pd.DataFrame(cols)

    return exchange(
        ds.select_columns([key_col, val_col]), key_col, tdigest_key_merge, tdigest_key_partials
    )


ENUM_MAX = 8  # enum candidate iff distinct <= ENUM_MAX (twin: LEAST(,9))
ENUM_VALUE_MAX_LEN = 64  # values longer than this disqualify the enum


def capped_distinct_profile(ds, cols: list[str], renders: dict[str, str]):
    """Per-column (n_rows, n_nulls, capped distinct count, enum candidates,
    max length) for schema inference — EXACT under the cap without ever
    pulling a corpus-cardinality value set:

    - per block and column, if the block's distinct count is ≤ ENUM_MAX+1
      the block ships the full distinct set (md5 digests for counting, raw
      renders for the enum list); otherwise it ships one OVERFLOW marker —
      a block can only overflow if the corpus itself exceeds the cap, so
      `min(true_distinct, ENUM_MAX+1)` is reproduced exactly;
    - driver pull is bounded by blocks × cols × (ENUM_MAX+2) digests, never
      the value cardinality; raw values are capped at ENUM_VALUE_MAX_LEN
      (longer values disqualify the enum on BOTH engines via the max-length
      aggregate, so truncation never reaches the compare).

    `renders[col]` ∈ {'str', 'int', 'ts_us'} fixes the canonical string
    render; max_len and the enum list are computed on the RENDERED string so
    the SQL twin can reproduce both with LENGTH(<render>)/<render>."""
    import hashlib

    cap = ENUM_MAX + 1

    def render(col: str, s: pd.Series) -> pd.Series:
        kind = renders[col]
        if kind == "int":
            return s.astype("int64").astype(str)
        if kind == "ts_us":
            return (s.astype("datetime64[us]").astype("int64")).astype(str)
        return s.astype(str)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for col in cols:
            s = df[col]
            n_rows = int(len(s))
            nn = s.dropna()
            n_nulls = n_rows - int(len(nn))
            rendered_all = render(col, nn)
            distinct = rendered_all.drop_duplicates()
            max_len = int(rendered_all.str.len().max()) if len(nn) else 0
            if len(distinct) > cap:
                rows.append((col, n_rows, n_nulls, max_len, "\x00OVERFLOW", ""))
            else:
                for raw in distinct:
                    dig = hashlib.md5(raw.encode("utf-8")).hexdigest()
                    # '=' marker disambiguates a per-value row from the
                    # summary row even when the value itself is ''
                    rows.append((col, 0, 0, 0, dig, "=" + raw[: ENUM_VALUE_MAX_LEN + 1]))
                rows.append((col, n_rows, n_nulls, max_len, "", ""))
        return pd.DataFrame(
            rows, columns=["col", "n_rows", "n_nulls", "max_len", "dig", "raw"]
        )

    partial.__name__ = "capped_distinct_partials"
    parts = (
        ds.select_columns(cols)
        .map_batches(partial, batch_format="pandas")
        .to_pandas()  # bounded: blocks × cols × (ENUM_MAX+2) rows
    )
    out = {}
    for col in cols:
        sub = parts[parts["col"] == col]
        overflow = (sub["dig"] == "\x00OVERFLOW").any()
        digs = set(sub.loc[(sub["dig"] != "") & (sub["dig"] != "\x00OVERFLOW"), "dig"])
        n_distinct = cap if overflow else min(len(digs), cap)
        raws = sorted({r[1:] for r in sub.loc[sub["raw"] != "", "raw"]})
        out[col] = {
            "n_rows": int(sub["n_rows"].sum()),
            "n_nulls": int(sub["n_nulls"].sum()),
            "max_len": int(sub["max_len"].max()) if len(sub) else 0,
            "n_distinct_capped": int(n_distinct),
            "values": raws if not overflow and len(digs) <= ENUM_MAX else [],
        }
    return out
