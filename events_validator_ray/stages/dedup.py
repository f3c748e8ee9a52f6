"""Deduplication operators over a document corpus (training-data pipeline
ops; first-class alongside the validation engine).

All variants follow the same scale shape: a vectorized ``map_batches``
signature stage (hash / minhash / simhash / embedding-LSH per batch), a
``groupby`` on a HASH of the signature (the only shuffle — hash-partitioned,
tiny rows: signature + doc id; never a few-valued raw band key), candidate
verification as a distributed map/join over the pair Dataset, and cluster
assembly under an ``assembly`` policy: driver union-find below
``driver_max_pairs`` candidates, `distributed_components` (iterative
min-label propagation over groupbys) above it. Full corpus labeling
(`include_singletons=True`) is a streaming broadcast map — corpus ids never
materialize on the driver.

- exact_dedup: content-hash partition + per-group min id (exact; SQL twin:
  GROUP BY text -> MIN(doc_id))
- minhash_lsh_dedup: word-shingle -> k minhash permutations -> banded LSH
  buckets -> candidate pairs -> exact Jaccard verification (Broder'97 /
  Leskovec MMDS ch.3)
- simhash_dedup: 64-bit simhash -> banded bucket candidates -> Hamming
  verification (Charikar'02)
- embedding_dedup: unit-normalized vectors -> BANDED random-hyperplane LSH ->
  capped candidate pairs (same `_bucket_pairs` policy) -> pairwise cosine
  verification over the pair Dataset
- ngram_jaccard_pairs: the exact verification kernel exposed standalone
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import exchange
from .sketches import hash64

_MERSENNE = np.uint64((1 << 61) - 1)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def add_content_hash(batch: pa.Table, col: str = "text", out: str = "content_hash") -> pa.Table:
    vals = batch[col].to_numpy(zero_copy_only=False)
    h = hash64(np.where(pd.isna(vals), "", vals))
    # bit-cast to int64: a uint64 COLUMN with values above 2^63 can't
    # round-trip Ray's pandas sort blocks (some blocks become pickled-object
    # extensions, flipping the schema mid-shuffle); identity is unchanged
    return batch.append_column(out, pa.array(h.astype(np.uint64).view(np.int64)))


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """Keeper ids: min id per exact content. One bucketed reduce on the
    64-bit content hash (shuffles ~16 bytes/row, never the text); distinct
    contents scale with the corpus, so the reduce is the bucketed pandas
    shape, not groupby(hash).aggregate (BASELINE.md group-cardinality
    addendum)."""
    from .assembly import bucketed_reduce_per_key

    hashed = ds.select_columns([id_col, col]).map_batches(
        lambda b: add_content_hash(b, col), batch_format="pyarrow"
    )
    return bucketed_reduce_per_key(
        hashed.select_columns([id_col, "content_hash"]),
        "content_hash",
        [(id_col, id_col, "min")],
    ).select_columns([id_col])


def keep_best_dedup(ds, col: str = "text", id_col: str = "doc_id", pref_col: str = "source"):
    """Priority dedup (corpus-union precedence): one keeper per exact content
    group, chosen by (pref_col ASC, id_col ASC) — the 'merge N crawls, prefer
    the most-trusted source's copy' curation op. Returns (id_col, pref_col)
    keeper rows.

    Scale shape: identical to exact_dedup's ONE groupby on the 64-bit content
    hash; the selection rides the shuffle as a packed `pref\\x1f
    zero-padded-id` string Min-aggregated per group (min lexicographic =
    min (pref, id)) — no map_groups, no second pass, shuffle volume is
    hash + ~30 bytes/row. NULL preference packs as '' (sorts FIRST; the SQL
    twin mirrors with coalesce(pref, '')). Assumes non-negative ids (zfill
    packing is lexicographic == numeric only then), like every id column in
    the corpus — and preference labels free of control characters below
    0x1f (a pref containing e.g. '\\n' would compare below the separator
    and mis-order against a longer pref sharing its prefix; source labels
    are identifiers, so this is a documented contract like the id one)."""

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        h = hash64(df[col].fillna("").to_numpy(dtype=object))
        pk = (
            df[pref_col].fillna("").astype(str)
            + "\x1f"
            + df[id_col].astype("int64").astype(str).str.zfill(20)
        )
        return pd.DataFrame(
            {"content_hash": h.astype(np.uint64).view(np.int64), "_pk": pk}
        )

    pack.__name__ = "pack_priority_key"

    def unpack(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {id_col: pd.Series(dtype="int64"), pref_col: pd.Series(dtype=object)}
            )
        pk = df["_pk"].astype(str)
        return pd.DataFrame(
            {
                id_col: pk.str[-20:].astype("int64"),
                pref_col: pk.str[:-21],
            }
        )

    unpack.__name__ = "unpack_priority_key"
    from .assembly import bucketed_reduce_per_key

    return bucketed_reduce_per_key(
        ds.select_columns([id_col, col, pref_col]).map_batches(
            pack, batch_format="pandas"
        ),
        "content_hash",
        [("_pk", "_pk", "min")],
    ).map_batches(unpack, batch_format="pandas")


# ---------------------------------------------------------------------------
# shingling + minhash
# ---------------------------------------------------------------------------


_SHINGLE_P = np.uint64(0x100000001B3)


def _shingle_hashes(texts: np.ndarray, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """All word-n-gram shingle hashes for a batch, plus doc offsets
    (len n_docs+1). Fully vectorized: Arrow tokenization, one hash64 pass
    over tokens, polynomial combine over sliding windows (no per-shingle
    Python). Shingle identity = combined token-hash tuple — equivalent to
    hashing the joined string for Jaccard/minhash purposes, ~10x faster.
    Docs with 1..n-1 tokens contribute one shingle over all their tokens
    (mirroring the joined-short-doc fallback)."""
    import pyarrow as pa

    from ..functions.textkernels import tokenize

    flat, doc_idx, n_tokens = tokenize(pa.array(list(texts), type=pa.string()))
    n_docs = len(n_tokens)
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    counts = np.where(n_tokens >= n, n_tokens - n + 1, (n_tokens > 0).astype(np.int64))
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    out = np.zeros(total, dtype=np.uint64)
    if not len(flat):
        return out, offsets
    # hash only the DISTINCT tokens (dictionary-encode first): token vocab is
    # tiny vs the token stream, and string hashing dominates otherwise
    denc = flat.dictionary_encode()
    uniq_hash = hash64(denc.dictionary.to_numpy(zero_copy_only=False)).astype(np.uint64)
    h = uniq_hash[denc.indices.to_numpy(zero_copy_only=False)]

    # full windows: combine n consecutive token hashes, valid only when the
    # window stays inside one document
    short = np.nonzero((n_tokens > 0) & (n_tokens < n))[0]
    m = len(h) - n + 1
    if m > 0:
        with np.errstate(over="ignore"):
            comb = h[:m].copy()
            for k in range(1, n):
                comb = comb * _SHINGLE_P ^ h[k : m + k]
        valid = doc_idx[:m] == doc_idx[n - 1 :]
        # valid windows are already in (doc, rank) order; their output slots
        # are every position except the short docs' single-shingle slots
        if short.size:
            full_slot = np.ones(total, dtype=bool)
            full_slot[offsets[short]] = False
            out[full_slot] = comb[valid]
        else:
            out[:] = comb[valid]

    # short docs (0 < tokens < n): one shingle combining all their tokens
    if short.size:
        tok_starts = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(n_tokens, out=tok_starts[1:])
        with np.errstate(over="ignore"):  # uint64 wraparound is the hash mix
            for d in short:
                seg = h[tok_starts[d] : tok_starts[d + 1]]
                acc = seg[0]
                for v in seg[1:]:
                    acc = acc * _SHINGLE_P ^ v
                out[offsets[d]] = acc
    return out, offsets


@dataclass
class MinHashParams:
    num_perm: int = 128
    bands: int = 16
    seed: int = 7

    @property
    def rows(self) -> int:
        return self.num_perm // self.bands


def _perm_coeffs(p: MinHashParams) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(p.seed)
    a = rng.integers(1, (1 << 61) - 1, p.num_perm, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, p.num_perm, dtype=np.uint64)
    return a, b


def minhash_matrix(texts: np.ndarray, p: MinHashParams, ngram: int = 3) -> np.ndarray:
    """(n_docs, num_perm) uint64 minhash signatures (empty docs -> max)."""
    sh, offsets = _shingle_hashes(texts, ngram)
    n_docs = len(offsets) - 1
    out = np.full((n_docs, p.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if not sh.size:
        return out
    a, b = _perm_coeffs(p)
    nonempty = np.diff(offsets) > 0
    red_offsets = offsets[:-1][nonempty]
    sh61 = sh % _MERSENNE
    for k in range(p.num_perm):
        v = (a[k] * sh61 + b[k]) % _MERSENNE
        mins = np.minimum.reduceat(v, red_offsets)
        out[nonempty, k] = mins
    return out


def _band_hashes(M: np.ndarray, p: MinHashParams) -> np.ndarray:
    """(n_docs, bands) uint64: FNV-style fold of each band's rows."""
    n = M.shape[0]
    out = np.empty((n, p.bands), dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for b in range(p.bands):
        acc = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
        for j in range(p.rows):
            acc = (acc * prime) ^ M[:, b * p.rows + j]
        out[:, b] = acc
    return out


class MinHashSignatures:
    """map_batches stage -> (doc_id, band, band_hash) rows, `bands` per doc."""

    def __init__(self, p: MinHashParams | None = None, col: str = "text", id_col: str = "doc_id", ngram: int = 3):
        self.p = p or MinHashParams()
        self.col = col
        self.id_col = id_col
        self.ngram = ngram

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # Ray does produce empty blocks at small scale; pa.array of an
            # empty object ndarray would flip the id column to null type and
            # desynchronize block schemas (mirrors HyperplaneLSH)
            return pa.table(
                {
                    self.id_col: pa.array(
                        [], type=batch.schema.field(self.id_col).type
                    ),
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                }
            )
        texts = batch[self.col].to_numpy(zero_copy_only=False)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        M = minhash_matrix(texts, self.p, self.ngram)
        bh = _band_hashes(M, self.p)
        n, B = bh.shape
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, B)),
                "band": pa.array(np.tile(np.arange(B, dtype=np.int32), n)),
                # int64 bit-cast: stable pandas-block representation (see
                # add_content_hash)
                "band_hash": pa.array(bh.reshape(-1).view(np.int64)),
            }
        )


def _bucket_pairs(ds, id_col: str, extra_cols: tuple[str, ...] = (), pair_cap: int = 256):
    """(band, band_hash) buckets -> candidate (a, b) pairs. One exchange keyed
    by (band, band_hash): thousands of LSH buckets are processed per task with
    one vectorized pandas pass (per-bucket UDF dispatch is ~50x slower), and
    no shuffle group exceeds ~1/bucket_count() of the signature table
    regardless of band count (never the few-valued raw band).

    Pair policy (Broder/MMDS banding): buckets up to `pair_cap` emit ALL
    within-bucket pairs (full recall — the engine is EXACT wherever every
    bucket fits the cap); larger buckets fall back to star pairs against the
    min id PLUS a consecutive-id chain, so verification can still connect
    similar members that are both dissimilar to the representative. The cap
    bounds per-task cost at cap²/2 pairs per bucket (256 → ≤33k pairs, still
    trivial per task); it exists for the corpus-scale mega-bucket — template
    or boilerplate families, whose members are near-identical, so their star
    edges pass verification and the component survives the fallback. The
    recall risk of the fallback is the mid-size DIVERSE bucket, which is
    exactly what a generous cap absorbs (measured sf0.1 max bucket: 190).
    `extra_cols` are carried through as `<col>_a` / `<col>_b`."""

    def pairs_many(df: pd.DataFrame) -> pd.DataFrame:
        key = ["band", "band_hash"]
        df = df.drop_duplicates(key + [id_col]).sort_values(key + [id_col], kind="stable")
        size = df.groupby(key, sort=False)[id_col].transform("size")
        out_cols = ["a", "b"] + [f"{c}_a" for c in extra_cols] + [f"{c}_b" for c in extra_cols]
        parts: list[pd.DataFrame] = []

        small = df[size <= pair_cap]
        if len(small):
            m = small.merge(small, on=key, suffixes=("_a", "_b"))
            m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
            parts.append(
                pd.DataFrame(
                    {
                        "a": m[f"{id_col}_a"].to_numpy(),
                        "b": m[f"{id_col}_b"].to_numpy(),
                        **{f"{c}_a": m[f"{c}_a"].to_numpy() for c in extra_cols},
                        **{f"{c}_b": m[f"{c}_b"].to_numpy() for c in extra_cols},
                    }
                )
            )

        large = df[size > pair_cap]
        if len(large):
            g = large.groupby(key, sort=False)
            ids = large[id_col].to_numpy()
            rep_np = g[id_col].transform("first").to_numpy()
            ex = {c: large[c].to_numpy() for c in extra_cols}
            ex_rep = {c: g[c].transform("first").to_numpy() for c in extra_cols}
            star = ids != rep_np
            star_df = pd.DataFrame(
                {
                    "a": rep_np[star],
                    "b": ids[star],
                    **{f"{c}_a": ex_rep[c][star] for c in extra_cols},
                    **{f"{c}_b": ex[c][star] for c in extra_cols},
                }
            )
            # consecutive-id chain (positional shift — keeps exact dtypes)
            bd = large["band"].to_numpy()
            bh = large["band_hash"].to_numpy()
            same_prev = np.r_[False, (bd[1:] == bd[:-1]) & (bh[1:] == bh[:-1])]
            prev_of = np.r_[0, np.arange(len(ids) - 1)]
            chain = same_prev & (ids[prev_of] != rep_np)
            chain_df = pd.DataFrame(
                {
                    "a": ids[prev_of][chain],
                    "b": ids[chain],
                    **{f"{c}_a": ex[c][prev_of][chain] for c in extra_cols},
                    **{f"{c}_b": ex[c][chain] for c in extra_cols},
                }
            )
            parts.extend([star_df, chain_df])

        if not parts:
            # typed empty frame (id dtype for a/b, source dtypes for extras) so
            # empty groups don't flip the block schema mid-stream
            empty = {
                "a": pd.Series([], dtype=df[id_col].dtype),
                "b": pd.Series([], dtype=df[id_col].dtype),
            }
            for c in extra_cols:
                empty[f"{c}_a"] = pd.Series([], dtype=df[c].dtype)
                empty[f"{c}_b"] = pd.Series([], dtype=df[c].dtype)
            return pd.DataFrame(empty)[out_cols]
        out = pd.concat(parts, ignore_index=True)
        return out.drop_duplicates(["a", "b"])

    return exchange(ds, ["band", "band_hash"], pairs_many)


def _union_find(pairs: list[tuple], all_ids: set | None = None) -> dict:
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:
            parent[x], x = r, parent[x]
        return r

    nodes = set()
    for a, b in pairs:
        nodes.add(a)
        nodes.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    return {x: find(x) for x in nodes}


def distributed_components(pairs_ds, max_rounds: int = 10, broadcast_max_labels: int = 200_000):
    """Connected components over a candidate-pair Dataset (columns a, b) via
    iterative min-label propagation — the 10^12-doc replacement for driver
    union-find. Per round the heavy work (attach each edge's dst label, min
    per src) is fully distributed; the label ATTACH picks its mechanism by
    label count:

    - <= `broadcast_max_labels`: the label table is pulled once and broadcast
      via ``ray.put`` (one object-store copy, map-side lookup — cheapest while
      the table fits comfortably in a worker heap);
    - above it: ``joins.bucketed_hash_join(edges, labels, on='dst')`` — the
      label table never leaves the cluster, so dup-heavy corpora (billions of
      near-dup nodes) stay off the driver entirely.

    Convergence is a DISTRIBUTED changed-label count (union old+new, one
    bucketed min/max reduce per src, sum of mismatches) — no driver-side
    frame compare. Every per-src reduce uses the bucketed pandas reducers,
    never `groupby(src).aggregate()` (src cardinality scales with the
    corpus — the sort-aggregate group-cardinality pathology, CLAUDE.md).

    Round: label(x) = min(label(x), min(label(n)) for n in neighbors(x)),
    then a POINTER-JUMP (label(x) = label(label(x))) so chain-shaped
    components (the _bucket_pairs chain fallback's worst case) converge in
    O(log diameter) rounds, not O(diameter); the broadcast regime compresses
    paths to fixpoint on the driver instead (labels are already there). If
    `max_rounds` is exhausted without convergence the function RAISES — a
    silently split component is a wrong dedup answer. Returns a Dataset
    (src, label)."""
    from .assembly import bucketed_reduce_per_key

    # undirected edge list, one row per direction
    def sym(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": pd.concat([b["a"], b["b"]], ignore_index=True),
                "dst": pd.concat([b["b"], b["a"]], ignore_index=True),
            }
        )

    edges = pairs_ds.map_batches(sym, batch_format="pandas").materialize()
    # initial labels: own id (+ self-edge keeps isolated direction stable)
    labels = bucketed_reduce_per_key(edges, "src", [("label", "dst", "min")])

    def clip_self(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["label"] = b[["src", "label"]].min(axis=1)
        return b

    labels = labels.map_batches(clip_self, batch_format="pandas").materialize()
    n_labels = labels.count()  # bounded: one row per node IN a candidate pair
    if n_labels == 0:
        return labels
    use_broadcast = n_labels <= broadcast_max_labels

    def n_changed(old_ds, new_ds) -> int:
        """Distributed count of srcs whose label changed: union the two label
        tables, bucketed per-src min/max, sum of (min != max)."""
        u = old_ds.union(new_ds)
        agg = bucketed_reduce_per_key(
            u, "src", [("lo", "label", "min"), ("hi", "label", "max")]
        )
        return int(
            agg.map_batches(
                lambda df: pd.DataFrame({"c": [int((df["lo"] != df["hi"]).sum())]}),
                batch_format="pandas",
            ).sum("c")
            or 0
        )

    def compress(df: "pd.DataFrame") -> "pd.DataFrame":
        """Driver-side path compression to fixpoint: every label value is
        itself a src (symmetric edges + clip_self), so label∘label is total;
        O(log depth) passes over a ≤broadcast_max_labels frame."""
        lab = df.set_index("src")["label"]
        while True:
            nxt = lab.map(lab)
            if nxt.equals(lab):
                break
            lab = nxt
        df = df.copy()
        df["label"] = lab.to_numpy()
        return df

    lbl_df = None
    if use_broadcast:
        lbl_df = compress(
            labels.to_pandas().sort_values("src").reset_index(drop=True)
        )
    changed = -1
    for _ in range(max_rounds):
        if use_broadcast:
            import ray

            ref = ray.put(lbl_df.set_index("src")["label"])

            def attach(b: pd.DataFrame) -> pd.DataFrame:
                lab = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
                return pd.DataFrame(
                    {"src": b["src"], "cand": b["dst"].map(lab).fillna(b["dst"])}
                )

            prop = edges.map_batches(attach, batch_format="pandas")
        else:
            from .joins import bucketed_hash_join

            lbl_d = labels.map_batches(
                lambda df: df.rename(columns={"src": "dst", "label": "cand"}),
                batch_format="pandas",
            )
            # symmetric edges make every dst a src, so the inner join is total
            prop = bucketed_hash_join(
                edges, lbl_d, on="dst"
            ).map_batches(lambda df: df[["src", "cand"]], batch_format="pandas")
        new_labels = (
            bucketed_reduce_per_key(prop, "src", [("label", "cand", "min")])
            .map_batches(clip_self, batch_format="pandas")
            .materialize()
        )
        if use_broadcast:
            # labels are already on the driver each round in this regime —
            # compress paths to fixpoint and compare there instead of paying
            # an extra union + bucketed reduce
            new_df = compress(
                new_labels.to_pandas().sort_values("src").reset_index(drop=True)
            )
            changed = int(
                (new_df["label"].to_numpy() != lbl_df["label"].to_numpy()).sum()
            )
            lbl_df = new_df
            labels = new_labels
        else:
            # distributed pointer-jump: label(x) <- label(label(x)) — one
            # extra bucketed join per round buys O(log diameter) convergence
            from .joins import bucketed_hash_join as _bhj

            as_map = new_labels.map_batches(
                lambda df: df.rename(columns={"src": "dst", "label": "cand"}),
                batch_format="pandas",
            )
            as_edge = new_labels.map_batches(
                lambda df: df.rename(columns={"label": "dst"}),
                batch_format="pandas",
            )
            jumped = (
                _bhj(as_edge, as_map, on="dst")
                .map_batches(
                    lambda df: df.rename(columns={"cand": "label"})[
                        ["src", "label"]
                    ],
                    batch_format="pandas",
                )
                .materialize()
            )
            changed = n_changed(labels, jumped)
            labels = jumped
        if changed == 0:
            break
    if changed != 0:
        raise RuntimeError(
            f"distributed_components: not converged after {max_rounds} rounds "
            f"({changed} labels still changing) — the pair graph contains a "
            "component deeper than the round budget covers even with pointer "
            "jumping; raise max_rounds."
        )
    if use_broadcast:
        import ray.data as _rd

        return _rd.from_pandas(lbl_df)
    return labels


def jaccard_verify_pairs(ds, pairs: list[tuple], col: str, id_col: str, ngram: int, threshold: float) -> list[tuple]:
    """Exact n-gram Jaccard for the candidate pairs. Ships only the candidate
    docs' shingle SETS (hash sets) to the driver — bounded by candidates."""
    cand_ids = sorted({x for pr in pairs for x in pr})
    if not cand_ids:
        return []
    cand_arr = pa.array(cand_ids)

    def shingle_sets(batch: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.is_in(batch[id_col], value_set=cand_arr), False)
        sel = batch.filter(mask)
        if sel.num_rows == 0:
            return pa.table({id_col: pa.array([], type=batch[id_col].type), "sh": pa.array([], type=pa.list_(pa.uint64()))})
        texts = sel[col].to_numpy(zero_copy_only=False)
        sh, off = _shingle_hashes(texts, ngram)
        # sorted-unique per doc: set semantics, and downstream scoring can use
        # np.intersect1d(assume_unique=True)
        lists = [np.unique(sh[off[i] : off[i + 1]]).tolist() for i in range(len(off) - 1)]
        return pa.table({id_col: sel[id_col], "sh": pa.array(lists, type=pa.list_(pa.uint64()))})

    rows = ds.select_columns([id_col, col]).map_batches(shingle_sets, batch_format="pyarrow").take_all()
    sets = {r[id_col]: np.asarray(r["sh"], dtype=np.uint64) for r in rows}
    empty = np.empty(0, dtype=np.uint64)
    out = []
    for a, b in pairs:
        sa, sb = sets.get(a, empty), sets.get(b, empty)
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        jac = (inter / union) if union else 1.0
        if jac >= threshold:
            out.append((a, b))
    return out


def _shingle_payloads(texts: np.ndarray, ngram: int) -> list[bytes]:
    """Per-doc shingle-hash sets serialized as raw SORTED-UNIQUE uint64 BYTES —
    a binary column survives pandas round trips untouched, where a
    list<uint64> column can be inferred as a fixed-shape TensorArray on
    uniform blocks and then fail to concat with NA-padded join blocks.
    Sorting+deduping once at build lets pair scoring use
    np.intersect1d(assume_unique=True) instead of per-pair Python sets."""
    sh, off = _shingle_hashes(texts, ngram)
    return [np.unique(sh[off[i] : off[i + 1]]).tobytes() for i in range(len(off) - 1)]


def _shingle_rows(docs_ds, col: str, id_col: str, ngram: int):
    """(id, shingle-payload) rows for EVERY row of an already-selected doc
    Dataset (the post-semi-join slot — no id filtering needed)."""

    def shingles(batch: pa.Table) -> pa.Table:
        texts = batch[col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: batch[id_col],
                "sh": pa.array(_shingle_payloads(texts, ngram), type=pa.binary()),
            }
        )

    return docs_ds.map_batches(shingles, batch_format="pyarrow")


def _shingle_set_dataset(ds, cand_ids, col: str, id_col: str, ngram: int):
    """(id, shingle-hash list) rows for the candidate docs only — computed
    distributed; the candidate-id SET is broadcast via ray.put (bounded by the
    number of docs in candidate pairs, never the corpus)."""
    import ray

    id_ref = ray.put(pa.array(list(cand_ids)))

    def shingle_sets(batch: pa.Table) -> pa.Table:
        idarr = id_ref
        if isinstance(idarr, ray.ObjectRef):
            idarr = ray.get(idarr)
        mask = pc.fill_null(pc.is_in(batch[id_col], value_set=idarr), False)
        sel = batch.filter(mask)
        if sel.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=batch[id_col].type),
                    "sh": pa.array([], type=pa.binary()),
                }
            )
        texts = sel[col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: sel[id_col],
                "sh": pa.array(_shingle_payloads(texts, ngram), type=pa.binary()),
            }
        )

    return ds.select_columns([id_col, col]).map_batches(shingle_sets, batch_format="pyarrow")


def jaccard_verify_distributed(
    ds,
    pairs_ds,
    col: str,
    id_col: str,
    ngram: int,
    threshold: float,
    broadcast_max_ids: int = 1_000_000,
):
    """Distributed pair verification: shingle-set rows for candidate docs are
    joined onto both pair sides with `bucketed_hash_join` (one shuffle each,
    all bounded by the candidate count) and scored per batch — no shingle set
    ever reaches the driver. Candidate-doc SELECTION is a broadcast id set
    below `broadcast_max_ids` and a `bloom_semi_join` above it (dup-heavy
    corpora: billions of candidate ids never reach the driver either).
    Returns a Dataset (a, b) of verified pairs."""
    from .assembly import bucketed_distinct_values
    from .joins import bloom_semi_join, bucketed_hash_join

    # DISTINCT candidate ids via the bucketed reducer, never
    # groupby(id).aggregate() — id cardinality scales with the corpus
    # (the sort-aggregate group-cardinality pathology, CLAUDE.md)
    ids_ds = bucketed_distinct_values(
        pairs_ds.map_batches(
            lambda b: pd.DataFrame({id_col: pd.concat([b["a"], b["b"]], ignore_index=True)}),
            batch_format="pandas",
        ),
        id_col,
    ).materialize()
    if ids_ds.count() <= broadcast_max_ids:
        cand = [r[id_col] for r in ids_ds.take_all()]  # bounded by candidates
        sets = _shingle_set_dataset(ds, cand, col, id_col, ngram).materialize()
    else:
        docs = bloom_semi_join(
            ds.select_columns([id_col, col]), ids_ds, on=id_col, keys_distinct=True
        )
        sets = _shingle_rows(docs, col, id_col, ngram).materialize()
    sa = sets.map_batches(lambda t: t.rename_columns(["a", "sh_a"]), batch_format="pyarrow")
    sb = sets.map_batches(lambda t: t.rename_columns(["b", "sh_b"]), batch_format="pyarrow")
    j = bucketed_hash_join(pairs_ds.select_columns(["a", "b"]), sa, on="a")
    j = bucketed_hash_join(j, sb, on="b")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        # payloads are sorted-unique uint64 buffers (_shingle_payloads), so
        # intersect1d(assume_unique=True) scores each pair without building
        # Python sets — ~an order of magnitude cheaper on dup-heavy corpora
        # where verified pairs are billions
        empty = np.empty(0, dtype=np.uint64)
        keep = np.zeros(len(df), dtype=bool)
        for i, (xa, xb) in enumerate(zip(df["sh_a"], df["sh_b"])):
            a = np.frombuffer(xa, dtype=np.uint64) if isinstance(xa, bytes) else empty
            b = np.frombuffer(xb, dtype=np.uint64) if isinstance(xb, bytes) else empty
            inter = np.intersect1d(a, b, assume_unique=True).size
            union = a.size + b.size - inter
            keep[i] = ((inter / union) if union else 1.0) >= threshold
        return pd.DataFrame({"a": df["a"].to_numpy()[keep], "b": df["b"].to_numpy()[keep]})

    return j.map_batches(score, batch_format="pandas")


def _full_labeling(ds, labels: dict, id_col: str):
    """Full (doc -> cluster) labeling as a streaming map over the corpus: the
    near-dup label map (bounded by docs in candidate pairs) is broadcast via
    ray.put; unlabeled docs keep their own id. Replaces the old
    `ds.unique(id_col)` driver materialization of EVERY corpus id."""
    import ray

    ref = ray.put(labels)

    def lab(df: pd.DataFrame) -> pd.DataFrame:
        m = ref
        if isinstance(m, ray.ObjectRef):
            m = ray.get(m)
        ids = df[id_col]
        mapped = ids.map(m)
        out = mapped.where(mapped.notna(), ids)
        return pd.DataFrame({id_col: ids, "cluster": out.astype(ids.dtype)})

    return ds.select_columns([id_col]).map_batches(lab, batch_format="pandas")


def _full_labeling_join(ds, labels_ds, id_col: str):
    """Join-based full (doc -> cluster) labeling for dup-heavy corpora where
    even the near-dup label TABLE outgrows a broadcast (billions of rows at
    30-50% web duplication): one bucketed left join of corpus ids against the
    label Dataset; unlabeled docs keep their own id. Nothing touches the
    driver."""
    from .joins import bucketed_hash_join

    lab = labels_ds.map_batches(
        lambda df: df.rename(columns={"src": id_col, "label": "cluster"}),
        batch_format="pandas",
    )
    joined = bucketed_hash_join(ds.select_columns([id_col]), lab, on=id_col, how="left")

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cluster"].where(df["cluster"].notna(), df[id_col])
        return pd.DataFrame({id_col: df[id_col], "cluster": c.astype(df[id_col].dtype)})

    return joined.map_batches(fill, batch_format="pandas")


def _finish_labels(ds, labels: dict, id_col: str, include_singletons: bool):
    if include_singletons:
        return _full_labeling(ds, labels, id_col)
    return (
        pd.DataFrame({id_col: list(labels), "cluster": [labels[k] for k in labels]})
        .sort_values(id_col)
        .reset_index(drop=True)
    )


def _assemble_labels(verified_pairs_ds, assembly: str, driver_max_pairs: int):
    """Cluster labels from a (materialized) verified-pair Dataset: a dict via
    driver union-find below `driver_max_pairs`, else the label DATASET from
    distributed min-label propagation (kept distributed — the caller decides
    whether it is small enough to pull)."""
    n = verified_pairs_ds.count()
    if n == 0:
        return {}
    if assembly == "driver" or (assembly == "auto" and n <= driver_max_pairs):
        pairs = sorted({(r["a"], r["b"]) for r in verified_pairs_ds.take_all()})
        return _union_find(pairs)
    return distributed_components(verified_pairs_ds)


def _finish_from_assembly(
    ds, labels_obj, id_col: str, include_singletons: bool, broadcast_max_labels: int = 200_000
):
    """Labeling policy ladder: dict labels -> broadcast map; Dataset labels
    that fit -> pull once and broadcast; Dataset labels above
    `broadcast_max_labels` (dup-heavy corpora: billions of near-dup nodes)
    NEVER reach the driver — full labeling goes through a bucketed join, and
    the paired-docs-only result stays a Dataset (columns id, cluster) instead
    of the usual pandas DataFrame."""
    if isinstance(labels_obj, dict):
        return _finish_labels(ds, labels_obj, id_col, include_singletons)
    if labels_obj.count() > broadcast_max_labels:
        if include_singletons:
            return _full_labeling_join(ds, labels_obj, id_col)
        return labels_obj.map_batches(
            lambda df: df.rename(columns={"src": id_col, "label": "cluster"}),
            batch_format="pandas",
        )
    labels = {r["src"]: r["label"] for r in labels_obj.take_all()}
    return _finish_labels(ds, labels, id_col, include_singletons)


def minhash_lsh_dedup(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    params: MinHashParams | None = None,
    ngram: int = 3,
    verify: bool = True,
    include_singletons: bool = False,
    assembly: str = "auto",
    driver_max_pairs: int = 100_000,
    broadcast_max_labels: int = 200_000,
):
    """Near-dup clustering (cluster = min doc id). Returns a small pandas
    DataFrame of the PAIRED docs by default; `include_singletons=True` returns
    a streaming Dataset labeling the whole corpus (cluster=doc_id for uniques)
    with no driver-side corpus materialization — above `broadcast_max_labels`
    near-dup nodes the full labeling switches from a broadcast map to a
    bucketed join, so dup-heavy corpora never pull the label table either.

    `assembly`: 'driver' (take_all + union-find; bounded by candidate pairs),
    'distributed' (bucketed-join Jaccard verify + min-label-propagation
    components), or 'auto' (driver below `driver_max_pairs` candidates)."""
    p = params or MinHashParams()
    sig = ds.map_batches(MinHashSignatures(p, col, id_col, ngram), batch_format="pyarrow")
    pairs_ds = _bucket_pairs(sig, id_col).materialize()
    n_pairs = pairs_ds.count()
    use_driver = assembly == "driver" or (assembly == "auto" and n_pairs <= driver_max_pairs)
    if n_pairs == 0:
        labels_obj: dict | object = {}
    elif use_driver:
        raw_pairs = sorted({(r["a"], r["b"]) for r in pairs_ds.take_all()})
        if verify:
            raw_pairs = jaccard_verify_pairs(ds, raw_pairs, col, id_col, ngram, threshold)
        labels_obj = _union_find(raw_pairs)
    else:
        vp = (
            jaccard_verify_distributed(ds, pairs_ds, col, id_col, ngram, threshold)
            if verify
            else pairs_ds
        ).materialize()
        labels_obj = _assemble_labels(vp, "distributed", driver_max_pairs)
    return _finish_from_assembly(ds, labels_obj, id_col, include_singletons, broadcast_max_labels)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def simhash_vector(texts: np.ndarray) -> np.ndarray:
    """64-bit simhash per doc from token hashes (unit weights). Tokenization
    is the shared Arrow kernel (`textkernels.tokenize` — identical token
    sequence to re.findall('[a-z0-9]+', text.lower())) and token hashing is
    one `hash64` pass over the DISTINCT tokens (dictionary-encoded), mirroring
    `_shingle_hashes` — no per-row Python in the signature stage."""
    from ..functions.textkernels import tokenize

    flat, doc_idx, n_tokens = tokenize(pa.array(list(texts), type=pa.string()))
    n_docs = len(n_tokens)
    out = np.zeros(n_docs, dtype=np.uint64)
    if not len(flat):
        return out
    denc = flat.dictionary_encode()
    uniq_hash = hash64(denc.dictionary.to_numpy(zero_copy_only=False)).astype(np.uint64)
    H = uniq_hash[denc.indices.to_numpy(zero_copy_only=False)]
    acc = np.zeros((n_docs, 64), dtype=np.int32)
    for j in range(64):
        bit = ((H >> np.uint64(j)) & np.uint64(1)).astype(np.int32) * 2 - 1
        np.add.at(acc[:, j], doc_idx, bit)
    bits = (acc > 0).astype(np.uint64)
    for j in range(64):
        out |= bits[:, j] << np.uint64(j)
    return out


class SimHashSignatures:
    """map_batches stage -> (doc_id, band, band_hash, simhash): 4 bands of 16
    bits for candidate generation + the full hash for verification."""

    def __init__(self, col: str = "text", id_col: str = "doc_id"):
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # typed empty emission — see MinHashSignatures/HyperplaneLSH
            return pa.table(
                {
                    self.id_col: pa.array(
                        [], type=batch.schema.field(self.id_col).type
                    ),
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "simhash": pa.array([], pa.int64()),
                }
            )
        texts = batch[self.col].to_numpy(zero_copy_only=False)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sh = simhash_vector(texts)
        n = len(ids)
        bands = np.empty((n, 4), dtype=np.uint64)
        for b in range(4):
            bands[:, b] = (sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, 4)),
                "band": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
                # int64 bit-casts: stable pandas-block representation
                "band_hash": pa.array(bands.reshape(-1).view(np.int64)),
                "simhash": pa.array(np.repeat(sh, 4).view(np.int64)),
            }
        )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR)."""
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def simhash_dedup(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    include_singletons: bool = False,
    assembly: str = "auto",
    driver_max_pairs: int = 100_000,
    broadcast_max_labels: int = 200_000,
    pair_cap: int = 1024,
):
    """Near-dup clusters by simhash: banded candidates (any identical 16-bit
    band) verified by exact Hamming distance <= max_hamming.

    Candidate generation goes through `_bucket_pairs` — the shuffle key is a
    HASH of (band, band_hash), never the 4-valued raw band (which would make
    four corpus-scale groups). Verification is a vectorized map over the pair
    Dataset; cluster assembly follows the same driver/distributed policy as
    minhash_lsh_dedup. `pair_cap` is generous here (16-bit bands make
    mid-size DIVERSE buckets the norm — the star/chain fallback loses
    Hamming-verified edges in them, measured at sf0.1 where buckets reach
    190 diverse signatures); above the cap the mega-bucket fallback applies
    (near-identical template families, star edges verify at distance ~0)."""
    sig = ds.map_batches(SimHashSignatures(col, id_col), batch_format="pyarrow")
    pairs = _bucket_pairs(sig, id_col, extra_cols=("simhash",), pair_cap=pair_cap)

    def hamming_ok(df: pd.DataFrame) -> pd.DataFrame:
        ha = df["simhash_a"].to_numpy().astype(np.uint64)
        hb = df["simhash_b"].to_numpy().astype(np.uint64)
        m = _popcount64(ha ^ hb) <= max_hamming
        return pd.DataFrame({"a": df["a"].to_numpy()[m], "b": df["b"].to_numpy()[m]})

    verified = pairs.map_batches(hamming_ok, batch_format="pandas").materialize()
    labels_obj = _assemble_labels(verified, assembly, driver_max_pairs)
    return _finish_from_assembly(ds, labels_obj, id_col, include_singletons, broadcast_max_labels)


def ngram_jaccard_pairs(ds, pairs: list[tuple], col: str = "text", id_col: str = "doc_id", ngram: int = 3) -> pd.DataFrame:
    """Exact n-gram Jaccard similarity for explicit id pairs (the standalone
    verification kernel)."""
    cand_ids = sorted({x for pr in pairs for x in pr})
    cand_arr = pa.array(cand_ids)

    def shingle_sets(batch: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.is_in(batch[id_col], value_set=cand_arr), False)
        sel = batch.filter(mask)
        texts = sel[col].to_numpy(zero_copy_only=False)
        sh, off = _shingle_hashes(texts, ngram)
        lists = [np.unique(sh[off[i] : off[i + 1]]).tolist() for i in range(len(off) - 1)]
        return pa.table({id_col: sel[id_col], "sh": pa.array(lists, type=pa.list_(pa.uint64()))})

    rows = ds.select_columns([id_col, col]).map_batches(shingle_sets, batch_format="pyarrow").take_all()
    sets = {r[id_col]: np.asarray(r["sh"], dtype=np.uint64) for r in rows}
    empty = np.empty(0, dtype=np.uint64)
    out = []
    for a, b in pairs:
        sa, sb = sets.get(a, empty), sets.get(b, empty)
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        out.append({"a": a, "b": b, "jaccard": (inter / union) if union else 1.0})
    return pd.DataFrame(out)


def jaccard_allpairs_join(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    ngram: int = 3,
    threshold_millis: int = 500,
    broadcast_max_docs: int = 2_000_000,
    mode: str = "jaccard",
):
    """EXACT word-n-gram Jaccard similar-pair join over the whole corpus —
    the dedup family's hash-free ground-truth relation (dedup_minhash
    approximates exactly this; `ngram_jaccard_pairs` above scores only
    explicit candidate pairs).

    Distributed inverted shingle index: distinct (shingle, doc) postings
    hash-bucket BY SHINGLE, so each bucket task counts its shingles'
    co-occurrence pairs with one vectorized self-merge (a shingle's postings
    co-locate by construction); partial pair counts reduce in a global (a,b)
    groupby; union sizes attach via a broadcast size map when the corpus is
    ≤ `broadcast_max_docs` documents, else a bucketed hash join. The
    threshold compares in exact integer cross-multiplication
    (1000*|A∩B| >= millis*|A∪B|) — no float channel in compared output.

    ``mode="containment"`` keeps the identical index/pair machinery but
    scores max-containment instead: 1000*|A∩B| >= millis*min(|A|,|B|) — the
    asymmetric near-dup (quotes, excerpts, one doc embedded in another) that
    Jaccard under-scores when sizes differ; returns (a, b, inter_sh, n_a,
    n_b) instead of the union column.

    Scale note: a shingle shared by k docs inherently emits O(k²) pair rows
    — the cost of the EXACT relation (the SQL twin pays the same join);
    corpus-scale near-dup detection uses minhash_lsh_dedup / simhash_dedup,
    whose candidate generation is capped. Tokenization is the SQL-pinned
    kernel (functions/textkernels.tokenize ≙ regexp_extract_all lower).
    Returns columns a, b, inter_sh, union_sh (all int64)."""
    import ray

    from ..functions.textkernels import tokenize

    empty_sh = pa.table(
        {"sh": pa.array([], type=pa.string()), "did": pa.array([], type=pa.int64())}
    )

    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if not len(ids):
            return empty_sh
        flat, doc_idx, _ = tokenize(batch[col])
        n = len(doc_idx)
        if n < ngram:
            return empty_sh
        valid = doc_idx[: n - ngram + 1] == doc_idx[ngram - 1 :]
        starts = np.nonzero(valid)[0]
        if not starts.size:
            return empty_sh
        sh = flat.take(pa.array(starts, type=pa.int64()))
        for j in range(1, ngram):
            sh = pc.binary_join_element_wise(
                sh, flat.take(pa.array(starts + j, type=pa.int64())), " "
            )
        df = pd.DataFrame(
            {
                "sh": sh.to_numpy(zero_copy_only=False),
                "did": ids[doc_idx[starts]],
            }
        ).drop_duplicates()
        return pa.table(
            {
                "sh": pa.array(df["sh"].to_numpy(dtype=object), type=pa.string()),
                "did": pa.array(df["did"].to_numpy(), type=pa.int64()),
            }
        )

    shingles = (
        ds.select_columns([id_col, col])
        .map_batches(shingle_rows, batch_format="pyarrow")
        .materialize()  # consumed twice: sizes + pair counting
    )

    def bucket_pairs(df: "pd.DataFrame") -> "pd.DataFrame":
        m = df[["sh", "did"]].merge(df[["sh", "did"]], on="sh")
        m = m[m["did_x"] < m["did_y"]]
        c = (
            m.groupby(["did_x", "did_y"], sort=False)
            .size()
            .reset_index(name="c")
            .rename(columns={"did_x": "a", "did_y": "b"})
        )
        c["c"] = c["c"].astype(np.int64)
        return c

    # global pair-count reduction: an exchange keyed by the (a,b) pair and a
    # vectorized pandas sum per bucket — Ray's multi-column groupby sort path
    # is pathologically slow at millions of rows (measured: >170s for 1.3M
    # pair partials vs ~2s this way), and a pair key lives in exactly one
    # bucket so per-bucket sums are exact
    def sum_pairs(df: "pd.DataFrame") -> "pd.DataFrame":
        out = (
            df.groupby(["a", "b"], sort=False)["c"]
            .sum()
            .reset_index(name="inter_sh")
        )
        out["inter_sh"] = out["inter_sh"].astype(np.int64)
        return out

    inter = exchange(exchange(shingles, "sh", bucket_pairs), ["a", "b"], sum_pairs)

    # bucketed count, not groupby(did).aggregate: distinct docs scale with
    # the corpus and Ray's sort aggregate degrades with group cardinality
    from .assembly import bucketed_count_per_key

    sizes = bucketed_count_per_key(shingles, "did", "n_sh")
    if sizes.count() <= broadcast_max_docs:
        size_map = {r["did"]: r["n_sh"] for r in sizes.take_all()}
        ref = ray.put(size_map)

        def attach(df: "pd.DataFrame") -> "pd.DataFrame":
            sm = ref
            if isinstance(sm, ray.ObjectRef):
                sm = ray.get(sm)
            na = df["a"].map(sm).astype(np.int64)
            nb = df["b"].map(sm).astype(np.int64)
            if mode == "containment":
                df = df.assign(n_a=na, n_b=nb)
                keep = 1000 * df["inter_sh"] >= threshold_millis * np.minimum(na, nb)
                return df.loc[keep, ["a", "b", "inter_sh", "n_a", "n_b"]]
            df = df.assign(union_sh=(na + nb - df["inter_sh"]).astype(np.int64))
            keep = 1000 * df["inter_sh"] >= threshold_millis * df["union_sh"]
            return df[keep]

        return inter.map_batches(attach, batch_format="pandas")
    # corpus-scale size table: two bucketed joins instead of a broadcast
    from .joins import bucketed_hash_join

    sz_a = sizes.map_batches(
        lambda d: d.rename(columns={"did": "a", "n_sh": "n_a"}),
        batch_format="pandas",
    )
    sz_b = sizes.map_batches(
        lambda d: d.rename(columns={"did": "b", "n_sh": "n_b"}),
        batch_format="pandas",
    )
    joined = bucketed_hash_join(bucketed_hash_join(inter, sz_a, on="a"), sz_b, on="b")

    def finish(df: "pd.DataFrame") -> "pd.DataFrame":
        if mode == "containment":
            keep = 1000 * df["inter_sh"] >= threshold_millis * np.minimum(
                df["n_a"], df["n_b"]
            )
            out = df.loc[keep, ["a", "b", "inter_sh", "n_a", "n_b"]]
            out["n_a"] = out["n_a"].astype(np.int64)
            out["n_b"] = out["n_b"].astype(np.int64)
            return out
        df = df.assign(
            union_sh=(df["n_a"] + df["n_b"] - df["inter_sh"]).astype(np.int64)
        )
        keep = 1000 * df["inter_sh"] >= threshold_millis * df["union_sh"]
        return df.loc[keep, ["a", "b", "inter_sh", "union_sh"]]

    return joined.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------


class HyperplaneLSH:
    """map_batches stage -> (id, band, band_hash, emb_norm) rows, `bands` per
    vector: each band is the sign pattern of the normalized embedding under its
    own `n_bits` random hyperplanes (independent bands drive pair recall
    exactly like minhash banding — P[miss] = (1 - p^n_bits)^bands for
    collision prob p per plane). The rows feed `_bucket_pairs`, which shuffles
    on a HASH of (band, band_hash) and caps within-bucket pair emission.

    Shuffle cost note: the normalized vector rides along `bands` times
    (bands x dim x 4 bytes per vector); for very large `dim` lower `bands` or
    swap the extra_col for a bucketed join of vectors onto the pair set."""

    def __init__(
        self,
        dim: int,
        n_bits: int = 8,
        bands: int = 8,
        seed: int = 11,
        col: str = "embedding",
        id_col: str = "vec_id",
    ):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, bands * n_bits)).astype(np.float32)
        self.n_bits = n_bits
        self.bands = bands
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # Ray does produce empty blocks at small scale; np.stack on zero
            # rows raises — emit a typed empty table (mirrors cosine_verify_pairs)
            return pa.table(
                {
                    self.id_col: pa.array([], type=batch.schema.field(self.id_col).type),
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "emb_norm": pa.array([], pa.list_(pa.float32())),
                }
            )
        emb = np.stack(batch[self.col].to_numpy(zero_copy_only=False))
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = (emb / np.maximum(norms, 1e-12)).astype(np.float32)
        bits = (emb @ self.planes) > 0  # (n, bands * n_bits)
        n = len(emb)
        bh = np.zeros((n, self.bands), dtype=np.uint64)
        for b in range(self.bands):
            for j in range(self.n_bits):
                bh[:, b] |= bits[:, b * self.n_bits + j].astype(np.uint64) << np.uint64(j)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        emb_list = pa.FixedSizeListArray.from_arrays(
            pa.array(np.repeat(emb, self.bands, axis=0).reshape(-1)), emb.shape[1]
        ).cast(pa.list_(pa.float32()))
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, self.bands)),
                "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
                # int64 bit-cast: stable pandas-block representation
                "band_hash": pa.array(bh.reshape(-1).view(np.int64)),
                "emb_norm": emb_list,
            }
        )


def embedding_candidate_pairs(
    ds,
    col: str = "embedding",
    id_col: str = "vec_id",
    n_bits: int = 8,
    bands: int = 8,
    dim: int | None = None,
    pair_cap: int = 20,
):
    """Candidate (a, b, emb_norm_a, emb_norm_b) pairs from banded
    hyperplane-LSH through the SAME capped pair policy as minhash/simhash
    (`_bucket_pairs`: all-pairs <= pair_cap per LSH bucket, star+chain above)
    — a hot bucket of near-identical vectors emits O(bucket) pairs, never
    O(bucket^2), and no task ever densifies a whole bucket's matrix."""
    if dim is None:
        head = ds.take(1)
        if not head:
            # empty / fully-filtered input: no pairs by definition — emit the
            # typed empty pair table instead of IndexError-ing on take(1)
            import ray.data as _rd

            return _rd.from_arrow(
                pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                        "emb_norm_a": pa.array([], pa.list_(pa.float32())),
                        "emb_norm_b": pa.array([], pa.list_(pa.float32())),
                    }
                )
            )
        dim = len(head[0][col])
    sig = ds.map_batches(
        HyperplaneLSH(dim, n_bits, bands, col=col, id_col=id_col), batch_format="pyarrow"
    )
    return _bucket_pairs(sig, id_col, extra_cols=("emb_norm",), pair_cap=pair_cap)


def cosine_verify_pairs(pairs_ds, threshold: float):
    """Pairwise cosine over the candidate-pair Dataset (row-wise dot of the
    two normalized vectors — vectorized per batch, linear in pairs)."""

    def cosine_ok(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"a": pd.Series([], dtype=df["a"].dtype), "b": pd.Series([], dtype=df["b"].dtype)}
            )
        A = np.stack(df["emb_norm_a"].to_numpy()).astype(np.float64)
        B = np.stack(df["emb_norm_b"].to_numpy()).astype(np.float64)
        sims = np.einsum("ij,ij->i", A, B)
        m = sims >= threshold
        return pd.DataFrame({"a": df["a"].to_numpy()[m], "b": df["b"].to_numpy()[m]})

    return pairs_ds.map_batches(cosine_ok, batch_format="pandas")


def embedding_dedup(
    ds,
    threshold: float = 0.95,
    col: str = "embedding",
    id_col: str = "vec_id",
    n_bits: int = 8,
    bands: int = 8,
    dim: int | None = None,
    include_singletons: bool = False,
    assembly: str = "auto",
    driver_max_pairs: int = 100_000,
    pair_cap: int = 20,
    broadcast_max_labels: int = 200_000,
):
    """Embedding-cosine near-dup clusters: banded hyperplane-LSH candidates
    through the capped `_bucket_pairs` policy (carrying the normalized vector
    as an extra_col) -> pairwise cosine >= threshold over the pair Dataset ->
    driver or distributed components. Verified-pair semantics are exact cosine
    among candidates; with enough bands the candidate recall at `threshold` is
    ~1, making the pair set equal to exact all-pairs cosine (the SQL twin)."""
    pairs = embedding_candidate_pairs(
        ds, col, id_col, n_bits, bands, dim, pair_cap=pair_cap
    )
    verified = cosine_verify_pairs(pairs, threshold).materialize()
    labels_obj = _assemble_labels(verified, assembly, driver_max_pairs)
    return _finish_from_assembly(ds, labels_obj, id_col, include_singletons, broadcast_max_labels)


def dup_cluster_stats(labels_ds, label_col: str = "cluster"):
    """Cluster-size histogram of a dedup labeling — the dup-rate report every
    dedup run ends with: (cluster_size, n_clusters). Size-1 clusters are the
    unique docs; sum(cluster_size × n_clusters) = corpus. The label → size
    level scales with the corpus (a bucketed count, BASELINE.md
    group-cardinality addendum); the size → count level has few distinct
    sizes and folds on the driver (``fold.sum_by_key``)."""
    from .assembly import bucketed_count_per_key
    from .fold import dataset, sum_by_key

    schema = pa.schema([("cluster_size", pa.int64()), ("n_clusters", pa.int64())])

    def size_counts(t: pa.Table) -> pa.Table:
        c = t.group_by("cluster_size", use_threads=False).aggregate([([], "count_all")])
        return c.select(["cluster_size", "count_all"]).rename_columns(schema.names)

    sizes = bucketed_count_per_key(labels_ds, label_col, "cluster_size")
    return dataset(sum_by_key(sizes, schema, ["cluster_size"], size_counts))


def normalized_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """Normalized exact dedup keepers: min id per group of
    `trim(collapse_ws(lower(text)))` — the curation pass that collapses
    case- and whitespace-variant copies (re-crawls, reflowed mirrors) that
    byte-exact dedup misses but near-dup LSH is overkill for.

    Normalization is pure Arrow kernels (utf8_lower + one RE2
    replace_substring_regex + trim), then the pipeline IS `exact_dedup`: one
    groupby on the 64-bit content hash, shuffle volume 16 bytes/row. The
    RE2 class `[ \\t\\n\\r]+` and space-only trim are mirrored verbatim in
    the DuckDB twin (regexp_replace(..., 'g') is RE2 too, so the
    normalization is bit-identical on both engines)."""

    def normalize(t: pa.Table) -> pa.Table:
        x = pc.utf8_lower(pc.fill_null(t[col], ""))
        x = pc.replace_substring_regex(x, pattern="[ \\t\\n\\r]+", replacement=" ")
        x = pc.utf8_trim(x, characters=" ")
        return pa.table({id_col: t[id_col], col: x})

    normalize.__name__ = "normalize_text"
    return exact_dedup(
        ds.select_columns([id_col, col]).map_batches(normalize, batch_format="pyarrow"),
        col=col,
        id_col=id_col,
    )
