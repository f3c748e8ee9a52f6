"""Approximate-nearest-neighbor search over an embedding column
(`list<float>`).

Baseline: brute-force cosine top-k — the query matrix is broadcast ONCE via
``ray.put`` (read per actor/task, never re-shipped per batch); each
``map_batches`` call does one float64 matmul (batch × queries) and emits only
its per-batch top-k candidate rows; a final tiny per-query reduction keeps the
global top-k. Wall-clock scales linearly in corpus size with zero shuffle of
the embeddings themselves.

Scale path: IVF-style bucketing — k-means-lite coarse centroids (sampled,
computed once on the driver), each vector assigned to its nearest centroid in
a map_batches pass, searches probe only the closest `nprobe` buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _normalize(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


class BruteForceTopK:
    """map_batches stage: per-batch cosine top-k against the broadcast query
    matrix (queries fetched from the object store once per worker).

    `bucket_col` + a probe matrix in the broadcast tuple restrict each QUERY
    to its own probed IVF buckets — without it, ann_topk_ivf scored every
    query against the UNION of all queries' buckets, which approaches brute
    force as the query count grows (the per-query probe lists were dead)."""

    def __init__(
        self,
        queries_ref,
        k: int,
        col: str = "embedding",
        id_col: str = "vec_id",
        bucket_col: str | None = None,
    ):
        # ray.ObjectRef to (q_ids, Q) or (q_ids, Q, probe) — probe is an
        # (n_q, nprobe) int bucket matrix, required when bucket_col is set
        self.queries_ref = queries_ref
        self.k = k
        self.col = col
        self.id_col = id_col
        self.bucket_col = bucket_col
        self._q = None
        self._probe = None

    def _queries(self):
        if self._q is None:
            obj = self.queries_ref
            try:
                import ray

                if isinstance(obj, ray.ObjectRef):
                    obj = ray.get(obj)
            except Exception:
                pass
            if len(obj) == 3:
                q_ids, Q, probe = obj
                self._probe = np.asarray(probe)
            else:
                q_ids, Q = obj
            self._q = (np.asarray(q_ids), _normalize(np.asarray(Q, dtype=np.float64)))
        return self._q

    def __call__(self, batch: pa.Table) -> pa.Table:
        q_ids, Q = self._queries()
        if batch.num_rows == 0:
            # empty blocks occur at small scale; np.stack on zero rows raises
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.from_numpy_dtype(np.asarray(q_ids).dtype) if len(q_ids) else pa.int64()),
                    "vec_id": pa.array([], type=batch.schema.field(self.id_col).type),
                    "score": pa.array([], pa.float64()),
                }
            )
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        E = _normalize(np.stack(batch[self.col].to_numpy(zero_copy_only=False)).astype(np.float64))
        sims = Q @ E.T  # (n_queries, batch)
        if self.bucket_col is not None and self._probe is not None:
            # per-query IVF restriction: -inf out columns whose bucket this
            # query did not probe (nprobe × n_q small; batch-sized mask)
            b = batch[self.bucket_col].to_numpy(zero_copy_only=False)
            allowed = (self._probe[:, :, None] == b[None, None, :]).any(axis=1)
            sims = np.where(allowed, sims, -np.inf)
        k = min(self.k, sims.shape[1])
        # kth-largest per query, then keep score >= kth INCLUDING boundary
        # ties: a bare argpartition keeps an arbitrary k of a tied set, and
        # the global (score DESC, vec_id ASC) tie-break can't recover a
        # candidate the batch already dropped (exact-duplicate embeddings
        # make bit-identical scores the normal case on a near-dup corpus)
        kth = -np.partition(-sims, k - 1, axis=1)[:, k - 1]
        rows_q, rows_v, rows_s = [], [], []
        for qi in range(sims.shape[0]):
            cand = np.nonzero(sims[qi] >= kth[qi])[0]
            order = np.lexsort((ids[cand], -sims[qi][cand]))
            idx = cand[order[:k]]
            # masked-out columns surface as -inf: a query with < k allowed
            # candidates in this batch emits only the real ones
            idx = idx[np.isfinite(sims[qi, idx])]
            rows_q.append(np.full(len(idx), q_ids[qi]))
            rows_v.append(ids[idx])
            rows_s.append(sims[qi, idx])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(rows_q)),
                "vec_id": pa.array(np.concatenate(rows_v)),
                "score": pa.array(np.concatenate(rows_s)),
            }
        )


def ann_topk(ds, query_ids: list, k: int = 10, col: str = "embedding", id_col: str = "vec_id"):
    """Global cosine top-k of each query vector against the corpus.
    Returns a DataFrame (query_id, vec_id, rank, score) with rank 1..k by
    descending score (ties broken by vec_id for determinism)."""
    import ray

    qarr = pa.array(list(query_ids))

    def grab(batch: pa.Table) -> pa.Table:
        # vectorized hash-set membership (pc.is_in), never a per-row Python loop
        mask = pc.fill_null(pc.is_in(batch[id_col], value_set=qarr), False)
        return batch.filter(mask).select([id_col, col])

    qrows = ds.map_batches(grab, batch_format="pyarrow").take_all()
    by_id = {r[id_col]: r[col] for r in qrows}
    q_ids = [q for q in query_ids if q in by_id]
    Q = np.stack([np.asarray(by_id[q], dtype=np.float64) for q in q_ids])
    ref = ray.put((q_ids, Q))

    partials = ds.map_batches(
        BruteForceTopK(ref, k, col, id_col), batch_format="pyarrow"
    ).to_pandas()
    # final per-query reduction (tiny: n_queries × k × n_blocks rows)
    partials = partials.sort_values(
        ["query_id", "score", "vec_id"], ascending=[True, False, True]
    )
    out = partials.groupby("query_id", sort=True).head(k).copy()
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out["score"] = out["score"].round(6)
    return out[["query_id", "vec_id", "rank", "score"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF-style bucketed variant (the scale path)
# ---------------------------------------------------------------------------


def train_centroids(ds, n_centroids: int = 64, sample: int = 10_000, iters: int = 10, col: str = "embedding", seed: int = 3):
    """k-means-lite on a driver-side sample -> (n_centroids, dim) float64."""
    n = ds.count()
    frac = min(1.0, sample / max(1, n))
    rows = ds.random_sample(frac, seed=seed).take_all()
    X = _normalize(np.stack([np.asarray(r[col], dtype=np.float64) for r in rows]))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for j in range(C.shape[0]):
            m = assign == j
            if m.any():
                C[j] = X[m].mean(axis=0)
        C = _normalize(C)
    return C


class IVFAssign:
    """map_batches stage: nearest-centroid bucket id per vector."""

    def __init__(self, centroids_ref, col: str = "embedding"):
        self.centroids_ref = centroids_ref
        self.col = col
        self._C = None

    def _c(self):
        if self._C is None:
            obj = self.centroids_ref
            try:
                import ray

                if isinstance(obj, ray.ObjectRef):
                    obj = ray.get(obj)
            except Exception:
                pass
            self._C = np.asarray(obj, dtype=np.float64)
        return self._C

    def __call__(self, batch: pa.Table) -> pa.Table:
        C = self._c()
        if batch.num_rows == 0:
            return batch.append_column("ivf_bucket", pa.array([], pa.int32()))
        E = _normalize(np.stack(batch[self.col].to_numpy(zero_copy_only=False)).astype(np.float64))
        bucket = np.argmax(E @ C.T, axis=1).astype(np.int32)
        return batch.append_column("ivf_bucket", pa.array(bucket))


def ann_topk_ivf(
    ds,
    query_ids: list,
    k: int = 10,
    n_centroids: int = 64,
    nprobe: int = 8,
    col: str = "embedding",
    id_col: str = "vec_id",
):
    """IVF-bucketed ANN: search only the `nprobe` closest buckets per query.
    Approximate (recall < 1 by design); compare against ann_topk in tests."""
    import ray

    C = train_centroids(ds, n_centroids, col=col)
    cref = ray.put(C)
    assigned = ds.map_batches(IVFAssign(cref, col), batch_format="pyarrow")

    qarr = pa.array(list(query_ids))

    def grab(batch: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.is_in(batch[id_col], value_set=qarr), False)
        return batch.filter(mask).select([id_col, col])

    qrows = ds.map_batches(grab, batch_format="pyarrow").take_all()
    by_id = {r[id_col]: r[col] for r in qrows}
    q_ids = [q for q in query_ids if q in by_id]
    Q = _normalize(np.stack([np.asarray(by_id[q], dtype=np.float64) for q in q_ids]))
    probe = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]  # (n_q, nprobe)
    probed: dict[int, list[int]] = {}
    for qi, buckets in enumerate(probe):
        for b in buckets:
            probed.setdefault(int(b), []).append(qi)
    wanted_buckets = sorted(probed)

    # broadcast semi-join on the probed bucket set (bounded by centroids ×
    # nprobe; never a literal in-list expression)
    bref = ray.put(np.asarray(wanted_buckets, dtype=np.int32))

    def keep_probed(t: pa.Table) -> pa.Table:
        buckets = bref
        if isinstance(buckets, ray.ObjectRef):
            buckets = ray.get(buckets)
        b = t["ivf_bucket"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(np.isin(b, buckets)))

    filtered = assigned.map_batches(keep_probed, batch_format="pyarrow")
    # ship the per-query probe matrix so scoring restricts each query to ITS
    # buckets — scoring the union of all queries' buckets approaches brute
    # force as the query count grows
    qref = ray.put((q_ids, Q, probe.astype(np.int32)))
    partials = filtered.map_batches(
        BruteForceTopK(qref, k, col, id_col, bucket_col="ivf_bucket"),
        batch_format="pyarrow",
    ).to_pandas()
    partials = partials.sort_values(
        ["query_id", "score", "vec_id"], ascending=[True, False, True]
    )
    out = partials.groupby("query_id", sort=True).head(k).copy()
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out["score"] = out["score"].round(6)
    return out[["query_id", "vec_id", "rank", "score"]].reset_index(drop=True)


def vector_checks(ds, col: str = "embedding", id_col: str = "vec_id"):
    """Schema/constraint validation for vector columns (the embedding-table
    analog of the scalar validator): per row emit (id, dim, n_nan, zero_norm)
    — dimension drift, NaN poisoning and zero-norm (undefined-cosine) vectors
    are the three failure modes an embedding pipeline must gate on before
    ANN/dedup. Map-only, zero shuffle; list offsets are consumed zero-copy
    (flatten + cumsum segment sums, never a per-row Python loop)."""

    def check(t: pa.Table) -> pa.Table:
        sel = t.select([id_col])
        if t.num_rows == 0:
            for name in ("dim", "n_nan", "zero_norm"):
                sel = sel.append_column(name, pa.array([], pa.int64()))
            return sel
        lv = t[col].combine_chunks()
        if isinstance(lv, pa.ChunkedArray):
            lv = lv.combine_chunks()
        lengths = pc.fill_null(pc.list_value_length(lv), 0).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lv).to_numpy(zero_copy_only=False).astype(np.float64)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        nan_cum = np.concatenate(([0.0], np.cumsum(np.isnan(flat))))
        n_nan = (nan_cum[ends] - nan_cum[starts]).astype(np.int64)
        sq = np.where(np.isnan(flat), 0.0, flat) ** 2
        sq_cum = np.concatenate(([0.0], np.cumsum(sq)))
        norms = sq_cum[ends] - sq_cum[starts]
        zero = (norms == 0.0).astype(np.int64)
        return (
            sel.append_column("dim", pa.array(lengths))
            .append_column("n_nan", pa.array(n_nan))
            .append_column("zero_norm", pa.array(zero))
        )

    return ds.map_batches(check, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Full-corpus k-means (topic clustering for data balancing / semantic dedup)
# ---------------------------------------------------------------------------


def _sq_dists(E: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared L2 distances, elementwise ((E-C)**2).sum — the same
    association order the DuckDB list_distance twin uses, so argmin parity
    holds to the last ulp (the matmul expansion |E|²+|C|²-2E·C is cheaper but
    rounds differently)."""
    return ((E[:, None, :] - C[None, :, :]) ** 2).sum(axis=-1)


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    return np.stack(batch[col].to_numpy(zero_copy_only=False)).astype(np.float64)


def _lloyd_step(E: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One assignment pass: per-cluster (sum vector, count) partials."""
    a = np.argmin(_sq_dists(E, C), axis=1)
    k = C.shape[0]
    sums = np.zeros_like(C)
    for j in range(k):
        m = a == j
        if m.any():
            sums[j] = E[m].sum(axis=0)
    return sums, np.bincount(a, minlength=k).astype(np.int64)


def kmeans_fit(ds, k: int = 8, iters: int = 4, col: str = "embedding", id_col: str = "vec_id") -> np.ndarray:
    """Distributed full-corpus Lloyd k-means (vs train_centroids' driver-side
    SAMPLE fit): init = the k lowest-id vectors (deterministic, no RNG), then
    `iters` rounds of one (k×dim sums, k counts) partial per block, folded
    on the driver (``fold.fold_payloads``: no barrier, merge order fixed by
    the payload bytes). Empty clusters keep their previous centroid."""
    import pickle

    import ray

    from .fold import fold_payloads

    def min_ids(t: pa.Table) -> pa.Table:
        sel = t.select([id_col, col])
        if t.num_rows == 0:
            return sel
        idx = np.argsort(sel[id_col].to_numpy(zero_copy_only=False))[:k]
        return sel.take(pa.array(idx))

    rows = ds.map_batches(min_ids, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: r[id_col])
    C = np.stack([np.asarray(r[col], dtype=np.float64) for r in rows[:k]])

    proj = ds.select_columns([col])
    for _ in range(iters):
        cref = ray.put(C)

        def partial(t: pa.Table, _cref=cref) -> pa.Table:
            Cw = ray.get(_cref) if isinstance(_cref, ray.ObjectRef) else _cref
            if t.num_rows == 0:
                s, c = np.zeros_like(Cw), np.zeros(Cw.shape[0], dtype=np.int64)
            else:
                s, c = _lloyd_step(_embedding_matrix(t, col), Cw)
            return pa.table({"payload": pa.array([pickle.dumps((s, c))], pa.binary())})

        sums, cnt = fold_payloads(proj, partial, merge=lambda a, b: (a[0] + b[0], a[1] + b[1]))[()]
        nz = cnt > 0
        C = C.copy()
        C[nz] = sums[nz] / cnt[nz, None]
    return C


def kmeans_fit_local(table: pa.Table, k: int = 8, iters: int = 4, col: str = "embedding", id_col: str = "vec_id") -> np.ndarray:
    """Driver-side numpy replica of kmeans_fit over one Arrow table — the
    deterministic trainer behind the cluster_assign twin's centroid sidecar
    (built at oracle-SQL-build time, where no Ray session may exist yet).
    Differential-tested against the distributed fit in pytest."""
    order = np.argsort(table[id_col].to_numpy(zero_copy_only=False))
    E = _embedding_matrix(table, col)
    C = E[order[:k]]
    for _ in range(iters):
        sums, cnt = _lloyd_step(E, C)
        nz = cnt > 0
        C = C.copy()
        C[nz] = sums[nz] / cnt[nz, None]
    return C


def kmeans_assign(
    ds,
    centroids: np.ndarray,
    col: str = "embedding",
    id_col: str = "vec_id",
    keep_cols: tuple = (),
):
    """Map-only nearest-centroid assignment against broadcast centroids
    (ray.put once, read per worker): (id_col, *keep_cols, cluster_id). Ties
    break to the lowest cluster_id (np.argmin), matching the twin's
    ORDER BY d, cluster_id. `keep_cols` rides scalar columns through the
    map (labels, weights) so downstream per-cluster reports need no join."""
    import ray

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(t: pa.Table) -> pa.Table:
        C = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
        sel = t.select([id_col, *keep_cols])
        if t.num_rows == 0:
            return sel.append_column("cluster_id", pa.array([], pa.int64()))
        a = np.argmin(_sq_dists(_embedding_matrix(t, col), C), axis=1)
        return sel.append_column("cluster_id", pa.array(a.astype(np.int64)))

    return ds.map_batches(assign, batch_format="pyarrow")


def cluster_purity(
    ds,
    centroids: np.ndarray,
    label_col: str = "label",
    col: str = "embedding",
    id_col: str = "vec_id",
):
    """Cluster-quality report over the k-means assignment: per cluster, the
    member count and the majority ground-truth label → (cluster_id,
    n_vectors, top_label, n_top). The purity check that decides whether a
    topic clustering is good enough to balance a training mixture on.

    Scale shape: the map-only broadcast assignment carries the label through
    (no join), each block counts its (cluster, label) pairs, the driver
    folds the k × |labels| counts (``fold.sum_by_key``) and picks the
    majority. Majority ties break to the lowest label (ORDER BY n DESC,
    label)."""
    from .fold import dataset, sum_by_key

    assigned = kmeans_assign(
        ds, centroids, col=col, id_col=id_col, keep_cols=(label_col,)
    )

    def partial(t: pa.Table) -> pa.Table:
        c = t.group_by(["cluster_id", label_col], use_threads=False).aggregate([([], "count_all")])
        return c.select(["cluster_id", label_col, "count_all"])

    partial.__name__ = "cluster_label_counts"
    schema = pa.schema([("cluster_id", pa.int64()), (label_col, pa.int64()), ("count_all", pa.int64())])
    g = sum_by_key(assigned, schema, ["cluster_id", label_col], partial).to_pandas()
    g = g.sort_values(["cluster_id", "count_all", label_col], ascending=[True, False, True])
    tot = g.groupby("cluster_id", sort=True)["count_all"].sum()
    top = g.drop_duplicates("cluster_id")
    return dataset(
        pa.table(
            {
                "cluster_id": pa.array(top["cluster_id"], pa.int64()),
                "n_vectors": pa.array(tot.loc[top["cluster_id"]].to_numpy(), pa.int64()),
                "top_label": pa.array(top[label_col], pa.int64()),
                "n_top": pa.array(top["count_all"], pa.int64()),
            }
        )
    )


def semantic_dedup(
    ds,
    centroids: np.ndarray,
    threshold: float = 0.98,
    col: str = "embedding",
    id_col: str = "vec_id",
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic dedup via
    k-means topic clusters — exact pairwise cosine WITHIN each cluster,
    connected components per cluster, keeper = lowest id. Cross-cluster
    near-dups are out of scope BY DESIGN (the paper's approximation: with k
    scaled so clusters hold ~10k docs, intra-cluster pairs capture near-all
    semantic dups at ~n²/k cost instead of n²).

    Output: (id_col, cluster_id, rep_id, is_dup) for EVERY input vector —
    rep_id = min id of the vector's within-cluster cosine component, is_dup
    = 1 iff the vector is not its component's keeper.

    Scale shape: one broadcast map (nearest-centroid assignment, centroids
    ray.put once) + ONE shuffle co-locating each cluster + per-cluster
    vectorized work (normalize, gram matrix, local union-find). Components
    never span clusters, so labels are GROUP-LOCAL: no global label
    propagation, no driver pull — the labeling streams straight out of
    map_groups. Per-task cost is O((n/k)²·dim) flops and O((n/k)·dim)
    memory; pick k ∝ corpus size (the paper uses 50k clusters for
    LAION-440M) to bound both. Fixed-dim list columns ride the groupby
    shuffle like `_bucket_pairs`' emb_norm extra_col does."""

    def dedup_group(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    id_col: pd.Series([], dtype="int64"),
                    "cluster_id": pd.Series([], dtype="int64"),
                    "rep_id": pd.Series([], dtype="int64"),
                    "is_dup": pd.Series([], dtype="int64"),
                }
            )
        from .dedup import _union_find

        ids = df[id_col].to_numpy(dtype="int64")
        E = np.stack(df[col].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(E, axis=1)
        norms[norms == 0.0] = 1.0
        En = E / norms[:, None]
        # pairwise cosine of the normalized rows — same per-pair value as
        # cosine_verify_pairs' einsum; the DuckDB twin's
        # list_cosine_similarity(DOUBLE[]) rounds differently (dot/(|a||b|))
        # but the corpora keep a wide margin around the threshold (see
        # embedding_components_oracle's note)
        iu, ju = np.triu_indices(len(ids), k=1)
        hit = (En @ En.T)[iu, ju] >= threshold
        labels = _union_find(
            [
                (int(a), int(b))
                for a, b in zip(ids[iu[hit]], ids[ju[hit]], strict=True)
            ]
        )
        rep = np.array([labels.get(int(i), int(i)) for i in ids], dtype=np.int64)
        return pd.DataFrame(
            {
                id_col: ids,
                "cluster_id": df["cluster_id"].to_numpy(dtype="int64"),
                "rep_id": rep,
                "is_dup": (rep != ids).astype("int64"),
            }
        )

    dedup_group.__name__ = "semantic_dedup_cluster"
    assigned = kmeans_assign(ds, centroids, col=col, id_col=id_col, keep_cols=(col,))
    return assigned.groupby("cluster_id").map_groups(
        dedup_group, batch_format="pandas"
    )


class _CosinePairsBlock:
    """map_batches stage: each batch's vectors vs the broadcast corpus matrix;
    emits (a, b, score) for a < b with cosine >= threshold."""

    def __init__(self, corpus_ref, threshold: float, col: str, id_col: str):
        self.corpus_ref = corpus_ref  # ObjectRef to (ids, normalized matrix)
        self.threshold = threshold
        self.col = col
        self.id_col = id_col
        self._c = None

    def _corpus(self):
        if self._c is None:
            obj = self.corpus_ref
            import ray

            if isinstance(obj, ray.ObjectRef):
                obj = ray.get(obj)
            self._c = obj
        return self._c

    def __call__(self, batch: pa.Table) -> pa.Table:
        all_ids, M = self._corpus()
        if batch.num_rows == 0:
            idt = batch.schema.field(self.id_col).type
            return pa.table(
                {"a": pa.array([], idt), "b": pa.array([], idt), "score": pa.array([], pa.float64())}
            )
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        E = _normalize(
            np.stack(batch[self.col].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        sims = E @ M.T  # (batch, corpus)
        bi, cj = np.nonzero(sims >= self.threshold)
        a = ids[bi]
        b = all_ids[cj]
        keep = a < b  # each unordered pair once, never self-pairs
        return pa.table(
            {
                "a": pa.array(a[keep]),
                "b": pa.array(b[keep]),
                "score": pa.array(sims[bi, cj][keep]),
            }
        )


def exact_cosine_pairs(ds, threshold: float, col: str = "embedding", id_col: str = "vec_id"):
    """EXACT all-pairs cosine near-dup pairs (a < b, sim >= threshold): the
    brute-force ground-truth baseline for embedding_dedup's LSH path. The
    corpus matrix is broadcast ONCE via ray.put and each map_batches block
    multiplies against it — linear scans, zero shuffle; use only when the
    embedding table fits the object store (the LSH variant is the scale
    path). Returns a Dataset (a, b, score)."""
    import ray

    rows = ds.select_columns([id_col, col]).take_all()
    ids = np.array([r[id_col] for r in rows])
    M = _normalize(np.stack([np.asarray(r[col], dtype=np.float64) for r in rows]))
    ref = ray.put((ids, M))
    return ds.map_batches(
        _CosinePairsBlock(ref, threshold, col, id_col), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# all-pairs kNN graph
# ---------------------------------------------------------------------------


class _KnnGraphBlock:
    """map_batches stage: each block's rows × the broadcast corpus matrix →
    that block's FINAL top-k neighbor rows (the broadcast side is complete,
    so no cross-block reduction is needed). Fully vectorized: one matmul,
    argpartition to k+1, a single flat lexsort for the (-score, neighbor_id)
    tie-break, boolean-cumsum self-exclusion — no per-row Python loop."""

    def __init__(self, corpus_ref, k: int, col: str, id_col: str, emit_raw: bool = False):
        self.corpus_ref = corpus_ref
        self.k = k
        self.col = col
        self.id_col = id_col
        # emit_raw: also emit the float64 `_score` so a downstream merge can
        # order by the SAME key as this block (micro-quantized ties would
        # otherwise re-break differently at the merge)
        self.emit_raw = emit_raw
        self._c = None

    def _corpus(self):
        if self._c is None:
            obj = self.corpus_ref
            try:
                import ray

                if isinstance(obj, ray.ObjectRef):
                    obj = ray.get(obj)
            except Exception:
                pass
            self._c = obj
        return self._c

    def __call__(self, batch: pa.Table) -> pa.Table:
        all_ids, M = self._corpus()
        idt = batch.schema.field(self.id_col).type
        empty_cols = {
            "vec_id": pa.array([], idt),
            "neighbor_id": pa.array([], idt),
            "rank": pa.array([], pa.int64()),
            "score_micro": pa.array([], pa.int64()),
        }
        if self.emit_raw:
            empty_cols["_score"] = pa.array([], pa.float64())
        if batch.num_rows == 0:
            return pa.table(empty_cols)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        E = _normalize(
            np.stack(batch[self.col].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        sims = E @ M.T  # (n, corpus)
        n, m = sims.shape
        kk = min(self.k + 1, m)  # +1: the self column is dropped below
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        # rows with MORE than kk candidates tied at the kk-th score got an
        # arbitrary subset from argpartition — repair those rows with the
        # full tied set + the deterministic (score DESC, id ASC) order (the
        # normal case on near-dup corpora: bit-identical duplicate vectors)
        kthv = np.take_along_axis(
            sims, part[:, kk - 1 : kk], axis=1
        ).ravel()  # kk-th largest per row (any element of the boundary tie)
        overflow = (sims >= kthv[:, None]).sum(axis=1) > kk
        for ri in np.nonzero(overflow)[0]:
            cand = np.nonzero(sims[ri] >= kthv[ri])[0]
            order = np.lexsort((all_ids[cand], -sims[ri][cand]))
            part[ri] = cand[order[:kk]]
        ps = np.take_along_axis(sims, part, axis=1)
        pid = all_ids[part]
        row = np.repeat(np.arange(n, dtype=np.int64), kk)
        order = np.lexsort((pid.ravel(), -ps.ravel(), row))
        ps_s = ps.ravel()[order].reshape(n, kk)
        pid_s = pid.ravel()[order].reshape(n, kk)
        keep = pid_s != ids[:, None]
        take = keep & (np.cumsum(keep, axis=1) <= self.k)
        ranks = np.cumsum(keep, axis=1)[take]
        out_cols = {
            "vec_id": pa.array(np.repeat(ids, take.sum(axis=1))),
            "neighbor_id": pa.array(pid_s[take]),
            "rank": pa.array(ranks.astype(np.int64)),
            "score_micro": pa.array(
                np.floor(ps_s[take] * 1_000_000 + 0.5).astype(np.int64)
            ),
        }
        if self.emit_raw:
            out_cols["_score"] = pa.array(ps_s[take])
        return pa.table(out_cols)


def knn_graph(ds, k: int = 5, col: str = "embedding", id_col: str = "vec_id"):
    """EXACT all-pairs kNN graph: every vector's top-k cosine neighbors
    (self excluded, ties broken by neighbor_id) → (vec_id, neighbor_id,
    rank, score_micro). The brute-force baseline behind embedding-cluster /
    near-dup graph construction: corpus matrix broadcast ONCE via ray.put,
    one matmul per block, each block's output is final (no shuffle, no
    reduction). O(n²) compute spread across blocks; use when the embedding
    table fits the object store — knn_graph_ivf is the bucketed scale path."""
    import ray

    rows = ds.select_columns([id_col, col]).take_all()
    ids = np.array([r[id_col] for r in rows])
    M = _normalize(np.stack([np.asarray(r[col], dtype=np.float64) for r in rows]))
    ref = ray.put((ids, M))
    return ds.select_columns([id_col, col]).map_batches(
        _KnnGraphBlock(ref, k, col, id_col), batch_format="pyarrow"
    )


class _IVFProbeReplicate:
    """map_batches stage: replicate each vector to its `nprobe` nearest
    coarse buckets as a QUERY row; exactly one of those rows (the nearest
    bucket) is also flagged `is_home` — the vector serves as a CANDIDATE
    only there, so a neighbor is scored at most once per query. Bounded
    ×nprobe replication instead of a corpus broadcast."""

    def __init__(self, centroids_ref, nprobe: int, col: str, id_col: str):
        self.centroids_ref = centroids_ref
        self.nprobe = nprobe
        self.col = col
        self.id_col = id_col
        self._C = None

    def _c(self):
        if self._C is None:
            obj = self.centroids_ref
            try:
                import ray

                if isinstance(obj, ray.ObjectRef):
                    obj = ray.get(obj)
            except Exception:
                pass
            self._C = np.asarray(obj, dtype=np.float64)
        return self._C

    def __call__(self, batch: pa.Table) -> pa.Table:
        C = self._c()
        idt = batch.schema.field(self.id_col).type
        if batch.num_rows == 0:
            return pa.table(
                {
                    self.id_col: pa.array([], idt),
                    self.col: pa.array([], batch.schema.field(self.col).type),
                    "ivf_bucket": pa.array([], pa.int32()),
                    "is_home": pa.array([], pa.bool_()),
                }
            )
        E = _normalize(
            np.stack(batch[self.col].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        sims = E @ C.T
        p = min(self.nprobe, C.shape[0])
        probe = np.argpartition(-sims, p - 1, axis=1)[:, :p]  # (n, p)
        # the home bucket = argmax; mark it among the probed columns
        best = np.argmax(sims, axis=1)
        n = len(E)
        rep = np.repeat(np.arange(n), p)
        buckets = probe.ravel().astype(np.int32)
        is_home = probe.ravel() == np.repeat(best, p)
        return pa.table(
            {
                self.id_col: pa.array(
                    batch[self.id_col].to_numpy(zero_copy_only=False)[rep]
                ),
                self.col: batch[self.col].take(pa.array(rep)),
                "ivf_bucket": pa.array(buckets),
                "is_home": pa.array(is_home),
            }
        )


class _KnnBucketPartials:
    """map_groups stage: within one probed bucket, score every QUERY row
    against the bucket's CANDIDATE (home) rows and keep each query's local
    top-k → partial (vec_id, neighbor_id, _score) rows (raw float64 score:
    the merge re-orders by the same key, so full probe == brute exactly)."""

    def __init__(self, k: int, col: str, id_col: str):
        self.k = k
        self.col = col
        self.id_col = id_col
        self.__name__ = type(self).__name__

    def __call__(self, df):
        import pandas as pd

        home = df.loc[df["is_home"]]
        empty = pd.DataFrame(
            {
                "vec_id": pd.Series(dtype="int64"),
                "neighbor_id": pd.Series(dtype="int64"),
                "_score": pd.Series(dtype="float64"),
            }
        )
        if len(home) == 0 or len(df) == 0:
            return empty
        cand_ids = home[self.id_col].to_numpy()
        Mc = _normalize(np.stack(home[self.col].to_numpy()).astype(np.float64))
        # emit_raw: the merge must order by the SAME float64 key this block
        # used — micro-quantized scores would re-break ties differently
        blk = _KnnGraphBlock(None, self.k, self.col, self.id_col, emit_raw=True)
        blk._c = (cand_ids, Mc)
        t = blk(
            pa.table(
                {
                    self.id_col: pa.array(df[self.id_col].to_numpy()),
                    self.col: pa.array(list(df[self.col])),
                }
            )
        )
        out = t.to_pandas()
        return out[["vec_id", "neighbor_id", "_score"]]


class _KnnFinalTopK:
    """map_groups stage over vec_id: merge the ≤ nprobe×k partial candidate
    rows per vector into the final top-k with the (score DESC, neighbor_id)
    tie-break and 1-based ranks."""

    def __init__(self, k: int):
        self.k = k
        self.__name__ = type(self).__name__

    def __call__(self, df):
        df = df.sort_values(
            ["vec_id", "_score", "neighbor_id"],
            ascending=[True, False, True],
            kind="stable",
        )
        out = df.groupby("vec_id", sort=False).head(self.k).copy()
        out["rank"] = (out.groupby("vec_id", sort=False).cumcount() + 1).astype("int64")
        out["score_micro"] = np.floor(
            out["_score"].to_numpy() * 1_000_000 + 0.5
        ).astype("int64")
        return out[["vec_id", "neighbor_id", "rank", "score_micro"]]


def knn_graph_ivf(
    ds,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int = 4,
    col: str = "embedding",
    id_col: str = "vec_id",
):
    """IVF-bucketed kNN graph (the scale path): each vector is a CANDIDATE in
    its nearest coarse bucket and a QUERY in its `nprobe` nearest buckets —
    the corpus never broadcasts; every bucket's queries×candidates matmul
    runs in its own task behind ONE groupby shuffle (replication bounded by
    ×nprobe), then a per-vector groupby merges the ≤ nprobe×k partials.
    Approximate by construction (a true neighbor outside all probed buckets
    is missed); recall vs knn_graph is asserted in tests, mirroring
    ann_topk_ivf."""
    import ray

    C = train_centroids(ds, n_centroids=n_centroids, col=col)
    cref = ray.put(C)
    probed = ds.select_columns([id_col, col]).map_batches(
        _IVFProbeReplicate(cref, nprobe, col, id_col), batch_format="pyarrow"
    )
    partials = probed.groupby("ivf_bucket").map_groups(
        _KnnBucketPartials(k, col, id_col), batch_format="pandas"
    )
    return partials.groupby("vec_id").map_groups(
        _KnnFinalTopK(k), batch_format="pandas"
    )


def hard_negatives(
    ds,
    k: int = 5,
    col: str = "embedding",
    id_col: str = "vec_id",
    label_col: str = "label",
    broadcast_max_labels: int = 2_000_000,
):
    """Hard-negative mining for contrastive training: each vector's top-k
    cosine neighbors that carry a DIFFERENT label — the close-but-wrong
    pairs a metric-learning loss needs. Composes the exact kNN graph with a
    label attach and a vectorized label-mismatch filter. The attach is GATED
    like dedup's label attach: an id→label table ≤ broadcast_max_labels is
    ray.put once and mapped in (two shuffle-free lookups); above the gate it
    takes two bucketed hash joins — tested path-equal.
    Returns (vec_id, neighbor_id, rank, score_micro, label, neighbor_label)."""
    import pandas as pd

    from .joins import bucketed_hash_join

    graph = knn_graph(ds, k=k, col=col, id_col=id_col)
    labels = ds.select_columns([id_col, label_col])
    out_cols = ["vec_id", "neighbor_id", "rank", "score_micro", "label", "neighbor_label"]

    def mismatch(df: pd.DataFrame) -> pd.DataFrame:
        out = df.loc[df["label"].ne(df["neighbor_label"])].copy()
        for c in ("rank", "score_micro", "label", "neighbor_label"):
            out[c] = out[c].astype("int64")
        return out[out_cols]

    mismatch.__name__ = "label_mismatch_filter"

    if labels.count() <= broadcast_max_labels:
        import ray

        ldf = labels.to_pandas()
        ref = ray.put(pd.Series(ldf[label_col].to_numpy(), index=ldf[id_col]))

        class AttachLabels:
            def __init__(self, labels_ref):
                obj = labels_ref
                try:
                    if isinstance(obj, ray.ObjectRef):
                        obj = ray.get(obj)
                except Exception:
                    pass
                self.labels = obj

            def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
                df = df.assign(
                    label=df["vec_id"].map(self.labels),
                    neighbor_label=df["neighbor_id"].map(self.labels),
                )
                return mismatch(df)

        return graph.map_batches(
            AttachLabels,
            fn_constructor_kwargs={"labels_ref": ref},
            batch_format="pandas",
            concurrency=(1, 8),
        )

    def rename(cols: dict):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns=cols)

        fn.__name__ = "rename_" + "_".join(str(v) for v in cols.values())
        return fn

    lab_a = labels.map_batches(rename({label_col: "label"}), batch_format="pandas")
    j1 = bucketed_hash_join(graph, lab_a, on=id_col)
    lab_b = labels.map_batches(
        rename({id_col: "neighbor_id", label_col: "neighbor_label"}),
        batch_format="pandas",
    )
    j2 = bucketed_hash_join(j1, lab_b, on="neighbor_id")
    return j2.map_batches(mismatch, batch_format="pandas")
