"""Training-data curation pipeline: the composed end-to-end a 100 TB corpus
runs before pretraining — quality filter -> exact dedup -> near-dup dedup ->
clean partitioned parquet + stats manifest.

Stage shapes (all Ray-Data-native, documented partitioning assumptions):

1. quality  — INLINE `map_batches` filter (QualityScore keep-flag computed
              per batch on the full rows — no id set, no join, nothing on
              the driver).
2. exact    — ONE exchange keyed by content hash (`stages/exchange.py`,
              vectorized first-per-hash inside each bucket task — never
              one group per distinct text); the deduped
              stream is materialized in the OBJECT STORE (distributed,
              spillable) because three consumers follow (count, minhash,
              sink) and re-executing the shuffle per consumer would triple
              it.
3. near-dup — MinHash-LSH clusters (`assembly='auto'`: driver union-find
              below the pair bound, distributed label propagation above);
              only cluster REPRESENTATIVES (min doc id) survive. The
              dropped-id set is bounded by NEAR-DUPLICATE docs (real skew),
              so its broadcast is safe.
4. sink     — partitioned parquet (atomic tmp+rename) + one manifest record
              with per-stage counts, resumable via input fingerprint.
"""

from __future__ import annotations

import glob as _glob
import os
import time

from ..state.manifest import Manifest, PartitionRecord, atomic_output_dir, fingerprint_files


def curate_documents(
    input_path: str,
    out_dir: str,
    col: str = "text",
    id_col: str = "doc_id",
    min_chars: int = 50,
    max_chars: int = 100_000,
    min_stop_ratio: float = 0.05,
    near_dup_threshold: float = 0.8,
    resume: bool = True,
    dedup_assembly: str = "auto",
    broadcast_max_labels: int = 200_000,
) -> dict:
    """Run the curation pipeline; returns a summary dict with per-stage
    counts. Idempotent: a completed run with matching input fingerprint is
    skipped wholesale."""
    import ray
    import ray.data as rd

    from ..stages.dedup import minhash_lsh_dedup
    from ..stages.text import QualityScore

    if os.path.isdir(input_path):
        files = sorted(_glob.glob(os.path.join(input_path, "*.parquet")))
    else:  # explicit file or glob
        files = sorted(_glob.glob(input_path))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_path}")
    manifest = Manifest(out_dir)
    fp = fingerprint_files(files)
    # parameter-aware resume hash: a re-run with different thresholds must
    # NOT skip (bump "v" whenever pipeline semantics change)
    import hashlib
    import json as _json

    params_hash = hashlib.sha256(
        _json.dumps(
            {
                "col": col,
                "id_col": id_col,
                "min_chars": min_chars,
                "max_chars": max_chars,
                "min_stop_ratio": min_stop_ratio,
                "near_dup_threshold": near_dup_threshold,
                "v": 2,  # v2: exact dedup groups on (hash, text); in-flight sink count
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    done = manifest.completed("curate", fp, params_hash) if resume else None
    if done:
        return {"skipped": True, **done.extra, "output_path": done.output_path}

    t0 = time.time()
    ds = rd.read_parquet(files)
    n_input = ds.count()

    # ---- stage 1: inline quality filter (per-batch keep mask; map-only)
    import pyarrow as pa

    q = QualityScore(col, min_chars=min_chars, max_chars=max_chars, min_stop_ratio=min_stop_ratio)

    def quality_filter(batch: pa.Table) -> pa.Table:
        keep = q(batch)["keep"].to_numpy()
        return batch.filter(pa.array(keep))

    # materialize once: two consumers (the count and the dedup shuffle) —
    # an unmaterialized plan would re-run the heaviest scan of the pipeline
    # (read + quality filter over the whole corpus) for each; the blocks
    # live in the object store and spill, the count is then free
    survivors = ds.map_batches(quality_filter, batch_format="pyarrow").materialize()
    n_quality = survivors.count()

    # ---- stage 2: exact dedup — one exchange keyed by content hash
    from ..stages.dedup import add_content_hash
    from ..stages.exchange import exchange

    def first_per_hash(g):
        # group on (hash, text), not the hash alone: identical texts share a
        # bucket by construction, and a 64-bit collision between two DISTINCT
        # texts (expected at 10^10+ docs) must keep both
        g = g.sort_values(["content_hash", col, id_col], kind="stable")
        return g[~g.duplicated(["content_hash", col])].drop(columns=["content_hash"])

    hashed = survivors.map_batches(add_content_hash, fn_args=(col,), batch_format="pyarrow")
    # three consumers follow; object-store, spillable
    deduped = exchange(hashed, "content_hash", first_per_hash).materialize()
    n_exact = deduped.count()
    survivors = deduped

    # ---- stage 3: near-dup clusters -> drop non-representatives
    import pandas as pd

    # (dedup_assembly / broadcast_max_labels pick the execution PATH, not the
    # result — deliberately excluded from the resume params hash)
    clusters = minhash_lsh_dedup(
        survivors,
        col=col,
        id_col=id_col,
        threshold=near_dup_threshold,
        assembly=dedup_assembly,
        broadcast_max_labels=broadcast_max_labels,
    )
    if isinstance(clusters, pd.DataFrame):
        # normal regime: the paired-doc table fits the driver -> broadcast
        # anti-filter (bounded by near-duplicate docs)
        drop = frozenset(
            int(d) if hasattr(d, "item") else d
            for d, c in zip(clusters[id_col], clusters["cluster"])
            if d != c
        )
        n_near_dropped = len(drop)
        drop_ref = ray.put(drop)

        def drop_near(df):
            keys = drop_ref
            if isinstance(keys, ray.ObjectRef):
                keys = ray.get(keys)
            return df[~df[id_col].isin(keys)]

        cleaned = survivors.map_batches(drop_near, batch_format="pandas")
    else:
        # dup-heavy regime: clusters came back as a DATASET (label table above
        # the dedup plane's broadcast threshold) -> distributed anti-join via
        # a bucketed left join on a marker column; nothing on the driver
        from ..stages.joins import bucketed_hash_join

        drop_ds = clusters.map_batches(
            lambda df: df.loc[df[id_col] != df["cluster"], [id_col]].assign(__drop=1),
            batch_format="pandas",
        ).materialize()
        n_near_dropped = drop_ds.count()
        joined = bucketed_hash_join(survivors, drop_ds, on=id_col, how="left")
        cleaned = joined.map_batches(
            lambda df: df.loc[
                df["__drop"].isna(), [c for c in df.columns if c != "__drop"]
            ],
            batch_format="pandas",
        )

    # materialize once: the count comes from the materialized blocks and the
    # sink streams the same blocks — no re-read of the just-written parquet
    # (same pattern as validate_pipeline.py stage 1)
    clean = cleaned.materialize()
    n_out = clean.count()

    # ---- sink
    final_dir = os.path.join(out_dir, "clean")
    with atomic_output_dir(final_dir) as tmp:
        clean.write_parquet(tmp)
    counts = {
        "n_input": n_input,
        "n_after_quality": n_quality,
        "n_after_exact": n_exact,
        "n_near_dup_dropped": n_near_dropped,
        "n_output": n_out,
    }
    manifest.append(
        PartitionRecord(
            partition_id="curate",
            input_files=files,
            fingerprint=fp,
            spec_hash=params_hash,
            status="done",
            n_rows=n_input,
            n_valid=n_out,
            output_path=final_dir,
            wall_s=round(time.time() - t0, 3),
            extra=counts,
        )
    )
    return {"skipped": False, "output_path": final_dir, **counts}
