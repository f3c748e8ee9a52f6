"""Text-analysis stages over a document corpus: token counting, quality
scoring, language ID, and document fingerprinting (training-data pipeline
ops).

Each is a vectorized / precompiled ``map_batches`` stage: the language
profiles and regexes are compiled once per actor in ``__init__`` (the "load
model once" pattern — the analog of the reference's lazily-initialized client
singletons, streamlit_ev/app/helpers/gcp.py:15-60); per-batch work is pandas
.str / numpy kernels, no Python row loops except the C-speed re.findall
tokenizer.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .exchange import exchange

TOKEN_PATTERN = r"[a-z0-9]+"

# Tiny stopword profiles (public common-word lists) for the n-gram-free
# language-ID heuristic: score = stopword hit-rate per language.
LANG_STOPWORDS: dict[str, set[str]] = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "you", "that", "was", "for"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "ser", "se", "no", "por", "con"},
    "de": {"der", "die", "und", "das", "ist", "von", "mit", "den", "nicht", "ein", "zu"},
    "fr": {"le", "la", "et", "les", "des", "est", "un", "une", "du", "que", "pour", "dans"},
}


class TokenCount:
    """Token count per doc over the engine's canonical tokenizer
    (functions/textkernels.py:tokenize — the pattern is fixed there so the
    SQL twins agree; no per-stage override) — Arrow split/flatten kernels,
    no per-token Python."""

    def __init__(self, col: str = "text"):
        self.col = col

    def __call__(self, batch: "pa.Table") -> pd.DataFrame:
        import pyarrow as pa  # noqa: F401

        from ..functions.textkernels import tokenize

        _, _, n_tokens = tokenize(batch[self.col])
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
                "n_tokens": n_tokens,
            }
        )


#: GPT-2-style pretokenizer split pattern, RE2-compatible (no lookahead):
#: contraction suffixes, space-prefixed letter runs, digit runs, punctuation
#: runs, whitespace runs. Both pyarrow and DuckDB execute regex via RE2, so
#: match counts agree bit-for-bit between the engine and the SQL twin.
BPE_SPLIT_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"


class BpeTokenCount:
    """BPE-ish pretokenizer token count per doc (the SURVEY 'token counting:
    whitespace + a BPE-ish regex' slot): one `pc.count_substring_regex` pass,
    no per-token materialization — counts what a GPT-2-style BPE would see
    BEFORE merges, the standard cheap length signal for curation budgets."""

    def __init__(self, col: str = "text", id_col: str = "doc_id"):
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        import pyarrow.compute as pc

        filled = pc.fill_null(batch[self.col], "")
        n = pc.count_substring_regex(filled, BPE_SPLIT_PATTERN)
        return pa.table(
            {self.id_col: batch[self.id_col], "n_bpe_tokens": pc.cast(n, pa.int64())}
        )


class QualityScore:
    """Heuristic quality features: char count, token count, mean token
    length, punctuation ratio, stopword ratio, and a boolean keep-flag."""

    def __init__(
        self,
        col: str = "text",
        min_chars: int = 50,
        max_chars: int = 100_000,
        min_stop_ratio: float = 0.05,
    ):
        self.col = col
        self.punct_re = re.compile(r"[^\w\s]")
        self.stop = LANG_STOPWORDS["en"]
        self.min_chars = min_chars
        self.max_chars = max_chars
        self.min_stop_ratio = min_stop_ratio

    def __call__(self, batch: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc

        from ..functions.textkernels import (
            per_doc_sum,
            punct_count,
            stop_hits,
            tokenize,
        )

        texts = batch[self.col]
        n_docs = batch.num_rows
        n_chars = (
            pc.utf8_length(pc.fill_null(texts, ""))
            .to_numpy(zero_copy_only=False)
            .astype("int64")
        )
        flat, doc_idx, n_tokens = tokenize(texts)
        tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        mean_tok = per_doc_sum(tok_lens, doc_idx, n_docs) / np.maximum(n_tokens, 1)
        mean_tok[n_tokens == 0] = 0.0
        n_punct = punct_count(texts)
        # RAW IEEE ratios (no rounding): the SQL oracle twin reproduces the
        # identical double ops, so micro-scaled compares are exact
        punct_ratio = n_punct / np.maximum(n_chars, 1)
        hits = stop_hits(flat, doc_idx, n_docs, self.stop)
        stop_ratio = hits / np.maximum(n_tokens, 1)
        keep = (
            (n_chars >= self.min_chars)
            & (n_chars <= self.max_chars)
            & (stop_ratio >= self.min_stop_ratio)
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
                "n_chars": n_chars,
                "n_tokens": n_tokens,
                "mean_token_len": mean_tok,
                "punct_ratio": punct_ratio,
                "stop_ratio": stop_ratio,
                "keep": keep,
            }
        )


class LangId:
    """Stopword hit-rate language ID over LANG_STOPWORDS; 'unknown' when no
    profile clears `min_score`."""

    def __init__(self, col: str = "text", min_score: float = 0.03):
        self.col = col
        self.profiles = {k: frozenset(v) for k, v in LANG_STOPWORDS.items()}
        self.min_score = min_score

    def __call__(self, batch: "pa.Table") -> pd.DataFrame:
        from ..functions.textkernels import stop_hits, tokenize

        n_docs = batch.num_rows
        flat, doc_idx, n_tokens = tokenize(batch[self.col])
        langs = sorted(self.profiles)
        scores = np.zeros((n_docs, len(langs)))
        for j, lang in enumerate(langs):
            scores[:, j] = stop_hits(flat, doc_idx, n_docs, self.profiles[lang]) / np.maximum(
                n_tokens, 1
            )
        # ties broken like max() over (score, lang): highest score, then the
        # lexicographically LARGEST language name
        best_j = np.zeros(n_docs, dtype=np.int64)
        best_s = scores[:, 0].copy()
        for j in range(1, len(langs)):
            better = scores[:, j] >= best_s  # later (larger) lang wins ties
            best_j[better] = j
            best_s[better] = scores[better, j]
        pred = np.array(langs, dtype=object)[best_j]
        pred[(best_s < self.min_score) | (n_tokens == 0)] = "unknown"
        best_s[n_tokens == 0] = 0.0
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
                "lang_pred": pred,
                "lang_score": best_s,
            }
        )


class Fingerprint:
    """Winnowing-style document fingerprint: rolling hashes over token
    k-grams, minimum per window (Schleimer et al., SIGMOD'03) — compact
    reusable signature for containment/near-dup triage. Vectorized end to
    end: gram identity is the polynomial combine of token hashes (the same
    shingle identity as dedup._shingle_hashes — one hash pass over TOKENS,
    no per-gram string building), then one batch-wide sliding-window min
    with doc-boundary masking. No per-row Python in the hot path."""

    def __init__(self, col: str = "text", k: int = 5, window: int = 8):
        self.col = col
        self.k = k
        self.window = window

    def __call__(self, batch: "pa.Table") -> pd.DataFrame:
        import pyarrow as pa

        from .dedup import _shingle_hashes

        w = self.window
        texts = batch[self.col].to_numpy(zero_copy_only=False)
        h, off = _shingle_hashes(texts, self.k)
        n_docs = batch.num_rows
        counts = np.diff(off)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

        sel_docs: list[np.ndarray] = []
        sel_vals: list[np.ndarray] = []
        # docs with <= w grams: fingerprint = [min of all grams]. reduceat
        # over consecutive NONEMPTY starts gives each doc's segment min
        nonempty = np.nonzero(counts > 0)[0]
        if nonempty.size:
            mins = np.minimum.reduceat(h, off[nonempty])
            small_sel = counts[nonempty] <= w
            if small_sel.any():
                sel_docs.append(nonempty[small_sel])
                sel_vals.append(mins[small_sel])
        # longer docs: global sliding-window min, windows crossing a doc
        # boundary masked out
        if (counts > w).any() and len(h) >= w:
            wmin = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
            d_w = doc_of[: len(wmin)]
            keep = (d_w == doc_of[w - 1 :]) & (counts[d_w] > w)
            # drop consecutive repeats before the lexsort (the window min
            # rarely changes as the window slides — ~w-fold reduction)
            changed = np.r_[True, (wmin[1:] != wmin[:-1]) | (d_w[1:] != d_w[:-1])]
            keep &= changed
            sel_docs.append(d_w[keep])
            sel_vals.append(wmin[keep])

        if sel_docs:
            d_all = np.concatenate(sel_docs)
            v_all = np.concatenate(sel_vals)
            order = np.lexsort((v_all, d_all))
            d_s, v_s = d_all[order], v_all[order]
            uniq = np.r_[True, (d_s[1:] != d_s[:-1]) | (v_s[1:] != v_s[:-1])]
            d_s, v_s = d_s[uniq], v_s[uniq]
        else:
            d_s = np.empty(0, dtype=np.int64)
            v_s = np.empty(0, dtype=np.uint64)
        per_doc = np.zeros(n_docs, dtype=np.int64)
        np.add.at(per_doc, d_s, 1)
        fp_off = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(per_doc, out=fp_off[1:])
        lists = pa.ListArray.from_arrays(
            pa.array(fp_off, type=pa.int64()), pa.array(v_s, type=pa.uint64())
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
                "fingerprint": lists.to_pylist(),
            }
        )


class RepetitionStats:
    """Gopher-style repetition-quality signals (Rae et al. 2021, appendix A1:
    the duplicate-line and top-n-gram filters used to screen web corpora):
    per-document duplicate-line counts/chars and the most frequent word
    2-gram's occurrence count. ALL-INTEGER output — callers derive the
    fractions (dup_line_frac = n_dup_lines / n_lines, ...), so the SQL twin
    compares with no float channel.

    Vectorized: one literal '\\n' split + one tokenize pass per batch; line
    identity via exact pandas factorize (string hash table — no 64-bit-hash
    collision channel in an oracle-checked path); per-doc reductions via
    lexsort + run-length. No Python row loops. Map-only: scale-safe at any
    corpus size (the reduction is within-document, never cross-block)."""

    def __init__(self, col: str = "text", id_col: str = "doc_id"):
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        import pyarrow.compute as pc

        from ..functions.textkernels import tokenize

        n_docs = batch.num_rows
        out_ids = batch[self.id_col]
        if n_docs == 0:
            return pa.table(
                {
                    self.id_col: out_ids,
                    "n_lines": pa.array([], pa.int64()),
                    "n_dup_lines": pa.array([], pa.int64()),
                    "dup_line_chars": pa.array([], pa.int64()),
                    "total_line_chars": pa.array([], pa.int64()),
                    "n_2grams": pa.array([], pa.int64()),
                    "top2_count": pa.array([], pa.int64()),
                }
            )
        filled = pc.fill_null(batch[self.col], "")
        # ---- duplicate lines (literal '\n' split == SQL string_split) ----
        lists = pc.split_pattern(filled, "\n")
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n_lines = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_lines)
        line_chars = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        # exact line identity: factorize (C hash table over the strings)
        codes = pd.factorize(pd.Series(flat.to_pandas()))[0].astype(np.int64)
        order = np.lexsort((codes, doc_of))
        d_s, c_s, len_s = doc_of[order], codes[order], line_chars[order]
        first = np.r_[True, (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])]
        starts = np.nonzero(first)[0]
        run = np.diff(np.r_[starts, len(d_s)])  # occurrences per (doc, line)
        total_line_chars = np.zeros(n_docs, dtype=np.int64)
        np.add.at(total_line_chars, doc_of, line_chars)
        n_dup_lines = np.zeros(n_docs, dtype=np.int64)
        np.add.at(n_dup_lines, d_s[starts], run - 1)
        dup_line_chars = np.zeros(n_docs, dtype=np.int64)
        np.add.at(dup_line_chars, d_s[starts], (run - 1) * len_s[starts])
        # ---- top word-2-gram occurrence count ----
        toks, tdoc, n_tokens = tokenize(batch[self.col])
        n_2grams = np.maximum(n_tokens - 1, 0)
        top2 = np.zeros(n_docs, dtype=np.int64)
        if len(tdoc) > 1:
            tcodes = pd.factorize(pd.Series(toks.to_pandas()))[0].astype(np.int64)
            same_doc = tdoc[1:] == tdoc[:-1]
            gd = tdoc[:-1][same_doc]
            ga = tcodes[:-1][same_doc]
            gb = tcodes[1:][same_doc]
            o = np.lexsort((gb, ga, gd))
            gd, ga, gb = gd[o], ga[o], gb[o]
            new = np.r_[True, (gd[1:] != gd[:-1]) | (ga[1:] != ga[:-1]) | (gb[1:] != gb[:-1])]
            gstarts = np.nonzero(new)[0]
            gcnt = np.diff(np.r_[gstarts, len(gd)])
            np.maximum.at(top2, gd[gstarts], gcnt)
        return pa.table(
            {
                self.id_col: out_ids,
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_dup_lines": pa.array(n_dup_lines, pa.int64()),
                "dup_line_chars": pa.array(dup_line_chars, pa.int64()),
                "total_line_chars": pa.array(total_line_chars, pa.int64()),
                "n_2grams": pa.array(n_2grams, pa.int64()),
                "top2_count": pa.array(top2, pa.int64()),
            }
        )


def _gram_strings(texts, k: int):
    """All word-k-gram strings (space-joined, lowercase [a-z0-9]+ tokens) per
    doc -> (grams: pa.Array[str], gram_doc: np.int64[], n_grams: np.int64[]).
    Vectorized: tokenize once, then one binary_join_element_wise over k
    shifted slices with a doc-boundary mask — no per-gram Python."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.textkernels import tokenize

    flat, doc_idx, n_tokens = tokenize(texts)
    n_docs = len(n_tokens)
    n_grams = np.maximum(n_tokens - (k - 1), 0)
    n = len(flat)
    if n < k:
        return pa.array([], pa.string()), np.empty(0, dtype=np.int64), n_grams
    m = n - k + 1
    parts = [flat.slice(j, m) for j in range(k)]
    joined = pc.binary_join_element_wise(*parts, " ")
    mask = doc_idx[:m] == doc_idx[k - 1 :]
    keep = pa.array(mask)
    return joined.filter(keep), doc_idx[:m][mask], n_grams


class ContaminationScan:
    """Benchmark-decontamination scan (the GPT-3/Gopher-style n-gram overlap
    check): count each document's word-k-gram occurrences that also appear in
    a broadcast benchmark gram set. The benchmark set is `ray.put` once
    (eval suites are small by nature — the broadcast is bounded by benchmark
    size, never corpus size) and read zero-copy in every task; the scan
    itself is map-only (`pc.is_in` against the set), so the stage streams at
    any corpus scale with no shuffle."""

    def __init__(self, bench_ref, k: int = 5, col: str = "text", id_col: str = "doc_id"):
        import ray

        self.grams = (
            ray.get(bench_ref) if isinstance(bench_ref, ray.ObjectRef) else bench_ref
        )
        self.k = k
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        import pyarrow.compute as pc

        n_docs = batch.num_rows
        grams, gram_doc, n_grams = _gram_strings(batch[self.col], self.k)
        n_hits = np.zeros(n_docs, dtype=np.int64)
        if len(grams):
            hit = pc.is_in(grams, value_set=self.grams).to_numpy(zero_copy_only=False)
            np.add.at(n_hits, gram_doc, hit.astype(np.int64))
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_grams": pa.array(n_grams, pa.int64()),
                "n_hits": pa.array(n_hits, pa.int64()),
            }
        )


def build_benchmark_grams(bench_ds, k: int = 5, col: str = "text"):
    """Distinct word-k-gram strings of a (small) benchmark dataset as a
    broadcast-ready ObjectRef. Per-block distinct happens distributed; the
    driver pull is the benchmark's distinct-gram set — bounded by the eval
    suite, not the training corpus."""
    import pyarrow as pa
    import ray

    def distinct_grams(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        grams, _, _ = _gram_strings(batch[col], k)
        return pa.table({"gram": pc.unique(grams)})

    parts = bench_ds.map_batches(distinct_grams, batch_format="pyarrow").take_all()
    uniq = np.unique(np.array([r["gram"] for r in parts], dtype=object))
    return ray.put(pa.array(uniq, type=pa.string()))


#: RE2-compatible PII patterns (no lookahead/backrefs): both pyarrow and
#: DuckDB run regex via RE2, so counts and replacements agree bit-for-bit.
EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
URL_PATTERN = r"https?://[^\s]+"
PHONE_PATTERN = r"\+?[0-9][0-9() .-]{6,}[0-9]"


class PiiScan:
    """PII detection + redaction over a text column: per-doc match counts for
    email / URL / phone-like patterns and the md5 of the redacted text
    (emails -> <EMAIL>, then URLs -> <URL> — application order is part of the
    contract and mirrored in the SQL twin). Map-only RE2 kernels
    (`count_substring_regex` / `replace_substring_regex`), compiled pattern
    state held per actor; no shuffle, streams at any scale."""

    def __init__(self, col: str = "text", id_col: str = "doc_id"):
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: "pa.Table") -> pd.DataFrame:
        import hashlib

        import pyarrow.compute as pc

        filled = pc.fill_null(batch[self.col], "")
        n_emails = pc.count_substring_regex(filled, EMAIL_PATTERN)
        n_urls = pc.count_substring_regex(filled, URL_PATTERN)
        n_phones = pc.count_substring_regex(filled, PHONE_PATTERN)
        red = pc.replace_substring_regex(filled, EMAIL_PATTERN, "<EMAIL>")
        red = pc.replace_substring_regex(red, URL_PATTERN, "<URL>")
        md5 = [hashlib.md5(t.encode()).hexdigest() for t in red.to_pylist()]
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(zero_copy_only=False),
                "n_emails": n_emails.to_numpy(zero_copy_only=False).astype("int64"),
                "n_urls": n_urls.to_numpy(zero_copy_only=False).astype("int64"),
                "n_phones": n_phones.to_numpy(zero_copy_only=False).astype("int64"),
                "redacted_md5": md5,
            }
        )


def token_counts(ds, col: str = "text"):
    return ds.map_batches(TokenCount(col), batch_format="pyarrow")


def quality_scores(ds, col: str = "text"):
    return ds.map_batches(QualityScore(col), batch_format="pyarrow")


def lang_id(ds, col: str = "text"):
    return ds.map_batches(LangId(col), batch_format="pyarrow", concurrency=4)


def fingerprints(ds, col: str = "text"):
    return ds.map_batches(Fingerprint(col), batch_format="pyarrow")


class _GramTriples:
    """Map-only (doc_id, pos, gh) expansion: every token k-gram's position
    and hash (dedup._shingle_hashes — the exact kernel the winnowing
    fingerprint and its SQL sidecar use, so the gram identity is pinned
    across engine, test, and oracle). Output volume ≈ token count × 24 bytes
    — the honest price of EXACT substring-level duplicate detection (the
    suffix-array formulations pay the same O(corpus) index)."""

    def __init__(self, col: str = "text", id_col: str = "doc_id", k: int = 5):
        self.col = col
        self.id_col = id_col
        self.k = k

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        from .dedup import _shingle_hashes

        texts = batch[self.col].to_numpy(zero_copy_only=False)
        h, off = _shingle_hashes(texts, self.k)
        counts = np.diff(off)
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)[doc_of]
        pos = np.arange(len(h), dtype=np.int64) - off[doc_of]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "gh": pa.array(h.view(np.int64), pa.int64()),
            }
        )


def dup_spans(ds, k: int = 5, id_col: str = "doc_id"):
    """Cross-document duplicate SPAN detection — the substring-level dedup
    signal (duplicated training text is duplicated in spans, not whole
    documents): per doc, the merged token intervals covered by k-grams that
    occur in >= 2 DISTINCT documents, reported as (doc_id, n_dup_spans,
    n_dup_tokens). Docs whose every gram is unique don't appear.

    Scale shape (two keyed exchanges over 24-byte triples, text never
    shuffles):
    1. map-only gram triples (doc_id, pos, gh) — _GramTriples;
    2. exchange keyed by gh -> per-bucket vectorized filter: a bucket holds
       ALL rows of each gram it owns, so the >= 2-distinct-docs
       test is globally exact inside the bucket. Skew bound: the hottest
       gram's positions land in one task, vectorized O(rows) — same bound
       the dedup LSH bucket stages document;
    3. exchange keyed by doc -> per-bucket vectorized interval union (sorted pos,
       group-reset cummax of span ends): n_dup_spans = interval count,
       n_dup_tokens = union length. The short-doc fallback shingle
       (1..k-1 tokens -> one gram) accounts its span as k on BOTH the
       engine and the sidecar-driven SQL twin.

    Reference tie: generalizes the reference's whole-event duplicate notion
    to span granularity (SURVEY §2.7 uniqueness family)."""

    def dup_gram_positions(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "pos": pd.Series(dtype="int64"),
                }
            )
        # a gram is duplicated iff seen in >= 2 distinct docs; transform
        # broadcasts the per-gram count back to rows without a merge
        ndocs = g.groupby("gh", sort=False)[id_col].transform("nunique")
        return g.loc[ndocs.to_numpy() >= 2, [id_col, "pos"]]

    def span_union(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "n_dup_spans": pd.Series(dtype="int64"),
                    "n_dup_tokens": pd.Series(dtype="int64"),
                }
            )
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        doc = g[id_col].to_numpy()
        pos = g["pos"].to_numpy(dtype=np.int64)
        end = pos + k
        # running max span-end within each doc, shifted one row back
        # (group-reset cummax): prev_end[i] = max end of this doc's earlier
        # grams, NaN on each doc's first row
        s = pd.Series(end)
        prev_end = s.groupby(doc).cummax().groupby(doc).shift(1).to_numpy()
        first = np.isnan(prev_end)
        new_span = first | (pos > prev_end)
        floor = np.where(first, pos, np.maximum(pos, prev_end))
        contrib = np.clip(end - floor, 0, None).astype(np.int64)
        out = pd.DataFrame(
            {
                id_col: doc,
                "_s": new_span.astype(np.int64),
                "_t": contrib,
            }
        )
        agg = out.groupby(id_col, sort=False).agg(
            n_dup_spans=("_s", "sum"), n_dup_tokens=("_t", "sum")
        )
        return agg.reset_index().astype(
            {id_col: "int64", "n_dup_spans": "int64", "n_dup_tokens": "int64"}
        )

    triples = ds.select_columns([id_col, "text"]).map_batches(
        _GramTriples(id_col=id_col, k=k), batch_format="pyarrow"
    )
    dup_pos = exchange(triples, "gh", dup_gram_positions)
    return exchange(dup_pos, id_col, span_union)


class TermFrequencies:
    """Map-only (doc_id, term, tf) expansion: tokenize + per-doc term counts.
    Vectorized: one tokenize pass, batch-wide factorize, lexsort + run-length
    — no Python row loops. Each document's tf rows land in ONE output block
    (map_batches is block-local), which the broadcast tf-idf path exploits to
    finish the per-doc argmax without any shuffle."""

    def __init__(self, col: str = "text", id_col: str = "doc_id"):
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa

        from ..functions.textkernels import tokenize

        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, doc_idx, _ = tokenize(batch[self.col])
        if len(doc_idx) == 0:
            return pa.table(
                {
                    self.id_col: pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        codes, uniq = pd.factorize(pd.Series(flat.to_pandas()))
        codes = codes.astype(np.int64)
        uniq = np.asarray(uniq, dtype=object)
        order = np.lexsort((codes, doc_idx))
        d_s, c_s = doc_idx[order], codes[order]
        first = np.r_[True, (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])]
        starts = np.nonzero(first)[0]
        tf = np.diff(np.r_[starts, len(d_s)])
        return pa.table(
            {
                self.id_col: pa.array(ids[d_s[starts]], pa.int64()),
                "term": pa.array(uniq[c_s[starts]], pa.string()),
                "tf": pa.array(tf.astype(np.int64), pa.int64()),
            }
        )


def oov_stats(ds, vocab_k: int = 64, col: str = "text", id_col: str = "doc_id"):
    """Vocabulary-coverage quality gate: per-document token count and
    out-of-vocabulary token count against the corpus' top-`vocab_k` terms by
    document frequency (ties broken by term ASC — a total order both engines
    reproduce). High OOV share flags gibberish / non-prose documents without
    any float scoring — integer-exact end to end.

    Scale shape: one map-only tf expansion feeds the vocabulary-scale df
    reduction (never corpus-scale rows); the top-k is a k-row driver pull off
    a sorted vocab table; the corpus pass is map-only against the broadcast
    (ray.put) vocab with vectorized `pc.is_in`."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from ..functions.textkernels import tokenize
    from .assembly import bucketed_count_per_key

    tf = ds.map_batches(TermFrequencies(col, id_col), batch_format="pyarrow")
    # (term, df): one tf row per (doc, term), so a row count is the df
    dfs = bucketed_count_per_key(tf, "term", "df")
    top = dfs.sort(["df", "term"], descending=[True, False]).limit(vocab_k).take_all()
    vocab_ref = ray.put(pa.array([r["term"] for r in top], pa.string()))

    def score(batch: pa.Table) -> pa.Table:
        vocab = vocab_ref
        if isinstance(vocab, ray.ObjectRef):
            vocab = ray.get(vocab)
        sel = batch.select([id_col])
        if batch.num_rows == 0:
            return sel.append_column("n_tokens", pa.array([], pa.int64())).append_column(
                "n_oov", pa.array([], pa.int64())
            )
        flat, doc_idx, n_tokens = tokenize(batch[col])
        inv = pc.fill_null(pc.is_in(flat, value_set=vocab), False).to_numpy(
            zero_copy_only=False
        )
        n_oov = np.bincount(doc_idx[~inv], minlength=batch.num_rows).astype(np.int64)
        return sel.append_column("n_tokens", pa.array(n_tokens)).append_column(
            "n_oov", pa.array(n_oov)
        )

    return ds.map_batches(score, batch_format="pyarrow")


def _bitlen_pos(m: np.ndarray) -> np.ndarray:
    """Exact bit length of positive int64 values < 2^53: the float64
    conversion is exact there, and frexp's exponent IS the bit length —
    matches DuckDB's length(printf('%b', m)) with no log-rounding channel."""
    return np.frexp(m.astype(np.float64))[1].astype(np.int64)


def _argmax_per_doc(df: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """One row per doc: max score, ties -> lexicographically smallest term
    (the SQL twin's ORDER BY score DESC, term ASC). Vectorized lexsort."""
    if not len(df):
        # np.r_[True, empty] has length 1 vs order's 0 — guard here so every
        # caller (including per-bucket exchange finals) survives empty frames
        return pd.DataFrame(
            {
                id_col: pd.Series(dtype="int64"),
                "top_term": pd.Series(dtype=object),
                "top_score": pd.Series(dtype="int64"),
            }
        )
    tcodes = pd.factorize(df["term"], sort=True)[0].astype(np.int64)
    ids = df[id_col].to_numpy(dtype=np.int64)
    score = df["score"].to_numpy(dtype=np.int64)
    order = np.lexsort((tcodes, -score, ids))
    ids_s = ids[order]
    first = np.r_[True, ids_s[1:] != ids_s[:-1]]
    pick = order[first]
    return pd.DataFrame(
        {
            id_col: ids[pick],
            "top_term": df["term"].to_numpy(dtype=object)[pick],
            "top_score": score[pick],
        }
    )


def tfidf_top_terms(
    ds,
    n_docs: int,
    col: str = "text",
    id_col: str = "doc_id",
    broadcast_max_terms: int = 2_000_000,
):
    """Per-document most-distinctive term by tf x integer-idf, where
    idf_int = bitlen(n_docs // df) (an exact-integer idf quantization:
    floor(log2) + 1 of the inverse document frequency — zero for terms in
    every document scales up as terms get rarer). Every compared column is
    int64/string, so the DuckDB twin is bit-exact.

    Scale ladder (the dedup-plane idiom): the (term, df) table is
    vocabulary-sized — broadcast it via `ray.put` when it fits
    (`broadcast_max_terms`), finishing tf-idf + per-doc argmax entirely
    map-side with ZERO extra shuffle (tf blocks are doc-local); above the
    threshold, attach df with `bucketed_hash_join` on term and finish with a
    per-block partial argmax + one exchange keyed by doc."""
    import ray

    from .assembly import bucketed_count_per_key
    from .joins import bucketed_hash_join

    tf_stage = TermFrequencies(col, id_col)
    tf_ds = ds.map_batches(tf_stage, batch_format="pyarrow")
    # materialize the vocabulary-sized df table: count() + the consumer below
    # would otherwise re-run the whole corpus tokenization per use (the
    # ngram_pmi hazard, documented there)
    df_ds = bucketed_count_per_key(tf_ds, "term", "df").materialize()
    n_terms = df_ds.count()

    if n_terms <= broadcast_max_terms:
        dfp = df_ds.to_pandas()
        ref = ray.put(dict(zip(dfp["term"], dfp["df"].astype("int64"))))

        class ScoreDocs:
            """Tokenize + tf + score + per-doc argmax in ONE stage over the
            original doc rows: the tf expansion never leaves the task, so
            dynamic output-block splitting can never cut a document's tf
            rows across blocks mid-argmax (output is one row per doc —
            block splits between rows are doc-aligned by construction)."""

            def __init__(self, df_ref, n: int):
                self.df_map = ray.get(df_ref) if isinstance(df_ref, ray.ObjectRef) else df_ref
                self.n = n

            def __call__(self, batch: "pa.Table") -> pd.DataFrame:
                tf_tbl = tf_stage(batch)
                tfd = tf_tbl.to_pandas()
                if len(tfd) == 0:
                    return pd.DataFrame(
                        {id_col: pd.Series(dtype="int64"),
                         "top_term": pd.Series(dtype=object),
                         "top_score": pd.Series(dtype="int64")}
                    )
                dfv = tfd["term"].map(self.df_map).to_numpy(dtype=np.int64)
                idf = _bitlen_pos(np.int64(self.n) // dfv)
                scored = tfd.assign(score=tfd["tf"].to_numpy(dtype=np.int64) * idf)
                return _argmax_per_doc(scored, id_col)

        return ds.map_batches(
            ScoreDocs,
            fn_constructor_kwargs={"df_ref": ref, "n": n_docs},
            batch_format="pyarrow",
            concurrency=(1, 8),
        )

    # join path: materialize the corpus-scale tf table once — the join
    # consumes it a second time and a lazy plan would re-tokenize
    tf_ds = tf_ds.materialize()
    joined = bucketed_hash_join(tf_ds, df_ds, on="term")

    def partial_argmax(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return _argmax_per_doc(batch, id_col)
        idf = _bitlen_pos(np.int64(n_docs) // batch["df"].to_numpy(dtype=np.int64))
        scored = batch.assign(score=batch["tf"].to_numpy(dtype=np.int64) * idf)
        return _argmax_per_doc(scored, id_col)

    def final_argmax(g: pd.DataFrame) -> pd.DataFrame:
        return _argmax_per_doc(
            g.rename(columns={"top_score": "score", "top_term": "term"}), id_col
        )

    # keyed by doc: groupby(doc_id).aggregate() pays the sort-aggregate
    # cost per GROUP (BASELINE.md addendum)
    return exchange(joined, id_col, final_argmax, partial_argmax)


def ngram_topk(ds, n: int = 2, k: int = 50, col: str = "text"):
    """Corpus-wide top-k word n-grams with counts — the vocabulary/boilerplate
    census a training-data pipeline runs before choosing dedup shingles and
    decontamination n-grams. Shares the engine's canonical tokenizer
    (functions/textkernels.py:tokenize — lower, split [^a-z0-9]+, drop '').

    Scale shape: per-batch tokenize → adjacent-join n-grams (windows never
    cross a document) → per-batch value_counts COMBINER, so the shuffle
    carries one row per (block, distinct gram); the gram sum is a BUCKETED
    pandas reduce (distinct n-grams grow super-linearly with the corpus —
    a groupby(gram).aggregate would pay the sort-aggregate group-cardinality
    cost, CLAUDE.md rule); the final sort runs over the distinct-gram table
    (vocabulary-sized, not corpus-sized) with ties broken on the gram so
    the LIMIT boundary is engine-independent."""
    import pyarrow as pa

    from ..functions.textkernels import tokenize
    from .assembly import bucketed_reduce_per_key

    def partial_counts(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"gram": pa.array([], type=pa.string()), "_n": pa.array([], type=pa.int64())}
        )
        if len(t) == 0:
            return empty
        flat, doc_idx, _ = tokenize(t[col])
        toks = flat.to_numpy(zero_copy_only=False)
        if len(toks) < n:
            return empty
        grams = pd.Series(toks[: len(toks) - n + 1], dtype=object)
        for j in range(1, n):
            grams = grams.str.cat(
                pd.Series(toks[j : len(toks) - n + 1 + j], dtype=object), sep=" "
            )
        valid = doc_idx[: len(toks) - n + 1] == doc_idx[n - 1 :]
        counts = grams[valid].value_counts()
        return pa.table(
            {
                "gram": pa.array(counts.index, type=pa.string()),
                "_n": pa.array(counts.to_numpy(dtype=np.int64)),
            }
        )

    partial_counts.__name__ = f"ngram{n}_partial_counts"
    return (
        bucketed_reduce_per_key(
            ds.select_columns([col]).map_batches(
                partial_counts, batch_format="pyarrow"
            ),
            "gram",
            [("n", "_n", "sum")],
        )
        .sort(["n", "gram"], descending=[True, False])
        .limit(k)
    )


def ngram_pmi(ds, min_count: int = 5, col: str = "text", broadcast_max_terms: int = 200_000):
    """Collocation extraction (PMI components): for every word bigram with
    corpus count >= min_count, emit (w1, w2, n_xy, n_x, n_y) — INTEGER-EXACT
    association-strength components (the consumer computes
    PMI = log(n_xy·N / (n_x·n_y)); emitting the log itself would open a
    float-rounding channel against the SQL twin).

    Scale shape: bigram and unigram count tables are built with per-batch
    value_counts combiners (one row per block × distinct gram on the
    shuffle) and BUCKETED pandas sum reduces (distinct grams scale with the
    corpus — the CLAUDE.md group-cardinality rule); the bigram table is then
    min_count-filtered (small) and enriched with the two unigram counts. The unigram
    attach is GATED like tfidf's: a vocabulary ≤ broadcast_max_terms is
    ray.put once and mapped in (two shuffle-free lookups); above the gate it
    takes TWO bucketed hash joins (stages/joins.py:bucketed_hash_join) —
    tested path-equal."""
    import pyarrow as pa

    from ..functions.textkernels import tokenize
    from .assembly import bucketed_reduce_per_key
    from .joins import bucketed_hash_join

    def bigram_partials(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"_g": pa.array([], type=pa.string()), "_n": pa.array([], type=pa.int64())}
        )
        if len(t) == 0:
            return empty
        flat, doc_idx, _ = tokenize(t[col])
        toks = flat.to_numpy(zero_copy_only=False)
        if len(toks) < 2:
            return empty
        # tokens are [a-z0-9]+ so ' ' is a safe pair separator
        grams = pd.Series(toks[:-1], dtype=object).str.cat(
            pd.Series(toks[1:], dtype=object), sep=" "
        )
        valid = doc_idx[:-1] == doc_idx[1:]
        counts = grams[valid].value_counts()
        return pa.table(
            {
                "_g": pa.array(counts.index, type=pa.string()),
                "_n": pa.array(counts.to_numpy(dtype=np.int64)),
            }
        )

    bigram_partials.__name__ = "bigram_partial_counts"

    def unigram_partials(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"tok": pa.array([], type=pa.string()), "_n": pa.array([], type=pa.int64())}
            )
        flat, _, _ = tokenize(t[col])
        counts = pd.Series(flat.to_numpy(zero_copy_only=False), dtype=object).value_counts()
        return pa.table(
            {
                "tok": pa.array(counts.index, type=pa.string()),
                "_n": pa.array(counts.to_numpy(dtype=np.int64)),
            }
        )

    unigram_partials.__name__ = "unigram_partial_counts"
    docs = ds.select_columns([col])
    bg = bucketed_reduce_per_key(
        docs.map_batches(bigram_partials, batch_format="pyarrow"),
        "_g",
        [("n_xy", "_n", "sum")],
    ).filter(expr=f"n_xy >= {int(min_count)}")
    uni = bucketed_reduce_per_key(
        docs.map_batches(unigram_partials, batch_format="pyarrow"),
        "tok",
        [("_n_tok", "_n", "sum")],
        # materialize ONCE: both joins consume this table, and a lazy plan
        # would re-run the whole corpus tokenization per join. The table is
        # vocabulary-sized (never corpus-sized) — a bounded materialization
    ).materialize()

    def split_gram(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "w1": pd.Series(dtype=object),
                    "w2": pd.Series(dtype=object),
                    "n_xy": pd.Series(dtype="int64"),
                }
            )
        parts = df["_g"].str.split(" ", n=1, expand=True)
        return pd.DataFrame(
            {"w1": parts[0], "w2": parts[1], "n_xy": df["n_xy"].astype("int64")}
        )

    split_gram.__name__ = "split_gram"
    pairs = bg.map_batches(split_gram, batch_format="pandas")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["w1", "w2", "n_xy", "n_x", "n_y"]].copy()
        for c in ("n_xy", "n_x", "n_y"):
            out[c] = out[c].astype("int64")
        return out

    finish.__name__ = "pmi_components"

    if uni.count() <= broadcast_max_terms:
        # vocabulary fits comfortably: ship it once, attach with two
        # shuffle-free map lookups (the normal regime for natural language —
        # vocab grows ~log corpus)
        import ray

        udf = uni.to_pandas()
        ref = ray.put(pd.Series(udf["_n_tok"].to_numpy(), index=udf["tok"]))

        class AttachUnigrams:
            def __init__(self, counts_ref):
                obj = counts_ref
                try:
                    if isinstance(obj, ray.ObjectRef):
                        obj = ray.get(obj)
                except Exception:
                    pass
                self.counts = obj

            def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
                df = df.assign(
                    n_x=df["w1"].map(self.counts), n_y=df["w2"].map(self.counts)
                )
                return finish(df)

        return pairs.map_batches(
            AttachUnigrams,
            fn_constructor_kwargs={"counts_ref": ref},
            batch_format="pandas",
            concurrency=(1, 8),
        )

    def rename(cols: dict):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns=cols)

        fn.__name__ = "rename_" + "_".join(cols.values())
        return fn

    uni1 = uni.map_batches(rename({"tok": "w1", "_n_tok": "n_x"}), batch_format="pandas")
    joined1 = bucketed_hash_join(pairs, uni1, on="w1")
    uni2 = uni.map_batches(rename({"tok": "w2", "_n_tok": "n_y"}), batch_format="pandas")
    joined2 = bucketed_hash_join(joined1, uni2, on="w2")
    return joined2.map_batches(finish, batch_format="pandas")


def lang_mix(ds, col: str = "text", by: str = "source"):
    """Corpus language composition by segment: per-(by, lang_pred) doc counts
    — the mixture report a multilingual curation run starts from. Map-only
    partial counts per batch (LangId is vectorized and row-aligned, so the
    segment column attaches positionally — no join), folded on the driver
    (``fold.sum_by_key``; ≤ segments × languages rows per block)."""
    import pyarrow.compute as pc

    from .fold import dataset, sum_by_key

    lid = LangId(col)
    schema = pa.schema([(by, pa.string()), ("lang_pred", pa.string()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        seg = pc.fill_null(pc.cast(batch[by], pa.string()), "")
        t = pa.table({by: seg, "lang_pred": pa.array(lid(batch)["lang_pred"], pa.string())})
        c = t.group_by([by, "lang_pred"], use_threads=False).aggregate([([], "count_all")])
        return c.select([by, "lang_pred", "count_all"]).rename_columns(schema.names)

    partial.__name__ = "lang_mix_partials"
    projected = ds.select_columns(["doc_id", by, col])
    return dataset(sum_by_key(projected, schema, [by, "lang_pred"], partial))


def lexical_diversity(ds, col: str = "text", id_col: str = "doc_id"):
    """Type-token-ratio components per document: (doc_id, n_words,
    n_unique_words) over the engine's canonical word tokenizer — the lexical-
    diversity quality gate (low unique/total ratio = keyword stuffing or
    template spam). Integer columns only; the ratio itself is downstream
    arithmetic, never a compared float.

    Map-only, zero shuffle: one tokenize pass per batch, per-doc distinct via
    a vectorized (doc_idx, token) drop_duplicates + bincount."""

    def score(t: pa.Table) -> pa.Table:
        from ..functions.textkernels import tokenize

        if len(t) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "n_words": pa.array([], type=pa.int64()),
                    "n_unique_words": pa.array([], type=pa.int64()),
                }
            )
        flat, doc_idx, n_tokens = tokenize(t[col])
        toks = flat.to_numpy(zero_copy_only=False)
        uniq_docs = (
            pd.DataFrame({"d": doc_idx, "t": toks}).drop_duplicates()["d"].to_numpy()
        )
        n_uniq = np.zeros(len(t), dtype=np.int64)
        np.add.at(n_uniq, uniq_docs, 1)
        return pa.table(
            {
                id_col: t[id_col],
                "n_words": pa.array(n_tokens),
                "n_unique_words": pa.array(n_uniq),
            }
        )

    score.__name__ = "lexical_diversity"
    return ds.select_columns([id_col, col]).map_batches(score, batch_format="pyarrow")


def boilerplate_prefixes(
    ds,
    k: int = 24,
    min_docs: int = 2,
    col: str = "text",
    id_col: str = "doc_id",
):
    """Shared-prefix boilerplate census: groups of >= min_docs documents whose
    first `k` characters agree → (prefix_md5, n_docs, min_doc_id). The cheap
    template/boilerplate detector a curation pipeline runs before paying for
    shingle-level near-dup (docs shorter than k have no k-prefix and are
    skipped, mirroring the twin's length filter).

    Scale shape: per-batch prefix slice + md5 + local (count, min) combiner →
    one single-key groupby whose input is (block × distinct prefix) rows; the
    HAVING filter runs on the group table, never the corpus."""
    import hashlib


    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df[col]
        keep = s.notna() & (s.str.len() >= k)
        if not keep.any():
            return pd.DataFrame(
                {
                    "prefix_md5": pd.Series(dtype=object),
                    "_n": pd.Series(dtype="int64"),
                    "_min_id": pd.Series(dtype="int64"),
                }
            )
        pref = s[keep].str[:k]
        md5 = pref.map(lambda x: hashlib.md5(x.encode()).hexdigest())
        g = (
            pd.DataFrame({"prefix_md5": md5, "_id": df[id_col][keep]})
            .groupby("prefix_md5", sort=False)["_id"]
            .agg(_n="size", _min_id="min")
            .reset_index()
        )
        g["_n"] = g["_n"].astype("int64")
        g["_min_id"] = g["_min_id"].astype("int64")
        return g

    partial.__name__ = "prefix_partials"
    # distinct prefixes scale with the corpus: bucketed reduce, not
    # groupby(prefix).aggregate (BASELINE.md group-cardinality addendum)
    from .assembly import bucketed_reduce_per_key

    reduced = bucketed_reduce_per_key(
        ds.select_columns([id_col, col]).map_batches(partial, batch_format="pandas"),
        "prefix_md5",
        [("n_docs", "_n", "sum"), ("min_doc_id", "_min_id", "min")],
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["n_docs"] >= min_docs].copy()
        out["n_docs"] = out["n_docs"].astype("int64")
        out["min_doc_id"] = out["min_doc_id"].astype("int64")
        return out[["prefix_md5", "n_docs", "min_doc_id"]]

    finish.__name__ = "having_min_docs"
    return reduced.map_batches(finish, batch_format="pandas")
