"""Multimodal column plumbing: image/audio/video as opaque ``binary`` columns
with typed metadata, processed by actor-pool ``map_batches`` stages.

The Ray-side plumbing is real and tested — schema contract, actor signature,
batch sizing, output layout. Codec coverage is layered:

- **Real stdlib paths** (no third-party dependency): PNG decode/encode via
  struct+zlib (8-bit gray/RGB/RGBA/gray-alpha, all five scanline filters,
  non-interlaced) and WAV via the stdlib ``wave`` module (8/16/32-bit PCM).
  Payloads that sniff as PNG/WAV always decode for real.
- **Library paths**: PIL / soundfile when importable (not in this
  container), imported once per actor in ``__init__``.
- **Deterministic fake** for formats beyond the above, only when
  ``allow_fake=True``; with ``allow_fake=False`` an unsupported payload
  raises ``ValueError`` naming the format, so a stub result can never be
  mistaken for a decode.

Batch-size guidance for binary payloads: keep ``batch_size`` small (rows are
megabytes, not bytes) and let ``DataContext.target_max_block_size`` bound the
block memory; a pool of N decode actors with num_cpus=1 each overlaps decode
with the surrounding read/write stages.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np
import pyarrow as pa

#: PNG file signature (RFC 2083 §3.1)
PNG_SIG = b"\x89PNG\r\n\x1a\n"

_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # color type -> samples per pixel


def is_png(payload: bytes) -> bool:
    return payload[: len(PNG_SIG)] == PNG_SIG


def is_wav(payload: bytes) -> bool:
    return payload[:4] == b"RIFF" and payload[8:12] == b"WAVE"


def png_decode(payload: bytes) -> tuple[int, int, np.ndarray]:
    """Pure-stdlib PNG decode (struct + zlib): returns (width, height,
    uint8 pixels of shape (h, w, channels)). Supports bit depth 8, color
    types 0/2/4/6, non-interlaced, all five scanline filters (sub is a
    per-channel-lane cumsum; average/paeth keep their sequential left
    dependency). Raises ValueError on anything else — never guesses."""
    if not is_png(payload):
        raise ValueError("not a PNG payload")
    ihdr = None
    idat: list[bytes] = []
    pos = len(PNG_SIG)
    while pos + 8 <= len(payload):
        (ln,) = struct.unpack(">I", payload[pos : pos + 4])
        typ = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + ln]
        if typ == b"IHDR":
            ihdr = data
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
        pos += 12 + ln  # length + type + data + crc
    if ihdr is None or not idat:
        raise ValueError("corrupt PNG: missing IHDR/IDAT")
    w, h, depth, ct, _comp, _filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if depth != 8 or ct not in _PNG_CHANNELS or interlace != 0:
        raise ValueError(
            f"unsupported PNG (bit depth {depth}, color type {ct}, interlace {interlace})"
        )
    ch = _PNG_CHANNELS[ct]
    stride = w * ch
    raw = zlib.decompress(b"".join(idat))
    if len(raw) != h * (stride + 1):
        raise ValueError("corrupt PNG: stream length != h * (stride + 1)")
    rows = np.frombuffer(raw, np.uint8).reshape(h, stride + 1)
    out = np.empty((h, stride), np.uint8)
    prev = np.zeros(stride, np.int32)
    for y in range(h):
        ft = rows[y, 0]
        line = rows[y, 1:].astype(np.int32)
        if ft == 0:  # None
            rec = line
        elif ft == 1:  # Sub: recon[x] = raw[x] + recon[x - ch]
            rec = line.copy()
            for c in range(ch):
                rec[c::ch] = np.cumsum(rec[c::ch], dtype=np.int64) & 0xFF
        elif ft == 2:  # Up
            rec = (line + prev) & 0xFF
        elif ft == 3:  # Average (sequential left dependency)
            rec = np.empty(stride, np.int32)
            for x in range(stride):
                left = rec[x - ch] if x >= ch else 0
                rec[x] = (line[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth (sequential left dependency)
            rec = np.empty(stride, np.int32)
            for x in range(stride):
                a = rec[x - ch] if x >= ch else 0
                b = prev[x]
                c0 = prev[x - ch] if x >= ch else 0
                p = a + b - c0
                pa_, pb, pc0 = abs(p - a), abs(p - b), abs(p - c0)
                pred = a if (pa_ <= pb and pa_ <= pc0) else (b if pb <= pc0 else c0)
                rec[x] = (line[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter type {ft}")
        out[y] = rec.astype(np.uint8)
        prev = rec
    return w, h, out.reshape(h, w, ch)


def png_encode(pixels: np.ndarray) -> bytes:
    """Pure-stdlib PNG encode (filter 0 scanlines, one zlib IDAT). `pixels`
    is uint8 (h, w) or (h, w, channels in {1,2,3,4})."""
    px = np.ascontiguousarray(pixels, np.uint8)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, ch = px.shape
    ct = {1: 0, 2: 4, 3: 2, 4: 6}[ch]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ct, 0, 0, 0)
    raw = b"".join(b"\x00" + px[y].tobytes() for y in range(h))

    def chunk(typ: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + typ
            + data
            + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF)
        )

    return PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b"")


def png_gray(pixels: np.ndarray) -> np.ndarray:
    """uint8 (h, w, ch) -> float32 (h, w) luma (BT.601 for RGB; alpha
    ignored; gray planes pass through)."""
    ch = pixels.shape[2]
    if ch <= 2:
        return pixels[:, :, 0].astype(np.float32)
    p = pixels.astype(np.float32)
    return 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]


def _pool8(gray: np.ndarray) -> np.ndarray:
    """8x8 block-mean pooling (the stdlib analog of PIL resize((8, 8)))."""
    out = np.zeros((8, 8), np.float32)
    for i, rblk in enumerate(np.array_split(gray, 8, axis=0)):
        for j, blk in enumerate(np.array_split(rblk, 8, axis=1)):
            if blk.size:
                out[i, j] = blk.mean()
    return out


def nn_resize(px: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbor resample of uint8 (h, w[, ch]) pixels to
    (height, width) — index map (i*src)//dst, clipped. Shared by ResizeImage
    and the ground-truth generator so the two can never drift."""
    h, w = px.shape[0], px.shape[1]
    yi = np.minimum((np.arange(height) * h) // height, h - 1)
    xi = np.minimum((np.arange(width) * w) // width, w - 1)
    return px[yi][:, xi]


def wav_decode(payload: bytes) -> tuple[int, np.ndarray]:
    """Stdlib WAV decode (`wave` module): returns (sample_rate, float32 mono
    samples in [-1, 1]); multi-channel input is mean-downmixed. 8/16/32-bit
    PCM; raises ValueError on other sample widths."""
    import io
    import wave

    with wave.open(io.BytesIO(payload), "rb") as wf:
        rate = wf.getframerate()
        nch = wf.getnchannels()
        sw = wf.getsampwidth()
        data = wf.readframes(wf.getnframes())
    if sw == 2:
        arr = np.frombuffer(data, "<i2").astype(np.float32) / 32768.0
    elif sw == 1:
        arr = (np.frombuffer(data, np.uint8).astype(np.float32) - 128.0) / 128.0
    elif sw == 4:
        arr = np.frombuffer(data, "<i4").astype(np.float32) / 2147483648.0
    else:
        raise ValueError(f"unsupported WAV sample width {sw}")
    if nch > 1:
        arr = arr.reshape(-1, nch).mean(axis=1)
    return rate, arr

#: YUV4MPEG2 stream signature (the y4m plain container: one ASCII header
#: line, then `FRAME\n` + raw planar YUV per frame — public format, fully
#: parseable with the stdlib)
Y4M_SIG = b"YUV4MPEG2 "


def is_y4m(payload: bytes) -> bool:
    return payload[: len(Y4M_SIG)] == Y4M_SIG


def y4m_decode(payload: bytes) -> tuple[int, int, list[np.ndarray]]:
    """Pure-stdlib Y4M decode: returns (width, height, [luma planes (h, w)
    uint8, one per frame]). Supports Cmono / C420* / C444 (chroma planes are
    skipped — frame sampling and luma features need Y only). Raises
    ValueError on anything else — never guesses."""
    if not is_y4m(payload):
        raise ValueError("not a YUV4MPEG2 payload")
    nl = payload.index(b"\n")
    w = h = None
    cs = "420jpeg"  # y4m default when C is absent
    for tok in payload[len(Y4M_SIG) : nl].decode("ascii").split():
        if tok[:1] == "W":
            w = int(tok[1:])
        elif tok[:1] == "H":
            h = int(tok[1:])
        elif tok[:1] == "C":
            cs = tok[1:]
    if not w or not h:
        raise ValueError("corrupt y4m: missing W/H in stream header")
    if cs.startswith("mono"):
        fsize = w * h
    elif cs.startswith("420"):
        fsize = w * h + 2 * ((w // 2) * (h // 2))
    elif cs.startswith("444"):
        fsize = 3 * w * h
    else:
        raise ValueError(f"unsupported y4m colorspace C{cs}")
    frames: list[np.ndarray] = []
    pos = nl + 1
    while pos < len(payload):
        if payload[pos : pos + 5] != b"FRAME":
            raise ValueError("corrupt y4m: expected FRAME marker")
        pos = payload.index(b"\n", pos) + 1
        # the WHOLE frame (luma + chroma planes) must be present — checking
        # only the luma slice would silently accept a stream truncated
        # mid-chroma in the final frame
        if pos + fsize > len(payload):
            raise ValueError("truncated y4m frame")
        y = payload[pos : pos + w * h]
        frames.append(np.frombuffer(y, np.uint8).reshape(h, w))
        pos += fsize
    if not frames:
        raise ValueError("corrupt y4m: stream contains no frames")
    return w, h, frames


def y4m_encode_mono(frames: list[np.ndarray], fps: tuple[int, int] = (25, 1)) -> bytes:
    """Pure-stdlib Y4M encode of uint8 (h, w) luma frames (Cmono)."""
    h, w = frames[0].shape
    head = f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 Cmono\n".encode()
    return head + b"".join(
        b"FRAME\n" + np.ascontiguousarray(f, np.uint8).tobytes() for f in frames
    )


def sampled_frame_indices(n_source_frames: int, k: int) -> list[int]:
    """Evenly-spaced sample: src_j = (j * (nf - 1)) // (k - 1) — shared with
    the DuckDB oracle (integer floor division on both engines)."""
    if n_source_frames <= 0:
        # there is no frame 0 to repeat; y4m_decode raises before this on
        # frameless streams, so reaching here is a caller bug
        raise ValueError("sampled_frame_indices: no source frames")
    if n_source_frames == 1 or k == 1:
        return [0] * k
    return [(j * (n_source_frames - 1)) // (k - 1) for j in range(k)]


#: schema contract for a multimodal corpus shard
MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("width", pa.int32()),  # -1 when unknown
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)


def _digest_floats(payload: bytes, n: int) -> np.ndarray:
    """Deterministic fake feature vector from the payload bytes (sha256
    counter mode) — stable across runs/processes."""
    out = np.empty(n, dtype=np.float32)
    i, filled = 0, 0
    while filled < n:
        d = hashlib.sha256(payload + i.to_bytes(4, "little")).digest()
        block = np.frombuffer(d, dtype=np.uint8).astype(np.float32) / 255.0
        take = min(n - filled, block.size)
        out[filled : filled + take] = block[:take]
        filled += take
        i += 1
    return out


class DecodeImage:
    """Actor-pool stage: binary payload -> (media_id, width, height,
    features[dim]). PNG payloads decode for REAL via the stdlib path
    (png_decode above); other formats use PIL when importable, else — only
    with ``allow_fake=True`` — a deterministic fake derived from the bytes.
    ``allow_fake=False`` raises ValueError on any non-PNG payload PIL can't
    handle, so a stub result can never pass for a decode."""

    def __init__(self, feature_dim: int = 64, allow_fake: bool = True):
        self.feature_dim = feature_dim
        self.allow_fake = allow_fake
        try:
            from PIL import Image  # noqa: F401

            self._pil = Image
        except ImportError:
            self._pil = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        widths, heights, feats, sums = [], [], [], []
        for p in payloads:
            p = p or b""
            if is_png(p):
                w, h, px = png_decode(p)
                f = np.resize(_pool8(png_gray(px)).reshape(-1) / 255.0, self.feature_dim)
                s = int(px.sum(dtype=np.int64))
            elif self._pil is not None:
                import io

                with self._pil.open(io.BytesIO(p)) as img:
                    w, h = img.size
                    s = int(np.asarray(img.convert("RGB"), dtype=np.int64).sum())
                    arr = np.asarray(img.convert("L").resize((8, 8)), dtype=np.float32)
                    f = arr.reshape(-1) / 255.0
                    f = np.resize(f, self.feature_dim)
            elif self.allow_fake:
                d = hashlib.sha256(p).digest()
                w, h = 64 + d[0] % 192, 64 + d[1] % 192
                f = _digest_floats(p, self.feature_dim)
                s = -1  # stub: no real pixels to sum
            else:
                raise ValueError(
                    f"unsupported image payload (magic {p[:8]!r}): not PNG, PIL "
                    "unavailable, and allow_fake=False"
                )
            widths.append(w)
            heights.append(h)
            feats.append(f)
            sums.append(s)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                # decoded-pixel checksum: lets a DuckDB oracle value-check the
                # decode against generation-time truth (pix_sum of the raw
                # RGB array; -1 only on the allow_fake stub path)
                "pix_sum": pa.array(sums, pa.int64()),
                "features": pa.array([f.tolist() for f in feats], pa.list_(pa.float32())),
            }
        )


class ResizeImage:
    """Actor-pool stage: payload -> resized payload. PNG payloads resize for
    REAL (stdlib decode -> nearest-neighbor resample -> stdlib re-encode);
    other formats use PIL when importable, else the deterministic stub (only
    with ``allow_fake=True``)."""

    def __init__(self, width: int = 224, height: int = 224, allow_fake: bool = True):
        self.width = width
        self.height = height
        self.allow_fake = allow_fake
        try:
            from PIL import Image  # noqa: F401

            self._pil = Image
        except ImportError:
            self._pil = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        out = []
        for p in payloads:
            p = p or b""
            if is_png(p):
                _w, _h, px = png_decode(p)
                out.append(png_encode(nn_resize(px, self.width, self.height)))
            elif self._pil is not None:
                import io

                with self._pil.open(io.BytesIO(p)) as img:
                    buf = io.BytesIO()
                    img.resize((self.width, self.height)).save(buf, format="PNG")
                    out.append(buf.getvalue())
            elif self.allow_fake:
                out.append(hashlib.sha256(b"resize" + p).digest())
            else:
                raise ValueError(
                    f"unsupported image payload (magic {p[:8]!r}): not PNG, PIL "
                    "unavailable, and allow_fake=False"
                )
        return pa.table(
            {
                "media_id": batch["media_id"],
                "payload": pa.array(out, pa.binary()),
                "width": pa.array([self.width] * len(out), pa.int32()),
                "height": pa.array([self.height] * len(out), pa.int32()),
            }
        )


class SampleFrames:
    """Actor-pool stage for video: payload -> `n_frames` evenly-spaced frame
    rows (exploded: one row per sampled frame). Y4M payloads (YUV4MPEG2 —
    the plain public container) decode for REAL via the stdlib parser above:
    src_frame is the evenly-spaced source index, `frame` is the sampled luma
    plane re-encoded as a real PNG (so downstream DecodeImage composes), and
    luma_sum is the int64 pixel-sum checksum the DuckDB oracle value-checks.
    Other containers (mp4/webm need a codec library this container lacks)
    use the deterministic stub only with ``allow_fake=True`` (sentinel
    width/height/src_frame/luma_sum = -1); ``allow_fake=False`` raises
    ValueError on any non-Y4M payload, so a stub can never pass for a
    decode."""

    def __init__(self, n_frames: int = 4, allow_fake: bool = True):
        self.n_frames = n_frames
        self.allow_fake = allow_fake
        self._codec = None  # no video lib in this container

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out: dict[str, list] = {
            "media_id": [], "frame_idx": [], "src_frame": [],
            "width": [], "height": [], "luma_sum": [], "frame": [],
        }
        for mid, p in zip(ids, payloads):
            p = p or b""
            if is_y4m(p):
                w, h, frames = y4m_decode(p)
                srcs = sampled_frame_indices(len(frames), self.n_frames)
                for j, si in enumerate(srcs):
                    luma = frames[si]
                    out["media_id"].append(mid)
                    out["frame_idx"].append(j)
                    out["src_frame"].append(si)
                    out["width"].append(w)
                    out["height"].append(h)
                    out["luma_sum"].append(int(luma.sum(dtype=np.int64)))
                    out["frame"].append(png_encode(luma))
            elif self.allow_fake:
                for j in range(self.n_frames):
                    out["media_id"].append(mid)
                    out["frame_idx"].append(j)
                    out["src_frame"].append(-1)
                    out["width"].append(-1)
                    out["height"].append(-1)
                    out["luma_sum"].append(-1)
                    out["frame"].append(
                        hashlib.sha256(p + j.to_bytes(2, "little")).digest()
                    )
            else:
                raise ValueError(
                    f"unsupported video payload (magic {p[:10]!r}): not "
                    "YUV4MPEG2, no codec library, and allow_fake=False"
                )
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int32()),
                "src_frame": pa.array(out["src_frame"], pa.int32()),
                "width": pa.array(out["width"], pa.int32()),
                "height": pa.array(out["height"], pa.int32()),
                "luma_sum": pa.array(out["luma_sum"], pa.int64()),
                "frame": pa.array(out["frame"], pa.binary()),
            }
        )


def sample_frames(
    ds,
    n_frames: int = 4,
    concurrency: int = 2,
    batch_size: int = 32,
    allow_fake: bool = True,
):
    """Canonical wiring for the video frame-sample stage (small batches,
    actor pool, binary-safe Arrow end to end)."""
    return ds.filter(expr="kind == 'video'").map_batches(
        SampleFrames,
        fn_constructor_kwargs={"n_frames": n_frames, "allow_fake": allow_fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def _samp_sum(data: np.ndarray) -> int:
    """Checksum of decoded audio in 1/32768 units: exact raw-sample sum for
    16-bit PCM, a deterministic scaled sum for other widths."""
    return int(np.rint(np.asarray(data, dtype=np.float64) * 32768.0).astype(np.int64).sum())


class ExtractAudio:
    """Actor-pool stage for audio: payload -> (media_id, sample_rate,
    n_samples, features[dim]) — loudness-style summary vector. WAV payloads
    decode for REAL via the stdlib ``wave`` module (wav_decode above); other
    formats use soundfile when importable (not in this container), else the
    deterministic stub (only with ``allow_fake=True``; ``allow_fake=False``
    raises ValueError on any payload neither path can decode)."""

    def __init__(self, feature_dim: int = 32, allow_fake: bool = True):
        self.feature_dim = feature_dim
        self.allow_fake = allow_fake
        try:
            import soundfile  # noqa: F401

            self._codec = soundfile
        except ImportError:
            self._codec = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        rates, counts, feats, sums = [], [], [], []
        for p in payloads:
            p = p or b""
            if is_wav(p):
                rate, data = wav_decode(p)
                rates.append(int(rate))
                counts.append(int(len(data)))
                feats.append(np.resize(np.abs(data), self.feature_dim))
                sums.append(_samp_sum(data))
            elif self._codec is not None:  # pragma: no cover - lib absent here
                import io

                data, rate = self._codec.read(io.BytesIO(p))
                data = np.asarray(data, dtype=np.float32)
                rates.append(int(rate))
                counts.append(int(len(data)))
                feats.append(np.resize(np.abs(data), self.feature_dim))
                sums.append(_samp_sum(data))
            elif self.allow_fake:
                rates.append(16_000)
                counts.append(len(p) * 8)
                feats.append(_digest_floats(b"audio" + p, self.feature_dim))
                sums.append(-1)  # stub: no real samples to sum
            else:
                raise ValueError(
                    f"unsupported audio payload (magic {p[:4]!r}): not WAV, "
                    "soundfile unavailable, and allow_fake=False"
                )
        return pa.table(
            {
                "media_id": batch["media_id"],
                "sample_rate": pa.array(rates, pa.int32()),
                "n_samples": pa.array(counts, pa.int64()),
                # decoded-sample checksum in 1/32768 units (exact for 16-bit
                # PCM: x/32768 is a power-of-two scale, so rint(x*32768)
                # recovers the raw int sample losslessly) — lets a DuckDB
                # oracle value-check the decode against generation truth
                "samp_sum": pa.array(sums, pa.int64()),
                "features": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float32())
                ),
            }
        )


def extract_audio(
    ds,
    feature_dim: int = 32,
    concurrency: int = 2,
    batch_size: int = 32,
    allow_fake: bool = True,
):
    """WAV payloads decode for real (stdlib); `allow_fake=False` makes any
    other undecodable payload raise ValueError instead of silently emitting
    the deterministic stub features."""
    return ds.filter(expr="kind == 'audio'").map_batches(
        ExtractAudio,
        fn_constructor_kwargs={"feature_dim": feature_dim, "allow_fake": allow_fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def synthetic_media(n: int = 64, seed: int = 5) -> pa.Table:
    """Deterministic fake media corpus matching MEDIA_SCHEMA (for tests)."""
    rng = np.random.default_rng(seed)
    ids = [f"m_{i:06d}" for i in range(n)]
    kinds = [("image", "audio", "video")[i % 3] for i in range(n)]
    payloads = [rng.integers(0, 256, size=int(rng.integers(64, 512)), dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table(
        {
            "media_id": pa.array(ids, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["application/octet-stream"] * n, pa.string()),
            "width": pa.array([-1] * n, pa.int32()),
            "height": pa.array([-1] * n, pa.int32()),
            "duration_ms": pa.array([-1] * n, pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )


def synthetic_media_real(n: int = 64, seed: int = 5) -> pa.Table:
    """Deterministic media corpus whose image payloads are REAL PNGs and
    audio payloads REAL 16-bit PCM WAVs and video payloads REAL mono
    YUV4MPEG2 streams (all built with the stdlib encoders above), so every
    decode stage exercises its real codec path end to end."""
    return _synthetic_media_real_build(n, seed)[0]


# v2: video payloads became real Y4M streams (bump on generation change)
MEDIA_CACHE_ROOT = "/tmp/graft_media_v2"


def ensure_media_real(n: int = 96, seed: int = 5) -> tuple[str, str, str, str, str]:
    """Write (once, cached) the real-codec media corpus and its ground-truth
    tables as parquet under MEDIA_CACHE_ROOT. Returns the 5-tuple of paths
    (media, expected_image, expected_audio, expected_video,
    expected_resize). Pure function of (n, seed) — bump the root suffix
    whenever generation changes (CLAUDE.md corpus invariant). The engine
    reads the media parquet; the DuckDB oracles read the expected parquets,
    so both engines see identical bytes."""
    import os

    import pyarrow.parquet as pq

    media_p = os.path.join(MEDIA_CACHE_ROOT, f"media_{n}_{seed}.parquet")
    exp_p = os.path.join(MEDIA_CACHE_ROOT, f"expected_{n}_{seed}.parquet")
    exp_a_p = os.path.join(MEDIA_CACHE_ROOT, f"expected_audio_{n}_{seed}.parquet")
    exp_v_p = os.path.join(MEDIA_CACHE_ROOT, f"expected_video_{n}_{seed}.parquet")
    exp_r_p = os.path.join(MEDIA_CACHE_ROOT, f"expected_resize_{n}_{seed}.parquet")
    paths = (media_p, exp_p, exp_a_p, exp_v_p, exp_r_p)
    if all(os.path.exists(pth) for pth in paths):
        return paths
    os.makedirs(MEDIA_CACHE_ROOT, exist_ok=True)
    for path, tbl in zip(paths, _synthetic_media_real_build(n, seed)):
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
    return paths


#: fixed output dims of the resize ground truth (engine queries must match)
RESIZE_TRUTH_DIMS = (16, 12)


def _synthetic_media_real_build(n: int, seed: int) -> tuple[pa.Table, pa.Table, pa.Table, pa.Table, pa.Table]:
    import io
    import wave

    rng = np.random.default_rng(seed)
    ids = [f"m_{i:06d}" for i in range(n)]
    kinds = [("image", "audio", "video")[i % 3] for i in range(n)]
    payloads: list[bytes] = []
    widths, heights, durations = [], [], []
    truth_rows: list[tuple[str, int, int, int]] = []
    audio_truth: list[tuple[str, int, int, int]] = []
    video_truth: list[tuple[str, int, int, int, int, int]] = []
    resize_truth: list[tuple[str, int]] = []
    rw, rh = RESIZE_TRUTH_DIMS
    for i, kind in enumerate(kinds):
        if kind == "image":
            w = int(rng.integers(8, 48))
            h = int(rng.integers(8, 48))
            px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(png_encode(px))
            widths.append(w)
            heights.append(h)
            durations.append(-1)
            truth_rows.append((ids[i], w, h, int(px.sum(dtype=np.int64))))
            resize_truth.append(
                (ids[i], int(nn_resize(px, rw, rh).sum(dtype=np.int64)))
            )
        elif kind == "audio":
            rate = 16_000
            n_samp = int(rng.integers(256, 2048))
            samples = rng.integers(-32768, 32768, size=n_samp, dtype=np.int16)
            audio_truth.append(
                (ids[i], rate, n_samp, int(samples.astype(np.int64).sum()))
            )
            buf = io.BytesIO()
            with wave.open(buf, "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(2)
                wf.setframerate(rate)
                wf.writeframes(samples.tobytes())
            payloads.append(buf.getvalue())
            widths.append(-1)
            heights.append(-1)
            durations.append(int(n_samp * 1000 / rate))
        else:
            # REAL video: a mono YUV4MPEG2 stream (public plain container,
            # stdlib-parseable) — per-frame luma sums recorded as truth
            w = int(rng.integers(8, 32))
            h = int(rng.integers(8, 32))
            nf = int(rng.integers(4, 16))
            frames = [
                rng.integers(0, 256, size=(h, w), dtype=np.uint8) for _ in range(nf)
            ]
            payloads.append(y4m_encode_mono(frames, fps=(25, 1)))
            widths.append(w)
            heights.append(h)
            durations.append(int(nf * 1000 / 25))
            for si, fr in enumerate(frames):
                video_truth.append(
                    (ids[i], si, w, h, nf, int(fr.sum(dtype=np.int64)))
                )
    mimes = {"image": "image/png", "audio": "audio/wav", "video": "video/x-yuv4mpeg"}
    media = pa.table(
        {
            "media_id": pa.array(ids, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array([mimes[k] for k in kinds], pa.string()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
            "duration_ms": pa.array(durations, pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )
    expected = pa.table(
        {
            "media_id": pa.array([r[0] for r in truth_rows], pa.string()),
            "width": pa.array([r[1] for r in truth_rows], pa.int32()),
            "height": pa.array([r[2] for r in truth_rows], pa.int32()),
            "pix_sum": pa.array([r[3] for r in truth_rows], pa.int64()),
        }
    )
    expected_audio = pa.table(
        {
            "media_id": pa.array([r[0] for r in audio_truth], pa.string()),
            "sample_rate": pa.array([r[1] for r in audio_truth], pa.int32()),
            "n_samples": pa.array([r[2] for r in audio_truth], pa.int64()),
            # raw int16 sample sum == the engine's 1/32768-unit checksum
            "samp_sum": pa.array([r[3] for r in audio_truth], pa.int64()),
        }
    )
    expected_video = pa.table(
        {
            "media_id": pa.array([r[0] for r in video_truth], pa.string()),
            "src_frame": pa.array([r[1] for r in video_truth], pa.int32()),
            "width": pa.array([r[2] for r in video_truth], pa.int32()),
            "height": pa.array([r[3] for r in video_truth], pa.int32()),
            "n_frames": pa.array([r[4] for r in video_truth], pa.int64()),
            "luma_sum": pa.array([r[5] for r in video_truth], pa.int64()),
        }
    )
    expected_resize = pa.table(
        {
            "media_id": pa.array([r[0] for r in resize_truth], pa.string()),
            "width": pa.array([rw] * len(resize_truth), pa.int32()),
            "height": pa.array([rh] * len(resize_truth), pa.int32()),
            # pixel sum AFTER the shared nn_resize — checks the full
            # decode -> resample -> re-encode -> decode chain
            "pix_sum": pa.array([r[1] for r in resize_truth], pa.int64()),
        }
    )
    return media, expected, expected_audio, expected_video, expected_resize


def decode_images(
    ds,
    feature_dim: int = 64,
    concurrency: int = 4,
    batch_size: int = 32,
    allow_fake: bool = True,
):
    """The canonical wiring: small batches, actor pool, binary-safe arrow
    format end to end. PNG payloads decode for real (stdlib);
    `allow_fake=False` makes any other undecodable payload raise ValueError
    instead of emitting stub dims/features."""
    return ds.filter(expr="kind == 'image'").map_batches(
        DecodeImage,
        fn_constructor_kwargs={"feature_dim": feature_dim, "allow_fake": allow_fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )
