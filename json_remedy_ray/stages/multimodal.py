"""Multimodal columns: opaque binary payloads + typed metadata (SURVEY §2.9).

Images/audio/video are ``binary`` columns with metadata columns beside
them.  Decode / resize / feature-extract run as actor-pool map_batches
stages; the decode libraries (PIL/ffmpeg) are NOT in this container, so
the codec call is stubbed behind a deterministic fake while ALL the
Ray-side plumbing — schema, batch sizing, actor signature, output
layout — is real and tested.

Scale notes: binary payloads dominate block size, so these stages use
small ``batch_size`` and the caller should keep payload columns
unprojected until needed (prune at the read).
"""

from __future__ import annotations

import hashlib
import importlib.util
import struct

import numpy as np
import pyarrow as pa

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_PNG_MODES = {0: "L", 2: "RGB", 3: "P", 4: "LA", 6: "RGBA"}


def parse_png_header(data: bytes) -> tuple[int, int, str] | None:
    """Pure-Python PNG IHDR parse (public spec, RFC 2083 §4.1.1): width,
    height, mode from the first chunk — REAL decode of the dimensions,
    no PIL needed.  Returns None if not a PNG."""
    if len(data) < 33 or not data.startswith(_PNG_SIG):
        return None
    length, ctype = struct.unpack(">I4s", data[8:16])
    if ctype != b"IHDR" or length < 13:
        return None
    width, height, _depth, color_type = struct.unpack(">IIBB", data[16:26])
    return width, height, _PNG_MODES.get(color_type, f"type{color_type}")


_JPEG_MODES = {1: "L", 3: "RGB", 4: "CMYK"}
# SOFn markers that carry frame dims (public JPEG/JFIF spec, ITU T.81
# table B.1): C0-CF minus DHT (C4), JPG (C8), DAC (CC)
_SOF_MARKERS = {m for m in range(0xC0, 0xD0)} - {0xC4, 0xC8, 0xCC}


def parse_jpeg_header(data: bytes) -> tuple[int, int, str] | None:
    """Pure-Python JPEG SOFn parse (public spec, ITU T.81 §B.2.2):
    (width, height, mode) from the first start-of-frame segment.
    Returns None if not a JPEG or no SOF before entropy data ends."""
    if len(data) < 4 or data[0:2] != b"\xff\xd8":
        return None
    pos = 2
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            return None                       # desynced marker stream
        marker = data[pos + 1]
        if marker == 0xFF:                    # fill byte
            pos += 1
            continue
        if 0xD0 <= marker <= 0xD9 or marker == 0x01:
            pos += 2                          # standalone markers (RSTn/EOI/TEM)
            continue
        seglen = struct.unpack(">H", data[pos + 2:pos + 4])[0]
        if marker in _SOF_MARKERS:
            if pos + 10 > len(data) or seglen < 7:
                return None
            _prec, height, width, ncomp = struct.unpack(
                ">BHHB", data[pos + 4:pos + 10])
            return width, height, _JPEG_MODES.get(ncomp, f"{ncomp}comp")
        if marker == 0xDA:                    # SOS: entropy data follows
            return None
        pos += 2 + seglen
    return None


def parse_gif_header(data: bytes) -> tuple[int, int, str] | None:
    """Pure-Python GIF parse (public spec, GIF87a/89a §17-18): logical
    screen width/height are the little-endian u16 pair at bytes 6-10.
    Mode is "P" (GIF is always palette-indexed).  Returns None if not a
    GIF."""
    if len(data) < 10 or data[0:6] not in (b"GIF87a", b"GIF89a"):
        return None
    width = int.from_bytes(data[6:8], "little")
    height = int.from_bytes(data[8:10], "little")
    return width, height, "P"


def parse_wav_header(data: bytes) -> tuple[int, int] | None:
    """Pure-Python WAV RIFF parse (public spec): (sample_rate, n_frames)
    from the fmt / data chunks.  Returns None if not a RIFF/WAVE."""
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        return None
    pos = 12
    sample_rate = block_align = None
    data_size = None
    while pos + 8 <= len(data):
        cid, csize = struct.unpack("<4sI", data[pos:pos + 8])
        if cid == b"fmt " and pos + 22 <= len(data):
            _fmt, _ch, sample_rate, _br, block_align = struct.unpack(
                "<HHIIH", data[pos + 8:pos + 22])
        elif cid == b"data":
            data_size = csize
        pos += 8 + csize + (csize & 1)  # chunks are word-aligned
    if sample_rate is None or data_size is None or not block_align:
        return None
    return sample_rate, data_size // block_align


class ImageDecodeStage:
    """binary ``payload`` column -> (width, height, mode) metadata +
    a fixed-size feature vector.

    With PIL installed, ``__init__`` would load the codec once per actor;
    here the deterministic fake derives dims from a payload hash and the
    feature vector is a 16-bin byte histogram (a real, vectorized numpy
    kernel — the plumbing under test)."""

    FEATURE_DIM = 16

    def __init__(self, payload_col: str = "payload", target_size: int = 64):
        self.payload_col = payload_col
        self.target_size = target_size
        self._pil = importlib.util.find_spec("PIL") is not None

    def _decode_dims(self, data: bytes) -> tuple[int, int, str]:
        # REAL header decode first (PNG IHDR / JPEG SOFn — pure Python,
        # no PIL); other payloads fall back to the deterministic fake so
        # the plumbing stays testable on arbitrary binary
        png = parse_png_header(data)
        if png is not None:
            return png
        jpg = parse_jpeg_header(data)
        if jpg is not None:
            return jpg
        gif = parse_gif_header(data)
        if gif is not None:
            return gif
        if self._pil:  # pragma: no cover
            raise NotImplementedError("full raster decode requires PIL; not in container")
        h = hashlib.blake2b(data, digest_size=4).digest()
        return 16 + h[0] % 240, 16 + h[1] % 240, "RGB"

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        n = len(payloads)
        widths = np.zeros(n, dtype=np.int32)
        heights = np.zeros(n, dtype=np.int32)
        modes: list[str] = []
        feats = np.zeros((n, self.FEATURE_DIM), dtype=np.float32)
        for i, data in enumerate(payloads):
            data = data or b""
            w, h, mode = self._decode_dims(data)
            widths[i], heights[i] = w, h
            modes.append(mode)
            if data:
                arr = np.frombuffer(data, dtype=np.uint8)
                hist = np.bincount(arr >> 4, minlength=self.FEATURE_DIM).astype(np.float32)
                feats[i] = hist / max(1.0, hist.sum())
        batch = batch.append_column("img_width", pa.array(widths, type=pa.int32()))
        batch = batch.append_column("img_height", pa.array(heights, type=pa.int32()))
        batch = batch.append_column("img_mode", pa.array(modes, type=pa.string()))
        batch = batch.append_column(
            "img_features",
            pa.FixedSizeListArray.from_arrays(pa.array(feats.ravel(), type=pa.float32()), self.FEATURE_DIM),
        )
        return batch


class AudioFrameSampleStage:
    """binary audio -> deterministic frame-sample metadata (stubbed codec,
    real batching/schema).  Emits sample_rate, n_frames, and the byte
    offsets a real decoder would read — the partitioning contract for a
    frame-sampling pipeline."""

    def __init__(self, payload_col: str = "payload", frames_per_doc: int = 4):
        self.payload_col = payload_col
        self.frames_per_doc = frames_per_doc

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        n = len(payloads)
        rates = np.full(n, 16000, dtype=np.int32)
        n_frames = np.zeros(n, dtype=np.int32)
        offsets: list[list[int]] = []
        for i, data in enumerate(payloads):
            data = data or b""
            wav = parse_wav_header(data)
            if wav is not None:
                # REAL RIFF header decode: true sample rate + frame count
                rates[i], total_frames = wav
                n_frames[i] = min(self.frames_per_doc, total_frames)
                step = max(1, total_frames // max(1, n_frames[i]))
                offsets.append([j * step for j in range(n_frames[i])])
                continue
            size = len(data)
            n_frames[i] = self.frames_per_doc
            step = max(1, size // self.frames_per_doc)
            offsets.append([j * step for j in range(self.frames_per_doc)])
        batch = batch.append_column("sample_rate", pa.array(rates, type=pa.int32()))
        batch = batch.append_column("n_frames", pa.array(n_frames, type=pa.int32()))
        batch = batch.append_column("frame_offsets", pa.array(offsets, type=pa.list_(pa.int64())))
        return batch


def parse_mp4_header(data: bytes) -> tuple[str, int, int] | None:
    """Pure-Python ISO-BMFF/MP4 box parse (public spec, ISO 14496-12):
    (major_brand, timescale, duration) from the ftyp and moov/mvhd
    boxes.  Returns None if not an ISO-BMFF stream or no mvhd found.
    Only walks top-level boxes plus moov children — header-only, no
    codec work."""
    if len(data) < 12:
        return None
    size, box = struct.unpack(">I4s", data[0:8])
    if box != b"ftyp" or size < 12 or size > len(data):
        return None
    brand = data[8:12].decode("ascii", errors="replace")

    def walk(lo: int, hi: int, depth: int = 0):
        pos = lo
        while pos + 8 <= hi:
            bsize, btype = struct.unpack(">I4s", data[pos:pos + 8])
            payload = pos + 8
            if bsize == 1:                      # 64-bit largesize
                if pos + 16 > hi:
                    return None
                bsize = struct.unpack(">Q", data[pos + 8:pos + 16])[0]
                payload = pos + 16
            elif bsize == 0:                    # box extends to end
                bsize = hi - pos
            if bsize < 8 or pos + bsize > hi:
                return None
            if btype == b"mvhd":
                body = data[payload:pos + bsize]
                if len(body) < 20:
                    return None
                version = body[0]
                if version == 1:
                    if len(body) < 32:
                        return None
                    timescale, duration = struct.unpack(">IQ", body[20:32])
                else:
                    timescale, duration = struct.unpack(">II", body[12:20])
                return timescale, duration
            if btype == b"moov" and depth == 0:
                found = walk(payload, pos + bsize, 1)
                if found is not None:
                    return found
            pos += bsize
        return None

    found = walk(size, len(data))
    if found is None:
        return None
    timescale, duration = found
    return brand, timescale, duration


class VideoFrameSampleStage:
    """binary video payload -> (brand, duration, frame-sample offsets).

    REAL ISO-BMFF header decode (ftyp + mvhd) gives the true duration /
    timescale; sampling emits evenly spaced TIME offsets a real decoder
    would seek to — the partitioning contract for a frame-extraction
    pipeline.  Non-MP4 payloads take the deterministic fake (same
    posture as the image/audio stages; no ffmpeg in this container)."""

    def __init__(self, payload_col: str = "payload", frames_per_doc: int = 4):
        self.payload_col = payload_col
        self.frames_per_doc = frames_per_doc

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        n = len(payloads)
        brands: list[str] = []
        durations = np.zeros(n, dtype=np.float64)
        n_frames = np.zeros(n, dtype=np.int32)
        offsets: list[list[float]] = []
        for i, data in enumerate(payloads):
            data = data or b""
            mp4 = parse_mp4_header(data)
            if mp4 is not None:
                brand, timescale, duration = mp4
                brands.append(brand)
                # ISO 14496-12: all-ones duration means UNKNOWN (live /
                # fragmented streams) — emit zero frames, never seek to
                # a 584-year offset
                if duration in (0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF):
                    duration = 0
                dur_s = duration / max(1, timescale)
                durations[i] = dur_s
                k = self.frames_per_doc if dur_s > 0 else 0
                n_frames[i] = k
                offsets.append([dur_s * j / max(1, k) for j in range(k)])
                continue
            h = hashlib.blake2b(data, digest_size=4).digest()
            brands.append("fake")
            durations[i] = 1 + h[0] % 60
            n_frames[i] = self.frames_per_doc
            offsets.append([durations[i] * j / self.frames_per_doc
                            for j in range(self.frames_per_doc)])
        batch = batch.append_column("video_brand", pa.array(brands, type=pa.string()))
        batch = batch.append_column("video_duration_s", pa.array(durations, type=pa.float64()))
        batch = batch.append_column("n_sampled_frames", pa.array(n_frames, type=pa.int32()))
        batch = batch.append_column("frame_time_offsets", pa.array(offsets, type=pa.list_(pa.float64())))
        return batch
