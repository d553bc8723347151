"""Data ingestion and output: PGM images, LIBSVM datasets, CSV matrices, seeded noise, CSV traces."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImageBuffer",
    "SparseDataset",
    "PgmParseError",
    "LibsvmParseError",
    "read_pgm",
    "write_pgm",
    "parse_libsvm",
    "read_csv_matrix",
    "gaussian_stream",
    "add_gaussian_noise",
    "write_trace_csv",
]


class PgmParseError(ValueError):
    """Malformed PGM input; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class LibsvmParseError(ValueError):
    """Malformed LIBSVM line; carries the 1-based line number."""

    def __init__(self, message, line):
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass
class ImageBuffer:
    """Grayscale image: pixels in [0, 1], flattened row-major."""

    height: int
    width: int
    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float).ravel()
        if self.height < 1 or self.width < 1:
            raise ValueError("image dimensions must be positive")
        if self.pixels.size != self.height * self.width:
            raise ValueError("pixel count does not match height * width")
        if not np.all(np.isfinite(self.pixels)):
            raise ValueError("image pixels must be finite")

    @classmethod
    def from_matrix(cls, mat):
        mat = np.asarray(mat, dtype=float)
        return cls(height=mat.shape[0], width=mat.shape[1], pixels=mat.ravel())


@dataclass
class SparseDataset:
    """Sparse rows as (indices, values) pairs; indices 0-based in memory."""

    n_rows: int
    n_features: int
    rows: list
    labels: np.ndarray

    def to_dense(self):
        dense = np.zeros((self.n_rows, self.n_features))
        for i, (idx, vals) in enumerate(self.rows):
            dense[i, idx] = vals
        return dense


def _read_pgm_tokens(data, count, start):
    """Pull whitespace/comment-separated header tokens, tracking offsets."""
    tokens = []
    pos = start
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        if pos >= n:
            raise PgmParseError("truncated PGM header", pos)
        tok_start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append((data[tok_start:pos], tok_start))
    return tokens, pos


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) PGM file, scaling pixels to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise PgmParseError("not a P2/P5 PGM file", 0)
    magic = data[:2].decode()
    tokens, pos = _read_pgm_tokens(data, 3, 2)
    fields = []
    for tok, off in tokens:
        try:
            fields.append(int(tok))
        except ValueError:
            raise PgmParseError(f"non-numeric header token {tok!r}", off) from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmParseError("nonpositive image dimensions", tokens[0][1])
    if not 0 < maxval <= 65535:
        raise PgmParseError("maxval out of range (1..65535)", tokens[2][1])
    count = width * height
    if magic == "P2":
        tail = data[pos:].split()
        if len(tail) < count:
            raise PgmParseError(
                f"expected {count} ASCII samples, found {len(tail)}", len(data)
            )
        try:
            raw = np.array([int(t) for t in tail[:count]], dtype=float)
        except ValueError:
            raise PgmParseError("non-numeric ASCII sample", pos) from None
        if raw.min(initial=0.0) < 0:
            raise PgmParseError("negative ASCII sample", pos)
    else:
        pos += 1  # single whitespace byte after maxval
        bpp = 1 if maxval <= 255 else 2
        need = count * bpp
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise PgmParseError(
                f"binary payload short: need {need} bytes, have {len(payload)}",
                pos + len(payload),
            )
        dtype = np.uint8 if bpp == 1 else ">u2"
        raw = np.frombuffer(payload, dtype=dtype, count=count).astype(float)
    if raw.max(initial=0.0) > maxval:
        raise PgmParseError("sample exceeds maxval", pos)
    return ImageBuffer(height=height, width=width, pixels=raw / maxval)


def write_pgm(path, img):
    """Write a binary (P5) PGM with maxval 255, rounding half-up.

    Round trip through read_pgm deviates by at most 1/510 per pixel.
    """
    levels = np.floor(np.clip(img.pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode())
        fh.write(levels.tobytes())


def parse_libsvm(path, n_hint=None):
    """Parse `label idx:val idx:val ...` lines into a SparseDataset.

    Indices are 1-based in the file and strictly increasing per row.
    Labels and values must be finite. When the raw labels form a
    two-class set they are mapped to {-1, +1}, smaller label to -1.
    """
    rows = []
    labels = []
    max_index = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise LibsvmParseError(f"non-numeric label {parts[0]!r}", lineno) from None
            if not np.isfinite(label):
                raise LibsvmParseError(f"non-finite label {parts[0]!r}", lineno)
            labels.append(label)
            idx = []
            vals = []
            prev = 0
            for tok in parts[1:]:
                if ":" not in tok:
                    raise LibsvmParseError(f"expected idx:val, got {tok!r}", lineno)
                i_str, v_str = tok.split(":", 1)
                try:
                    i = int(i_str)
                    v = float(v_str)
                except ValueError:
                    raise LibsvmParseError(f"non-numeric token {tok!r}", lineno) from None
                if not np.isfinite(v):
                    raise LibsvmParseError(f"non-finite value {tok!r}", lineno)
                if i <= prev:
                    raise LibsvmParseError(
                        f"indices must be strictly increasing, got {i} after {prev}",
                        lineno,
                    )
                prev = i
                idx.append(i - 1)
                vals.append(v)
            max_index = max(max_index, prev)
            rows.append((np.array(idx, dtype=int), np.array(vals, dtype=float)))
    n_features = max(max_index, n_hint or 0)
    labels = np.array(labels, dtype=float)
    distinct = np.unique(labels)
    if distinct.size == 2:
        labels = np.where(labels == distinct[0], -1.0, 1.0)
    return SparseDataset(
        n_rows=len(rows), n_features=n_features, rows=rows, labels=labels
    )


def read_csv_matrix(path):
    """Read a dense matrix from CSV: one row per line, comma separated.

    ``#`` starts a comment, and a line blank after it is skipped; one row
    or one column reads as a 1 x n or n x 1 matrix. A file with no rows,
    rows of unequal length or an entry that is not a number raises
    ValueError naming ``path`` and, for a bad row, its file line. Shape
    and finiteness are left to the operator the matrix feeds.
    """
    with open(path) as fh:
        rows = [(i, line.split("#", 1)[0]) for i, line in enumerate(fh, start=1)]
    rows = [(i, text) for i, text in rows if text.strip()]
    if not rows:
        raise ValueError(f"{path}: no matrix rows")
    width = rows[0][1].count(",") + 1
    for lineno, text in rows:
        if text.count(",") + 1 != width:
            raise ValueError(f"{path}: line {lineno} does not have the first row's {width} entries")
    try:
        return np.loadtxt([text for _, text in rows], delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        # numpy's "at row R" counts rows past blank and comment lines, so
        # the failing row is parsed again alone to name its file line
        for lineno, text in rows:
            try:
                np.loadtxt([text], delimiter=",", dtype=float)
            except ValueError as line_exc:
                reason = str(line_exc).split(" at row ")[0]
                raise ValueError(f"{path}: line {lineno}: {reason}") from None
        raise ValueError(f"{path}: {exc}") from None


def gaussian_stream(seed, count):
    """Standard normals from a fixed counter-based stream.

    Philox(key=seed) uniforms fed through the Box-Muller transform;
    bit-exact across platforms for a given seed.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    pairs = (count + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], never log(0)
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def add_gaussian_noise(img, sigma, seed):
    """Pixel-wise additive Gaussian noise, clamped back into [0, 1]."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"noise sigma must be nonnegative and finite, got {sigma}")
    if sigma == 0:
        return ImageBuffer(img.height, img.width, img.pixels.copy())
    noise = gaussian_stream(seed, img.pixels.size)
    noisy = np.clip(img.pixels + sigma * noise, 0.0, 1.0)
    return ImageBuffer(img.height, img.width, noisy)


def _format_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_trace_csv(path, records, fieldnames, comment=None):
    """Write records as CSV, one column per name in ``fieldnames``, LF-terminated.

    Reals are printed with 17 significant digits so that re-parsing
    reproduces the identical 64-bit value. An empty record list
    produces a header-only file. ``comment`` is emitted first as a
    `#`-prefixed line.
    """
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(fieldnames) + "\n")
        for rec in records:
            values = [getattr(rec, name) for name in fieldnames]
            fh.write(",".join(_format_cell(v) for v in values) + "\n")
