"""Post-text vectors, PCA reduction, and the post_embedding feature block.

Vectors come from a pluggable provider: either a precomputed embedding
file produced by an external sentence encoder, or the built-in
deterministic fallback that feature-hashes character n-grams.  The
fallback uses only integer arithmetic, so its output is bit-identical
across runs and platforms.

Post vectors are plain rows: a provider returns one row per post, in the
order of the posts it was given, and the PCA keeps that order.  The
pipeline embeds the posts of its users' timelines one timeline after the
other, so each user's rows are one slice, found by position alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import KINDS, Tweet
from .errors import SuspkitError
from .vectors import EmbeddingMatrix, read_emb1

# FNV-1a 64-bit constants.
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

# The encoder hashes texts in blocks of about _BLOCK_BYTES bytes, whose
# index, hash and weight arrays take about 100 bytes per byte of text;
# the count cap bounds a block's bucket rows (texts x dim floats) when
# the texts are short.  Any partition gives the same bits.
_BLOCK_BYTES = 1 << 14
_BLOCK_TEXTS = 256

# Post vectors are encoded, fitted and projected in near-equal runs of
# at least _BLOCK_ROWS rows (8 MB at dim 256).  BLAS rounds a product of
# a few dozen rows on another path than a long one, so a run is never
# short unless all the rows are.
_BLOCK_ROWS = 4096

# The fallback encoder hashes character n-grams of these lengths.
_MIN_N, _MAX_N = 3, 5


class MissingEmbedding(SuspkitError):
    """An item id has no row in the precomputed embedding file."""


class DimensionMismatch(SuspkitError):
    pass


class EmbeddingProvider(Protocol):
    dim: int

    def embed(self, item_ids: Sequence[str], texts: Sequence[str]) -> np.ndarray:
        """The float64 len(texts) x dim rows of the posts, in their order."""


class PrecomputedEmbeddings:
    """Provider backed by an embedding file aligned by item id."""

    def __init__(self, matrix: EmbeddingMatrix):
        self._matrix = matrix
        self._index = matrix.row_index()
        self.dim = matrix.dim

    @classmethod
    def from_file(cls, path: str | Path) -> "PrecomputedEmbeddings":
        return cls(read_emb1(path))

    def embed(self, item_ids: Sequence[str], texts: Sequence[str]) -> np.ndarray:
        """The stored rows of item_ids, widened (exactly) to float64."""
        rows = np.empty((len(item_ids), self.dim))
        for i, item in enumerate(item_ids):
            try:
                rows[i] = self._matrix.vectors[self._index[item]]
            except KeyError:
                raise MissingEmbedding(f"no precomputed embedding for {item!r}") from None
        return rows


def _fnv1a_scalar(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class HashedNgramEncoder:
    """Deterministic fallback encoder: character 3-5-gram feature
    hashing (_MIN_N to _MAX_N) over UTF-8 bytes into `dim` signed
    buckets, L2-normalized rows.

    Texts too short to yield any n-gram are hashed whole, so every row
    has unit norm.  All rows come from one batched pass over blocks of
    concatenated texts; bucket sums are small integers and so are their
    squares, which makes every row bit-identical to hashing its text
    alone.  A row thus depends only on its text, so each distinct text
    is hashed once and its row copied to the repeats.
    """

    def __init__(self, *, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, item_ids: Sequence[str], texts: Sequence[str]) -> np.ndarray:
        """One row per text, in one n x dim buffer; the ids are not read.
        The u distinct texts are hashed, in first-occurrence order, into
        rows [0, u); then, one block at a time from the back, row i takes
        the row of its text's number inverse[i].  First-occurrence
        numbering gives inverse[i] <= i, so a block reads only rows no
        block has written yet."""
        first: dict[str, int] = {}
        inverse = np.fromiter(
            (first.setdefault(text, len(first)) for text in texts), dtype=np.int64,
            count=len(texts),
        )
        rows = np.empty((len(texts), self.dim))
        self._encode_into(list(first), rows[: len(first)])
        if len(first) < len(texts):
            for end in range(len(texts), 0, -_BLOCK_TEXTS):
                start = max(end - _BLOCK_TEXTS, 0)
                rows[start:end] = rows[inverse[start:end]]
        return rows

    def _encode_into(self, texts: Sequence[str], out: np.ndarray) -> None:
        # Texts are encoded to bytes block by block, so only one block's
        # bytes and bucket counts are alive at a time.
        block: list[bytes] = []
        size = start = 0
        for i, text in enumerate(texts):
            data = text.encode("utf-8")
            block.append(data)
            size += len(data)
            if size >= _BLOCK_BYTES or len(block) == _BLOCK_TEXTS:
                self._hash_block(block, out[start : i + 1])
                block, size, start = [], 0, i + 1
        if block:
            self._hash_block(block, out[start:])

    def _hash_block(self, chunks: list[bytes], out: np.ndarray) -> None:
        dim = self.dim
        lengths = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
        data = np.frombuffer(b"".join(chunks), dtype=np.uint8).astype(np.uint64)
        row_of = np.repeat(np.arange(len(chunks)), lengths)
        # Bytes from each position to the end of its own text.
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(data.size)
        # Bucket sums are small integers, so adding each n-gram length's
        # counts apart gives the bits of one count over all of them.
        rows = np.zeros(len(chunks) * dim)
        h = np.full(data.size, _FNV_OFFSET)
        for n in range(1, _MAX_N + 1):
            # FNV-1a of the n-gram at p extends that of the (n-1)-gram at p.
            h = (h[: max(data.size - n + 1, 0)] ^ data[n - 1 :]) * _FNV_PRIME
            if n < _MIN_N:
                continue
            inside = left[: h.size] >= n
            hn = h[inside]
            keys = row_of[: h.size][inside] * dim + (hn % np.uint64(dim)).astype(np.int64)
            rows += np.bincount(keys, weights=1.0 - 2.0 * (hn >> np.uint64(63)).astype(np.float64),
                                minlength=rows.size)
        rows = rows.reshape(len(chunks), dim)
        for r in np.flatnonzero(lengths < _MIN_N):
            whole = _fnv1a_scalar(chunks[r])
            rows[r, whole % dim] = 1.0 - 2.0 * (whole >> 63)
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        norms[norms == 0.0] = 1.0
        np.divide(rows, norms[:, None], out=out)


@dataclass
class PcaModel:
    mean: np.ndarray  # (dim_in,)
    components: np.ndarray  # (k, dim_in), orthonormal rows
    explained_variance: np.ndarray  # (k,), non-increasing

    @property
    def dim_in(self) -> int:
        return int(self.mean.shape[0])

    @property
    def k(self) -> int:
        return int(self.components.shape[0])


def _sign_convention(components: np.ndarray) -> np.ndarray:
    # Largest-magnitude coordinate of each component made positive.
    out = components.copy()
    for i, comp in enumerate(out):
        j = int(np.argmax(np.abs(comp)))
        if comp[j] < 0:
            out[i] = -comp
    return out


def pca_fit(blocks: Iterable[np.ndarray], k: int) -> PcaModel:
    """Fit the k leading principal components of the rows of `blocks`,
    an iterable of 2-D float64 blocks of equal width, read once.

    Each block is centered on its own mean in place and its scatter
    matrix taken; the running mean and scatter absorb it by the pairwise
    update of Chan, Golub & LeVeque (1983), so the fit holds one block
    and two d x d matrices whatever the number of rows.  One block gets
    the bits of a dense fit: its mean, then one `X.T @ X` over it
    centered.  The components are the leading eigenvectors of the
    covariance of every row (`np.linalg.eigh`).  Data with zero variance
    yields zero explained variance rather than an error.
    """
    n = 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or (n and block.shape[1] != mean.shape[0]):
            raise ValueError(f"blocks must be 2-D and of equal width, got {block.shape}")
        m = len(block)
        block_mean = block.mean(axis=0)
        block -= block_mean
        gram = block.T @ block
        if not n:
            mean, scatter = block_mean, gram
        else:
            delta = block_mean - mean
            scatter += gram
            # The mean shift's outer product reuses the gram's buffer.
            np.multiply.outer(delta, delta, out=gram)
            gram *= n * m / (n + m)
            scatter += gram
            mean += delta * (m / (n + m))
        n += m
        # No name holds the block while the next one is produced.
        del block, gram
    if n < 2:
        raise ValueError("need at least 2 rows")
    d = mean.shape[0]
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} out of range for {n}x{d} data")
    eigvals, eigvecs = np.linalg.eigh(scatter / (n - 1))
    order = np.argsort(eigvals)[::-1][:k]
    variance = np.clip(eigvals[order], 0.0, None)
    components = _sign_convention(eigvecs[:, order].T)
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """The rows of X reduced by `model`, in one product.  X is centered
    in place; pass a copy to keep X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim_in:
        raise DimensionMismatch(
            f"expected {model.dim_in} input dims, got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    X -= model.mean
    return X @ model.components.T


def row_blocks(n: int) -> Iterator[slice]:
    """range(n) as max(1, n // _BLOCK_ROWS) near-equal runs of rows, in
    order, so every run but a lone short one holds at least _BLOCK_ROWS
    rows and fewer than twice that."""
    parts = max(1, n // _BLOCK_ROWS)
    for i in range(parts):
        yield slice(n * i // parts, n * (i + 1) // parts)


def features_from_posts(reduced: np.ndarray, timelines: list[list[Tweet]]) -> np.ndarray:
    """The post_embedding block: len(timelines) x (dim + 3), in the
    column order of `post_embedding_feature_names`.

    `reduced` holds the reduced rows of every timeline's posts, one
    timeline after the other, so a user's rows are one slice.  Each row
    of the block is the mean of the user's rows and the share of each
    post kind; a user with no posts gets an all-NaN row.
    """
    dim = reduced.shape[1]
    out = np.full((len(timelines), dim + len(KINDS)), np.nan)
    start = 0
    for i, timeline in enumerate(timelines):
        if not timeline:
            continue
        end = start + len(timeline)
        # The mean of the user's own slice keeps the bits of a mean over
        # a copy of their rows; a segmented sum (np.add.reduceat) sums
        # in another order and does not.
        out[i, :dim] = reduced[start:end].mean(axis=0)
        kinds = np.bincount([KINDS.index(t.kind) for t in timeline],
                            minlength=len(KINDS))
        out[i, dim:] = kinds / len(timeline)
        start = end
    return out


def post_embedding_feature_names(dim: int) -> tuple[str, ...]:
    names = [f"post_vec_{i:03d}" for i in range(dim)]
    names += [f"post_kind_{kind}" for kind in KINDS]
    return tuple(names)
