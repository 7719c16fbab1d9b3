"""Dense row-per-item vector matrices and their binary file format.

The on-disk format is shared by post embeddings and graph node
embeddings: magic "EMB1", little-endian u32 count and dim, count*dim
little-endian float32 values row-major, then count newline-delimited
UTF-8 item ids.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SuspkitError

MAGIC = b"EMB1"


class BadEmbeddingFile(SuspkitError):
    pass


@dataclass
class EmbeddingMatrix:
    """The ids and rows of one EMB1 file, checked as they are built,
    since precomputed files come from outside the program."""

    item_ids: list[str]
    vectors: np.ndarray  # (n, dim)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if len(self.item_ids) != self.vectors.shape[0]:
            raise ValueError(
                f"{len(self.item_ids)} ids for {self.vectors.shape[0]} rows"
            )
        if self.vectors.size and not np.isfinite(self.vectors).all():
            raise ValueError("vectors contain non-finite values")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.item_ids)

    def row_index(self) -> dict[str, int]:
        return {item: i for i, item in enumerate(self.item_ids)}


def write_emb1(path: str | Path, matrix: EmbeddingMatrix) -> None:
    rows = np.ascontiguousarray(matrix.vectors, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", len(matrix.item_ids), matrix.dim))
        fh.write(rows.tobytes())
        for item in matrix.item_ids:
            fh.write(item.encode("utf-8") + b"\n")


def read_emb1(path: str | Path) -> EmbeddingMatrix:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadEmbeddingFile(f"{path}: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise BadEmbeddingFile(f"{path}: truncated header")
        count, dim = struct.unpack("<II", header)
        payload = fh.read(count * dim * 4)
        if len(payload) != count * dim * 4:
            raise BadEmbeddingFile(f"{path}: truncated vector block")
        vectors = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
        ids = fh.read().decode("utf-8").splitlines()
        if len(ids) != count:
            raise BadEmbeddingFile(f"{path}: {len(ids)} ids for {count} rows")
    return EmbeddingMatrix(item_ids=ids, vectors=vectors.copy())
