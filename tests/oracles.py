"""Reference implementations the program is checked against.

Brute-force Shapley enumeration (`shapley_exact`, and `oracle_shapley`,
written independently of it) for the closed-form attributions; the
exhaustive leader scan for content clustering; the dense eigensolver
and the principal angle for the PCA; a threshold scan for the ROC and
PR curves and a tie-group scan for average ranks; and Base58Check and
BIP-173 bech32 encoders with the published and fresh addresses they
build for wallet extraction.  None of them shares code with what it judges: the
only suspkit module imported here is `suspkit.errors`.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from suspkit.errors import SchemaMismatch, SuspkitError

MAX_EXACT_FEATURES = 15

Predictor = Callable[[np.ndarray], np.ndarray]


class TooManyFeatures(SuspkitError):
    pass


def _as_2d(background: np.ndarray) -> np.ndarray:
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError("background must be a non-empty 2-D array")
    return background


def _coalition_values(
    predict: Predictor, x: np.ndarray, background: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Mean output per coalition; predictions batched across
    coalitions to keep call counts low."""
    r, m = background.shape
    n_subsets = bits.shape[0]
    v = np.empty(n_subsets)
    chunk = max(1, 65536 // r)
    for start in range(0, n_subsets, chunk):
        block_bits = bits[start : start + chunk]
        b = block_bits.shape[0]
        stacked = np.broadcast_to(background, (b, r, m)).copy()
        mask = np.broadcast_to(block_bits[:, None, :], (b, r, m))
        stacked[mask] = np.broadcast_to(x, (b, r, m))[mask]
        preds = predict(stacked.reshape(b * r, m)).reshape(b, r)
        v[start : start + b] = preds.mean(axis=1)
    return v


def shapley_exact(
    predict: Predictor, x: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Exact Shapley attribution by full coalition enumeration.

    Returns (phi, base_value, output) where base_value = v(empty set)
    and output = f(x).
    """
    x = np.asarray(x, dtype=np.float64)
    background = _as_2d(background)
    m = x.shape[0]
    if background.shape[1] != m:
        raise SchemaMismatch("background width differs from the instance")
    if m > MAX_EXACT_FEATURES:
        raise TooManyFeatures(f"{m} features exceeds the exact-mode cap of {MAX_EXACT_FEATURES}")

    masks = np.arange(2**m, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(bool)
    v = _coalition_values(predict, x, background, bits)
    sizes = bits.sum(axis=1)

    fact = [math.factorial(i) for i in range(m + 1)]
    weights = np.array([fact[s] * fact[m - s - 1] / fact[m] for s in range(m)])

    phi = np.empty(m)
    for i in range(m):
        without = np.flatnonzero(~bits[:, i])
        gains = v[without + (1 << i)] - v[without]
        phi[i] = float(np.sum(weights[sizes[without]] * gains))
    return phi, float(v[0]), float(v[-1])


def oracle_shapley(predict, x, background):
    """Textbook Shapley values by direct coalition enumeration.

    v(S) is the mean prediction over the background with the columns
    in S overwritten by the instance.  Independent of `shapley_exact`
    on purpose: different loop order, subset-keyed cache, pure-Python
    weights.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    cache = {}

    def value(coalition):
        key = frozenset(coalition)
        if key not in cache:
            rows = np.array(background, dtype=np.float64, copy=True)
            for i in key:
                rows[:, i] = x[i]
            cache[key] = float(np.mean(predict(rows)))
        return cache[key]

    phi = np.zeros(m)
    for i in range(m):
        others = [j for j in range(m) if j != i]
        for size in range(m):
            weight = (
                math.factorial(size) * math.factorial(m - size - 1) / math.factorial(m)
            )
            for subset in itertools.combinations(others, size):
                phi[i] += weight * (value(subset + (i,)) - value(subset))
    return phi, value(()), value(tuple(range(m)))


_BECH32_CHARSET = "qpzry9x8gf2tvdw0s3jn54khce6mua7l"
_BECH32_GEN = (0x3B6A57B2, 0x26508E6D, 0x1EA119FA, 0x3D4233DD, 0x2A1462B3)


def bech32_encode(hrp: str, data: Sequence[int]) -> str:
    """BIP-173 bech32 string of `hrp` and 5-bit `data` values, with the
    six-character checksum appended."""
    values = [ord(c) >> 5 for c in hrp] + [0] + [ord(c) & 31 for c in hrp] + list(data)
    chk = 1
    for value in values + [0] * 6:
        top = chk >> 25
        chk = (chk & 0x1FFFFFF) << 5 ^ value
        for i in range(5):
            if (top >> i) & 1:
                chk ^= _BECH32_GEN[i]
    polymod = chk ^ 1
    checksum = [(polymod >> 5 * (5 - i)) & 31 for i in range(6)]
    return hrp + "1" + "".join(_BECH32_CHARSET[d] for d in list(data) + checksum)


def naive_leader_clustering(vectors, tau):
    """Pure-Python reference: scan all leaders, join the most similar
    one at or above tau (earliest wins ties), else found a cluster."""

    def unit(v):
        norm = math.sqrt(sum(x * x for x in v))
        return [x / norm for x in v] if norm else list(v)

    units = [unit(v) for v in vectors]
    labels, leaders = [], []
    for i, v in enumerate(units):
        best, best_sim = None, -math.inf
        for c, row in enumerate(leaders):
            sim = sum(a * b for a, b in zip(v, units[row]))
            if sim > best_sim:
                best, best_sim = c, sim
        if best is not None and best_sim >= tau:
            labels.append(best)
        else:
            leaders.append(i)
            labels.append(len(leaders) - 1)
    return labels, leaders


def random_unit_rows(rng, n, d):
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def oracle_eigen(X, k):
    """Dense eigen-decomposition of the sample covariance."""
    X = np.asarray(X, dtype=np.float64)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    return eigvals[order], eigvecs[:, order].T


def subspace_angle(A, B):
    """Largest principal angle between the row spans of A and B."""
    Qa = np.linalg.qr(A.T)[0]
    Qb = np.linalg.qr(B.T)[0]
    s = np.clip(np.linalg.svd(Qa.T @ Qb, compute_uv=False), -1.0, 1.0)
    return float(np.arccos(s.min()))


def oracle_curves(y, scores):
    """ROC (threshold, fpr, tpr) and PR (threshold, recall, precision)
    points, predicting 1 when score >= t, by recounting the predictions
    at each distinct score from the highest down."""
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    roc_points, pr_points = [], []
    for t in np.unique(scores)[::-1]:
        pred = scores >= t
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        tpr = tp / n_pos if n_pos else 0.0
        fpr = fp / n_neg if n_neg else 0.0
        precision = tp / (tp + fp) if tp + fp else 1.0
        roc_points.append((float(t), fpr, tpr))
        pr_points.append((float(t), tpr, precision))
    return roc_points, pr_points


def oracle_average_ranks(values):
    """1-based ranks, each run of tied values sharing its mean rank,
    by walking the sorted values one at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.shape[0])
    sorted_vals = values[order]
    i = 0
    n = values.shape[0]
    while i < n:
        j = i
        while j < n and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    return ranks


_BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def oracle_base58check(payload: bytes) -> str:
    """Base58Check string of `payload`: the payload and the first four
    bytes of its double SHA-256 as one big-endian base-58 number, led by
    one "1" per leading zero byte."""
    data = payload + hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]
    number, digits = int.from_bytes(data, "big"), ""
    while number:
        number, digit = divmod(number, 58)
        digits = _BASE58_ALPHABET[digit] + digits
    return "1" * (len(data) - len(data.lstrip(b"\0"))) + digits


# Well-known published addresses usable as ground truth.
GENESIS_BTC = "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"
SEGWIT_BTC = "bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4"


def fresh_btc_address(tag: bytes, version: int = 0) -> str:
    return oracle_base58check(bytes([version]) + hashlib.sha256(tag).digest()[:20])


def fresh_segwit_address(tag: bytes) -> str:
    data = [0] + [b % 32 for b in hashlib.sha256(tag).digest()[:20]]
    return bech32_encode("bc", data)


def fresh_eth_address(tag: bytes) -> str:
    return "0x" + hashlib.sha256(tag).hexdigest()[:40]
