import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from suspkit import text_embedding
from suspkit.corpus import KINDS
from suspkit.text_embedding import (
    DimensionMismatch,
    HashedNgramEncoder,
    MissingEmbedding,
    PrecomputedEmbeddings,
    features_from_posts,
    pca_fit,
    pca_transform,
    post_embedding_feature_names,
    _fnv1a_scalar,
)
from suspkit.vectors import EmbeddingMatrix, write_emb1

from conftest import make_tweet, random_timelines
from oracles import oracle_eigen, subspace_angle


def encode_one(enc, text):
    """The encoder's row for one text, as a one-row batch."""
    return enc.embed(["0"], [text])[0]


class TestHashedEncoder:
    def test_rows_are_unit_norm(self):
        enc = HashedNgramEncoder(dim=64)
        for text in ("hello world", "a", "", "xy"):
            vec = encode_one(enc, text)
            assert vec.shape == (64,)
            if text:
                assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_deterministic(self):
        enc = HashedNgramEncoder(dim=128)
        np.testing.assert_array_equal(encode_one(enc, "same text"), encode_one(enc, "same text"))

    def test_different_texts_differ(self):
        enc = HashedNgramEncoder(dim=128)
        first, second = encode_one(enc, "first message"), encode_one(enc, "second message")
        assert not np.array_equal(first, second)

    def test_short_text_fallback_single_bucket(self):
        enc = HashedNgramEncoder(dim=32)
        vec = encode_one(enc, "ab")  # too short for any 3-gram
        assert np.count_nonzero(vec) == 1
        assert abs(vec[np.flatnonzero(vec)[0]]) == 1.0

    def test_embed_batches(self):
        enc = HashedNgramEncoder(dim=16)
        rows = enc.embed(["p1", "p2"], ["one", "two"])
        assert rows.shape == (2, 16) and rows.dtype == np.float64

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashedNgramEncoder(dim=0)


def oracle_counts(text, dim, min_n=3, max_n=5):
    """Per-text scalar hashing: signed bucket counts before normalizing."""
    data = text.encode("utf-8")
    row = np.zeros(dim)
    if len(data) < min_n:
        h = _fnv1a_scalar(data)
        row[h % dim] = 1.0 - 2.0 * (h >> 63)
        return row
    for n in range(min_n, max_n + 1):
        for p in range(len(data) - n + 1):
            h = _fnv1a_scalar(data[p : p + n])
            row[h % dim] += 1.0 - 2.0 * (h >> 63)
    return row


def oracle_rows(texts, dim, min_n=3, max_n=5):
    raw = np.array([oracle_counts(t, dim, min_n, max_n) for t in texts])
    norms = np.array([np.linalg.norm(r) for r in raw])
    return raw, np.array([r / n if n else r for r, n in zip(raw, norms)]), norms


ORACLE_TEXTS = [
    "",
    "a",
    "ab",
    "abc",
    "é",  # 2 bytes
    "€",  # 3 bytes
    "привет, мир",
    "moon 🚀🚀 soon 😀",
    "mixed ascii и кириллица 🙂 text",
]


class TestBatchedEncoderOracle:
    def check(self, texts, dim, min_n=3, max_n=5):
        raw, expected, norms = oracle_rows(texts, dim, min_n, max_n)
        enc = HashedNgramEncoder(dim=dim)
        got = enc.embed([str(i) for i in range(len(texts))], texts)
        np.testing.assert_array_equal(got, expected)
        # The batched kernel normalizes by sqrt of a row's dot product;
        # the counts are integers, so that is np.linalg.norm exactly.
        np.testing.assert_array_equal(np.sqrt(np.einsum("ij,ij->i", raw, raw)), norms)
        for text, row in zip(texts[:20], expected):
            np.testing.assert_array_equal(encode_one(enc, text), row)

    def test_short_and_multibyte_texts(self):
        self.check(ORACLE_TEXTS, dim=64)

    def test_other_ngram_ranges(self, monkeypatch):
        for min_n, max_n in ((1, 2), (2, 6)):
            monkeypatch.setattr(text_embedding, "_MIN_N", min_n)
            monkeypatch.setattr(text_embedding, "_MAX_N", max_n)
            self.check(ORACLE_TEXTS, dim=32, min_n=min_n, max_n=max_n)

    def test_text_longer_than_a_block(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcdefgh ") + ["ж", "🙂"]
        long_text = "".join(rng.choice(alphabet, 70_000))
        assert len(long_text.encode("utf-8")) > text_embedding._BLOCK_BYTES
        self.check(["xy", long_text, "tail text"], dim=128)

    def test_many_texts_span_blocks(self):
        rng = np.random.default_rng(1)
        alphabet = list("abc xyz") + ["é", "ё", "😀"]
        texts = [
            "".join(rng.choice(alphabet, int(rng.integers(0, 100)))) for _ in range(3000)
        ]
        texts[1023:1026] = ["", "ab", "é"]
        assert len(texts) > text_embedding._BLOCK_TEXTS
        assert sum(len(t.encode("utf-8")) for t in texts) > 2 * text_embedding._BLOCK_BYTES
        self.check(texts, dim=48)

    def test_cancelled_rows_stay_zero(self):
        rng = np.random.default_rng(2)
        # 7 bytes give 12 n-grams, so their signs can cancel.
        texts = ["".join(rng.choice(list("abcdef"), 7)) for _ in range(60)]
        raw, _, norms = oracle_rows(texts, dim=1)
        assert (norms == 0).any()
        self.check(texts, dim=1)


class TestPrecomputedProvider:
    def test_lookup_by_item_id(self, tmp_path):
        stored = EmbeddingMatrix(item_ids=["a", "b"], vectors=np.eye(2, dtype=np.float32))
        path = tmp_path / "emb.emb1"
        write_emb1(path, stored)
        provider = PrecomputedEmbeddings.from_file(path)
        out = provider.embed(["b", "a"], ["ignored", "ignored"])
        np.testing.assert_array_equal(out, np.array([[0, 1], [1, 0]], dtype=np.float32))

    def test_missing_id_raises(self):
        provider = PrecomputedEmbeddings(EmbeddingMatrix(["a"], np.ones((1, 2))))
        with pytest.raises(MissingEmbedding):
            provider.embed(["ghost"], ["text"])


class TestPca:
    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 10))
        model = pca_fit([X.copy()], k=4)
        oracle_vals, oracle_vecs = oracle_eigen(X, 4)
        np.testing.assert_allclose(model.explained_variance, oracle_vals, atol=1e-10)
        for j in range(1, 5):
            assert subspace_angle(model.components[:j], oracle_vecs[:j]) <= 1e-7

    def test_variance_non_increasing(self):
        rng = np.random.default_rng(8)
        model = pca_fit([rng.standard_normal((40, 6))], k=6)
        assert (np.diff(model.explained_variance) <= 1e-12).all()

    def test_components_orthonormal(self):
        rng = np.random.default_rng(9)
        model = pca_fit([rng.standard_normal((30, 8))], k=5)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(10)
        model = pca_fit([rng.standard_normal((30, 8))], k=5)
        for comp in model.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((25, 6))
        model = pca_fit([X.copy()], k=6)
        back = pca_transform(model, X.copy()) @ model.components + model.mean
        np.testing.assert_allclose(back, X, atol=1e-9)

    def test_transform_is_centered_projection(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 5)) + 3.0
        model = pca_fit([X.copy()], k=2)
        T = pca_transform(model, X)
        np.testing.assert_allclose(T.mean(axis=0), 0.0, atol=1e-10)

    def test_zero_variance_data(self):
        X = np.ones((10, 4))
        model = pca_fit([X], k=2)
        np.testing.assert_allclose(model.explained_variance, 0.0, atol=1e-12)

    def test_k_out_of_range(self):
        X = np.ones((5, 3))
        with pytest.raises(ValueError):
            pca_fit([X], k=4)
        with pytest.raises(ValueError):
            pca_fit([X], k=0)
        with pytest.raises(ValueError):
            pca_fit([np.ones((1, 3))], k=1)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        model = pca_fit([rng.standard_normal((10, 4))], k=2)
        with pytest.raises(DimensionMismatch):
            pca_transform(model, np.ones((3, 5)))


    def test_fit_uses_every_row(self):
        # More rows than any workload fits, streamed in 61 runs: the mean
        # is within 1e-15 of the exactly rounded mean of every row, the
        # variance that of the dense eigensolver, and the fit holds one
        # run and two d x d matrices at a time.
        rng = np.random.default_rng(16)
        X = rng.standard_normal((250_000, 8)) * np.arange(1.0, 9.0)
        runs = list(text_embedding.row_blocks(len(X)))
        assert len(runs) == 61
        tracemalloc.start()
        try:
            model = pca_fit((X[rows].copy() for rows in runs), k=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        exact = np.array([math.fsum(column) / len(X) for column in X.T])
        np.testing.assert_allclose(model.mean, exact, rtol=0, atol=1e-15)
        oracle_vals, _ = oracle_eigen(X, 8)
        np.testing.assert_allclose(model.explained_variance, oracle_vals, rtol=0, atol=1e-8)
        run = max(r.stop - r.start for r in runs) * 8 * 8
        # The broadcast centering runs through numpy's ufunc buffer of
        # getbufsize() elements; a few more KB hold the O(d) vectors.
        scratch = 8 * np.getbufsize() + 4096
        assert peak <= run + 2 * 8 * 8 * 8 + scratch, f"peak {peak} for a {run}-byte run"

    def test_blocks_must_be_2d_and_of_equal_width(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            pca_fit(rng.standard_normal((10, 4)), k=2)  # iterated row by row
        with pytest.raises(ValueError):
            pca_fit([rng.standard_normal((10, 4)), rng.standard_normal((10, 5))], k=2)

    def test_wide_input_matches_eigen_oracle(self):
        # 1030 input dims, wider than any workload's encoder.
        rng = np.random.default_rng(15)
        base = rng.standard_normal((40, 5)) * np.array([9.0, 6.0, 4.0, 2.0, 1.0])
        mix = rng.standard_normal((5, 1030))
        X = base @ mix + 0.01 * rng.standard_normal((40, 1030))
        model = pca_fit([X.copy()], k=3)
        oracle_vals, oracle_vecs = oracle_eigen(X, 3)
        np.testing.assert_allclose(model.explained_variance, oracle_vals, rtol=1e-6)
        assert subspace_angle(model.components, oracle_vecs) <= 1e-5


def oracle_aggregate(post_ids, post_kinds, reduced, index):
    """The per-user post code the family replaced: the mean of the user's
    rows, looked up by post id, and the mean one-hot post kind."""
    width = reduced.shape[1] + len(KINDS)
    if not post_ids:
        return np.full(width, np.nan)
    out = np.empty(width)
    out[: reduced.shape[1]] = reduced[[index[pid] for pid in post_ids]].mean(axis=0)
    kinds = np.zeros(len(KINDS))
    for kind in post_kinds:
        kinds[KINDS.index(kind)] += 1
    out[reduced.shape[1] :] = kinds / len(post_kinds)
    return out


class TestAggregation:
    def test_mean_vector_and_kind_mix(self):
        timelines = [[make_tweet(tweet_id="p1", kind="original"),
                      make_tweet(tweet_id="p2", kind="retweet")]]
        (row,) = features_from_posts(np.array([[2.0, 0.0], [0.0, 4.0]]), timelines)
        np.testing.assert_allclose(row[:2], [1.0, 2.0])
        np.testing.assert_allclose(row[2:], [0.5, 0.5, 0.0])

    def test_no_posts_gives_nan_row(self):
        block = features_from_posts(np.empty((0, 3)), [[]])
        assert block.shape == (1, 6)
        assert np.isnan(block).all()
        assert features_from_posts(np.empty((0, 3)), []).shape == (0, 6)

    def test_block_is_the_per_user_code_bit_for_bit(self):
        # Short texts drawn from a small word list repeat often, the empty
        # text among them; every 16th timeline has no posts.
        timelines = random_timelines(np.random.default_rng(12), 80)
        posts = list(chain.from_iterable(timelines))
        texts = [t.text for t in posts]
        assert len(set(texts)) < len(texts) and "" in texts
        ids = [t.tweet_id for t in posts]
        raw = HashedNgramEncoder(dim=64).embed(ids, texts)
        reduced = pca_transform(pca_fit([raw.copy()], 12), raw.copy())
        index = {pid: i for i, pid in enumerate(ids)}
        expected = np.asarray([
            oracle_aggregate([t.tweet_id for t in timeline], [t.kind for t in timeline],
                             reduced, index)
            for timeline in timelines
        ])
        block = features_from_posts(reduced, timelines)
        assert block.shape == (80, 12 + len(KINDS))
        assert block.tobytes() == expected.tobytes()

    def test_feature_names(self):
        names = post_embedding_feature_names(2)
        assert names == (
            "post_vec_000",
            "post_vec_001",
            "post_kind_original",
            "post_kind_retweet",
            "post_kind_quote",
        )
