import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspkit import content_clustering
from suspkit.content_clustering import (
    ClusterAssignment,
    cluster_cosine,
    cluster_report,
    keyword_search,
    toxicity_summary,
    write_cluster_report,
)
from suspkit.corpus import MalformedRecord

from oracles import naive_leader_clustering, random_unit_rows


def gemv_leader_clustering(X, tau):
    """The per-post scan the blocked one replaced, kept as its bit-exact
    reference: one matrix-vector product of each post against every
    leader so far; the first maximum at or above tau wins."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    unit = X / np.where(norms == 0.0, 1.0, norms)
    labels = np.empty(n, dtype=np.int64)
    leader_rows = []
    leader_buf = np.empty((16, d))
    for i in range(n):
        k = len(leader_rows)
        if k:
            sims = leader_buf[:k] @ unit[i]
            best = int(np.argmax(sims))
            if sims[best] >= tau:
                labels[i] = best
                continue
        if k == leader_buf.shape[0]:
            leader_buf = np.concatenate([leader_buf, np.empty_like(leader_buf)])
        leader_buf[k] = unit[i]
        leader_rows.append(i)
        labels[i] = k
    return labels, leader_rows


class TestClusterCosine:
    @pytest.mark.parametrize("tau", [0.3, 0.6, 0.9])
    def test_matches_naive_oracle(self, tau):
        rng = np.random.default_rng(int(tau * 100))
        for trial in range(5):
            X = random_unit_rows(rng, 60, 6)
            got = cluster_cosine(X, tau)
            labels, leaders = naive_leader_clustering(X.tolist(), tau)
            assert got.labels.tolist() == labels
            assert got.leader_rows == leaders

    def test_member_leader_similarity_invariant(self):
        rng = np.random.default_rng(3)
        X = random_unit_rows(rng, 80, 5)
        tau = 0.5
        got = cluster_cosine(X, tau)
        for i, label in enumerate(got.labels):
            sim = float(X[i] @ X[got.leader_rows[label]])
            if i != got.leader_rows[label]:
                assert sim >= tau - 1e-12

    def test_leaders_pairwise_below_tau(self):
        rng = np.random.default_rng(4)
        X = random_unit_rows(rng, 80, 5)
        tau = 0.5
        got = cluster_cosine(X, tau)
        leaders = X[got.leader_rows]
        sims = leaders @ leaders.T
        off_diag = sims[~np.eye(len(leaders), dtype=bool)]
        assert (off_diag < tau).all()

    def test_identical_rows_form_one_cluster(self):
        X = np.tile([[1.0, 2.0, 3.0]], (10, 1))
        got = cluster_cosine(X, 0.99)
        assert got.n_clusters == 1
        assert got.sizes.tolist() == [10]

    def test_orthogonal_rows_stay_apart(self):
        got = cluster_cosine(np.eye(4), 0.5)
        assert got.n_clusters == 4

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        scaled = X * rng.uniform(0.1, 10.0, size=(30, 1))
        a = cluster_cosine(X, 0.7)
        b = cluster_cosine(scaled, 0.7)
        assert a.labels.tolist() == b.labels.tolist()

    def test_zero_vector_founds_own_cluster(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        got = cluster_cosine(X, 0.5)
        assert got.labels.tolist() == [0, 1, 0]

    def test_empty_input(self):
        got = cluster_cosine(np.empty((0, 3)), 0.9)
        assert got.n_clusters == 0
        assert got.labels.shape == (0,)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            cluster_cosine(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            cluster_cosine(np.eye(2), 1.5)

    def test_item_id_length_check(self):
        with pytest.raises(ValueError):
            cluster_cosine(np.eye(2), 0.5, item_ids=["only_one"])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tau=st.floats(0.2, 0.99),
        n=st.integers(2, 40),
    )
    def test_partition_properties_hold(self, seed, tau, n):
        X = random_unit_rows(np.random.default_rng(seed), n, 4)
        got = cluster_cosine(X, tau)
        # every item labeled, sizes partition the set
        assert got.labels.min() >= 0
        assert got.labels.max() == got.n_clusters - 1
        assert int(got.sizes.sum()) == n
        # each leader labels itself
        for c, row in enumerate(got.leader_rows):
            assert got.labels[row] == c


def campaign_rows(rng, n, d, campaigns=3, noise=0.05):
    """Posts of a few near-duplicate campaigns among random posts, the
    shape of a scam burst: every third post copies a campaign vector."""
    bases = rng.standard_normal((campaigns, d))
    X = rng.standard_normal((n, d))
    copies = np.arange(0, n, 3)
    X[copies] = bases[copies % campaigns] + noise * rng.standard_normal((copies.size, d))
    return X


class TestBlockedScan:
    """cluster_cosine against the per-post GEMV scan, bit for bit."""

    def assert_same(self, X, tau):
        got = cluster_cosine(X, tau)
        labels, leaders = gemv_leader_clustering(X, tau)
        assert got.labels.tolist() == labels.tolist()
        assert got.leader_rows == leaders
        return got

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_size_boundaries(self, offset):
        rng = np.random.default_rng(10 + offset)
        n = content_clustering._BLOCK + offset
        got = self.assert_same(campaign_rows(rng, n, 20), 0.9)
        assert 3 < got.n_clusters < n

    def test_more_leaders_than_one_tile(self):
        rng = np.random.default_rng(11)
        n = 2 * content_clustering._TILE
        got = self.assert_same(campaign_rows(rng, n, 20), 0.8)
        assert got.n_clusters > content_clustering._TILE

    @pytest.mark.parametrize("block,tile", [(1, 1), (3, 2), (5, 7), (16, 4)])
    def test_small_blocks_and_tiles(self, monkeypatch, block, tile):
        monkeypatch.setattr(content_clustering, "_BLOCK", block)
        monkeypatch.setattr(content_clustering, "_TILE", tile)
        rng = np.random.default_rng(block * 100 + tile)
        for tau in (0.3, 0.7, 0.95):
            self.assert_same(campaign_rows(rng, 90, 6), tau)

    @pytest.mark.parametrize("block", [1, 2, 256])
    def test_similarity_at_and_one_ulp_from_tau(self, monkeypatch, block):
        # tau is set to the reference's own GEMV similarity of a post to
        # its leader, and to the floats either side of it; wherever the
        # blocked GEMM rounds that similarity differently, only the
        # exact recompute decides it like the reference.
        monkeypatch.setattr(content_clustering, "_BLOCK", block)
        rng = np.random.default_rng(12)
        for _ in range(40):
            X = random_unit_rows(rng, 2, 20)
            X[1] = X[0] + 0.3 * X[1]
            unit = X / np.linalg.norm(X, axis=1, keepdims=True)
            sim = float((unit[:1] @ unit[1])[0])
            for tau in (sim, np.nextafter(sim, 0.0), np.nextafter(sim, 2.0)):
                if tau <= 1.0:
                    self.assert_same(X, float(tau))
        exact = cluster_cosine(np.array([[3.0, 4.0], [4.0, 3.0]]), 0.96)
        assert exact.labels.tolist() == [0, 0]

    @pytest.mark.parametrize("block", [1, 2, 256])
    def test_tied_leaders_earliest_wins(self, monkeypatch, block):
        monkeypatch.setattr(content_clustering, "_BLOCK", block)
        monkeypatch.setattr(content_clustering, "_TILE", 1)
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        got = self.assert_same(X, 0.5)
        assert got.labels.tolist() == [0, 1, 2, 1, 0, 0]

    @pytest.mark.parametrize("block", [1, 2, 256])
    def test_leaders_tied_within_rounding(self, monkeypatch, block):
        # A post on the bisector of two leaders is as similar to both up
        # to rounding, and GEMM and GEMV may order the two differently;
        # only the recompute follows the reference's order.
        monkeypatch.setattr(content_clustering, "_BLOCK", block)
        rng = np.random.default_rng(15)
        for _ in range(60):
            a, b = random_unit_rows(rng, 2, 20)
            if a @ b >= 0.5:
                continue
            self.assert_same(np.stack([a, b, a + b]), 0.5)

    def test_zero_rows_found_a_cluster_each(self):
        X = np.zeros((5, 4))
        X[1] = X[3] = [1.0, 2.0, 0.0, 0.0]
        got = self.assert_same(X, 0.5)
        assert got.labels.tolist() == [0, 1, 2, 1, 3]
        got = self.assert_same(np.zeros((300, 3)), 1e-13)
        assert got.n_clusters == 300

    def test_duplicate_rows(self):
        rng = np.random.default_rng(13)
        X = campaign_rows(rng, 400, 20, campaigns=5, noise=0.0)
        X[1::7] = X[0]
        self.assert_same(X, 0.9)

    def test_tau_one(self):
        # A post's dot product with an identical leader may round below
        # 1.0, in which case it founds its own cluster.
        rng = np.random.default_rng(14)
        X = rng.standard_normal((8, 20))[rng.integers(0, 8, size=600)]
        got = self.assert_same(X, 1.0)
        assert got.n_clusters >= 8

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_inputs(self, n):
        got = self.assert_same(np.ones((n, 3)), 0.5)
        assert got.leader_rows == list(range(n))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), tau=st.floats(0.05, 1.0),
           n=st.integers(0, 70), block=st.integers(1, 9), tile=st.integers(1, 9))
    def test_matches_gemv_reference(self, seed, tau, n, block, tile):
        rng = np.random.default_rng(seed)
        X = campaign_rows(rng, n, 4, noise=0.2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(content_clustering, "_BLOCK", block)
            mp.setattr(content_clustering, "_TILE", tile)
            self.assert_same(X, tau)

    def test_rejects_non_finite_rows(self):
        with pytest.raises(ValueError):
            cluster_cosine(np.array([[1.0, 0.0], [np.nan, 1.0]]), 0.5)
        with pytest.raises(ValueError):
            cluster_cosine(np.array([[np.inf, 0.0]]), 0.5)


class TestFloat32Screen:
    """Decisions within the float32 screen's margin (8*(d+2)*2**-24,
    1.05e-5 for d = 20) but far outside a float64 one, against the
    per-post GEMV scan, bit for bit."""

    @pytest.fixture
    def recomputes(self, monkeypatch):
        """The rows cluster_cosine recomputes with the exact GEMV."""
        rows = []
        gemv = content_clustering._gemv_best

        def counted(leaders, row):
            rows.append(row)
            return gemv(leaders, row)

        monkeypatch.setattr(content_clustering, "_gemv_best", counted)
        return rows

    assert_same = TestBlockedScan.assert_same

    @pytest.mark.parametrize("block", [1, 256])
    @pytest.mark.parametrize("delta", [-1e-6, -1e-7, 1e-7, 1e-6])
    def test_tau_near_the_similarity(self, monkeypatch, recomputes, block, delta):
        monkeypatch.setattr(content_clustering, "_BLOCK", block)
        rng = np.random.default_rng(21)
        for _ in range(20):
            X = random_unit_rows(rng, 2, 20)
            X[1] = X[0] + 0.3 * X[1]
            unit = X / np.linalg.norm(X, axis=1, keepdims=True)
            sim = float((unit[:1] @ unit[1])[0])
            got = self.assert_same(X, sim + delta)
            assert got.n_clusters == (1 if delta < 0 else 2)
        # Every second post was decided by the recompute, not the screen.
        assert len(recomputes) == 20

    @pytest.mark.parametrize("block", [1, 256])
    @pytest.mark.parametrize("gap", [-1e-7, 1e-7])
    def test_rival_leaders_1e7_apart(self, monkeypatch, recomputes, block, gap):
        # c = (1 + delta) a + b is more similar to a than to b by
        # delta (1 - a.b) before normalization: 1e-7 after it, give or take.
        monkeypatch.setattr(content_clustering, "_BLOCK", block)
        rng = np.random.default_rng(22)
        tried = 0
        while tried < 20:
            a, b = random_unit_rows(rng, 2, 20)
            if not -0.5 < a @ b < 0.5:
                continue
            tried += 1
            c = (1 + gap / (1 - a @ b)) * a + b
            got = self.assert_same(np.stack([a, b, c]), 0.5)
            assert got.labels.tolist() == [0, 1, 0 if gap > 0 else 1]
        assert len(recomputes) == 20

    @pytest.mark.parametrize("tau", [0.5, 0.9, 0.99])
    def test_dimension_256(self, tau):
        rng = np.random.default_rng(23)
        got = self.assert_same(campaign_rows(rng, 700, 256, campaigns=6, noise=0.1), tau)
        assert 6 <= got.n_clusters < 700

    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("tau", [0.25, 0.5, 1 / 3, 0.75])
    def test_components_of_1e30_and_1(self, monkeypatch, block, tau):
        # Rows of +-1 and +-1e-30: the tiny products underflow in float32,
        # and many similarities are ties or equal tau up to rounding.
        monkeypatch.setattr(content_clustering, "_BLOCK", block)
        rng = np.random.default_rng(24)
        X = rng.choice([1e-30, 1.0], size=(300, 8)) * rng.choice([-1.0, 1.0], size=(300, 8))
        X[::10] = rng.choice([-1e-30, 1e-30], size=(30, 8))
        got = self.assert_same(X, tau)
        assert 1 < got.n_clusters < 300


class TestClusterReport:
    def _assignment(self):
        X = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
        return cluster_cosine(X, 0.9, item_ids=["a", "b", "c", "d"])

    def test_sorted_by_size_then_id(self):
        report = list(cluster_report(self._assignment(), ["ta", "tb", "tc", "td"], sample_n=10))
        assert [e["cluster_id"] for e in report] == [0, 1]
        assert [e["size"] for e in report] == [3, 1]
        assert report[0]["leader_item_id"] == "a"
        assert report[0]["leader_text"] == "ta"

    def test_sample_cap(self):
        report = list(cluster_report(self._assignment(), ["ta", "tb", "tc", "td"], sample_n=2))
        assert report[0]["samples"] == ["ta", "tb"]
        assert report[0]["sample_item_ids"] == ["a", "b"]

    def test_length_mismatch(self):
        entries = cluster_report(self._assignment(), ["only", "three", "texts"], sample_n=10)
        with pytest.raises(ValueError):
            next(entries)

    def test_write_jsonl_and_digest(self, tmp_path):
        jsonl = tmp_path / "clusters.jsonl"
        digest = tmp_path / "digest.txt"
        write_cluster_report(self._assignment(), ["ta", "tb", "tc", "td"], jsonl, digest,
                             sample_n=10)
        lines = jsonl.read_text().splitlines()
        assert [json.loads(l)["size"] for l in lines] == [3, 1]
        text = digest.read_text()
        assert "2 clusters over 4 items" in text
        assert "leader: ta" in text

    def test_members_in_item_order(self):
        got = cluster_cosine(np.array([[1.0, 0], [0, 1.0], [1.0, 0]]), 0.9)
        report = cluster_report(got, ["x", "y", "z"], sample_n=10)
        assert [e["sample_item_ids"] for e in report] == [["0", "2"], ["1"]]

    def test_empty_assignment(self):
        got = cluster_cosine(np.zeros((0, 2)), 0.5)
        assert list(cluster_report(got, [], sample_n=10)) == []
        assert keyword_search(got, [], ["nft"]) == []


def naive_cluster_report(assignment, texts, sample_n):
    """Reference: one label scan per cluster."""
    sizes = assignment.sizes
    order = sorted(range(assignment.n_clusters), key=lambda c: (-int(sizes[c]), c))
    report = []
    for cid in order:
        members = np.flatnonzero(assignment.labels == cid).tolist()[:sample_n]
        leader = assignment.leader_rows[cid]
        report.append({
            "cluster_id": cid,
            "size": len(np.flatnonzero(assignment.labels == cid)),
            "leader_item_id": assignment.item_ids[leader],
            "leader_text": texts[leader],
            "sample_item_ids": [assignment.item_ids[m] for m in members],
            "samples": [texts[m] for m in members],
        })
    return report


def naive_digest(report):
    """Reference: the digest's lines built in full, then joined."""
    total = sum(entry["size"] for entry in report)
    lines = [f"{len(report)} clusters over {total} items", ""]
    for entry in report:
        lines.append(f"cluster {entry['cluster_id']} size={entry['size']}")
        lines.append(f"  leader: {entry['leader_text']}")
        lines.extend(f"  - {text}" for text in entry["samples"])
        lines.append("")
    return "\n".join(lines)


def naive_keyword_search(assignment, texts, keywords):
    """Reference: every member text of every cluster casefolded and counted."""
    hits = []
    for cid in range(assignment.n_clusters):
        counts = dict.fromkeys(keywords, 0)
        for m in np.flatnonzero(assignment.labels == cid):
            for kw in keywords:
                counts[kw] += texts[m].casefold().count(kw.casefold())
        if sum(counts.values()):
            hits.append({"cluster_id": cid, "matches": counts, "total": sum(counts.values())})
    return sorted(hits, key=lambda h: (-h["total"], h["cluster_id"]))


def random_assignment(rng, n):
    """Labels numbered by first appearance, many singletons; each
    cluster's leader is its first member, as in cluster_cosine."""
    labels, leader_rows = [], []
    for i in range(n):
        if not leader_rows or rng.random() < 0.6:
            labels.append(len(leader_rows))
            leader_rows.append(i)
        else:
            labels.append(int(rng.integers(len(leader_rows))))
    return ClusterAssignment([f"p{i}" for i in range(n)], np.array(labels, dtype=np.int64),
                             leader_rows)


class TestGroupedReport:
    TEXTS = ["Free NFT drop nft", "crypto CRYPTO Crypto", "donation", "gardening tips",
             "ÉTÉ nft Donation", "", "nftnft", "Straße crypto"]
    KEYWORDS = ["NFT", "crypto", "Donation"]

    @pytest.mark.parametrize("sample_n", [0, 1, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_report_and_keywords_match_per_cluster_scans(self, seed, sample_n, tmp_path):
        rng = np.random.default_rng(seed)
        n = 200
        assignment = random_assignment(rng, n)
        texts = [self.TEXTS[k] for k in rng.integers(len(self.TEXTS), size=n)]
        assert 1 in assignment.sizes and assignment.sizes.max() > 3
        expected = naive_cluster_report(assignment, texts, sample_n)
        assert list(cluster_report(assignment, texts, sample_n=sample_n)) == expected
        assert (keyword_search(assignment, texts, self.KEYWORDS)
                == naive_keyword_search(assignment, texts, self.KEYWORDS))
        jsonl, digest = tmp_path / "c.jsonl", tmp_path / "d.txt"
        write_cluster_report(assignment, texts, jsonl, digest, sample_n=sample_n)
        assert jsonl.read_text(encoding="utf-8") == "".join(
            json.dumps(e, ensure_ascii=False, sort_keys=True) + "\n" for e in expected)
        assert digest.read_bytes() == naive_digest(expected).encode("utf-8")

    def test_empty_report(self, tmp_path):
        jsonl, digest = tmp_path / "c.jsonl", tmp_path / "d.txt"
        empty = ClusterAssignment([], np.zeros(0, dtype=np.int64), [])
        write_cluster_report(empty, [], jsonl, digest, sample_n=10)
        assert jsonl.read_bytes() == b""
        assert digest.read_bytes() == naive_digest([]).encode("utf-8")
        assert digest.read_text(encoding="utf-8") == "0 clusters over 0 items\n"

    def test_report_is_written_entry_by_entry(self, tmp_path):
        # 20,000 clusters of one 400-character text: the digest alone is
        # about 16 MB, and neither it nor a list of the 20,000 entries is
        # built before it is written.
        n = 20_000
        assignment = ClusterAssignment([f"p{i}" for i in range(n)],
                                       np.arange(n, dtype=np.int64), list(range(n)))
        texts = [f"{i:06d}" + "x" * 394 for i in range(n)]
        jsonl, digest = tmp_path / "c.jsonl", tmp_path / "d.txt"
        tracemalloc.start()
        try:
            write_cluster_report(assignment, texts, jsonl, digest, sample_n=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest.stat().st_size > 16_000_000
        assert peak < 1 << 20, f"peak {peak / 1e6:.1f} MB"


class TestKeywordSearch:
    def test_counts_and_ordering(self):
        X = np.array([[1, 0], [1, 0], [0, 1]], dtype=float)
        assignment = cluster_cosine(X, 0.9)
        texts = ["free CRYPTO crypto day", "crypto news", "gardening tips"]
        hits = keyword_search(assignment, texts, ["crypto", "nft"])
        assert len(hits) == 1
        assert hits[0]["cluster_id"] == 0
        assert hits[0]["matches"] == {"crypto": 3, "nft": 0}
        assert hits[0]["total"] == 3

    def test_no_matches_gives_empty(self):
        assignment = cluster_cosine(np.eye(2), 0.5)
        assert keyword_search(assignment, ["aa", "bb"], ["zz"]) == []


class TestToxicitySummary:
    def _write(self, tmp_path, rows):
        path = tmp_path / "tox.csv"
        path.write_text("tweet_id,score\n" + "\n".join(rows) + "\n")
        return path

    def test_threshold_is_strict(self, tmp_path):
        path = self._write(tmp_path, ["t1,0.9", "t2,0.5", "t3,0.1"])
        summary = toxicity_summary(path, known_ids={"t1", "t2", "t3"}, threshold=0.5)
        assert (summary.scored, summary.toxic) == (3, 1)
        assert summary.fraction == pytest.approx(1 / 3)

    def test_unknown_ids_skipped(self, tmp_path):
        path = self._write(tmp_path, ["t1,0.9", "ghost,0.9"])
        summary = toxicity_summary(path, known_ids={"t1"}, threshold=0.5)
        assert summary.scored == 1
        assert summary.skipped_unknown == 1

    def test_out_of_range_score_rejected(self, tmp_path):
        path = self._write(tmp_path, ["t1,1.5"])
        with pytest.raises(MalformedRecord):
            toxicity_summary(path, known_ids={"t1"}, threshold=0.5)

    def test_bad_row_rejected(self, tmp_path):
        path = self._write(tmp_path, ["t1,abc"])
        with pytest.raises(MalformedRecord):
            toxicity_summary(path, known_ids={"t1"}, threshold=0.5)

    def test_missing_tweet_id_column_rejected(self, tmp_path):
        path = tmp_path / "tox.csv"
        path.write_text("id,score\nt1,0.9\n")
        with pytest.raises(MalformedRecord):
            toxicity_summary(path, known_ids={"t1"}, threshold=0.5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "tox.csv"
        path.write_text("tweet_id,score\n")
        summary = toxicity_summary(path, known_ids={"t1"}, threshold=0.5)
        assert summary.scored == 0
        assert summary.fraction == 0.0


class TestAssignmentValidation:
    def test_label_id_length_mismatch(self):
        with pytest.raises(ValueError):
            ClusterAssignment(
                item_ids=["a"],
                labels=np.array([0, 0]),
                leader_rows=[0],
            )
