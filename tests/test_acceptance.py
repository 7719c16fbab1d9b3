"""End-to-end acceptance checks.

Each test exercises one promised behavior at its stated tolerance and
prints a single [PASS]/[FAIL] line with the measured numbers.  The
heavier fixtures (large synthetic corpus, graph recovery) are shared
across tests where possible.
"""

import re
import time

import numpy as np
import pytest

from suspkit import cli
from suspkit.content_clustering import cluster_cosine
from suspkit.corpus import CorpusStore
from suspkit.explainability import explain_matrix, impact_summary
from suspkit.gbdt import GbdtClassifier
from suspkit.graph_embedding import (
    RelationGraph,
    evaluate as evaluate_ranking,
    ranking_metrics,
    split_edges,
    train_embeddings,
)
from suspkit.manifest import stage_seed
from suspkit.pipeline import (
    GRAPH_LR,
    GRAPH_NEGATIVES,
    PipelineConfig,
    extract_split_features,
    train_with_cv,
)
from suspkit.suspension_model import (
    SPLIT_SECOND_TEST,
    SPLIT_TEST,
    LogisticModel,
    evaluate as evaluate_model,
)
from suspkit.synth import GeneratorConfig, generate
from suspkit.text_embedding import pca_fit, pca_transform
from suspkit.wallets import base58check_decode, bech32_verify, extract_wallets

from oracles import (
    GENESIS_BTC,
    SEGWIT_BTC,
    bech32_encode,
    fresh_btc_address,
    fresh_eth_address,
    fresh_segwit_address,
    naive_leader_clustering,
    oracle_eigen,
    oracle_shapley,
    random_unit_rows,
    shapley_exact,
    subspace_angle,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def ingest_generated(paths) -> CorpusStore:
    store = CorpusStore()
    store.ingest_tweets(paths["tweets"])
    store.ingest_snapshots(paths["snapshots"])
    store.ingest_labels(paths["labels"])
    return store


def test_criterion_01_exact_shapley_matches_enumeration_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)

    w5 = np.array([0.8, -1.2, 2.0, 0.4, -0.6])
    w15 = rng.standard_normal(15)

    Xg = rng.standard_normal((200, 8))
    yg = (Xg[:, 0] + Xg[:, 1] * Xg[:, 2] > 0).astype(float)
    gbdt = GbdtClassifier(n_rounds=10, max_depth=3, learning_rate=0.1, reg_lambda=1.0)
    gbdt.fit(Xg, yg)

    Xl = rng.standard_normal((150, 6))
    yl = (Xl @ np.array([1.0, -2.0, 0.5, 0.0, 1.5, -1.0]) > 0).astype(float)
    logistic = LogisticModel(reg_lambda=1.0).fit(Xl, yl)

    suite = [
        ("linear-5", lambda X: X @ w5 + 0.25, 5),
        ("interaction-4", lambda X: X[:, 0] * X[:, 1] + 0.5 * X[:, 2] - X[:, 3] ** 2, 4),
        ("gbdt-8", gbdt.predict_proba, 8),
        ("logistic-6", logistic.predict_proba, 6),
        ("linear-15", lambda X: X @ w15, 15),  # exact-mode cap boundary
    ]

    worst_phi = 0.0
    worst_eff = 0.0
    for _, predict, m in suite:
        x = rng.standard_normal(m)
        background = rng.standard_normal((12, m))
        phi, base, out = shapley_exact(predict, x, background)
        phi_ref, base_ref, out_ref = oracle_shapley(predict, x, background)
        worst_phi = max(
            worst_phi,
            float(np.max(np.abs(phi - phi_ref))),
            abs(base - base_ref),
            abs(out - out_ref),
        )
        worst_eff = max(worst_eff, abs(phi.sum() + base - out))
    elapsed = time.perf_counter() - started
    ok = worst_phi <= 1e-9 and worst_eff <= 1e-9 and elapsed < 10.0
    verdict(
        "criterion 01 exact attribution equals enumeration oracle",
        ok,
        f"models={len(suite)} max|dphi|={worst_phi:.2e}"
        f" efficiency_gap={worst_eff:.2e} elapsed={elapsed:.2f}s (<10s)",
    )


def test_criterion_02_linear_model_closed_form():
    rng = np.random.default_rng(202)
    w = np.array([1.4, -0.7, 0.05, 3.0, -2.2])
    x = rng.standard_normal(5)
    background = rng.standard_normal((100, 5))
    phi, base, out = shapley_exact(lambda X: X @ w + 0.6, x, background)
    expected = w * (x - background.mean(axis=0))
    err = float(np.max(np.abs(phi - expected)))
    gap = abs(phi.sum() + base - out)
    ok = err <= 1e-9 and gap <= 1e-9
    verdict(
        "criterion 02 linear attribution closed form",
        ok,
        f"max|phi - w*(x-mu)|={err:.2e} efficiency_gap={gap:.2e} (tol 1e-9)",
    )


def test_criterion_03_pca_matches_dense_eigensolver():
    rng = np.random.default_rng(303)
    worst_angle = 0.0
    worst_var = 0.0
    worst_recon = 0.0
    for trial in range(10):
        X = rng.standard_normal((50, 8))
        model = pca_fit([X.copy()], k=8)
        ref_vals, ref_vecs = oracle_eigen(X, 8)
        for j in range(1, 9):
            worst_angle = max(
                worst_angle, subspace_angle(model.components[:j], ref_vecs[:j])
            )
        worst_var = max(
            worst_var, float(np.max(np.abs(model.explained_variance - ref_vals)))
        )
        recon = pca_transform(model, X.copy()) @ model.components + model.mean
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - X))))
    ok = worst_angle <= 1e-6 and worst_var <= 1e-8 and worst_recon <= 1e-6
    verdict(
        "criterion 03 component recovery vs dense eigensolver",
        ok,
        f"matrices=10 max_angle={worst_angle:.2e} (tol 1e-6)"
        f" max|dvar|={worst_var:.2e} (tol 1e-8)"
        f" max_recon_err={worst_recon:.2e} (tol 1e-6)",
    )


def test_criterion_04_clustering_equals_exhaustive_leader_oracle():
    rng = np.random.default_rng(404)
    runs = 0
    exact = True
    invariants = True
    for _ in range(20):
        base_rows = random_unit_rows(rng, 120, 5)
        picks = rng.integers(0, 120, size=80)
        noisy = base_rows[picks] + 0.04 * rng.standard_normal((80, 5))
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        X = np.concatenate([base_rows, noisy])  # 200 unit rows, joins guaranteed
        for tau in (0.8, 0.9, 0.95):
            runs += 1
            got = cluster_cosine(X, tau)
            labels, leaders = naive_leader_clustering(X.tolist(), tau)
            if got.labels.tolist() != labels or got.leader_rows != leaders:
                exact = False
                continue
            leader_of_row = np.array([leaders[lab] for lab in labels])
            member_sims = np.einsum("ij,ij->i", X, X[leader_of_row])
            if member_sims.min() < tau - 1e-12:
                invariants = False
            L = X[leaders]
            cross = L @ L.T
            np.fill_diagonal(cross, -1.0)
            if cross.size and cross.max() >= tau:
                invariants = False
    ok = exact and invariants
    verdict(
        "criterion 04 clustering equals exhaustive leader oracle",
        ok,
        f"runs={runs} (20 sets x tau in {{0.8,0.9,0.95}}, 200 vectors each)"
        f" exact={exact} member>=tau and leaders<tau: {invariants}",
    )


def test_criterion_05_ranking_metric_fixtures():
    # Positive ranks 1, 2, and 4 against five negatives each.
    pos = np.array([10.0, 8.0, 5.0])
    neg = np.array(
        [
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [9.0, 2.0, 3.0, 4.0, 5.0],
            [9.0, 8.0, 7.0, 3.0, 2.0],
        ]
    )
    mrr, _ = ranking_metrics(pos, neg)
    mrr_err = abs(mrr - 7.0 / 12.0)

    _, auc_tied = ranking_metrics(np.zeros(4), np.zeros((4, 7)))

    rng = np.random.default_rng(505)
    p = rng.standard_normal(25)
    n = rng.standard_normal((25, 40))
    _, auc_raw = ranking_metrics(p, n)
    _, auc_cubed = ranking_metrics(p**3 + 1.0, n**3 + 1.0)

    ok = mrr_err <= 1e-9 and auc_tied == 0.5 and auc_raw == auc_cubed
    verdict(
        "criterion 05 ranking metric fixtures",
        ok,
        f"mrr={mrr:.10f} (|mrr-7/12|={mrr_err:.2e}) tied_auc={auc_tied}"
        f" monotone_invariance={auc_raw == auc_cubed}",
    )


def _clique_edges(members, relations):
    return {
        (a, rel, b): 1 for rel in relations for a in members for b in members if a != b
    }


def test_criterion_06_multi_relation_graph_recovery():
    relations = ("retweet", "quote", "mention")
    nodes = [f"g{i:03d}" for i in range(200)]
    edges = _clique_edges(nodes[:20], relations)
    edges.update(_clique_edges(nodes[100:120], relations))
    graph = RelationGraph(nodes=nodes, edges=edges)

    hyper = dict(dim=50, epochs=300, lr=0.5, negatives_per_edge=5, batch_size=256, seed=0)
    started = time.perf_counter()
    train_graph, held_out = split_edges(graph, fraction=0.05, seed=0)
    emb = train_embeddings(train_graph, **hyper)
    multi = evaluate_ranking(emb, held_out, negatives_per_positive=100, seed=0)
    elapsed = time.perf_counter() - started

    singles = {}
    for rel in relations:
        rel_edges = {e: w for e, w in edges.items() if e[1] == rel}
        rel_graph = RelationGraph(nodes=nodes, edges=rel_edges)
        rel_train, rel_held = split_edges(rel_graph, fraction=0.05, seed=0)
        rel_emb = train_embeddings(rel_train, **hyper)
        singles[rel] = evaluate_ranking(
            rel_emb, rel_held, negatives_per_positive=100, seed=0
        ).auc

    ok = (
        multi.auc >= 0.9
        and elapsed < 60.0
        and all(multi.auc >= auc for auc in singles.values())
    )
    singles_txt = " ".join(f"{rel}={auc:.4f}" for rel, auc in singles.items())
    verdict(
        "criterion 06 held-out edge recovery on a two-community graph",
        ok,
        f"multi_auc={multi.auc:.4f} (>=0.9) elapsed={elapsed:.1f}s (<60s)"
        f" singles: {singles_txt}",
    )


@pytest.fixture(scope="module")
def large_run(tmp_path_factory):
    """Generate-ingest-train on the large synthetic corpus, timed."""
    out = tmp_path_factory.mktemp("acceptance-synth")
    started = time.perf_counter()
    paths = generate(
        GeneratorConfig(n_suspended=2000, n_normal=2000), seed=7, out_dir=out
    )
    store = ingest_generated(paths)
    config = PipelineConfig(seed=3)
    split = extract_split_features(store, config)
    model, _, cv_mean = train_with_cv(split.train.combined, config)
    test_report = evaluate_model(model, split.test.combined, SPLIT_TEST)
    elapsed = time.perf_counter() - started
    return split, model, cv_mean, test_report, config, elapsed


def test_criterion_07_synthetic_corpus_classification(large_run):
    _, _, cv_mean, test_report, _, elapsed = large_run
    cv_f1 = cv_mean.f1
    test_f1 = test_report.f1
    ok = cv_f1 >= 0.95 and test_f1 >= 0.90 and elapsed <= 300.0
    verdict(
        "criterion 07 large synthetic corpus classification",
        ok,
        f"users=2000+2000 cv_mean_f1={cv_f1:.4f} (>=0.95)"
        f" test_f1={test_f1:.4f} (>=0.90) elapsed={elapsed:.1f}s (<=300s)",
    )


def test_criterion_08_age_and_rate_features_dominate(large_run):
    split, model, _, _, config, _ = large_run
    test_matrix = split.test.combined
    train_matrix = split.train.combined
    explanations = explain_matrix(
        model,
        test_matrix,
        train_matrix,
        background_size=cli.BACKGROUND_SIZE,
        seed=stage_seed(config.seed, "explain"),
    )
    summary = impact_summary(explanations)
    top5 = summary.ranking[:5]
    ok = "account_age_days" in top5 and "statuses_by_age" in top5
    verdict(
        "criterion 08 age and posting-rate features rank in the top 5",
        ok,
        f"rows={len(explanations.user_ids)} top5={top5}",
    )


def test_default_graph_schedule_leaves_the_loss_plateau(large_run):
    # The small initialisation starts every fit on the log(1 + K) loss
    # plateau of K uniform negatives.  The default schedule must leave
    # it within its epochs without diverging on the hub-heavy graph.
    split, _, _, _, config, _ = large_run
    losses = split.train.context.node_embeddings.train_loss
    plateau = np.log(1 + GRAPH_NEGATIVES)
    ok = (
        len(losses) == config.graph_epochs
        and bool(np.isfinite(losses).all())
        and losses[-1] < 0.5 * plateau
    )
    verdict(
        "default graph schedule leaves the loss plateau",
        ok,
        f"lr={GRAPH_LR} epochs={len(losses)} first={losses[0]:.4f}"
        f" last={losses[-1]:.4f} (<{0.5 * plateau:.4f})",
    )


def test_criterion_09_drift_hits_content_but_not_profile(tmp_path_factory):
    out = tmp_path_factory.mktemp("drift-synth")
    paths = generate(
        GeneratorConfig(n_suspended=300, n_normal=300, n_windows=2, drift=True),
        seed=11,
        out_dir=out,
    )
    store = ingest_generated(paths)

    def held_out_and_second_f1(family: str) -> tuple[float, float]:
        # The CLI's path: fit on the window-1 train users, score the
        # held-out window-1 users and the window-2 users.
        config = PipelineConfig(seed=3, families=(family,))
        split = extract_split_features(store, config)
        model, _, _ = train_with_cv(split.train.combined, config)
        test = evaluate_model(model, split.test.combined, SPLIT_TEST)
        second = evaluate_model(model, split.second_test.combined, SPLIT_SECOND_TEST)
        return test.f1, second.f1

    prof1, prof2 = held_out_and_second_f1("profile")
    profile_drop = prof1 - prof2
    emb1, emb2 = held_out_and_second_f1("post_embedding")
    embedding_drop = emb1 - emb2

    ok = profile_drop <= 0.05 and embedding_drop >= 0.20
    verdict(
        "criterion 09 content drift degrades embeddings not profiles",
        ok,
        f"held-out->window-2 profile_f1 {prof1:.4f}->{prof2:.4f}"
        f" drop={profile_drop:.4f} (<=0.05)"
        f" embedding_f1 {emb1:.4f}->{emb2:.4f} drop={embedding_drop:.4f} (>=0.20)",
    )


def _flip_last_base58(address: str) -> str:
    replacement = "2" if address[-1] != "2" else "3"
    return address[:-1] + replacement


def _flip_last_bech32(address: str) -> str:
    replacement = "q" if address[-1] != "q" else "p"
    return address[:-1] + replacement


def test_criterion_10_wallet_extraction_yields_exactly_the_valid_set():
    valid = [
        GENESIS_BTC,
        fresh_btc_address(b"acc-a"),
        fresh_btc_address(b"acc-b"),
        fresh_btc_address(b"acc-script", version=5),
        SEGWIT_BTC,
        fresh_segwit_address(b"acc-w1"),
        fresh_segwit_address(b"acc-w2"),
        fresh_eth_address(b"acc-e1"),
        fresh_eth_address(b"acc-e2"),
        fresh_eth_address(b"acc-e3"),
    ]
    btc = fresh_btc_address(b"acc-a")
    segwit = fresh_segwit_address(b"acc-w1")
    near_misses = [
        _flip_last_base58(GENESIS_BTC),  # checksum breaks
        btc[:-5],  # truncated payload
        btc[:10] + "0" + btc[10:],  # zero is outside the base58 alphabet
        fresh_btc_address(b"acc-c") + "l",  # as is lowercase L
        fresh_btc_address(b"acc-ver", version=42),  # valid checksum, unknown version
        btc[:12] + btc[13] + btc[12] + btc[14:],  # transposed characters
        GENESIS_BTC + "9",  # glued trailing digit
        "x" + GENESIS_BTC,  # glued leading letter
        SEGWIT_BTC.replace("q", "Q", 1),  # mixed case
        _flip_last_bech32(segwit),  # checksum breaks
        "bc" + segwit[3:],  # separator removed
        bech32_encode("tb", [0] + [0] * 20),  # testnet prefix
        "bc1qqqqqqqqqqqq",  # random data part
        fresh_eth_address(b"acc-e1")[:-1],  # 39 hex digits
        fresh_eth_address(b"acc-e2") + "f",  # 41 hex digits
        "0x" + "g" * 40,  # non-hex payload
        fresh_eth_address(b"acc-e4")[2:],  # bare hex, no prefix
        "0X" + fresh_eth_address(b"acc-e5")[2:],  # wrong prefix case
        "giveaway",
        "wallet",
    ]
    assert len(valid) == 10 and len(set(valid)) == 10
    assert len(near_misses) == 20
    assert not set(valid) & set(near_misses)

    posts = [
        (f"t{i:02d}", f"u{i:02d}", f"send to {token} now")
        for i, token in enumerate(valid + near_misses)
    ]
    hits = extract_wallets(posts)
    found = sorted(hit.address for hit in hits)

    checksums_ok = True
    for address in found:
        if address.startswith("bc1"):
            decoded = bech32_verify(address)
            checksums_ok &= decoded is not None and decoded[0] == "bc"
        elif address.startswith("0x"):
            checksums_ok &= re.fullmatch(r"0x[0-9a-fA-F]{40}", address) is not None
        else:
            payload = base58check_decode(address)  # raises when corrupted
            checksums_ok &= len(payload) == 21 and payload[0] in (0, 5)

    ok = found == sorted(valid) and len(hits) == 10 and checksums_ok
    verdict(
        "criterion 10 wallet scan returns the valid ten and nothing else",
        ok,
        f"valid=10 near_misses=20 found={len(hits)} checksums_ok={checksums_ok}",
    )


def test_criterion_11_reruns_yield_byte_identical_manifests(tmp_path_factory):
    wd = tmp_path_factory.mktemp("repro-run")
    synth_dir = wd / "synth"
    base = ["--workdir", str(wd), "--seed", "5"]
    sequence = [
        base + ["synth", "--out", str(synth_dir), "--suspended", "12",
                "--normal", "12", "--windows", "2"],
        base + ["ingest",
                "--tweets", str(synth_dir / "tweets.jsonl"),
                "--snapshots", str(synth_dir / "snapshots.jsonl"),
                "--labels", str(synth_dir / "labels.csv")],
        base + ["features"],
        base + ["train"],
        base + ["evaluate", "--split", "test"],
        base + ["evaluate", "--split", "second_test"],
        base + ["explain"],
        base + ["cluster"],
        base + ["graph"],
        base + ["report"],
    ]

    def run_all():
        return [cli.main(argv) for argv in sequence]

    codes_first = run_all()
    first = {p.name: p.read_bytes() for p in wd.glob("*.manifest.json")}
    codes_second = run_all()
    second = {p.name: p.read_bytes() for p in wd.glob("*.manifest.json")}

    identical = sorted(n for n in first if first[n] == second.get(n))
    ok = (
        all(c == 0 for c in codes_first + codes_second)
        and len(first) == 10
        and set(first) == set(second)
        and len(identical) == 10
    )
    differing = sorted(set(first) - set(identical))
    verdict(
        "criterion 11 rerun with same config and seed is byte-identical",
        ok,
        f"stages={len(first)} identical_manifests={len(identical)}/10"
        + (f" differing={differing}" if differing else ""),
    )
