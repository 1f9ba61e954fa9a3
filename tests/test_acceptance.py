"""Acceptance checks for the whole pipeline.

Each test verifies one end-to-end guarantee at a stated tolerance and
prints a single PASS/FAIL line with the measured numbers (run with -s
to see them on success). The checks are self-contained: reference
values come from the naive reimplementations of ``oracles``, not from
the code under test.
"""

import csv
import os
import time
from pathlib import Path

import numpy as np
import pytest

from relfrec.cli import main
from relfrec.embed import build_vocabulary, sgns_pair_update
from relfrec.evaluation import evaluate, mae, make_split, rmse
from relfrec.ingest import RatingDataset, clean_and_join, parse_item_features, parse_ratings
from relfrec.predict import PredictionConfig, predict_rating
from relfrec.simcore import HybridPolicy, make_provider, rating_cosine

import oracles
import synthdata


def check(ok, label):
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label


class TestAcceptance:
    def test_pair_gradient_matches_finite_differences(self):
        start = time.perf_counter()
        worst = oracles.pair_gradient_error(sgns_pair_update, np.random.default_rng(42))
        elapsed = time.perf_counter() - start
        check(
            worst <= 1e-5 and elapsed < 1.0,
            f"embedding gradient vs central differences: max rel err {worst:.3e} "
            f"(tol 1e-5) over 100 instances in {elapsed:.2f}s (budget 1s)",
        )

    def test_similarity_and_prediction_match_naive_oracles(self):
        rng = np.random.default_rng(101)
        worst_sim = 0.0
        worst_pred = 0.0
        # The budget is for the library calls; the naive oracles run untimed.
        elapsed = 0.0

        def timed(fn, *args, **kwargs):
            nonlocal elapsed
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed += time.perf_counter() - start
            return out

        for _ in range(50):
            matrix = rng.integers(1, 6, size=(8, 8)).astype(float)
            rows = [
                (u + 1, i + 1, matrix[u, i], 0)
                for u in range(8)
                for i in range(8)
            ]
            ds = timed(RatingDataset, records=rows)
            for i in range(8):
                for j in range(i + 1, 8):
                    got = timed(rating_cosine, i + 1, j + 1, ds)
                    want, _support = oracles.corater_cosine(matrix, i, j)
                    worst_sim = max(worst_sim, abs(got.value - want))
            provider = timed(make_provider, "cf", ratings=ds)
            sim = lambda i, j: oracles.corater_cosine(matrix, i - 1, j - 1)[0]  # noqa: E731
            for k in (3, 35):
                cfg = PredictionConfig(k=k)
                for u in range(8):
                    for i in range(8):
                        got = timed(predict_rating, u + 1, i + 1, ds, provider, cfg)
                        want, _detail, _used = oracles.knn_prediction(u + 1, i + 1, rows, sim, k)
                        worst_pred = max(worst_pred, abs(got.value - want))
        check(
            worst_sim <= 1e-12 and worst_pred <= 1e-12 and elapsed < 1.0,
            f"rating cosine and k-NN prediction vs naive oracles on 50 dense 8x8 "
            f"matrices: max sim err {worst_sim:.2e}, max pred err {worst_pred:.2e} "
            f"(tol 1e-12), library calls in {elapsed:.2f}s (budget 1s)",
        )

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(55)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            predicted, actual = rng.uniform(1, 5, n), rng.uniform(1, 5, n)
            if mae(predicted, actual) > rmse(predicted, actual) + 1e-12:
                violations += 1
        perfect = np.array([1.0, 2.5, 4.0])
        zero_ok = rmse(perfect, perfect) == 0.0 and mae(perfect, perfect) == 0.0
        check(
            violations == 0 and zero_ok,
            f"mae <= rmse on 1000 random prediction sets ({violations} violations) "
            f"and both metrics zero on perfect predictions",
        )

    def test_clique_corpus_separates_in_embedding_space(self, clique_model):
        table = clique_model["table"]
        intra_a = synthdata.mean_pairwise_cosine(table, clique_model["clique_a"])
        intra_b = synthdata.mean_pairwise_cosine(table, clique_model["clique_b"])
        inter = synthdata.mean_pairwise_cosine(
            table, clique_model["clique_a"], clique_model["clique_b"]
        )
        intra = (intra_a + intra_b) / 2
        margin = intra - inter
        seconds = clique_model["train_seconds"]
        check(
            margin >= 0.2 and seconds < 10.0,
            f"two-clique corpus at dim=32: intra {intra:.3f} - inter {inter:.3f} "
            f"= margin {margin:.3f} (need >= 0.2), trained in {seconds:.1f}s (budget 10s)",
        )

    def test_hybrid_beats_cf_on_cold_items(self, genre_data, genre_model):
        ratings = genre_data["ratings"]
        index = genre_model["index"]
        plan = make_split(ratings, "cold-start(0.05)", seed=11)
        config = PredictionConfig(k=35)
        start = time.perf_counter()
        cf = evaluate("cf", plan, ratings, config=config)
        hybrid = evaluate(
            "hybrid", plan, ratings, config=config, index=index, policy=HybridPolicy()
        )
        elapsed = (
            time.perf_counter() - start
            + genre_model["train_seconds"]
            + genre_data["build_seconds"]
        )
        check(
            hybrid.rmse < cf.rmse and hybrid.mae < cf.mae and elapsed < 120.0,
            f"cold items, k=35: hybrid rmse {hybrid.rmse:.4f} < cf {cf.rmse:.4f} "
            f"and hybrid mae {hybrid.mae:.4f} < cf {cf.mae:.4f}, "
            f"total {elapsed:.1f}s (budget 120s)",
        )

    def test_content_and_cf_close_on_holdout(self, genre_data, genre_model):
        ratings = genre_data["ratings"]
        index = genre_model["index"]
        plan = make_split(ratings, "holdout(0.8)", seed=11)
        config = PredictionConfig(k=35)
        cf = evaluate("cf", plan, ratings, config=config)
        cb = evaluate("cb", plan, ratings, config=config, index=index)
        gap = abs(cb.rmse - cf.rmse)
        check(
            gap <= 0.15,
            f"80/20 holdout, k=35: |content rmse {cb.rmse:.4f} - cf rmse {cf.rmse:.4f}| "
            f"= {gap:.4f} (tol 0.15)",
        )

    @pytest.mark.skipif(
        not (os.environ.get("RELFREC_ML1M_RATINGS") and os.environ.get("RELFREC_ML1M_FEATURES")),
        reason="set RELFREC_ML1M_RATINGS and RELFREC_ML1M_FEATURES to run the full-corpus check",
    )
    def test_movielens_corpus_counts_and_cf_error(self):
        start = time.perf_counter()
        ratings = parse_ratings(os.environ["RELFREC_ML1M_RATINGS"])
        catalog = parse_item_features(os.environ["RELFREC_ML1M_FEATURES"])
        bundle = clean_and_join(ratings, catalog)
        n_ratings = bundle.report["n_ratings_kept"]
        n_items = bundle.report["n_items_kept"]
        n_tokens = len(build_vocabulary(bundle.sentences))
        counts_ok = (
            abs(n_ratings - 995138) / 995138 <= 0.01
            and abs(n_items - 3746) / 3746 <= 0.01
            and abs(n_tokens - 22669) / 22669 <= 0.01
        )
        plan = make_split(bundle.ratings, "kfold(5)", seed=1)
        report = evaluate("cf", plan, bundle.ratings, config=PredictionConfig(k=35))
        elapsed = time.perf_counter() - start
        check(
            counts_ok and 0.80 <= report.rmse <= 1.00 and elapsed <= 1800.0,
            f"full corpus: {n_ratings} ratings / {n_items} items / {n_tokens} tokens "
            f"(each within 1% of 995138/3746/22669), cf 5-fold rmse {report.rmse:.4f} "
            f"(need 0.80..1.00) in {elapsed:.0f}s (budget 1800s)",
        )

    def test_repeated_cli_runs_are_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        synthdata.write_genre_world_files(data)

        def run(tag):
            base = tmp_path / tag
            assert main([
                "ingest",
                "--ratings", str(data / "ratings.dat"),
                "--metadata", str(data / "features.csv"),
                "--out", str(base / "bundle"),
            ]) == 0
            assert main([
                "train-embed", "--bundle", str(base / "bundle"),
                "--out", str(base / "vecs.txt"),
                "--window", "4", "--dim", "16", "--negatives", "5",
                "--epochs", "4", "--seed", "3",
            ]) == 0
            assert main([
                "evaluate", "--bundle", str(base / "bundle"),
                "--embeddings", str(base / "vecs.txt"),
                "--predictors", "cf,hybrid", "--split", "holdout(0.8)",
                "--seed", "5", "--k", "35",
                "--out-dir", str(base / "run"),
            ]) == 0
            return (base / "run" / "results.csv").read_bytes()

        first = run("one")
        second = run("two")
        rows = len(first.decode().splitlines()) - 1
        check(
            first == second and rows > 0,
            f"two identical pipeline runs (seeded) produced byte-identical "
            f"results.csv ({rows} data rows)",
        )
