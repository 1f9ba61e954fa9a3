"""Synthetic corpora, rating worlds and stand-ins used across the test suite.

Two generators:

* two_clique_corpus - a vocabulary of two disjoint token cliques where
  each sentence draws from a single clique, so co-occurrence training
  must pull intra-clique vectors together and leave inter-clique pairs
  apart.
* genre_world - a desk-scale rating dataset whose ratings are driven
  by per-user genre affinities and whose item metadata (directors,
  writers, cast) is drawn from genre-specific pools. Content
  similarity therefore carries the same signal the ratings follow,
  which is what a hybrid predictor needs to shine on cold items.

Both are fully determined by their seed, as is random_world, a small
rating world of a given density. The smaller builders: dataset (a
RatingDataset from triples), item_index (an ItemVectorIndex from a
dict) and stub_provider (a SimilarityProvider with fixed cells).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from relfrec.ingest import CatalogEntry, FeatureCatalog, FeatureSentence, RatingDataset, build_sentences
from relfrec.simcore import ItemVectorIndex, SimilarityProvider


def two_clique_corpus(seed=11, n_sentences=200, clique_size=10, sentence_len=8):
    """Sentences sampled from one of two disjoint token cliques.

    Returns (sentences, clique_a_tokens, clique_b_tokens).
    """
    rng = np.random.default_rng(seed)
    cliques = [
        [f"a{t}" for t in range(clique_size)],
        [f"b{t}" for t in range(clique_size)],
    ]
    sentences = []
    for s in range(n_sentences):
        pool = cliques[s % 2]
        picks = rng.permutation(clique_size)[:sentence_len]
        sentences.append(FeatureSentence(item_id=s + 1, tokens=tuple(pool[p] for p in picks)))
    return sentences, cliques[0], cliques[1]


def mean_pairwise_cosine(table, tokens_a, tokens_b=None):
    """Mean cosine over token pairs; within tokens_a when tokens_b is None."""
    mat_a = np.stack([table.vector(t) for t in tokens_a])
    mat_a = mat_a / np.linalg.norm(mat_a, axis=1, keepdims=True)
    if tokens_b is None:
        sims = mat_a @ mat_a.T
        iu = np.triu_indices(len(tokens_a), k=1)
        return float(sims[iu].mean())
    mat_b = np.stack([table.vector(t) for t in tokens_b])
    mat_b = mat_b / np.linalg.norm(mat_b, axis=1, keepdims=True)
    return float((mat_a @ mat_b.T).mean())


def dataset(rows, r_min=1.0, r_max=5.0):
    """RatingDataset from (user, item, rating) triples, each at timestamp 0."""
    return RatingDataset(records=[(u, i, float(r), 0) for u, i, r in rows], r_min=r_min, r_max=r_max)


def random_world(seed, n_users=12, n_items=8, density=0.7):
    """Integer ratings 1-5; user u + 1 rates item i + 1 with probability density."""
    rng = np.random.default_rng(seed)
    rows = [
        (u + 1, i + 1, float(rng.integers(1, 6)))
        for u in range(n_users)
        for i in range(n_items)
        if rng.random() < density
    ]
    return dataset(rows)


def stub_provider(values, rating_pairs=()):
    """A provider whose cells are fixed per unordered pair; every other cell is undefined.

    ``values`` maps (i, j), i < j, to a similarity; the pairs in
    ``rating_pairs`` are rating cells, the others content cells. Rows
    follow the provider contract: one value per id of a sorted id array,
    NaN where undefined and at the target itself.
    """
    rating_pairs = set(rating_pairs)

    def row(item, items):
        pairs = [(min(item, j), max(item, j)) for j in items.tolist()]
        cells = np.array([values.get(pair, np.nan) for pair in pairs], dtype=np.float64)
        cells[items == item] = np.nan
        return cells, np.array([pair in rating_pairs for pair in pairs], dtype=bool)

    return SimilarityProvider(row, np.array(sorted({j for pair in values for j in pair})))


def item_index(vectors, dim, coverage=1):
    """The ItemVectorIndex of {item id: vector}, every item with the given token coverage."""
    ids = np.array(sorted(vectors), dtype=np.int64)
    matrix = np.array([vectors[i] for i in ids.tolist()], dtype=np.float64).reshape(len(ids), dim)
    return ItemVectorIndex(ids=ids, matrix=matrix, coverage=np.full(len(ids), coverage))


def genre_world(seed=7, n_users=500, n_items=300, n_genres=6, ratings_per_user=40):
    """Content-correlated rating world; returns (ratings, catalog, sentences).

    Item ids are 1..n_items, user ids 1..n_users. Each item belongs to
    one genre; its director, screenwriter, and 8-12 cast members come
    from that genre's pools, so items of a genre share feature tokens.
    A user's rating is their personal base plus their affinity for the
    item's genre plus noise, rounded to the 1..5 integer scale.
    """
    rng = np.random.default_rng(seed)
    item_genre = rng.integers(0, n_genres, size=n_items)
    entries = {}
    for i in range(n_items):
        g = int(item_genre[i])
        directors = [f"g{g}_dir{int(rng.integers(0, 8))}"]
        writers = [f"g{g}_wri{int(rng.integers(0, 8))}"]
        n_cast = int(rng.integers(8, 13))
        cast = [f"g{g}_act{c}" for c in rng.choice(30, size=n_cast, replace=False)]
        entries[i + 1] = CatalogEntry(directors=directors, screenwriters=writers, cast=cast)
    catalog = FeatureCatalog(entries=entries)
    user_base = rng.normal(3.4, 0.35, size=n_users)
    user_affinity = rng.normal(0.0, 1.0, size=(n_users, n_genres))
    records = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=ratings_per_user, replace=False):
            g = int(item_genre[i])
            raw = user_base[u] + 0.9 * user_affinity[u, g] + rng.normal(0.0, 0.45)
            rating = float(min(5.0, max(1.0, round(raw))))
            records.append((u + 1, int(i) + 1, rating, 0))
    ratings = RatingDataset(records=records)
    return ratings, catalog, build_sentences(catalog)


def write_genre_world_files(out_dir, seed=7, n_users=120, n_items=80, n_genres=4, ratings_per_user=25):
    """Write a (small) genre world as raw input files for CLI runs.

    Produces ratings.dat (user::item::rating::timestamp) and
    features.csv; returns their paths.
    """
    ratings, catalog, _sentences = genre_world(
        seed=seed, n_users=n_users, n_items=n_items,
        n_genres=n_genres, ratings_per_user=ratings_per_user,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ratings_path = out / "ratings.dat"
    with open(ratings_path, "w", encoding="utf-8") as fh:
        for ts, (user, item, rating, _) in enumerate(ratings.records):
            fh.write(f"{user}::{item}::{int(rating)}::{ts}\n")
    features_path = out / "features.csv"
    with open(features_path, "w", encoding="utf-8") as fh:
        fh.write("itemId,directors,screenwriters,cast\n")
        for item_id in sorted(catalog.entries):
            e = catalog.entries[item_id]
            fh.write(f"{item_id},{'|'.join(e.directors)},{'|'.join(e.screenwriters)},{'|'.join(e.cast)}\n")
    return ratings_path, features_path
