"""Shared fixtures: the expensive synthetic models are trained once.

The session-scoped fixtures record how long their build took so the
acceptance tests can assert end-to-end runtime budgets without
retraining anything.
"""

import time

import pytest

from relfrec.embed import TrainConfig, train_skipgram
from relfrec.simcore import build_item_vectors

import synthdata


@pytest.fixture(scope="session")
def clique_model():
    """Two-clique corpus plus a table trained at the reference scale."""
    sentences, clique_a, clique_b = synthdata.two_clique_corpus(seed=11)
    config = TrainConfig(window=8, dim=32, negatives=25, epochs=20, seed=5)
    start = time.perf_counter()
    table = train_skipgram(sentences, config)
    train_seconds = time.perf_counter() - start
    return {
        "sentences": sentences,
        "clique_a": clique_a,
        "clique_b": clique_b,
        "table": table,
        "train_seconds": train_seconds,
    }


@pytest.fixture(scope="session")
def genre_data():
    """Desk-scale content-correlated rating world (500 users x 300 items)."""
    start = time.perf_counter()
    ratings, catalog, sentences = synthdata.genre_world(seed=7)
    return {
        "ratings": ratings,
        "catalog": catalog,
        "sentences": sentences,
        "build_seconds": time.perf_counter() - start,
    }


@pytest.fixture(scope="session")
def genre_model(genre_data):
    """Embeddings + item vector index for the genre world."""
    config = TrainConfig(window=5, dim=32, negatives=10, epochs=12, seed=3)
    start = time.perf_counter()
    table = train_skipgram(genre_data["sentences"], config)
    train_seconds = time.perf_counter() - start
    index = build_item_vectors(genre_data["sentences"], table)
    return {"table": table, "index": index, "train_seconds": train_seconds}
