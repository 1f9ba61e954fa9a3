"""Item-item similarity: rating cosine, content (RELFsim), and hybrid.

Three interchangeable similarity sources share one contract: given a
pair of item ids, return a SimilarityValue or None (undefined).

* rating cosine - cosine over the two items' rating columns restricted
  to users who rated both, on raw ratings.
* RELFsim - cosine between the items' vectors, where an item vector is
  the mean of its feature tokens' embedding vectors. Defined for any
  item with at least one in-vocabulary token, ratings or not.
* hybrid - rating cosine while both items have enough ratings and the
  pair has enough co-raters; RELFsim otherwise.

The predictors are named after their source: cf (rating cosine), cb
(RELFsim) and hybrid. PREDICTORS lists them, and make_provider builds
the one provider type, SimilarityProvider, from such a name.

Values are computed on demand and memoized per unordered pair in a
bounded cache, so no full item-by-item matrix is ever materialized.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import UnknownIdError

log = logging.getLogger(__name__)

PREDICTORS = ("cf", "cb", "hybrid")

SOURCE_RATING = "rating"
SOURCE_CONTENT = "content"

_CACHE_SIZE = 1_000_000


@dataclass(frozen=True)
class SimilarityValue:
    """A similarity in [-1, 1] plus how much evidence backs it.

    ``support`` is the co-rater count for rating cosine and the smaller
    token coverage of the pair for content similarity.
    """

    value: float
    support: int
    source: str


@dataclass(frozen=True)
class HybridPolicy:
    """When is a pair "warm" enough to trust rating similarity.

    tau_pair: minimum co-raters behind the rating cosine.
    tau_item: minimum ratings each item needs to count as warm.
    """

    tau_pair: int = 2
    tau_item: int = 5

    def __post_init__(self):
        if self.tau_pair < 1:
            raise ValueError(f"tau_pair must be >= 1, got {self.tau_pair}")
        if self.tau_item < 0:
            raise ValueError(f"tau_item must be >= 0, got {self.tau_item}")


def rating_cosine(i, j, ratings):
    """Cosine over co-rated user sub-vectors of items i and j.

    Raw ratings, no centering. Undefined (None) when no user rated
    both, or a sub-vector is all zeros. Unknown ids are a contract
    error.
    """
    try:
        col_i = ratings.per_item[i]
    except KeyError:
        raise UnknownIdError(f"item {i} not in rating dataset") from None
    try:
        col_j = ratings.per_item[j]
    except KeyError:
        raise UnknownIdError(f"item {j} not in rating dataset") from None
    if len(col_j) < len(col_i):
        col_i, col_j = col_j, col_i
    dot = 0.0
    sq_i = 0.0
    sq_j = 0.0
    support = 0
    for user, ri in col_i.items():
        rj = col_j.get(user)
        if rj is None:
            continue
        dot += ri * rj
        sq_i += ri * ri
        sq_j += rj * rj
        support += 1
    if support == 0 or sq_i == 0.0 or sq_j == 0.0:
        return None
    return SimilarityValue(value=dot / (sqrt(sq_i) * sqrt(sq_j)), support=support, source=SOURCE_RATING)


@dataclass
class ItemVectorIndex:
    """Item id -> mean feature vector, with per-item token coverage."""

    vectors: dict
    coverage: dict
    dim: int
    n_excluded: int = 0

    def __contains__(self, item_id):
        return item_id in self.vectors

    def __len__(self):
        return len(self.vectors)


def build_item_vectors(sentences, table):
    """Mean-pool each sentence's in-vocabulary token vectors.

    Coverage counts token occurrences found in the vocabulary; items
    with zero coverage are left out of the index entirely (reported in
    ``n_excluded``), never stored as zero vectors.
    """
    vectors = {}
    coverage = {}
    excluded = 0
    vocab_index = table.vocab.index
    mat = table.input_vectors
    for sent in sentences:
        ids = [vocab_index[t] for t in sent.tokens if t in vocab_index]
        if not ids:
            excluded += 1
            continue
        vectors[sent.item_id] = mat[ids].mean(axis=0)
        coverage[sent.item_id] = len(ids)
    if excluded:
        log.info("item vector index: %d item(s) had no in-vocabulary tokens", excluded)
    return ItemVectorIndex(vectors=vectors, coverage=coverage, dim=table.dim, n_excluded=excluded)


def relf_sim(i, j, index):
    """Content similarity: cosine of the two item vectors.

    Undefined (None) when either item is absent from the index.
    """
    vi = index.vectors.get(i)
    vj = index.vectors.get(j)
    if vi is None or vj is None:
        return None
    ni = np.linalg.norm(vi)
    nj = np.linalg.norm(vj)
    if ni == 0.0 or nj == 0.0:
        return None
    value = float(vi @ vj / (ni * nj))
    support = min(index.coverage[i], index.coverage[j])
    return SimilarityValue(value=value, support=support, source=SOURCE_CONTENT)


def hybrid_sim(i, j, ratings, index, policy):
    """Rating cosine when the pair is warm, content similarity otherwise.

    Warm means: both items have at least tau_item ratings AND the
    rating cosine is defined with support >= tau_pair. When the chosen
    route is undefined the other one is returned, so the result is None
    only if both are.
    """
    col_i = ratings.per_item.get(i)
    col_j = ratings.per_item.get(j)
    rating_value = None
    if col_i is not None and col_j is not None:
        rating_value = rating_cosine(i, j, ratings)
    warm = (
        rating_value is not None
        and len(col_i) >= policy.tau_item
        and len(col_j) >= policy.tau_item
        and rating_value.support >= policy.tau_pair
    )
    if warm:
        return rating_value
    content_value = relf_sim(i, j, index)
    if content_value is not None:
        return content_value
    return rating_value


class SimilarityProvider:
    """One similarity source: sim(i, j) -> SimilarityValue or None.

    ``pair(a, b)`` computes the value for a <= b; sim memoizes it per
    unordered pair in a bounded cache, so symmetry is exact by keying.
    ``items`` holds the ids the source can compare. Build providers
    with make_provider.
    """

    def __init__(self, pair, items):
        self.items = items
        self._cached = lru_cache(maxsize=_CACHE_SIZE)(pair)

    def sim(self, i, j):
        return self._cached(i, j) if i <= j else self._cached(j, i)

    def cache_info(self):
        return self._cached.cache_info()


def make_provider(kind, ratings=None, index=None, policy=None):
    """Build the provider behind a predictor name from PREDICTORS.

    cf needs ratings and compares the rated items, cb needs an item
    vector index and compares the indexed items, hybrid needs both and
    compares their union. Unlike the raw rating_cosine function, cf
    treats an item the ratings never saw as undefined against everything:
    that is a cold item in evaluation, left to the predictor's fallbacks.
    """
    if kind not in PREDICTORS:
        raise ValueError(f"unknown predictor {kind!r}; expected one of {PREDICTORS}")
    if kind != "cb" and ratings is None:
        raise ValueError(f"{kind} provider needs a rating dataset")
    if kind != "cf" and index is None:
        raise ValueError(f"{kind} provider needs an item vector index")
    # The pair functions are looked up by name at call time, so a
    # wrapper patched onto the module sees every computed pair.
    if kind == "cf":
        rated = ratings.per_item
        return SimilarityProvider(
            lambda a, b: rating_cosine(a, b, ratings) if a in rated and b in rated else None,
            frozenset(rated),
        )
    if kind == "cb":
        return SimilarityProvider(lambda a, b: relf_sim(a, b, index), frozenset(index.vectors))
    policy = policy or HybridPolicy()
    return SimilarityProvider(
        lambda a, b: hybrid_sim(a, b, ratings, index, policy),
        frozenset(ratings.per_item).union(index.vectors),
    )


def top_similar_items(provider, item_id, candidates, n):
    """Top-n (neighbor, SimilarityValue) for one item over candidates."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scored = []
    for j in candidates:
        if j == item_id:
            continue
        sv = provider.sim(item_id, j)
        if sv is not None:
            scored.append((j, sv))
    scored.sort(key=lambda t: (-t[1].value, t[0]))
    return scored[:n]

