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
(RELFsim) and hybrid. PREDICTORS lists them and make_provider is the
one place that builds a provider from such a name.

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
        and col_i is not None
        and col_j is not None
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


class _MemoizedProvider:
    """Contract: sim(i, j) -> SimilarityValue or None, symmetric.

    Caches values per unordered pair; symmetry is exact by keying.
    """

    def __init__(self):
        self._cached = lru_cache(maxsize=_CACHE_SIZE)(self._compute)

    def sim(self, i, j):
        return self._cached(i, j) if i <= j else self._cached(j, i)

    def _compute(self, a, b):
        raise NotImplementedError

    def cache_info(self):
        return self._cached.cache_info()


class RatingCosineProvider(_MemoizedProvider):
    """Pure collaborative similarity over a rating dataset.

    Unlike the raw rating_cosine function, the provider treats an item
    the dataset has never seen as having undefined similarity to
    everything - that is exactly a cold item during evaluation, and
    the predictor's fallback chain handles it.
    """

    def __init__(self, ratings):
        super().__init__()
        self.ratings = ratings

    def _compute(self, a, b):
        if a not in self.ratings.per_item or b not in self.ratings.per_item:
            return None
        return rating_cosine(a, b, self.ratings)


class RelfSimProvider(_MemoizedProvider):
    """Pure content similarity over an item vector index."""

    def __init__(self, index):
        super().__init__()
        self.index = index

    def _compute(self, a, b):
        return relf_sim(a, b, self.index)


class HybridProvider(_MemoizedProvider):
    """Rating similarity with content fallback per HybridPolicy."""

    def __init__(self, ratings, index, policy=None):
        super().__init__()
        self.ratings = ratings
        self.index = index
        self.policy = policy or HybridPolicy()

    def _compute(self, a, b):
        return hybrid_sim(a, b, self.ratings, self.index, self.policy)


def make_provider(kind, ratings=None, index=None, policy=None):
    """Build the provider behind a predictor name from PREDICTORS."""
    if kind == "cf":
        if ratings is None:
            raise ValueError("cf provider needs a rating dataset")
        return RatingCosineProvider(ratings)
    if kind == "cb":
        if index is None:
            raise ValueError("cb provider needs an item vector index")
        return RelfSimProvider(index)
    if kind == "hybrid":
        if ratings is None or index is None:
            raise ValueError("hybrid provider needs ratings and an item vector index")
        return HybridProvider(ratings, index, policy)
    raise ValueError(f"unknown predictor {kind!r}; expected one of {PREDICTORS}")


def top_similar_items(provider, item_id, candidates, n):
    """Top-n (neighbor, SimilarityValue) for one item over candidates."""
    scored = []
    for j in candidates:
        if j == item_id:
            continue
        sv = provider.sim(item_id, j)
        if sv is not None:
            scored.append((j, sv))
    scored.sort(key=lambda t: (-t[1].value, t[0]))
    return scored[:n]

