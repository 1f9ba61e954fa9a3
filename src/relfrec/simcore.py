"""Item-item similarity: rating cosine, content (RELFsim), and hybrid.

Three interchangeable similarity sources share one contract. The
per-pair functions rating_cosine, relf_sim and hybrid_sim are the
reference definitions: given a pair of item ids, each returns a
SimilarityValue or None (undefined).

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

A provider serves rows: one target item against each id of a sorted
id array, NaN where undefined. Rating cosine rows are computed from
three sparse products in blocks of contiguous rated items of at most
_BLOCK_CELLS cells; content rows from one product of the rows of an
ItemVectorIndex (one matrix over sorted item ids) with the target's
vector, the same loop for every row, so identical vectors give
identical cells; hybrid rows pick between the two per cell. Only the
latest block and row are kept, so no item-by-item matrix is ever
materialized. Prediction and top_similar_items both read rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from operator import attrgetter
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .errors import DataError, UnknownIdError, check_integers

log = logging.getLogger(__name__)

PREDICTORS = ("cf", "cb", "hybrid")

SOURCE_RATING = "rating"
SOURCE_CONTENT = "content"

# Cells in one block of rating cosine rows (8 MB of float64).
_BLOCK_CELLS = 1 << 20


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
        check_integers(self, tau_pair=1, tau_item=0)


def rating_cosine(i, j, ratings):
    """Cosine over co-rated user sub-vectors of items i and j.

    Raw ratings, no centering. Undefined (None) when no user rated
    both, or a sub-vector is all zeros. Unknown ids are a contract
    error.
    """
    col_i, col_j = sorted((_raters(i, ratings), _raters(j, ratings)), key=len)
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


def _raters(item, ratings):
    """{user row: rating} of one item, from its column of the ratings matrix."""
    arrays = ratings.arrays
    t = arrays.position.get(item)
    if t is None:
        raise UnknownIdError(f"item {item} not in rating dataset")
    rated = arrays.matrices[0]
    users = slice(rated.indptr[t], rated.indptr[t + 1])
    return dict(zip(rated.indices[users].tolist(), rated.data[users].tolist()))


def _locate(ids, items):
    """(place in the sorted id array ids, whether it is there) of an id or each id of an array."""
    if not len(ids):
        return np.zeros(np.shape(items), dtype=np.intp), np.zeros(np.shape(items), dtype=bool)
    at = np.minimum(ids.searchsorted(items), len(ids) - 1)
    return at, ids[at] == items


@dataclass(eq=False)
class ItemVectorIndex:
    """Mean feature vectors as one matrix over sorted int64 item ids.

    Row r is item ids[r]'s, from coverage[r] tokens; ``vectors`` is a read-only id -> row view."""

    ids: np.ndarray
    matrix: np.ndarray
    coverage: np.ndarray
    n_excluded: int = 0

    def find(self, item_id):
        """The row of item_id, or None if it has no vector."""
        at, found = _locate(self.ids, item_id)
        return int(at) if found else None

    @cached_property
    def vectors(self):
        return MappingProxyType(dict(zip(self.ids.tolist(), self.matrix)))

    def __contains__(self, item_id):
        return self.find(item_id) is not None

    def __len__(self):
        return len(self.ids)


def build_item_vectors(sentences, table):
    """Mean-pool each sentence's in-vocabulary token vectors.

    Coverage counts token occurrences found in the vocabulary; items
    with zero coverage are left out of the index entirely (reported in
    ``n_excluded``), never stored as zero vectors; of an item's sentences
    the last one with coverage counts. One sparse product with 0/1 token
    weights sums each sentence's vectors left to right. A sentence whose
    item id does not fit in 64 bits is a DataError naming the id.
    """
    try:
        item_ids = np.fromiter(map(attrgetter("item_id"), sentences), dtype=np.int64, count=len(sentences))
    except OverflowError:
        bad = next(s.item_id for s in sentences if not -2**63 <= s.item_id < 2**63)
        raise DataError(f"item id {bad} does not fit in 64 bits") from None
    tokens, counts = table.vocab.encode(sentences)
    covered = np.flatnonzero(counts)[::-1]
    ids, last = np.unique(item_ids[covered], return_index=True)
    rows = covered[last]
    weights = sparse.csr_matrix((np.ones(len(tokens)), tokens, np.append(0, counts.cumsum())),
                                shape=(len(counts), len(table.vocab)))
    matrix = (weights @ table.input_vectors)[rows] / counts[rows, None]
    excluded = len(counts) - len(covered)
    if excluded:
        log.info("item vector index: %d item(s) had no in-vocabulary tokens", excluded)
    return ItemVectorIndex(ids=ids, matrix=matrix, coverage=counts[rows], n_excluded=excluded)


def relf_sim(i, j, index):
    """Content similarity: cosine of the two item vectors.

    Undefined (None) when either item is absent from the index.
    """
    ti, tj = index.find(i), index.find(j)
    if ti is None or tj is None:
        return None
    vi, vj = index.matrix[ti], index.matrix[tj]
    ni = np.linalg.norm(vi)
    nj = np.linalg.norm(vj)
    if ni == 0.0 or nj == 0.0:
        return None
    value = float(vi @ vj / (ni * nj))
    support = int(min(index.coverage[ti], index.coverage[tj]))
    return SimilarityValue(value=value, support=support, source=SOURCE_CONTENT)


def hybrid_sim(i, j, ratings, index, policy):
    """Rating cosine when the pair is warm, content similarity otherwise.

    Warm means: both items have at least tau_item ratings AND the
    rating cosine is defined with support >= tau_pair. When the chosen
    route is undefined the other one is returned, so the result is None
    only if both are.
    """
    arrays = ratings.arrays
    t_i, t_j = arrays.position.get(i), arrays.position.get(j)
    rating_value = None
    if t_i is not None and t_j is not None:
        rating_value = rating_cosine(i, j, ratings)
    warm = (
        rating_value is not None
        and arrays.counts[t_i] >= policy.tau_item
        and arrays.counts[t_j] >= policy.tau_item
        and rating_value.support >= policy.tau_pair
    )
    if warm:
        return rating_value
    content_value = relf_sim(i, j, index)
    if content_value is not None:
        return content_value
    return rating_value


class _RatingBlocks:
    """Rating cosine rows over a dataset's items, computed in blocks.

    A block holds the rows of a run of contiguous rated items, at most
    _BLOCK_CELLS cells, from three sparse products over the ratings R,
    their pattern B and R*R (RatingArrays.matrices):

        dot = R_blk' R    sq_i = (R*R)_blk' B    sq_j = B_blk' (R*R)

    A cell is dot / (sqrt(sq_i) * sqrt(sq_j)), as in rating_cosine, and
    NaN where a squared norm is 0 (no co-rater, or all-zero ratings).
    Ratings on a dyadic grid (integers, halves) make every sum exact in
    float64, so cells equal rating_cosine bit for bit. With a policy the
    block also holds hybrid_sim's warm test, from the co-rater counts
    B_blk' B and the per-item rating counts. Only the latest block is
    kept. A row is gathered onto the requested ids, an id the ratings
    never saw left NaN and never warm.
    """

    def __init__(self, ratings, policy=None):
        self.ratings = ratings
        self.policy = policy
        self.start = self.stop = 0
        self.values = self.warm = None

    def row(self, item, items):
        """(cosines, warm mask or None) of item over items, or None if it is unrated."""
        arrays = self.ratings.arrays
        t = arrays.position.get(item)
        if t is None:
            return None
        if not self.start <= t < self.stop:
            self._compute(arrays, t)
        t -= self.start
        values, warm = self.values[t], None if self.warm is None else self.warm[t]
        if items is arrays.items:
            return values, warm
        at, seen = _locate(arrays.items, items)
        return np.where(seen, values[at], np.nan), None if warm is None else seen & warm[at]

    def _compute(self, arrays, t):
        n = len(arrays.items)
        size = max(1, _BLOCK_CELLS // n)
        start = t - t % size
        stop = min(start + size, n)
        blk = slice(start, stop)
        rated, pattern, squares = arrays.matrices
        dot = (rated[:, blk].T @ rated).toarray()
        sq_i = (squares[:, blk].T @ pattern).toarray()
        sq_j = (pattern[:, blk].T @ squares).toarray()
        with np.errstate(divide="ignore", invalid="ignore"):
            values = dot / (np.sqrt(sq_i) * np.sqrt(sq_j))
        values[(sq_i == 0.0) | (sq_j == 0.0)] = np.nan
        diagonal = np.arange(stop - start)
        values[diagonal, diagonal + start] = np.nan
        if self.policy is not None:
            support = (pattern[:, blk].T @ pattern).toarray()
            warm_item = arrays.counts >= self.policy.tau_item
            self.warm = (support >= self.policy.tau_pair) & warm_item & warm_item[blk, None] & ~np.isnan(values)
        self.start, self.stop, self.values = start, stop, values


class _ContentRows:
    """RELFsim rows: one matrix-vector product per target item.

    Gathers the vectors and norms of one id array's items from the index
    (zeros for an item without a vector); a cell is NaN where either
    vector is missing or zero. einsum runs the same loop for every row,
    where a BLAS product may sum trailing rows another way, so identical
    vectors give identical cells and rows are exactly symmetric.
    """

    def __init__(self, index):
        self.index = index
        self.index_norms = np.linalg.norm(index.matrix, axis=1)
        self.items = None

    def row(self, item, items):
        if items is not self.items:
            at, seen = _locate(self.index.ids, items)
            self.matrix = np.zeros((len(items), self.index.matrix.shape[1]))
            self.norms = np.zeros(len(items))
            self.matrix[seen], self.norms[seen] = self.index.matrix[at[seen]], self.index_norms[at[seen]]
            self.defined = self.norms > 0.0
            self.items = items
        out = np.full(len(items), np.nan)
        t = self.index.find(item)
        if t is None or self.index_norms[t] == 0.0:
            return out
        norms = self.norms * self.index_norms[t]
        np.divide(np.einsum("ij,j->i", self.matrix, self.index.matrix[t]), norms, out=out, where=self.defined)
        out[items == item] = np.nan
        return out


class SimilarityProvider:
    """One similarity source, served as rows.

    ``row(item, items)`` gives item's similarity to each id of a sorted
    id array: a float array, NaN where undefined and at item itself.
    ``items`` is the sorted array of ids it can compare. The latest row
    is kept, since evaluation asks for one item's row once per test user.
    Build providers with make_provider.
    """

    def __init__(self, row, items):
        self.items = items
        self._row = row
        self._latest = (None, None, None)

    def row(self, item, items):
        return self._computed(item, items)[0]

    def _computed(self, item, items):
        """(values, from_rating) of a row: from_rating marks rating cells, as a mask or one bool."""
        latest_item, latest_items, latest = self._latest
        if item != latest_item or items is not latest_items:
            latest = self._row(item, items)
            self._latest = (item, items, latest)
        return latest


def make_provider(kind, ratings=None, index=None, policy=None):
    """Build the provider behind a predictor name from PREDICTORS.

    cf needs ratings and compares the rated items, cb needs an item
    vector index and compares the indexed items, hybrid needs both and
    compares their union. Unlike the raw rating_cosine function, cf
    treats an item the ratings never saw as undefined against everything:
    that is a cold item in evaluation, left to the predictor's fallbacks.
    Every kind serves rows over any sorted id array.
    """
    if kind not in PREDICTORS:
        raise ValueError(f"unknown predictor {kind!r}; expected one of {PREDICTORS}")
    if kind != "cb" and ratings is None:
        raise ValueError(f"{kind} provider needs a rating dataset")
    if kind != "cf" and index is None:
        raise ValueError(f"{kind} provider needs an item vector index")
    if kind == "cf":
        blocks = _RatingBlocks(ratings)

        def cf_row(item, items):
            rating = blocks.row(item, items)
            return np.full(len(items), np.nan) if rating is None else rating[0], True

        return SimilarityProvider(cf_row, ratings.arrays.items)
    content = _ContentRows(index)
    if kind == "cb":
        return SimilarityProvider(lambda item, items: (content.row(item, items), False), index.ids)
    policy = policy or HybridPolicy()
    blocks = _RatingBlocks(ratings, policy)

    def hybrid_row(item, items):
        rating = blocks.row(item, items)
        row = content.row(item, items)
        if rating is None:
            return row, False
        values, warm = rating
        from_rating = warm | np.isnan(row)
        return np.where(from_rating, values, row), from_rating

    return SimilarityProvider(hybrid_row, np.union1d(ratings.arrays.items, index.ids))


def top_similar_items(provider, item_id, n):
    """Top-n (neighbor, value, source) for one item over the provider's items.

    Ranks item_id's row over provider.items by descending value, ties
    by ascending id; undefined cells are left out.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ids = provider.items
    values, from_rating = provider._computed(item_id, ids)
    from_rating = np.broadcast_to(from_rating, values.shape)
    defined = np.flatnonzero(~np.isnan(values))
    top = defined[(-values[defined]).argsort(kind="stable")[:n]]
    return [(int(ids[p]), float(values[p]), SOURCE_RATING if from_rating[p] else SOURCE_CONTENT) for p in top]
