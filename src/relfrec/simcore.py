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

A provider serves rows: one target item against each id of a sorted id
array, NaN where undefined. A rating cosine row is computed for its
target alone, from the target's co-rating pairs, each cell's sums over
co-raters taken with numpy's bincount, in the order rating_cosine adds
them; content rows from one product of the rows of an ItemVectorIndex
(one matrix over sorted item ids) with the target's vector, the same
loop for every row, so identical vectors give identical cells; hybrid
rows pick between the two per cell. A RowSource computes a target's
rating and content rows once each and reads every asked predictor's
row from them by that one choice, one source per fold in evaluation
and per row in a provider. No row is kept, so no item-by-item matrix
is ever materialized. Prediction and top_similar_items both read rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .errors import DataError, UnknownIdError, check_integers

log = logging.getLogger(__name__)

PREDICTORS = ("cf", "cb", "hybrid")

SOURCE_RATING = "rating"
SOURCE_CONTENT = "content"

_NORM_BLOCK_ROWS = 512  # rows of an ItemVectorIndex squared at once for its norms


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
    """{user row: rating} of one item, in ascending user row."""
    arrays = ratings.arrays
    t = arrays.position.get(item)
    if t is None:
        raise UnknownIdError(f"item {item} not in rating dataset")
    item_ptr, positions, users = arrays.by_item
    run = slice(item_ptr[t], item_ptr[t + 1])
    return dict(zip(users[run].tolist(), arrays.values[positions[run]].tolist()))


def _locate(ids, items):
    """(place in the sorted id array ids, whether it is there) of an id or each id of an array."""
    if not len(ids):
        return np.zeros(np.shape(items), dtype=np.intp), np.zeros(np.shape(items), dtype=bool)
    at = np.minimum(ids.searchsorted(items), len(ids) - 1)
    return at, ids[at] == items


@dataclass(eq=False)
class ItemVectorIndex:
    """Mean feature vectors as one matrix over sorted int64 item ids.

    Row r is item ids[r]'s, from coverage[r] tokens; ``vectors`` is a read-only id -> row view.
    ``norms`` are the rows' Euclidean norms, computed once on first use and shared by every
    provider over the index, so the index is read-only once built."""

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

    @cached_property
    def norms(self):
        """np.linalg.norm(matrix, axis=1) bit for bit, squared _NORM_BLOCK_ROWS rows at a time.

        Each row is its own add.reduce, as in np.linalg.norm, so blocks keep the bits
        without a temporary the size of the whole matrix."""
        norms = np.empty(len(self.matrix))
        for start in range(0, len(self.matrix), _NORM_BLOCK_ROWS):
            block = self.matrix[start:start + _NORM_BLOCK_ROWS]
            np.sqrt(np.add.reduce(block * block, axis=1), out=norms[start:start + _NORM_BLOCK_ROWS])
        return norms

    def __contains__(self, item_id):
        return self.find(item_id) is not None

    def __len__(self):
        return len(self.ids)


def build_item_vectors(sentences, table):
    """Mean-pool each sentence's in-vocabulary token vectors.

    Coverage counts token occurrences found in the vocabulary; items
    with zero coverage are left out of the index entirely (reported in
    ``n_excluded``), never stored as zero vectors; of an item's sentences
    the last one with coverage counts. Each sentence's vectors are summed
    left to right from zero: with the sentences longest first, step p
    adds the p-th token's vector to every sentence that long. A sentence whose
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
    by_length = (-counts[rows]).argsort(kind="stable")
    lengths = counts[rows][by_length]
    starts = np.append(0, counts.cumsum())[rows][by_length]
    sums = np.zeros((len(rows), table.input_vectors.shape[1]))
    taken = np.empty_like(sums)  # one buffer for every step's take; mode "clip" fills it unbuffered
    for p in range(lengths.max(initial=0)):
        m = len(lengths) - lengths[::-1].searchsorted(p, side="right")
        sums[:m] += table.input_vectors.take(tokens[starts[:m] + p], axis=0, out=taken[:m], mode="clip")
    sums /= lengths[:, None]
    matrix = taken  # the buffer, free now, puts the means back in item order
    matrix[by_length] = sums
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


def _pair_sums(arrays, t, counts=False):
    """Sums over co-raters of item row t against every item.

    Returns dot, sq_i and sq_j, plus the co-rater counts if counts, each
    one value per item. Every rating of item t is paired with each
    entry of its user's run, and bincount adds the pairs of a cell in
    input order, ascending user row.
    """
    n = len(arrays.items)
    item_ptr, positions, users = arrays.by_item
    run = slice(item_ptr[t], item_ptr[t + 1])
    mine, users = positions[run], users[run]
    first = arrays.indptr[users]
    lengths = arrays.indptr[users + 1] - first
    ends = lengths.cumsum()
    theirs = np.arange(ends[-1]) + (first - ends + lengths).repeat(lengths)
    keys = arrays.cols[theirs]
    v_i, r_j = arrays.values[mine].repeat(lengths), arrays.values[theirs]
    dot = np.bincount(keys, v_i * r_j, n)
    sq_i = np.bincount(keys, v_i * v_i, n)
    sq_j = np.bincount(keys, r_j * r_j, n)
    return (dot, sq_i, sq_j, np.bincount(keys, minlength=n)) if counts else (dot, sq_i, sq_j)


def _rating_row(ratings, item, items, policy=None):
    """(rating cosines, warm mask or None) of item over items, or None if it is unrated.

    The sums over co-raters of the target's pairs,

        dot = sum r_i r_j    sq_i = sum r_i^2    sq_j = sum r_j^2

    come from _pair_sums. A cell is dot / (sqrt(sq_i) * sqrt(sq_j)), as
    in rating_cosine, and NaN where a squared norm is 0 (no co-rater, or
    all-zero ratings) and at the target. _pair_sums and rating_cosine
    both add each cell's co-raters in ascending user row, so cells equal
    rating_cosine bit for bit for any ratings. With a policy the row also holds hybrid_sim's warm
    test, from the co-rater counts and the per-item rating counts. The
    row is gathered onto the requested ids, an id the ratings never saw
    left NaN and never warm.
    """
    arrays = ratings.arrays
    t = arrays.position.get(item)
    if t is None:
        return None
    dot, sq_i, sq_j, *support = _pair_sums(arrays, t, policy is not None)
    values = np.full(len(dot), np.nan)
    np.divide(dot, np.sqrt(sq_i) * np.sqrt(sq_j), out=values, where=(sq_i != 0.0) & (sq_j != 0.0))
    values[t] = np.nan
    warm = None
    if policy is not None:
        warm_item = arrays.counts >= policy.tau_item
        warm = (support[0] >= policy.tau_pair) & warm_item & warm_item[t] & ~np.isnan(values)
    if items is arrays.items:
        return values, warm
    at, seen = _locate(arrays.items, items)
    return np.where(seen, values[at], np.nan), None if warm is None else seen & warm[at]


class _ContentRows:
    """RELFsim rows of one target against each id of one sorted id array.

    The ids' index rows and norms are located once. A whole row is one einsum over index.matrix
    in place, read at those rows; a row narrowed to a mask of the ids multiplies only the read
    rows' vectors, and is NaN elsewhere. A cell is NaN where either vector is missing or zero.
    einsum runs the same loop for every row, where a BLAS product may sum trailing rows another
    way, so identical vectors give identical cells, rows are exactly symmetric, and a cell has
    the same bits in a whole and a narrowed row.
    """

    def __init__(self, index, items):
        self.index, self.norms, self.items = index, index.norms, items
        self.at, seen = _locate(index.ids, items)
        self.item_norms = np.zeros(len(items))  # an id without a vector has norm 0
        self.item_norms[seen] = self.norms[self.at[seen]]
        self.defined = self.item_norms > 0.0

    def row(self, item, reads=None):
        out = np.full(len(self.items), np.nan)
        t = self.index.find(item)
        if t is None or self.norms[t] == 0.0:
            return out
        vector = self.index.matrix[t]
        if reads is None:
            dots = np.einsum("ij,j->i", self.index.matrix, vector)[self.at]
            np.divide(dots, self.item_norms * self.norms[t], out=out, where=self.defined)
        else:
            p = np.flatnonzero(reads & self.defined)
            out[p] = np.einsum("ij,j->i", self.index.matrix[self.at[p]], vector) / (self.item_norms[p] * self.norms[t])
        out[self.items == item] = np.nan
        return out


class RowSource:
    """Each asked predictor's row of one target over one sorted id array.

    A target's rating row is computed once if cf or hybrid is asked for, with the warm mask only
    if hybrid is, and its content row once if cb or hybrid is. Every predictor reads them by
    hybrid_sim's choice per cell, where(warm | isnan(content), rating, content): cf has no content
    row, so it takes its rating row whole, and cb has no rating row, so it takes its content row
    whole, as hybrid does for an unrated target, whose rating row is undefined and never warm."""

    def __init__(self, kinds, items, ratings=None, index=None, policy=None):
        for kind in kinds:
            _check_inputs(kind, ratings, index)
        self.kinds, self.items, self.ratings = kinds, items, ratings
        self.policy = (policy or HybridPolicy()) if "hybrid" in kinds else None
        self.rated = "cf" in kinds or "hybrid" in kinds
        self.content = _ContentRows(index, items) if "cb" in kinds or "hybrid" in kinds else None

    def cells(self, item, reads=None):
        """[(values, from_rating) per predictor asked] of item; a mask reads narrows the content row alone."""
        rating, warm = (self.rated and _rating_row(self.ratings, item, self.items, self.policy)) or (None, False)
        content = None if self.content is None else self.content.row(item, reads)
        cells = []
        for kind in self.kinds:
            if kind == "cf":  # the rule without a content row: every cell is the rating row's
                cells.append((np.full(len(self.items), np.nan) if rating is None else rating, True))
            elif kind == "cb" or rating is None:  # without a rating row: every cell is the content row's
                cells.append((content, False))
            else:
                from_rating = warm | np.isnan(content)
                cells.append((np.where(from_rating, rating, content), from_rating))
        return cells


class SimilarityProvider:
    """One similarity source, served as rows.

    ``row(item, items)`` gives item's similarity to each id of a sorted
    id array: a float array, NaN where undefined and at item itself.
    ``items`` is the sorted array of ids it can compare. The provider keeps
    no row: each ask computes its row, so a caller that reads one row for
    many records asks once and keeps the array, as evaluation.sweep_k and
    ``relfrec predict`` do. Build providers with make_provider.
    """

    def __init__(self, row, items):
        self.items = items
        self._row = row  # (item, items) -> (values, from_rating)

    def row(self, item, items):
        return self._row(item, items)[0]


def _check_inputs(kind, ratings, index):
    if kind not in PREDICTORS:
        raise ValueError(f"unknown predictor {kind!r}; expected one of {PREDICTORS}")
    if kind != "cb" and ratings is None:
        raise ValueError(f"{kind} provider needs a rating dataset")
    if kind != "cf" and index is None:
        raise ValueError(f"{kind} provider needs an item vector index")


def make_provider(kind, ratings=None, index=None, policy=None):
    """Build the provider behind a predictor name from PREDICTORS.

    cf needs ratings and compares the rated items, cb needs an item
    vector index and compares the indexed items, hybrid needs both and
    compares their union. Unlike the raw rating_cosine function, cf
    treats an item the ratings never saw as undefined against everything:
    that is a cold item in evaluation, left to the predictor's fallbacks.
    Every kind serves rows over any sorted id array, from a RowSource each.
    """
    _check_inputs(kind, ratings, index)
    items = index.ids if kind == "cb" else ratings.arrays.items
    if kind == "hybrid":
        items = np.sort(np.append(items, index.ids[~_locate(items, index.ids)[1]]))
    return SimilarityProvider(lambda item, ids: RowSource((kind,), ids, ratings, index, policy).cells(item)[0], items)


def top_similar_items(provider, item_id, n):
    """Top-n (neighbor, value, source) for one item over the provider's items.

    Ranks item_id's row over provider.items by descending value, ties
    by ascending id; undefined cells are left out.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ids = provider.items
    values, from_rating = provider._row(item_id, ids)
    from_rating = np.broadcast_to(from_rating, values.shape)
    defined = np.flatnonzero(~np.isnan(values))
    top = defined[(-values[defined]).argsort(kind="stable")[:n]]
    return [(int(ids[p]), float(values[p]), SOURCE_RATING if from_rating[p] else SOURCE_CONTENT) for p in top]
