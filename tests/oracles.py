"""The per-record references the tests compare the library with, each defined once.

Each is written from its definition, a record, pair or term at a time,
and calls no library code: knn_prediction takes its similarity as a
function, pair_gradient_error the update it checks. The one exception,
reference_similarity, binds the library's own per-pair reference
functions (rating_cosine, relf_sim, hybrid_sim) to a predictor name.
"""

from __future__ import annotations

import numpy as np

from relfrec.predict import DETAIL_FULL, DETAIL_GLOBAL_MEAN, DETAIL_ITEM_MEAN
from relfrec.simcore import hybrid_sim, rating_cosine, relf_sim


def knn_prediction(user, item, records, sim, k, r_min=1.0, r_max=5.0):
    """(value, detail, neighbors_used) of relfrec.predict's item k-NN prediction.

    ``records`` are ``(user, item, rating[, timestamp])`` tuples; of a
    repeated (user, item) pair the latest counts, the later on a tie, and
    a missing timestamp is 0. ``sim(i, j)`` is a float or None.
    Candidates are the user's other items with sim above 0, ranked by
    (-sim, id); the top k give mean(item) + sum(s * (r - mean(j))) / sum(s),
    anchored on the global mean for an unrated item. An unknown user gets
    the global mean, no candidate the item or global mean; all clamped.
    """
    ratings, stamps = {}, {}
    for u, i, r, *rest in records:
        t = rest[0] if rest else 0
        if stamps.get((u, i), t) <= t:
            ratings[u, i], stamps[u, i] = r, t
    sums, counts = {}, {}
    for (_u, i), r in ratings.items():
        sums[i] = sums.get(i, 0.0) + r
        counts[i] = counts.get(i, 0) + 1
    means = {i: sums[i] / counts[i] for i in sums}
    global_mean = sum(ratings.values()) / len(ratings)
    row = {i: r for (u, i), r in ratings.items() if u == user}

    def clamp(value):
        return min(max(value, r_min), r_max)

    if not row:
        return clamp(global_mean), DETAIL_GLOBAL_MEAN, 0
    scored = []
    for j in sorted(row):
        s = sim(item, j) if j != item else None
        if s is not None and s > 0.0:
            scored.append((s, j))
    if not scored:
        if item in means:
            return clamp(means[item]), DETAIL_ITEM_MEAN, 0
        return clamp(global_mean), DETAIL_GLOBAL_MEAN, 0
    top = sorted(scored, key=lambda t: (-t[0], t[1]))[:k]
    num = sum(s * (row[j] - means[j]) for s, j in top)
    den = sum(s for s, _j in top)
    return clamp(means.get(item, global_mean) + num / den), DETAIL_FULL, len(top)


def reference_similarity(predictor, ratings, index, policy):
    """The per-pair reference of a predictor: a function of two item ids giving a SimilarityValue or None.

    cf is rating_cosine where both ids are rated and undefined otherwise,
    as its provider treats a cold item; cb is relf_sim; hybrid is hybrid_sim.
    """
    if predictor == "cf":
        rated = ratings.arrays.position
        return lambda i, j: rating_cosine(i, j, ratings) if i in rated and j in rated else None
    if predictor == "cb":
        return lambda i, j: relf_sim(i, j, index)
    return lambda i, j: hybrid_sim(i, j, ratings, index, policy)


def corater_cosine(matrix, i, j):
    """(cosine, co-raters) of columns i and j of a rating matrix holding np.nan for a
    missing rating; None without a co-rater or when either side of them is all zeros."""
    mask = ~np.isnan(matrix[:, i]) & ~np.isnan(matrix[:, j])
    if not mask.any():
        return None
    a = matrix[mask, i]
    b = matrix[mask, j]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return None
    return float(a @ b) / (na * nb), int(mask.sum())


def sgns_pair_loss(center, context, negatives):
    """The negative-sampling loss of one (center, context) pair and its negatives."""
    loss = np.logaddexp(0.0, -(context @ center))
    for nv in negatives:
        loss += np.logaddexp(0.0, nv @ center)
    return float(loss)


def pair_gradient_error(update, rng):
    """Largest relative gap between the step of ``update(center, context, negatives, lr)``,
    made in place, and sgns_pair_loss's central differences, over 100 random instances."""
    h, lr = 1e-6, 0.37
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 8))
        n_neg = int(rng.integers(1, 5))
        vecs = [rng.uniform(-1, 1, dim) for _ in range(n_neg + 2)]
        before = [v.copy() for v in vecs]
        update(vecs[0], vecs[1], vecs[2:], lr)
        analytic = [(b - v) / lr for b, v in zip(before, vecs)]
        for idx in range(len(before)):
            for coord in range(dim):
                probe = [b.copy() for b in before]
                probe[idx][coord] += h
                up = sgns_pair_loss(probe[0], probe[1], probe[2:])
                probe[idx][coord] -= 2 * h
                down = sgns_pair_loss(probe[0], probe[1], probe[2:])
                estimate = (up - down) / (2 * h)
                denom = max(abs(estimate), abs(analytic[idx][coord]), 1e-8)
                worst = max(worst, abs(estimate - analytic[idx][coord]) / denom)
    return worst
