"""Output checks of the benchmark, each counted as one operation.

* Ledger counts operations attempted (stage calls and output checks)
  and keeps a message for each one that failed.
* check_sample re-runs ``evaluate`` on a seeded sample of a plan's test
  records and compares every prediction, within ORACLE_TOL, with a
  recomputation from the per-pair reference functions
  (``rating_cosine``, ``relf_sim``, ``hybrid_sim``) and the documented
  item k-NN formula of ``relfrec.predict``.
* results_digest is the SHA-256 of the results CSV a run would write.
"""

from __future__ import annotations

import hashlib
import io
import math

import numpy as np

from relfrec import evaluation, predict, simcore

ORACLE_TOL = 1e-12
SAMPLE_SIZE = 30


class StageFailed(Exception):
    """A library stage raised; the workload cannot go on."""


class Ledger:
    """Operations attempted and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def call(self, name, fn, *args, **kwargs):
        """Run one library stage; an exception is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"stage {name} raised {type(exc).__name__}: {exc}")
            raise StageFailed(name) from exc

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name} failed{': ' + detail if detail else ''}")
        return ok


def single_split(plan):
    """(train indices, test indices) of a holdout or cold-start plan."""
    ((_fold, train_idx, test_idx),) = plan.folds()
    return train_idx, test_idx


def results_digest(cells, plan):
    """SHA-256 of the results CSV for (predictor, k, report) cells."""
    rows = []
    for predictor, k, report in cells:
        rows.extend(evaluation.results_rows(predictor, plan, k, report))
    buf = io.StringIO()
    evaluation.write_results_csv(rows, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def check_cells(ledger, cells, plan):
    """Every report predicts exactly the plan's test side."""
    n_test = len(single_split(plan)[1])
    for predictor, k, report in cells:
        ledger.check(f"n_predictions[{predictor},k={k}]", report.n_predictions == n_test,
                     f"{report.n_predictions} predictions for {n_test} test records")


class TrainSide:
    """User rows and means of a training side, rebuilt from its records."""

    def __init__(self, records, r_min, r_max):
        self.rows = {}
        sums = {}
        counts = {}
        total = 0.0
        for user, item, rating, _ts in records:
            self.rows.setdefault(user, {})[item] = rating
            sums[item] = sums.get(item, 0.0) + rating
            counts[item] = counts.get(item, 0) + 1
            total += rating
        self.item_means = {i: sums[i] / counts[i] for i in sums}
        self.global_mean = total / len(records)
        self.r_min = r_min
        self.r_max = r_max

    def clamp(self, value):
        return min(max(value, self.r_min), self.r_max)


def oracle_prediction(user, item, side, sim, k):
    """The item k-NN formula of relfrec.predict, computed pair by pair.

    Returns (value, is_fallback). ``sim(i, j)`` is the per-pair
    reference similarity or None when undefined.
    """
    row = side.rows.get(user)
    if not row:
        return side.clamp(side.global_mean), True
    scored = []
    for j in row:
        if j == item:
            continue
        sv = sim(item, j)
        if sv is not None and sv.value > 0.0:
            scored.append((sv.value, j))
    if not scored:
        mean = side.item_means.get(item, side.global_mean)
        return side.clamp(mean), True
    scored.sort(key=lambda t: (-t[0], t[1]))
    anchor = side.item_means.get(item, side.global_mean)
    num = sum(value * (row[j] - side.item_means[j]) for value, j in scored[:k])
    den = sum(value for value, _j in scored[:k])
    return side.clamp(anchor + num / den), False


def reference_similarity(predictor, side, train, index, policy):
    """The per-pair reference function behind each predictor.

    cf treats an item without training ratings as having no defined
    similarity, as the README documents for cold items.
    """
    if predictor == "cf":
        rated = side.item_means
        return lambda i, j: simcore.rating_cosine(i, j, train) if i in rated and j in rated else None
    if predictor == "cb":
        return lambda i, j: simcore.relf_sim(i, j, index)
    return lambda i, j: simcore.hybrid_sim(i, j, train, index, policy)


def sample_indices(plan, seed):
    """The seeded sample of test record indices check_sample compares."""
    test_idx = single_split(plan)[1]
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(test_idx, size=min(SAMPLE_SIZE, len(test_idx)), replace=False))


def check_sample(ledger, cells, plan, ratings, index, policy, seed):
    """Compare sampled predictions of every cell with the oracle.

    The sample keeps the plan's whole train side and a seeded subset of
    its test side. ``predict_rating`` is observed while ``evaluate``
    runs, so each prediction is compared on its own; the sample's RMSE
    and MAE are compared as well, which still holds if a later version
    predicts without calling ``predict_rating``.
    """
    train_idx = single_split(plan)[0]
    sample = sample_indices(plan, seed)
    assignment = np.full(len(ratings.records), 2, dtype=np.int64)
    assignment[train_idx] = 0
    assignment[sample] = 1
    sample_plan = evaluation.SplitPlan(plan.kind, plan.param, plan.seed, assignment)
    train = ratings.subset(train_idx)
    side = TrainSide([ratings.records[i] for i in train_idx], ratings.r_min, ratings.r_max)
    records = [ratings.records[i] for i in sample]
    for predictor, k, _report in cells:
        seen = {}
        original = predict.predict_rating

        def observed(user, item, *args, **kwargs):
            pred = original(user, item, *args, **kwargs)
            seen[(user, item)] = pred.value
            return pred

        predict.predict_rating = observed
        try:
            report = ledger.call(f"evaluate[{predictor},k={k},sample]", evaluation.evaluate,
                                 predictor, sample_plan, ratings,
                                 config=predict.PredictionConfig(k=k), index=index, policy=policy)
        finally:
            predict.predict_rating = original
        sim = reference_similarity(predictor, side, train, index, policy)
        expected = [oracle_prediction(u, i, side, sim, k) for u, i, _r, _t in records]
        for (user, item, _r, _t), (value, _fb) in zip(records, expected):
            if (user, item) in seen:
                got = seen[(user, item)]
                ledger.check(f"oracle[{predictor},k={k},u={user},i={item}]", abs(got - value) <= ORACLE_TOL,
                             f"predicted {got!r}, oracle {value!r}")
        resid = [value - r for (value, _fb), (_u, _i, r, _t) in zip(expected, records)]
        o_rmse = math.sqrt(sum(x * x for x in resid) / len(resid))
        o_mae = sum(abs(x) for x in resid) / len(resid)
        o_fallbacks = sum(1 for _v, fb in expected if fb)
        ledger.check(
            f"oracle-metrics[{predictor},k={k}]",
            abs(report.rmse - o_rmse) <= ORACLE_TOL and abs(report.mae - o_mae) <= ORACLE_TOL
            and report.n_fallbacks == o_fallbacks and report.n_predictions == len(records),
            f"rmse {report.rmse!r}/{o_rmse!r} mae {report.mae!r}/{o_mae!r} "
            f"fallbacks {report.n_fallbacks}/{o_fallbacks}",
        )
