"""Parse, clean, and join rating data with item metadata.

Two inputs, one output: a ratings file (MovieLens-style ``.dat`` with
``::`` separators, or CSV with a ``userId,movieId,rating,timestamp``
header) and an item metadata CSV (``itemId,directors,screenwriters,cast``
with ``|``-separated multi-value fields) are parsed, cleaned, and joined
into a CorpusBundle: the ratings restricted to items that have a usable
feature sentence, plus one ordered token sentence per item.

A feature sentence lists an item's people in a fixed order: directors,
then screenwriters, then the first twelve cast members in order of
appearance. Downstream modules treat these sentences as the training
corpus for feature embeddings.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyJoinError

log = logging.getLogger(__name__)

MAX_CAST = 12

_WHITESPACE = re.compile(r"\s+")


def canonical_token(raw):
    """Canonicalize one person token, or return None if it is empty.

    Numeric source ids are kept verbatim; anything else is lowercased
    with whitespace runs collapsed to a single underscore, so the same
    person yields the same token wherever they appear.
    """
    raw = raw.strip()
    if not raw:
        return None
    if raw.isdigit():
        return raw
    return _WHITESPACE.sub("_", raw.lower())


@dataclass
class RatingDataset:
    """Sparse explicit ratings with per-item and global statistics.

    ``records`` keeps every (user, item, rating, timestamp) row;
    ``per_user`` / ``per_item`` are lookup maps (on duplicate pairs,
    which only exist before cleaning, the last occurrence wins).
    Means are computed over that same collapsed view, one rating per
    (user, item) pair.
    """

    records: list
    r_min: float = 1.0
    r_max: float = 5.0
    n_malformed: int = 0
    per_user: dict = field(init=False, repr=False)
    per_item: dict = field(init=False, repr=False)
    item_means: dict = field(init=False, repr=False)
    global_mean: float = field(init=False)

    def __post_init__(self):
        if not self.records:
            raise DataError("rating dataset contains no records")
        per_user: dict = {}
        per_item: dict = {}
        for user, item, rating, _ts in self.records:
            if not self.r_min <= rating <= self.r_max:
                raise DataError(
                    f"rating {rating} for user {user}, item {item} outside "
                    f"scale [{self.r_min}, {self.r_max}]"
                )
            per_user.setdefault(user, {})[item] = rating
            per_item.setdefault(item, {})[user] = rating
        self.per_user = per_user
        self.per_item = per_item
        kept = self.records
        if sum(map(len, per_user.values())) < len(kept):
            # Duplicate pairs: keep each pair's last record, in record order.
            last = {(rec[0], rec[1]): pos for pos, rec in enumerate(kept)}
            kept = [rec for pos, rec in enumerate(kept) if last[rec[0], rec[1]] == pos]
        item_sums: dict = {}
        item_counts: dict = {}
        total = 0.0
        for _user, item, rating, _ts in kept:
            item_sums[item] = item_sums.get(item, 0.0) + rating
            item_counts[item] = item_counts.get(item, 0) + 1
            total += rating
        self.item_means = {i: item_sums[i] / item_counts[i] for i in item_sums}
        self.global_mean = total / len(kept)

    def __len__(self):
        return len(self.records)

    @property
    def n_users(self):
        return len(self.per_user)

    @property
    def n_items(self):
        return len(self.per_item)

    def subset(self, indices):
        """New dataset from the records at ``indices`` (same scale)."""
        return RatingDataset(
            records=[self.records[i] for i in indices],
            r_min=self.r_min,
            r_max=self.r_max,
        )

    @cached_property
    def arrays(self):
        """The dataset as RatingArrays, built on first use."""
        return RatingArrays(self)


class RatingArrays:
    """A rating dataset as arrays over its rated item ids, ascending.

    * ``items``: the rated item ids in ascending order; ``position``
      maps an id to its column.
    * ``indptr``, ``cols``, ``values``: the ratings user by user (in
      ``per_user`` order), each user's in ascending column order.
    * ``rows``: user -> (columns, rating minus the item's mean), views
      of that user's run.
    * ``counts``: ratings per item.
    * ``matrices``: the users x items ratings R, their 0/1 pattern and
      R*R elementwise, as CSC matrices built on first use.

    Built from the one-rating-per-pair view of ``per_user``.
    """

    def __init__(self, ratings):
        self.items = np.array(sorted(ratings.per_item))
        self.position = {item: p for p, item in enumerate(self.items.tolist())}
        user_rows = ratings.per_user.values()
        lengths = np.fromiter(map(len, user_rows), np.int64, len(user_rows))
        self.indptr = np.concatenate(([0], np.cumsum(lengths)))
        n = int(self.indptr[-1])
        cols = np.fromiter((self.position[i] for row in user_rows for i in row), np.int64, n)
        values = np.fromiter((r for row in user_rows for r in row.values()), np.float64, n)
        order = np.lexsort((cols, np.repeat(np.arange(len(user_rows)), lengths)))
        self.cols, self.values = cols[order], values[order]
        means = np.array([ratings.item_means[i] for i in self.items.tolist()])
        split = self.indptr[1:-1]
        deviations = self.values - means[self.cols]
        self.rows = dict(zip(ratings.per_user, zip(np.split(self.cols, split), np.split(deviations, split))))
        self.counts = np.bincount(self.cols, minlength=len(self.items))

    @cached_property
    def matrices(self):
        """(R, pattern, R*R) as users x items CSC matrices."""
        # scipy.sparse is imported only once a dataset needs its matrices.
        from scipy import sparse

        shape = (len(self.indptr) - 1, len(self.items))
        return tuple(
            sparse.csr_matrix((data, self.cols, self.indptr), shape=shape).tocsc()
            for data in (self.values, np.ones_like(self.values), self.values * self.values)
        )


@dataclass
class CatalogEntry:
    directors: list
    screenwriters: list
    cast: list

    def tokens(self):
        """All tokens in sentence order: directors, writers, cast."""
        return self.directors + self.screenwriters + self.cast


@dataclass
class FeatureCatalog:
    """Item metadata keyed by item id, cast capped at MAX_CAST."""

    entries: dict
    n_dropped_duplicates: int = 0
    n_skipped_rows: int = 0

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class FeatureSentence:
    item_id: int
    tokens: tuple


@dataclass
class CorpusBundle:
    """Cleaned ratings joined with per-item feature sentences."""

    ratings: RatingDataset
    sentences: list
    report: dict

    def report_json(self):
        """The cleaning report as a single-line JSON string."""
        return json.dumps(self.report, sort_keys=True)


@contextmanager
def text_stream(source, mode="r", errors="strict"):
    """Yield a text stream for ``source``, a path or an open stream.

    A path is opened as UTF-8 and closed on exit; writes use
    ``newline=""``, so lines go out exactly as the caller writes them.
    An input path that cannot be opened is a DataError naming it. A
    stream is yielded as is and left open.
    """
    if not isinstance(source, (str, Path)):
        yield source
        return
    if mode == "r":
        try:
            stream = open(source, encoding="utf-8", errors=errors)
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc
    else:
        stream = open(source, mode, encoding="utf-8", errors=errors, newline="")
    with stream:
        yield stream


def _sniff_rating_format(first_line):
    if "::" in first_line:
        return "dat"
    if "," in first_line:
        return "csv"
    raise DataError(f"cannot detect rating file format from line: {first_line!r}")


def parse_ratings(source, fmt=None, scale=(1.0, 5.0)):
    """Parse a ratings file into a RatingDataset.

    ``fmt`` is "dat" (``user::item::rating::timestamp``), "csv"
    (header ``userId,movieId,rating,timestamp``), or None to sniff from
    the first line. Malformed lines are counted and skipped with a
    warning; an unreadable stream or zero valid records is fatal.
    """
    r_min, r_max = float(scale[0]), float(scale[1])
    records = []
    malformed = 0
    with text_stream(source, errors="replace") as stream:
        lines = iter(stream)
        try:
            first = next(lines)
        except StopIteration:
            raise DataError("rating source is empty")
        if fmt is None:
            fmt = _sniff_rating_format(first)
        if fmt == "dat":
            for line in itertools.chain([first], lines):
                rec = _parse_dat_line(line, r_min, r_max)
                if rec is None:
                    malformed += 1
                else:
                    records.append(rec)
        elif fmt == "csv":
            header = [h.strip().lower() for h in next(csv.reader([first]))]
            try:
                iu = header.index("userid")
                ii = header.index("movieid")
                ir = header.index("rating")
            except ValueError:
                raise DataError(f"rating CSV header missing required columns: {first!r}")
            it = header.index("timestamp") if "timestamp" in header else None
            for row in csv.reader(lines):
                if not row:
                    continue
                rec = _parse_csv_row(row, iu, ii, ir, it, r_min, r_max)
                if rec is None:
                    malformed += 1
                else:
                    records.append(rec)
        else:
            raise DataError(f"unknown rating format {fmt!r}")
    if malformed:
        log.warning("skipped %d malformed rating line(s)", malformed)
    if not records:
        raise DataError("no valid rating records found")
    return RatingDataset(records=records, r_min=r_min, r_max=r_max, n_malformed=malformed)


def _parse_dat_line(line, r_min, r_max):
    line = line.strip()
    if not line:
        return None
    parts = line.split("::")
    if len(parts) not in (3, 4):
        return None
    try:
        user = int(parts[0])
        item = int(parts[1])
        rating = float(parts[2])
        ts = int(parts[3]) if len(parts) == 4 else 0
    except ValueError:
        return None
    if not r_min <= rating <= r_max:
        return None
    return (user, item, rating, ts)


def _parse_csv_row(row, iu, ii, ir, it, r_min, r_max):
    try:
        user = int(row[iu])
        item = int(row[ii])
        rating = float(row[ir])
        ts = int(float(row[it])) if it is not None and row[it].strip() else 0
    except (ValueError, IndexError):
        return None
    if not r_min <= rating <= r_max:
        return None
    return (user, item, rating, ts)


def parse_item_features(source):
    """Parse the item metadata CSV into a FeatureCatalog.

    Expected header: ``itemId,directors,screenwriters,cast`` with
    ``|``-separated, order-significant multi-value fields. Cast lists
    are truncated to the first MAX_CAST people. Duplicate item rows:
    last wins, counted. Rows with an empty or non-integer item id are
    skipped, counted.
    """
    entries: dict = {}
    duplicates = 0
    skipped = 0
    with text_stream(source, errors="replace") as stream:
        reader = csv.reader(stream)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise DataError("metadata source is empty")
        try:
            ii = header.index("itemid")
            idir = header.index("directors")
            iwri = header.index("screenwriters")
            icast = header.index("cast")
        except ValueError:
            raise DataError(f"metadata CSV header missing required columns: {header}")
        for row in reader:
            if not row:
                continue
            try:
                raw_id = row[ii].strip()
                if not raw_id:
                    skipped += 1
                    continue
                item = int(raw_id)
            except (ValueError, IndexError):
                skipped += 1
                continue
            directors = _split_people(row, idir)
            writers = _split_people(row, iwri)
            cast = _split_people(row, icast)[:MAX_CAST]
            if item in entries:
                duplicates += 1
            entries[item] = CatalogEntry(directors, writers, cast)
    if skipped:
        log.warning("skipped %d metadata row(s) with bad item id", skipped)
    return FeatureCatalog(entries=entries, n_dropped_duplicates=duplicates, n_skipped_rows=skipped)


def _split_people(row, col):
    if col >= len(row):
        return []
    tokens = []
    for part in row[col].split("|"):
        tok = canonical_token(part)
        if tok is not None:
            tokens.append(tok)
    return tokens


def build_sentences(catalog):
    """One FeatureSentence per catalog item with at least one token.

    Token order is directors, then screenwriters, then cast. Items with
    zero tokens are excluded (logged, not an error); callers can count
    exclusions as ``len(catalog) - len(sentences)``.
    """
    sentences = []
    excluded = 0
    for item_id in catalog.entries:
        tokens = catalog.entries[item_id].tokens()
        if tokens:
            sentences.append(FeatureSentence(item_id=item_id, tokens=tuple(tokens)))
        else:
            excluded += 1
    if excluded:
        log.info("excluded %d item(s) with no feature tokens", excluded)
    return sentences


def clean_and_join(ratings, catalog):
    """Join ratings with metadata into a CorpusBundle.

    Ratings are restricted to items that have a non-empty feature
    sentence; duplicate (user, item) pairs are collapsed keeping the
    rating with the latest timestamp (later file position wins ties).
    Means are recomputed after filtering. Sentences keep every item
    with usable metadata, including items that have no ratings at all,
    so brand-new items remain recommendable.
    """
    sentences = build_sentences(catalog)
    sentence_items = {s.item_id for s in sentences}
    dropped_no_features = 0
    best: dict = {}
    order: dict = {}
    seq = 0
    rated_items_missing = set()
    for rec in ratings.records:
        user, item, _rating, ts = rec
        if item not in sentence_items:
            dropped_no_features += 1
            rated_items_missing.add(item)
            continue
        key = (user, item)
        prev = best.get(key)
        if prev is None or ts >= prev[3]:
            best[key] = rec
            order[key] = seq
        seq += 1
    items_without_features = len(rated_items_missing)
    if not best:
        raise EmptyJoinError("no ratings remain after joining with item metadata")
    kept = sorted(best, key=order.get)
    records = [best[k] for k in kept]
    dropped_duplicates = len(ratings.records) - dropped_no_features - len(records)
    cleaned = RatingDataset(records=records, r_min=ratings.r_min, r_max=ratings.r_max)
    report = {
        "n_ratings_in": len(ratings.records),
        "n_ratings_kept": len(records),
        "n_dropped_duplicates": dropped_duplicates,
        "n_dropped_no_features": dropped_no_features,
        "n_items_kept": cleaned.n_items,
        "n_items_without_features": items_without_features,
        "n_sentences": len(sentences),
        "n_malformed_rating_lines": ratings.n_malformed,
        "n_catalog_duplicates": catalog.n_dropped_duplicates,
    }
    return CorpusBundle(ratings=cleaned, sentences=sentences, report=report)


def write_catalog(catalog, sink):
    """Serialize a FeatureCatalog back to its CSV form (round-trips)."""
    with text_stream(sink, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["itemId", "directors", "screenwriters", "cast"])
        for item_id in sorted(catalog.entries):
            e = catalog.entries[item_id]
            writer.writerow(
                [item_id, "|".join(e.directors), "|".join(e.screenwriters), "|".join(e.cast)]
            )


def write_ratings_csv(ratings, sink):
    """Serialize ratings in the canonical CSV form."""
    with text_stream(sink, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["userId", "movieId", "rating", "timestamp"])
        for user, item, rating, ts in ratings.records:
            writer.writerow([user, item, _format_rating(rating), ts])


def _format_rating(rating):
    return str(int(rating)) if rating == int(rating) else repr(rating)


RATINGS_FILE = "ratings.csv"
FEATURES_FILE = "features.csv"
REPORT_FILE = "report.json"


def save_bundle(bundle, catalog, out_dir):
    """Write a CorpusBundle (plus its catalog) as a directory of files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ratings_csv(bundle.ratings, out / RATINGS_FILE)
    kept = {s.item_id for s in bundle.sentences}
    kept_catalog = FeatureCatalog(
        entries={i: catalog.entries[i] for i in catalog.entries if i in kept}
    )
    write_catalog(kept_catalog, out / FEATURES_FILE)
    (out / REPORT_FILE).write_text(bundle.report_json() + "\n", encoding="utf-8")
    return out


def load_bundle(bundle_dir, scale=(1.0, 5.0)):
    """Load a bundle directory written by save_bundle."""
    bdir = Path(bundle_dir)
    ratings_path = bdir / RATINGS_FILE
    features_path = bdir / FEATURES_FILE
    if not ratings_path.exists() or not features_path.exists():
        raise DataError(f"{bundle_dir} is not a bundle directory (missing {RATINGS_FILE}/{FEATURES_FILE})")
    ratings = parse_ratings(ratings_path, fmt="csv", scale=scale)
    catalog = parse_item_features(features_path)
    return clean_and_join(ratings, catalog), catalog
