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

Ratings are held as numpy columns (user, item, rating, timestamp), so
reading a ``.dat`` file, joining, subsetting and writing the bundle
run without a Python loop per record. A ``.dat`` file of well-formed
lines is read in one strict pass; anything else goes through the
per-line parser, which decides the same way line by line. Ids and
timestamps must fit in 64 bits. A dataset's record tuples are built
the first time something reads them.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import DataError, EmptyJoinError

log = logging.getLogger(__name__)

MAX_CAST = 12


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
    return "_".join(raw.lower().split())


# One rating record: the dataset's column types and the strict .dat read's row.
_RECORD = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64), ("timestamp", np.int64)])


class RatingDataset:
    """Sparse explicit ratings as columns, with per-item and global statistics.

    The records are four aligned columns: ``user``, ``item`` (int64),
    ``rating`` (float64) and ``timestamp`` (int64), one entry per
    record, in record order. Build a dataset from an iterable of
    ``(user, item, rating, timestamp)`` tuples, kept as the list
    ``records``, with ``RatingDataset(records=...)``; the parsers,
    ``clean_and_join`` and ``subset`` fill the columns directly. Every
    rating must lie on the scale ``[r_min, r_max]``, two finite numbers
    with r_min below r_max; any other scale is a ValueError, raised
    before a rating is read.

    There, ``records`` (the tuples) is a view built on first read. Readers
    that want the ratings by user or by item use ``arrays``
    (RatingArrays), one rating per (user, item) pair: on duplicate
    pairs, which only exist before cleaning, the last record wins.
    ``item_means`` (item id -> mean, ascending ids) and ``global_mean``
    fold those same ratings, one per pair, in record order, so they
    equal a Python loop over the records bit for bit.
    """

    def __init__(self, records, r_min=1.0, r_max=5.0, n_malformed=0):
        self.records = records = list(records)
        self._set_columns(*_record_columns(records), r_min, r_max, n_malformed)

    @classmethod
    def _from_columns(cls, user, item, rating, timestamp, r_min, r_max, n_malformed=0):
        dataset = cls.__new__(cls)
        dataset._set_columns(user, item, rating, timestamp, r_min, r_max, n_malformed)
        return dataset

    def _set_columns(self, user, item, rating, timestamp, r_min, r_max, n_malformed):
        _check_scale(r_min, r_max)
        if not len(user):
            raise DataError("rating dataset contains no records")
        self.user, self.item, self.rating, self.timestamp = user, item, rating, timestamp
        self.r_min, self.r_max, self.n_malformed = r_min, r_max, n_malformed
        outside = ~((r_min <= rating) & (rating <= r_max))
        if outside.any():
            user, item, rating, _ts = self.records[outside.argmax()]
            raise DataError(
                f"rating {rating} for user {user}, item {item} outside scale [{r_min}, {r_max}]"
            )

    def __len__(self):
        return len(self.user)

    @cached_property
    def records(self):
        return list(zip(self.user.tolist(), self.item.tolist(), self.rating.tolist(), self.timestamp.tolist()))

    @cached_property
    def _items(self):
        """(distinct item ids ascending, each record's position among them)."""
        return np.unique(self.item, return_inverse=True)

    @cached_property
    def _users(self):
        """(distinct user ids in first-appearance order, each record's position among them)."""
        ids, first, codes = np.unique(self.user, return_index=True, return_inverse=True)
        by_first = first.argsort()
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))
        return ids[by_first], rank[codes]

    @cached_property
    def _kept(self):
        """Each (user, item) pair's last record, ordered by user, then item position."""
        return _last_per_pair(self._users[1], self._items[1])

    @cached_property
    def _means(self):
        """(item means in item id order, global mean) over the kept records.

        Both are sequential folds in record order, as a Python loop
        would sum them: bincount adds its weights in input order, and
        cumsum is a left fold where np.sum would add pairwise.
        """
        kept = np.sort(self._kept)
        codes, values = self._items[1][kept], self.rating[kept]
        n_items = len(self._items[0])
        sums = np.bincount(codes, weights=values, minlength=n_items)
        return sums / np.bincount(codes, minlength=n_items), float(values.cumsum()[-1] / len(values))

    @cached_property
    def item_means(self):
        return dict(zip(self._items[0].tolist(), self._means[0].tolist()))

    @property
    def global_mean(self):
        return self._means[1]

    @property
    def n_users(self):
        return len(self._users[0])

    @property
    def n_items(self):
        return len(self._items[0])

    def subset(self, indices):
        """New dataset from the records at ``indices`` (a sequence or an index array; same scale)."""
        rows = np.asarray(indices, dtype=np.intp)
        return RatingDataset._from_columns(
            self.user[rows], self.item[rows], self.rating[rows], self.timestamp[rows], self.r_min, self.r_max
        )

    @cached_property
    def arrays(self):
        """The dataset as RatingArrays, built on first use."""
        return RatingArrays(self)


def _last_per_pair(user, item, *minor_keys):
    """Index of each (user, item) pair's last record in order of user, item, then minor_keys.

    The sort is stable, so among records equal on every key the last in
    record order is the one kept. The indices come out sorted by pair.
    """
    order = np.lexsort((*minor_keys, item, user))
    user, item = user[order], item[order]
    return order[np.append((user[1:] != user[:-1]) | (item[1:] != item[:-1]), True)]


def _record_columns(records):
    """(user, item, rating, timestamp) arrays of a list of record tuples."""
    return tuple(np.array(c, dtype=_RECORD[n]) for n, c in enumerate(list(zip(*records)) or [()] * 4))


class RatingArrays:
    """A rating dataset as arrays over its rated item ids, ascending.

    * ``items``: the rated item ids in ascending order; ``position``
      maps an id to its column.
    * ``indptr``, ``cols``, ``values``: the ratings user by user (users
      in first-appearance order), each user's in ascending column order.
    * ``rows``: user -> (columns, rating minus the item's mean), views
      of that user's run.
    * ``counts``: ratings per item.
    * ``matrices``: the users x items ratings R, their 0/1 pattern and
      R*R elementwise, as CSC matrices built on first use.

    Built from the dataset's columns, one rating per (user, item) pair:
    its last record's.
    """

    def __init__(self, ratings):
        user_ids, user_codes = ratings._users
        self.items, item_codes = ratings._items
        kept = ratings._kept
        self.position = dict(zip(self.items.tolist(), range(len(self.items))))
        self.cols, self.values = item_codes[kept], ratings.rating[kept]
        lengths = np.bincount(user_codes[kept], minlength=len(user_ids))
        self.indptr = np.concatenate(([0], np.cumsum(lengths)))
        split = self.indptr[1:-1]
        deviations = self.values - ratings._means[0][self.cols]
        self.rows = dict(zip(user_ids.tolist(), zip(np.split(self.cols, split), np.split(deviations, split))))
        self.counts = np.bincount(self.cols, minlength=len(self.items))

    @cached_property
    def matrices(self):
        """(R, pattern, R*R) as users x items CSC matrices."""
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


def stream_name(stream):
    """The name a message gives ``stream``: its file name, or ``<stream>``."""
    return getattr(stream, "name", "<stream>")


@contextmanager
def text_stream(source, mode="r"):
    """Yield a text stream for ``source``, a path or an open stream.

    Read from a path or from a stream, the same text gives the same
    lines: a leading U+FEFF (a UTF-8 byte order mark) is dropped, and
    LF, CR LF and a lone CR each end a line and read as LF (Python's
    universal newlines). A path is opened as strict UTF-8 and closed on
    exit; an input path that cannot be opened is a DataError naming it.
    A stream to read is read whole and left open; its text is served by
    a new stream under the given one's name. Text that is not UTF-8 is
    a DataError naming the file, whenever the caller reads it. Writes
    to a path use ``newline=""``, so lines go out exactly as the caller
    writes them; a stream to write to is yielded as is and left open.
    """
    if not isinstance(source, (str, Path)):
        opened = nullcontext(source)
    elif mode == "r":
        try:
            opened = open(source, encoding="utf-8-sig")
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc
    else:
        opened = open(source, mode, encoding="utf-8", newline="")
    with opened as stream:
        try:
            if stream is source and mode == "r":
                stream = io.StringIO(source.read().removeprefix("\ufeff"), newline=None)
                stream.name = stream_name(source)
            yield stream
        except UnicodeDecodeError as exc:
            raise DataError(f"{stream_name(stream)}: not UTF-8 text: {exc}") from None


def csv_rows(lines, name):
    """(line number, row) of each CSV record of ``lines``, read from the file ``name``.

    A record the reader rejects, such as one with a field longer than
    csv.field_size_limit(), is a DataError naming the file and line.
    Decoding is left to the stream: read through text_stream, text that
    is not UTF-8 is a DataError naming the file.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{name}:{reader.line_num}: {exc}") from None


def _sniff_rating_format(first_line, name):
    if "::" in first_line:
        return "dat"
    if "," in first_line:
        return "csv"
    raise DataError(f"{name}:1: cannot detect rating file format from line: {first_line!r}")


def parse_ratings(source, fmt=None, scale=(1.0, 5.0)):
    """Parse a ratings file into a RatingDataset.

    ``fmt`` is "dat" (``user::item::rating::timestamp``), "csv"
    (header ``userId,movieId,rating,timestamp``), or None to sniff from
    the first line. Malformed lines are skipped with a warning naming
    the first; a source that cannot be read or is not UTF-8, a CSV
    record the reader rejects, zero valid records, or a valid line whose
    id or timestamp does not fit in 64 bits (naming file and line) is
    fatal. A scale that is not two finite numbers with min below max is a
    ValueError, raised before any line is read.

    A ``.dat`` file whose every line has the four-field form is read in
    one strict pass into columns; any other file is parsed line by line,
    with the same result.
    """
    return _read_ratings(source, fmt, scale, strict=False)


def _rating_scale(scale):
    """(r_min, r_max) as floats, checked by _check_scale."""
    r_min, r_max = map(float, scale)
    _check_scale(r_min, r_max)
    return r_min, r_max


def _check_scale(r_min, r_max):
    """A ValueError unless r_min and r_max are finite numbers and r_min < r_max."""
    if not (math.isfinite(r_min) and math.isfinite(r_max) and r_min < r_max):
        raise ValueError(f"rating scale [{r_min}, {r_max}] must be two finite numbers, min below max")


def _malformed(name, lineno, r_min, r_max):
    return DataError(f"{name}:{lineno}: malformed or off the scale [{r_min}, {r_max}]")


def _read_ratings(source, fmt, scale, strict):
    """parse_ratings, or with ``strict`` a DataError at the first malformed line instead of a skip."""
    r_min, r_max = _rating_scale(scale)
    with text_stream(source) as stream:
        lines = stream.readlines()
        name = stream_name(stream)
    if not lines:
        raise DataError(f"{name}: rating source is empty")
    if fmt is None:
        fmt = _sniff_rating_format(lines[0], name)
    if fmt not in ("dat", "csv"):
        raise DataError(f"unknown rating format {fmt!r}")
    read = _read_dat_columns(lines, r_min, r_max) if fmt == "dat" else None
    if read is None:
        read = (_parse_dat_lines if fmt == "dat" else _parse_csv_lines)(lines, r_min, r_max, name, strict)
    columns, bad = read
    if bad and strict:
        raise _malformed(name, bad[0], r_min, r_max)
    if bad:
        log.warning("skipped %d malformed rating line(s), the first at %s:%d", len(bad), name, bad[0])
    if not len(columns[0]):
        raise DataError(f"{name}: no valid rating records found")
    return RatingDataset._from_columns(*columns, r_min, r_max, n_malformed=len(bad))


def _read_dat_columns(lines, r_min, r_max):
    """``.dat`` lines as (columns, malformed line numbers) in one strict pass.

    Returns None, leaving the lines to the per-line parser, unless every
    line is ``u::i::r::ts`` with integer ids and timestamp that fit in
    int64. ``::`` becomes a comma for the reader, so a file that already
    holds a comma is left to the per-line parser; so is one whose row
    count differs from its line count, since the reader skips blank
    lines the per-line parser counts as malformed. A NaN or out-of-scale
    rating is malformed, as it is line by line.
    """
    text = "".join(lines)
    if "," in text:
        return None
    try:
        with warnings.catch_warnings():
            # An input of blank lines only is "no data" to the reader.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(io.StringIO(text.replace("::", ",")), dtype=_RECORD, delimiter=",",
                               comments=None, ndmin=1)
    except ValueError:
        return None
    if len(table) != len(lines):
        return None
    rating = table["rating"]
    valid = (r_min <= rating) & (rating <= r_max)
    return tuple(table[name][valid] for name in _RECORD.names), (np.flatnonzero(~valid) + 1).tolist()


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _collect_records(parsed, r_min, r_max, name, strict=False):
    """(columns, malformed line numbers) of ``(line number, record or None)`` pairs read from the file ``name``.

    None, or a rating off the scale (NaN included), marks a malformed
    line; with ``strict`` it is a DataError naming the file and line. A
    record whose ids or timestamp do not fit the int64 columns is one
    too, so a strict read names the first bad line of either kind.
    """
    records, bad = [], []
    for lineno, rec in parsed:
        if rec is None or not r_min <= rec[2] <= r_max:
            if strict:
                raise _malformed(name, lineno, r_min, r_max)
            bad.append(lineno)
            continue
        for what, value in zip(("user id", "item id", None, "timestamp"), rec):
            if what and not _INT64_MIN <= value <= _INT64_MAX:
                raise DataError(f"{name}:{lineno}: {what} {value} does not fit in 64 bits")
        records.append(rec)
    return _record_columns(records), bad


def _parse_dat_lines(lines, r_min, r_max, name, strict=False):
    """The per-line ``.dat`` parser: (columns, malformed line numbers)."""
    return _collect_records(((lineno, _parse_dat_line(line)) for lineno, line in enumerate(lines, start=1)),
                            r_min, r_max, name, strict)


def _parse_csv_lines(lines, r_min, r_max, name, strict=False):
    """The CSV parser: (columns, malformed line numbers)."""
    rows = csv_rows(lines, name)
    header = [h.strip().lower() for h in next(rows)[1]]
    try:
        iu = header.index("userid")
        ii = header.index("movieid")
        ir = header.index("rating")
    except ValueError:
        raise DataError(f"{name}:1: rating CSV header missing required columns: {lines[0]!r}")
    it = header.index("timestamp") if "timestamp" in header else None
    return _collect_records(((lineno, _parse_csv_row(row, iu, ii, ir, it)) for lineno, row in rows if row),
                            r_min, r_max, name, strict)


def _parse_dat_line(line):
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
    return (user, item, rating, ts)


def _parse_csv_row(row, iu, ii, ir, it):
    try:
        user = int(row[iu])
        item = int(row[ii])
        rating = float(row[ir])
        ts = int(float(row[it])) if it is not None and row[it].strip() else 0
    except (ValueError, IndexError, OverflowError):
        return None
    return (user, item, rating, ts)


def parse_item_features(source):
    """Parse the item metadata CSV into a FeatureCatalog.

    Expected header: ``itemId,directors,screenwriters,cast`` with
    ``|``-separated, order-significant multi-value fields. Cast lists
    are truncated to the first MAX_CAST people. Duplicate item rows:
    last wins, counted. Rows with an empty or non-integer item id are
    skipped, counted; a record the CSV reader rejects, text that is not
    UTF-8, or an item id that does not fit in 64 bits (naming file and
    line) is fatal.
    """
    entries: dict = {}
    duplicates = 0
    skipped = 0
    with text_stream(source) as stream:
        name = stream_name(stream)
        rows = csv_rows(stream, name)
        lineno, header = next(rows, (None, None))
        if header is None:
            raise DataError(f"{name}: metadata source is empty")
        header = [h.strip().lower() for h in header]
        try:
            ii = header.index("itemid")
            idir = header.index("directors")
            iwri = header.index("screenwriters")
            icast = header.index("cast")
        except ValueError:
            raise DataError(f"{name}:{lineno}: metadata CSV header missing required columns: {header}")
        for lineno, row in rows:
            if not row:
                continue
            try:
                item = int(row[ii].strip())
            except (ValueError, IndexError):
                skipped += 1
                continue
            if not _INT64_MIN <= item <= _INT64_MAX:
                raise DataError(f"{name}:{lineno}: item id {item} does not fit in 64 bits")
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
    parts = row[col].split("|") if col < len(row) else []
    return [tok for tok in map(canonical_token, parts) if tok is not None]


def build_sentences(catalog):
    """One FeatureSentence per catalog item with at least one token.

    Token order is directors, then screenwriters, then cast. Items with
    zero tokens are excluded (logged, not an error); callers can count
    exclusions as ``len(catalog) - len(sentences)``.
    """
    sentences = [FeatureSentence(item_id=item_id, tokens=tokens)
                 for item_id, entry in catalog.entries.items() if (tokens := tuple(entry.tokens()))]
    excluded = len(catalog) - len(sentences)
    if excluded:
        log.info("excluded %d item(s) with no feature tokens", excluded)
    return sentences


def clean_and_join(ratings, catalog):
    """Join ratings with metadata into a CorpusBundle.

    Ratings are restricted to items that have a non-empty feature
    sentence; duplicate (user, item) pairs are collapsed keeping the
    rating with the latest timestamp (later file position wins ties),
    and the kept records stay in file order. Means are recomputed after
    filtering. Sentences keep every item with usable metadata,
    including items that have no ratings at all, so brand-new items
    remain recommendable.
    """
    sentences = build_sentences(catalog)
    featured = [s.item_id for s in sentences if _INT64_MIN <= s.item_id <= _INT64_MAX]
    has_features = np.isin(ratings.item, np.array(featured, dtype=np.int64))
    rows = np.flatnonzero(has_features)
    if not len(rows):
        raise EmptyJoinError("no ratings remain after joining with item metadata")
    latest = _last_per_pair(ratings.user[rows], ratings.item[rows], ratings.timestamp[rows])
    cleaned = ratings.subset(rows[np.sort(latest)])
    report = {
        "n_ratings_in": len(ratings),
        "n_ratings_kept": len(cleaned),
        "n_dropped_duplicates": len(rows) - len(cleaned),
        "n_dropped_no_features": len(ratings) - len(rows),
        "n_items_kept": cleaned.n_items,
        "n_items_without_features": len(np.unique(ratings.item[~has_features])),
        "n_sentences": len(sentences),
        "n_malformed_rating_lines": ratings.n_malformed,
        "n_catalog_duplicates": catalog.n_dropped_duplicates,
        "rating_scale": [ratings.r_min, ratings.r_max],
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
    values, which = np.unique(ratings.rating, return_inverse=True)
    labels = np.array([_format_rating(v) for v in values.tolist()], dtype=object)[which]
    rows = zip(ratings.user.tolist(), ratings.item.tolist(), labels.tolist(), ratings.timestamp.tolist())
    with text_stream(sink, "w") as stream:
        stream.write("userId,movieId,rating,timestamp\n" + "".join(map("%d,%d,%s,%d\n".__mod__, rows)))


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


def load_bundle(bundle_dir):
    """Load a bundle directory written by save_bundle, on the rating scale its
    report records (1-5 in a report from before ingest recorded one). A
    ratings.csv line malformed or off that scale is a DataError naming it;
    so is a rating the re-join would drop, which save_bundle never writes."""
    bdir = Path(bundle_dir)
    ratings_path = bdir / RATINGS_FILE
    features_path = bdir / FEATURES_FILE
    if not ratings_path.exists() or not features_path.exists():
        raise DataError(f"{bundle_dir} is not a bundle directory (missing {RATINGS_FILE}/{FEATURES_FILE})")
    try:
        with text_stream(bdir / REPORT_FILE) as stream:
            scale = _rating_scale(json.loads(stream.read()).get("rating_scale", (1.0, 5.0)))
    except (ValueError, TypeError, AttributeError, RecursionError):
        raise DataError(f"{bdir / REPORT_FILE}: expected a JSON object whose rating_scale is [min, max]") from None
    ratings = _read_ratings(ratings_path, "csv", scale, strict=True)
    bundle = clean_and_join(ratings, parse_item_features(features_path))
    no_features, duplicates = bundle.report["n_dropped_no_features"], bundle.report["n_dropped_duplicates"]
    if no_features or duplicates:
        raise DataError(f"{ratings_path}: {no_features} rating(s) of items without a {FEATURES_FILE} row and "
                        f"{duplicates} repeated (user, item) pair(s); the bundle is inconsistent")
    return bundle
