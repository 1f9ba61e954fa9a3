"""Parsing, cleaning, and joining of ratings + item metadata."""

import csv
import io
import json
import math
import re
import sys

import numpy as np
import pytest

import synthdata
from relfrec import ingest
from relfrec.embed import EmbeddingTable, Vocabulary, load_embeddings, save_embeddings
from relfrec.errors import DataError, EmptyJoinError
from relfrec.cli import main
from relfrec.evaluation import write_manifest, write_results_csv
from relfrec.ingest import (
    CatalogEntry,
    FeatureCatalog,
    RatingDataset,
    build_sentences,
    canonical_token,
    clean_and_join,
    load_bundle,
    parse_item_features,
    parse_ratings,
    save_bundle,
    write_catalog,
    write_ratings_csv,
)


def make_catalog(item_ids):
    """Minimal one-token-per-field catalog over the given item ids."""
    return FeatureCatalog(
        entries={
            i: CatalogEntry([f"dir{i}"], [f"wri{i}"], [f"act{i}"]) for i in item_ids
        }
    )


class TestCanonicalToken:
    def test_numeric_ids_kept_verbatim(self):
        assert canonical_token("12345") == "12345"
        assert canonical_token(" 007 ") == "007"

    def test_names_lowercased_with_underscores(self):
        assert canonical_token("Tom Hanks") == "tom_hanks"
        assert canonical_token("  Ang \t  Lee ") == "ang_lee"
        assert canonical_token("LILY-ROSE Depp") == "lily-rose_depp"

    def test_empty_is_none(self):
        assert canonical_token("") is None
        assert canonical_token("   \t ") is None

    def test_whitespace_split_agrees_with_regex_collapse(self):
        """Every code point that \\s matches is str.isspace() and vice versa,
        so joining split() on underscores collapses runs as re.sub did."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = "".join(re.findall(r"\s", every))
        assert spaces == "".join(c for c in every if c.isspace())
        alphabet = [*spaces, "a", "Z", "É", "ß", "İ", "ǅ", "7", "-", "_", "|", "."]
        rng = np.random.default_rng(5)
        for _ in range(2000):
            raw = "".join(alphabet[p] for p in rng.integers(len(alphabet), size=int(rng.integers(0, 12))))
            stripped = raw.strip()
            if not stripped:
                want = None
            else:
                want = stripped if stripped.isdigit() else re.sub(r"\s+", "_", stripped.lower())
            assert canonical_token(raw) == want, repr(raw)

    def test_same_person_same_token_across_roles(self):
        text = "itemId,directors,screenwriters,cast\n1,clint eastwood,,Clint  Eastwood\n"
        catalog = parse_item_features(io.StringIO(text))
        sent = build_sentences(catalog)[0]
        assert sent.tokens == ("clint_eastwood", "clint_eastwood")


class TestParseRatings:
    def test_single_dat_line(self):
        ds = parse_ratings(io.StringIO("1::1193::5::978300760\n"), fmt="dat")
        assert len(ds) == 1
        assert ds.records[0] == (1, 1193, 5.0, 978300760)
        assert ds.global_mean == 5.0

    def test_dat_timestamp_optional(self):
        ds = parse_ratings(io.StringIO("1::2::3\n"), fmt="dat")
        assert ds.records[0] == (1, 2, 3.0, 0)

    def test_malformed_lines_skipped_and_counted(self):
        text = "1::10::5::1\n1::abc::5::0\n2::10::4::2\n3::11::3::3\n"
        ds = parse_ratings(io.StringIO(text), fmt="dat")
        assert len(ds) == 3
        assert ds.n_malformed == 1

    @pytest.mark.parametrize("fmt, text, n_bad, first", [
        ("dat", "1::10::5::1\n1::abc::5::0\n2::10::4::2\n3::11::9::3\n", 2, 2),
        ("dat", "1::10::5::1\n2::10::4::2\n3::11::9::3\n4::11::0::3\n", 2, 3),
        ("csv", "userId,movieId,rating,timestamp\n1,10,5,1\n\n1,x,5,0\n2,10,4,2\n", 1, 4),
    ], ids=["dat-per-line", "dat-one-pass", "csv"])
    def test_skip_warning_names_the_first_skipped_line(self, caplog, fmt, text, n_bad, first):
        ds = parse_ratings(io.StringIO(text), fmt=fmt)
        assert ds.n_malformed == n_bad
        assert f"skipped {n_bad} malformed rating line(s), the first at <stream>:{first}" in caplog.text

    @pytest.mark.parametrize("scale", [(5.0, 1.0), (3.0, 3.0), (float("nan"), 5.0), (1.0, float("inf")),
                                       (float("-inf"), 5.0)], ids=["inverted", "equal", "nan", "inf", "-inf"])
    def test_bad_scale_is_refused_before_reading(self, scale):
        source = io.StringIO("1::1::3::0\n")
        with pytest.raises(ValueError, match=re.escape(f"rating scale [{scale[0]}, {scale[1]}] must be two finite")):
            parse_ratings(source, fmt="dat", scale=scale)
        assert source.tell() == 0

    def test_out_of_scale_rating_is_malformed(self):
        ds = parse_ratings(io.StringIO("1::1::9::0\n2::1::4::0\n"), fmt="dat")
        assert len(ds) == 1
        assert ds.n_malformed == 1

    def test_csv_with_header(self):
        text = "userId,movieId,rating,timestamp\n7,42,4.0,100\n8,42,2.0,101\n"
        ds = parse_ratings(io.StringIO(text), fmt="csv")
        assert ds.records == [(7, 42, 4.0, 100), (8, 42, 2.0, 101)]

    def test_csv_header_order_free_and_timestamp_optional(self):
        text = "rating,userId,movieId\n5,1,2\n"
        ds = parse_ratings(io.StringIO(text), fmt="csv")
        assert ds.records == [(1, 2, 5.0, 0)]

    def test_format_sniffing(self):
        assert parse_ratings(io.StringIO("1::2::3::4\n")).records[0] == (1, 2, 3.0, 4)
        csv_text = "userId,movieId,rating,timestamp\n1,2,3,4\n"
        assert parse_ratings(io.StringIO(csv_text)).records[0] == (1, 2, 3.0, 4)

    def test_empty_source_fatal(self):
        with pytest.raises(DataError):
            parse_ratings(io.StringIO(""), fmt="dat")

    def test_all_malformed_fatal(self):
        with pytest.raises(DataError):
            parse_ratings(io.StringIO("bogus\nlines\n"), fmt="dat")

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(DataError):
            parse_ratings(tmp_path / "nope.dat", fmt="dat")

    def test_custom_scale(self):
        ds = parse_ratings(io.StringIO("1::1::0.5::0\n"), fmt="dat", scale=(0.5, 5.0))
        assert ds.records[0][2] == 0.5

    @pytest.mark.parametrize("fmt, text", [
        ("dat", "1::1::4::10\n9223372036854775808::1::3::11\n"),
        ("dat", "1::1::4::10\n2::-9223372036854775809::3::11\n"),
        ("dat", "1::1::4::10\n2::1::3::99999999999999999999\n"),
        ("csv", "userId,movieId,rating,timestamp\n9223372036854775808,1,3,11\n1,1,4,10\n"),
    ], ids=["dat-user", "dat-item", "dat-timestamp", "csv-user"])
    def test_value_beyond_int64_is_fatal_naming_the_line(self, fmt, text):
        with pytest.raises(DataError, match="^<stream>:2: .* does not fit in 64 bits"):
            parse_ratings(io.StringIO(text), fmt=fmt)

    def test_overlong_csv_field_is_fatal_naming_file_and_line(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(f'userId,movieId,rating,timestamp\n1,2,3,4\n1,3,4,"{LONG_FIELD}"\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: field larger than field limit"):
            parse_ratings(path)

    def test_infinite_csv_timestamp_is_malformed(self):
        ds = parse_ratings(io.StringIO("userId,movieId,rating,timestamp\n1,2,3,inf\n1,3,4,5\n"), fmt="csv")
        assert ds.records == [(1, 3, 4.0, 5)] and ds.n_malformed == 1

    @pytest.mark.parametrize("fmt, text", [
        ("dat", "1::2::3::9007199254740993\n1::2::5::9007199254740992\n"),
        ("csv", "userId,movieId,rating,timestamp\n1,2,3,9007199254740993\n1,2,5,9007199254740992\n"),
        ("csv", "userId,movieId,rating,timestamp\n1,2,3,9007199254740993\n\n1,2,5,9007199254740992\n"),
        ("csv", 'userId,movieId,rating,timestamp\n1,2,3,"9007199254740993"\n1,2,5,9007199254740992.0\n'),
    ], ids=["dat", "csv", "csv-blank-line", "csv-quoted-and-float"])
    def test_timestamps_beyond_2_53_read_exactly(self, fmt, text):
        """An integer timestamp is read as that integer in either format and on
        either route, so the join keeps the same record; only a timestamp
        written as a float goes through float."""
        ds = parse_ratings(io.StringIO(text), fmt=fmt)
        assert ds.timestamp.tolist() == [9007199254740993, 9007199254740992]
        assert clean_and_join(ds, make_catalog([2])).ratings.records == [(1, 2, 3.0, 9007199254740993)]

    def test_float_csv_timestamp_is_truncated(self):
        ds = parse_ratings(io.StringIO("userId,movieId,rating,timestamp\n1,2,3,12.75\n1,3,4,-2.5\n"), fmt="csv")
        assert ds.timestamp.tolist() == [12, -2]


# One field longer than the csv module accepts.
LONG_FIELD = "x" * (csv.field_size_limit() + 1)

def rating_columns(ds):
    return [c.tolist() for c in (ds.user, ds.item, ds.rating, ds.timestamp)], ds.n_malformed


def catalog_contents(catalog):
    return catalog.entries, catalog.n_dropped_duplicates, catalog.n_skipped_rows


class TestOneReadingRule:
    """The same bytes read the same from a path and from a stream of their text."""

    @staticmethod
    def both_routes(tmp_path, data, parse, name="input"):
        path = tmp_path / name
        path.write_bytes(data)
        return parse(path), parse(io.StringIO(data.decode("utf-8")))

    @pytest.mark.parametrize("data, parse, expected", [
        (b"1::2::3::4\r5::6::3::7\n", lambda s: rating_columns(parse_ratings(s)),
         ([[1, 5], [2, 6], [3.0, 3.0], [4, 7]], 0)),
        (b"userId,movieId,rating,timestamp\r1,2,3,4\r5,6,3,7", lambda s: rating_columns(parse_ratings(s)),
         ([[1, 5], [2, 6], [3.0, 3.0], [4, 7]], 0)),
        (b"itemId,directors,screenwriters,cast\r1,A B,,C\r\n2,D,E,\"F|G\"\r",
         lambda s: catalog_contents(parse_item_features(s)),
         ({1: CatalogEntry(["a_b"], [], ["c"]), 2: CatalogEntry(["d"], ["e"], ["f", "g"])}, 0, 0)),
    ], ids=["dat", "ratings-csv", "metadata-csv"])
    def test_lone_carriage_return_ends_a_line(self, tmp_path, data, parse, expected):
        assert self.both_routes(tmp_path, data, parse) == (expected, expected)

    @pytest.mark.parametrize("data, parse", [
        (b"1::2::3::4\n5::6::3::7\n", lambda s: rating_columns(parse_ratings(s))),
        (b"userId,movieId,rating,timestamp\n1,2,3,4\n", lambda s: rating_columns(parse_ratings(s))),
        (b"itemId,directors,screenwriters,cast\n1,A,,C\n", lambda s: catalog_contents(parse_item_features(s))),
    ], ids=["dat", "ratings-csv", "metadata-csv"])
    def test_byte_order_mark_is_dropped(self, tmp_path, data, parse):
        plain = parse(io.StringIO(data.decode("utf-8")))
        assert self.both_routes(tmp_path, b"\xef\xbb\xbf" + data, parse) == (plain, plain)

    @pytest.mark.parametrize("data, parse, message", [
        (b"userId,itemId,rating\n1,2,3\n", parse_ratings, "1: rating CSV header missing required columns"),
        (b"\xef\xbb\xbfitemId;directors;screenwriters;cast\n", parse_item_features,
         "1: metadata CSV header missing required columns"),
        (b"1 2 3 4\n", parse_ratings, "1: cannot detect rating file format"),
        (b"\xef\xbb\xbf", parse_ratings, " rating source is empty"),
    ], ids=["ratings-header", "metadata-header", "sniff", "empty"])
    def test_header_errors_name_the_file(self, tmp_path, data, parse, message):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        for source, name in ((path, str(path)), (io.StringIO(data.decode("utf-8")), "<stream>")):
            with pytest.raises(DataError, match=f"^{re.escape(name)}:{message}"):
                parse(source)


# One-line variants the .dat fuzz mixes into well-formed files.
FUZZ_LINES = [
    b"\n", b"   \n", b"# 1::2::3::4\n", b"#1::2::3::4\n",
    b"1::2::3\n", b"1::2::3::4::5\n", b"1::2::3::\n", b"1:::2::3::4\n", b"1,2,3,4\n",
    b"1.0::2::3::4\n", b"1::1e3::3::4\n", b"1_0::2::3::4\n", b"+3::2::3::4\n", b" 12 ::2::3::4\n",
    b"1::2::3::4.0\n", b"-5::2::3::-4\n",
    b"1::2::nan::4\n", b"1::2::NaN::4\n", b"1::2::inf::4\n", b"1::2::-inf::4\n", b"1::2::4.::4\n",
    b"1::2::.5::4\n", b"1::2::9::4\n", b"1::2::0::4\n", b"1::2::4e0::4\n", b"1::2::1_0::4\n",
    b"\t1::\t2::3\t::4\t\n", b"1::2::3::4\r\n", b"1::2::3::4\r5::6::3::7\n", b"\xff\xfe::2::3::4\n",
    b"1::\xe9::3::4\n", b"1::2::3::4\x0b\n", b"\xc2\xa012::2::3::4\n",
    b"9223372036854775808::2::3::4\n", b"1::-9223372036854775809::3::4\n", b"1::2::3::9223372036854775808\n",
    b"9223372036854775807::-9223372036854775808::3::4\n",
]


def fuzz_inputs(seed, n_inputs):
    """Seeded .dat files: well-formed lines with a few variants mixed in."""
    rng = np.random.default_rng(seed)
    for _ in range(n_inputs):
        n = int(rng.integers(1, 25))
        columns = zip(rng.integers(1, 30, n), rng.integers(1, 20, n), rng.integers(2, 11, n) / 2, rng.integers(0, 999, n))
        lines = [f"{u}::{i}::{r:g}::{t}\n".encode() for u, i, r, t in columns]
        for _ in range(int(rng.integers(0, 3))):
            lines.insert(int(rng.integers(0, len(lines) + 1)), FUZZ_LINES[int(rng.integers(len(FUZZ_LINES)))])
        data = b"".join(lines)
        yield data.rstrip(b"\n") if rng.random() < 0.2 else data


class TestDatFuzz:
    """The one-pass .dat read against the per-line parser, its oracle."""

    @staticmethod
    def outcome(read):
        try:
            return read()
        except DataError as exc:
            return f"DataError: {exc}"

    @staticmethod
    def per_line(lines, name):
        """The per-line parser's columns and malformed line numbers."""
        columns, bad = ingest._parse_dat_lines(lines, 1.0, 5.0, name)
        if not len(columns[0]):
            raise DataError(f"{name}: no valid rating records found")
        return [c.tolist() for c in columns], bad

    def test_columnar_read_matches_per_line_parser(self, tmp_path):
        """A path whose bytes are not UTF-8 is a DataError naming it; any
        other path, and every decoded in-memory source, reads as the
        per-line parser reads the file's lines, split as Python's
        universal newlines split them."""
        path = tmp_path / "ratings.dat"
        sources = {"fast": 0, "fallback": 0, "not UTF-8": 0}
        for data in fuzz_inputs(seed=23, n_inputs=300):
            path.write_bytes(data)
            text = data.decode("utf-8", errors="replace")
            with open(path, encoding="utf-8", errors="replace") as stream:
                lines = stream.readlines()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
                    parse_ratings(path, fmt="dat")
                sources["not UTF-8"] += 1
                routes = [(io.StringIO(text), "<stream>")]
            else:
                routes = [(path, str(path)), (io.StringIO(text), "<stream>")]
            for source, name in routes:
                expected = self.outcome(lambda: self.per_line(lines, name))
                counted = expected if isinstance(expected, str) else (expected[0], len(expected[1]))
                assert self.outcome(lambda: rating_columns(parse_ratings(source, fmt="dat"))) == counted, data
                read = ingest._read_columns("".join(lines), "dat", 1.0, 5.0)
                sources["fallback" if read is None else "fast"] += 1
                if read is not None:
                    columns, bad = read
                    got = [c.tolist() for c in columns], bad
                    assert got == expected or (not columns[0].size and "no valid" in expected), data
        # Every route is exercised.
        assert min(sources["fast"], sources["fallback"]) > 100 and sources["not UTF-8"] > 10, sources


# Field and header pieces of the CSV fuzz; the first header of each list is the valid one.
RATING_CSV_FIELDS = [
    "0", "4.5", "-1", "nan", "inf", "-inf", "1e400", "1e3", "1_0", " 7 ", "9223372036854775808",
    "-9223372036854775809", "1" * 5000, "", " ", '"', '""', '"3"', '"1,2"', 'a"b', '"unclosed', "\x00", "é",
    "\xa05", LONG_FIELD, f'"{LONG_FIELD}"',
]
RATING_CSV_HEADERS = [
    "userId,movieId,rating,timestamp", "rating,userId,movieId", "timestamp,movieId, UserID ,rating",
    "movieId,rating,timestamp,userId", 'userId,"movieId",rating,timestamp', "userId,movieId,rating,rating",
    "userId,movieId,rating,timestamp,genre", 'userId,movieId,"rating', "userId,movieId", "", '"', LONG_FIELD,
]
METADATA_CSV_FIELDS = [
    "x", "", " ", "Tom Hanks", "a|b|c", "|||", "|".join(["p"] * 20), '"', '""', '"a,b"', 'a"b', '"unclosed',
    "\x00", "é ñ", "9" * 30, "-3", LONG_FIELD, f'"{LONG_FIELD}"',
]
METADATA_CSV_HEADERS = [
    "itemId,directors,screenwriters,cast", "cast,itemId,directors,screenwriters", "itemId,directors", "", '"',
    LONG_FIELD,
]


def csv_fuzz_inputs(seed, n_inputs, headers, fields):
    """Seeded CSV files: a header, then rows mixing small integers with odd fields, under mixed line
    ends, at times behind a BOM. In half the files a row has as many fields as the header, or is blank."""
    rng = np.random.default_rng(seed)
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    for _ in range(n_inputs):
        lines = [headers[0] if rng.random() < 0.5 else pick(headers)]
        width = len(lines[0].split(",")) if rng.random() < 0.5 else None
        odd = 0.25 if width is None else pick([0.0, 0.0, 0.0, 0.02, 0.1])
        for _ in range(int(rng.integers(0, 8))):
            n_fields = int(rng.integers(0, 6)) if width is None else width * (rng.random() < 0.9)
            lines.append(",".join(
                pick(fields) if rng.random() < odd else str(int(rng.integers(0, 7)))
                for _ in range(n_fields)
            ))
        data = "".join(line + ("\n" if rng.random() < 0.8 else pick(["\r\n", "\r", ""])) for line in lines).encode()
        data = b"\xef\xbb\xbf" + data if rng.random() < 0.1 else data
        yield data + b"\xff\xfe" if rng.random() < 0.1 else data


class TestCsvFuzz:
    """Every ratings or metadata CSV either parses or raises DataError;
    UTF-8 bytes read the same from a path as from a stream of their text."""

    @staticmethod
    def check(parse, inputs, tmp_path):
        path = tmp_path / "input.csv"
        outcomes = {"parsed": 0, "DataError": 0}
        for data in inputs:
            path.write_bytes(data)
            got = []
            for source in (path, io.StringIO(data.decode("utf-8", errors="replace"))):
                try:
                    got.append(parse(source))
                    outcomes["parsed"] += 1
                except DataError as exc:
                    got.append(str(exc).replace(str(path), "<stream>"))
                    outcomes["DataError"] += 1
                except Exception as exc:
                    pytest.fail(f"{type(exc).__name__}: {exc} on input {data[:300]!r}")
            if data.decode("utf-8", errors="replace").encode() == data:
                assert got[0] == got[1], data[:300]
        # Both outcomes occur.
        assert min(outcomes.values()) > 100, outcomes

    def test_ratings_csv(self, tmp_path):
        inputs = csv_fuzz_inputs(31, 400, RATING_CSV_HEADERS, RATING_CSV_FIELDS)
        self.check(lambda source: rating_columns(parse_ratings(source, fmt="csv")), inputs, tmp_path)

    def test_ratings_csv_columnar_pass_matches_per_line_parser(self, tmp_path, monkeypatch):
        """Every generated file reads the same, skipping or naming the same
        lines, with the strict columnar pass allowed and with every file
        sent to the per-line parser."""
        def outcome(data):
            got = []
            for strict in (False, True):
                source = io.StringIO(data.decode("utf-8", errors="replace"))
                try:
                    got.append(rating_columns(ingest._read_ratings(source, "csv", (1.0, 5.0), strict)))
                except DataError as exc:
                    got.append(f"DataError: {exc}")
            return got

        inputs = list(csv_fuzz_inputs(31, 400, RATING_CSV_HEADERS, RATING_CSV_FIELDS))
        both_routes = [outcome(data) for data in inputs]
        columnar = 0
        for data in inputs:
            text = io.StringIO(data.decode("utf-8", errors="replace").removeprefix("\ufeff"), newline=None).read()
            columnar += ingest._read_columns(text, "csv", 1.0, 5.0) is not None
        monkeypatch.setattr(ingest, "_read_columns", lambda *args: None)
        for data, got in zip(inputs, both_routes):
            assert got == outcome(data), data[:300]
        # Both routes are exercised.
        assert 40 < columnar < 350, columnar

    def test_metadata_csv(self, tmp_path):
        inputs = csv_fuzz_inputs(37, 400, METADATA_CSV_HEADERS, METADATA_CSV_FIELDS)
        self.check(lambda source: catalog_contents(parse_item_features(source)), inputs, tmp_path)


class TestRatingDataset:
    def test_means_match_numpy(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            records = [
                (int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                 float(rng.integers(1, 6)), 0)
                for _ in range(n)
            ]
            ds = RatingDataset(records=records)
            # Duplicate (user, item) pairs are common here; all at timestamp 0, so the last one counts.
            collapsed = {(u, i): r for u, i, r, _ in records}
            assert ds.global_mean == pytest.approx(np.mean(list(collapsed.values())), abs=1e-12)
            assert set(ds.item_means) == {i for _u, i in collapsed}
            for item, mean in ds.item_means.items():
                vals = [r for (_u, i), r in collapsed.items() if i == item]
                assert mean == pytest.approx(np.mean(vals), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_statistics_equal_a_dict_fold_exactly(self, seed):
        """Means and arrays equal a plain dict fold bit for bit, with
        ratings on a 0.1 grid, where the order of a sum changes its value."""
        rng = np.random.default_rng(seed)
        records = [
            (int(rng.integers(1, 25)), int(rng.integers(1, 15)), round(int(rng.integers(10, 51)) / 10, 1),
             int(rng.integers(0, 9)))
            for _ in range(int(rng.integers(150, 400)))
        ]
        # Item 99 appears only in a duplicated pair.
        records[5:5] = [(3, 99, 1.7, 0)]
        records.append((3, 99, 4.3, 1))
        text = "".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in records)
        full = RatingDataset(records=records)
        for ds, recs in ((full, records),
                         (parse_ratings(io.StringIO(text), fmt="dat"), records),
                         (full.subset(np.arange(len(records))[::-1]), records[::-1])):
            self.assert_equals_dict_fold(ds, recs)

    @staticmethod
    def assert_equals_dict_fold(ds, records):
        """Of a repeated (user, item) pair, the record with the latest timestamp counts, the later on a tie."""
        per_user: dict = {}
        latest = {}
        for pos, (user, item, rating, ts) in enumerate(records):
            row = per_user.setdefault(user, {})
            if item not in row or ts >= records[latest[user, item]][3]:
                row[item], latest[user, item] = rating, pos
        sums: dict = {}
        counts: dict = {}
        total = 0.0
        for pos, (user, item, rating, _ts) in enumerate(records):
            if latest[user, item] == pos:
                sums[item] = sums.get(item, 0.0) + rating
                counts[item] = counts.get(item, 0) + 1
                total += rating
        means = {i: sums[i] / counts[i] for i in sums}
        assert ds.item_means == means
        assert ds.global_mean == total / len(latest)
        assert (ds.n_users, ds.n_items) == (len(per_user), len(means))
        items = sorted(means)
        position = {item: p for p, item in enumerate(items)}
        cols, values, indptr = [], [], [0]
        for row in per_user.values():
            for item in sorted(row):
                cols.append(position[item])
                values.append(row[item])
            indptr.append(len(cols))
        arrays = ds.arrays
        assert arrays.items.tolist() == items and arrays.position == position
        assert arrays.indptr.tolist() == indptr and arrays.cols.tolist() == cols
        assert arrays.values.tolist() == values
        assert arrays.counts.tolist() == [counts[i] for i in items]
        assert list(arrays.rows) == list(per_user)
        for (user, (row_cols, deviations)), start, stop in zip(arrays.rows.items(), indptr, indptr[1:]):
            assert row_cols.tolist() == cols[start:stop], user
            assert deviations.tolist() == [v - means[items[c]] for c, v in zip(cols[start:stop], values[start:stop])]

    def test_views_are_built_on_first_read(self):
        ds = parse_ratings(io.StringIO("2::5::4::0\n1::5::3::1\n2::4::1::2\n3::4::9::9\n2::5::2::3\n"), fmt="dat")
        assert (len(ds), ds.n_users, ds.n_items, ds.n_malformed) == (4, 2, 2, 1)
        assert not {"records", "arrays"} & vars(ds).keys()
        assert ds.user.tolist() == [2, 1, 2, 2] and ds.item.tolist() == [5, 5, 4, 5]
        assert ds.rating.tolist() == [4.0, 3.0, 1.0, 2.0] and ds.timestamp.tolist() == [0, 1, 2, 3]
        assert ds.records == [(2, 5, 4.0, 0), (1, 5, 3.0, 1), (2, 4, 1.0, 2), (2, 5, 2.0, 3)]
        # One rating per (user, item) pair, its last record's; users in first-appearance order.
        assert list(ds.arrays.rows) == [2, 1] and ds.arrays.items.tolist() == [4, 5]
        assert ds.arrays.cols.tolist() == [0, 1, 1] and ds.arrays.values.tolist() == [1.0, 2.0, 3.0]

    def test_duplicate_pair_means_agree_with_lookup_maps(self):
        ds = RatingDataset(records=[(1, 1, 4.0, 0), (1, 1, 2.0, 1), (2, 2, 5.0, 2)])
        assert ds.arrays.values.tolist() == [2.0, 5.0] and ds.arrays.counts.tolist() == [1, 1]
        assert ds.item_means[1] == 2.0
        assert ds.global_mean == 3.5

    def test_out_of_scale_record_rejected(self):
        with pytest.raises(DataError):
            RatingDataset(records=[(1, 1, 7.0, 0)])
        with pytest.raises(DataError, match="rating 7 for user 2, item 1 outside scale"):
            RatingDataset(records=[(1, 1, 4.0, 0), (2, 1, 7, 0), (3, 1, 9.0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            RatingDataset(records=[])

    @pytest.mark.parametrize("r_min, r_max", [(3.0, 3.0), (-math.inf, math.inf), (5.0, 1.0), (5, 1)],
                             ids=["equal", "infinite", "inverted", "inverted-integer"])
    def test_bad_scale_is_refused_before_any_rating(self, r_min, r_max):
        # Every rating lies on [3.0, 3.0] and [-inf, inf]; [5.0, 1.0] is blamed on the scale, not a rating.
        records = [(1, 1, 3.0, 0), (2, 1, 3.0, 0), (1, 2, 3.0, 0)]
        with pytest.raises(ValueError, match=re.escape(f"rating scale [{r_min}, {r_max}] must be two finite")):
            RatingDataset(records=records, r_min=r_min, r_max=r_max)
        with pytest.raises(ValueError, match="rating scale"):
            RatingDataset(records=[], r_min=r_min, r_max=r_max)

    def test_records_from_a_generator(self):
        rows = [(1, 1, 4.0, 0), (2, 1, 3.0, 1), (2, 3, 5.0, 2)]
        ds = RatingDataset(records=(row for row in rows))
        assert list(ds.records) == rows and list(ds.records) == rows
        assert ds.user.tolist() == [1, 2, 2] and ds.global_mean == 4.0
        with pytest.raises(DataError, match="rating 7 for user 2, item 1 outside scale"):
            RatingDataset(records=(row for row in [(1, 1, 4.0, 0), (2, 1, 7, 0)]))

    def test_subset_preserves_scale_and_order(self):
        ds = RatingDataset(records=[(1, 1, 2.0, 0), (2, 1, 3.0, 1), (3, 2, 4.0, 2)])
        sub = ds.subset([2, 0])
        assert sub.records == [ds.records[2], ds.records[0]]
        assert (sub.r_min, sub.r_max) == (ds.r_min, ds.r_max)
        assert ds.subset(np.array([2, 0])).records == sub.records

    def test_subset_by_boolean_mask(self):
        ds = RatingDataset(records=[(1, 1, 2.0, 0), (2, 12, 3.0, 1), (3, 14, 4.0, 2)])
        assert ds.subset(ds.item > 10).records == ds.records[1:]
        assert ds.subset([True, False, True]).records == [ds.records[0], ds.records[2]]
        with pytest.raises(DataError, match="no records"):
            ds.subset(ds.item > 20)

    @pytest.mark.parametrize("indices", [[0.9, 1.7], np.array([0.0, 1.0]), [True, False], np.ones(4, dtype=bool),
                                         np.zeros(0, dtype=bool), [[0, 1]], 1, ["0"]],
                             ids=["floats", "float-array", "short-mask", "long-mask", "empty-mask", "2-d", "scalar",
                                  "strings"])
    def test_subset_refuses_what_is_neither_positions_nor_a_mask(self, indices):
        ds = RatingDataset(records=[(1, 1, 2.0, 0), (2, 12, 3.0, 1), (3, 14, 4.0, 2)])
        with pytest.raises(ValueError, match="subset takes integer positions or a mask of 3"):
            ds.subset(indices)


class TestParseItemFeatures:
    def test_cast_truncated_to_twelve(self):
        cast = "|".join(f"actor {i}" for i in range(15))
        text = f"itemId,directors,screenwriters,cast\n1,a dir,a writer,{cast}\n"
        catalog = parse_item_features(io.StringIO(text))
        entry = catalog.entries[1]
        assert len(entry.cast) == 12
        assert entry.cast == [f"actor_{i}" for i in range(12)]

    def test_minimal_entry_only_director(self):
        text = "itemId,directors,screenwriters,cast\n3,solo director,,\n"
        catalog = parse_item_features(io.StringIO(text))
        sentences = build_sentences(catalog)
        assert len(sentences) == 1
        assert sentences[0].tokens == ("solo_director",)

    def test_duplicate_item_row_last_wins(self):
        text = (
            "itemId,directors,screenwriters,cast\n"
            "1,first dir,,\n"
            "1,second dir,,\n"
        )
        catalog = parse_item_features(io.StringIO(text))
        assert catalog.entries[1].directors == ["second_dir"]
        assert catalog.n_dropped_duplicates == 1

    def test_bad_item_id_rows_skipped(self):
        text = "itemId,directors,screenwriters,cast\n,x,,\nabc,y,,\n5,z,,\n"
        catalog = parse_item_features(io.StringIO(text))
        assert list(catalog.entries) == [5]
        assert catalog.n_skipped_rows == 2

    def test_header_missing_columns_fatal(self):
        with pytest.raises(DataError):
            parse_item_features(io.StringIO("itemId,directors\n1,x\n"))

    @pytest.mark.parametrize("item", [2**63, -2**63 - 1, 2**66])
    def test_item_id_beyond_int64_is_fatal_naming_line(self, item):
        text = f"itemId,directors,screenwriters,cast\n5,z,,\n\n{item},y,,\n"
        with pytest.raises(DataError, match=f"^<stream>:4: item id {item} does not fit in 64 bits$"):
            parse_item_features(io.StringIO(text))

    def test_int64_bounds_are_item_ids(self):
        text = f"itemId,directors,screenwriters,cast\n{2**63 - 1},y,,\n{-2**63},z,,\n"
        assert list(parse_item_features(io.StringIO(text)).entries) == [2**63 - 1, -2**63]

    def test_overlong_field_is_fatal_naming_file_and_line(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(f"itemId,directors,screenwriters,cast\n1,a,b,c\n\n2,{LONG_FIELD},b,c\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: field larger than field limit"):
            parse_item_features(path)

    def test_catalog_round_trip(self):
        text = (
            "itemId,directors,screenwriters,cast\n"
            "1,Jane Doe,John Roe,A One|B Two|C Three\n"
            "2,77,88,99|100\n"
        )
        catalog = parse_item_features(io.StringIO(text))
        sink = io.StringIO()
        write_catalog(catalog, sink)
        reparsed = parse_item_features(io.StringIO(sink.getvalue()))
        assert reparsed.entries == catalog.entries


class TestBuildSentences:
    def test_token_order_directors_writers_cast(self):
        catalog = FeatureCatalog(entries={9: CatalogEntry(["d"], ["s"], ["a1", "a2"])})
        assert build_sentences(catalog)[0].tokens == ("d", "s", "a1", "a2")

    def test_empty_entry_excluded(self):
        catalog = FeatureCatalog(entries={1: CatalogEntry([], [], []), 2: CatalogEntry(["d"], [], [])})
        sentences = build_sentences(catalog)
        assert [s.item_id for s in sentences] == [2]
        assert len(catalog) - len(sentences) == 1


class TestCleanAndJoin:
    def test_ratings_restricted_to_items_with_features(self):
        ratings = RatingDataset(records=[(1, 1, 4.0, 0), (1, 2, 5.0, 0), (2, 1, 3.0, 0)])
        bundle = clean_and_join(ratings, make_catalog([1]))
        assert {r[1] for r in bundle.ratings.records} == {1}
        assert bundle.report["n_dropped_no_features"] == 1
        assert bundle.report["n_items_without_features"] == 1

    def test_duplicate_pair_keeps_latest_timestamp(self):
        ratings = RatingDataset(records=[(7, 1, 3.0, 10), (7, 1, 4.0, 20)])
        bundle = clean_and_join(ratings, make_catalog([1]))
        assert bundle.ratings.records == [(7, 1, 4.0, 20)]
        assert bundle.report["n_dropped_duplicates"] == 1

    def test_duplicate_pair_timestamp_tie_later_position_wins(self):
        ratings = RatingDataset(records=[(7, 1, 3.0, 10), (7, 1, 5.0, 10)])
        bundle = clean_and_join(ratings, make_catalog([1]))
        assert bundle.ratings.records == [(7, 1, 5.0, 10)]

    def test_last_per_pair_equals_the_three_key_lexsort(self):
        """One stable sort of the pair code keeps each pair's record that a
        lexsort by user, item and timestamp keeps, and a dataset's kept
        records are those of a lexsort by user code, item code and
        timestamp, in its order."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 40, 400):
            user, item, ts = (rng.integers(-3, 4, n), rng.integers(0, 6, n), rng.integers(0, 4, n))
            ds = RatingDataset._from_columns(user, item, np.full(n, 3.0), ts, 1.0, 5.0)
            order = np.lexsort((ts, item, user))
            last = np.append((user[order][1:] != user[order][:-1]) | (item[order][1:] != item[order][:-1]), True)
            pair = ds._users[1] * ds.n_items + ds._items[1]
            assert np.sort(ingest._last_per_pair(pair, ts)).tolist() == np.sort(order[last]).tolist()
            codes = (ds._users[1], ds._items[1])
            order = np.lexsort((ts, *codes[::-1]))
            last = np.append((codes[0][order][1:] != codes[0][order][:-1])
                             | (codes[1][order][1:] != codes[1][order][:-1]), True)
            assert ds._kept.tolist() == order[last].tolist()

    def test_raw_dataset_agrees_with_its_cleaned_bundle(self):
        """A pair re-rated later in the file at an earlier timestamp: the raw
        dataset's views keep the record the join keeps, so means and arrays agree.
        A user whose first record loses may come later in the cleaned user order,
        so the random worlds compare each user's ratings."""
        raw = RatingDataset(records=[(1, 1, 4.0, 20), (2, 1, 3.0, 5), (1, 2, 2.5, 7), (1, 1, 1.0, 10), (2, 2, 5.0, 8)])
        cleaned = clean_and_join(raw, make_catalog([1, 2])).ratings
        assert raw.item_means == cleaned.item_means == {1: 3.5, 2: 3.75}
        assert raw.global_mean == cleaned.global_mean == 3.625
        assert raw.arrays.values.tolist() == cleaned.arrays.values.tolist() == [4.0, 2.5, 3.0, 5.0]
        rng = np.random.default_rng(9)
        for _ in range(5):
            columns = rng.integers((1, 1, 10, 0), (9, 7, 51, 6), (60, 4))
            raw = RatingDataset(records=[(int(u), int(i), int(r) / 10, int(t)) for u, i, r, t in columns])
            cleaned = clean_and_join(raw, make_catalog(range(1, 7))).ratings
            assert len(cleaned) < len(raw)
            assert cleaned.item_means == raw.item_means and cleaned.global_mean == raw.global_mean
            rows = [{u: (c.tolist(), d.tolist()) for u, (c, d) in ds.arrays.rows.items()} for ds in (raw, cleaned)]
            assert rows[0] == rows[1]

    def test_empty_join_fatal(self):
        ratings = RatingDataset(records=[(1, 99, 4.0, 0)])
        with pytest.raises(EmptyJoinError):
            clean_and_join(ratings, make_catalog([1]))

    def test_report_accounting_adds_up(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            records = [
                (int(rng.integers(1, 8)), int(rng.integers(1, 10)),
                 float(rng.integers(1, 6)), int(rng.integers(0, 100)))
                for _ in range(n)
            ]
            ratings = RatingDataset(records=records)
            bundle = clean_and_join(ratings, make_catalog(range(1, 6)))
            rep = bundle.report
            assert rep["n_ratings_in"] == n
            assert (
                rep["n_ratings_kept"] + rep["n_dropped_duplicates"] + rep["n_dropped_no_features"]
                == rep["n_ratings_in"]
            )

    def test_idempotent_on_clean_output(self):
        records = [(1, 1, 4.0, 5), (2, 1, 3.0, 6), (1, 2, 5.0, 7)]
        catalog = make_catalog([1, 2])
        once = clean_and_join(RatingDataset(records=records), catalog)
        twice = clean_and_join(once.ratings, catalog)
        assert twice.ratings.records == once.ratings.records
        assert twice.report["n_dropped_duplicates"] == 0
        assert twice.report["n_dropped_no_features"] == 0

    def test_metadata_only_items_keep_their_sentences(self):
        ratings = RatingDataset(records=[(1, 1, 4.0, 0)])
        bundle = clean_and_join(ratings, make_catalog([1, 2, 3, 2**64]))
        assert {s.item_id for s in bundle.sentences} == {1, 2, 3, 2**64}
        assert bundle.ratings.n_items == 1

    def test_means_recomputed_after_filtering(self):
        ratings = RatingDataset(records=[(1, 1, 5.0, 0), (2, 1, 3.0, 0), (1, 2, 1.0, 0)])
        bundle = clean_and_join(ratings, make_catalog([1]))
        assert bundle.ratings.item_means[1] == pytest.approx(4.0)
        assert bundle.ratings.global_mean == pytest.approx(4.0)

    def test_report_json_single_line(self):
        ratings = RatingDataset(records=[(1, 1, 4.0, 0)])
        bundle = clean_and_join(ratings, make_catalog([1]))
        text = bundle.report_json()
        assert "\n" not in text
        assert json.loads(text) == bundle.report


class TestBundleIO:
    def test_save_load_round_trip(self, tmp_path):
        ratings = RatingDataset(
            records=[(1, 1, 4.0, 11), (2, 1, 3.5, 12), (1, 2, 5.0, 13)]
        )
        catalog = make_catalog([1, 2, 3])
        bundle = clean_and_join(ratings, catalog)
        out = save_bundle(bundle, catalog, tmp_path / "bundle")
        loaded = load_bundle(out)
        assert loaded.ratings.records == bundle.ratings.records
        assert loaded.sentences == bundle.sentences
        assert parse_item_features(out / "features.csv").entries == catalog.entries
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("scale", [(1.0, 5.0), (0.0, 10.0)])
    def test_report_records_the_scale(self, tmp_path, scale):
        ratings = RatingDataset(records=[(1, 1, 4.0, 11), (2, 1, 0.5 + scale[0], 12)], r_min=scale[0], r_max=scale[1])
        catalog = make_catalog([1])
        out = save_bundle(clean_and_join(ratings, catalog), catalog, tmp_path / "bundle")
        assert json.loads((out / "report.json").read_text())["rating_scale"] == list(scale)
        loaded = load_bundle(out)
        assert (loaded.ratings.r_min, loaded.ratings.r_max) == scale
        assert loaded.report["rating_scale"] == list(scale)

    @pytest.mark.parametrize("report", ["", "[1, 5]", '{"rating_scale": [1]}', '{"rating_scale": "high"}',
                                        '{"rating_scale": [5, 1]}', '{"rating_scale": [3, 3]}',
                                        '{"rating_scale": [NaN, 5]}', '{"rating_scale": [1, Infinity]}'])
    def test_load_bundle_rejects_a_bad_report(self, tmp_path, report):
        catalog = make_catalog([1])
        out = save_bundle(clean_and_join(RatingDataset(records=[(1, 1, 4.0, 11)]), catalog), catalog, tmp_path / "b")
        (out / "report.json").write_text(report)
        with pytest.raises(DataError, match=re.escape(f"{out / 'report.json'}: expected a JSON object")):
            load_bundle(out)

    @pytest.mark.parametrize("edit, dropped", [("features", (2, 0)), ("ratings", (0, 2)), ("both", (2, 2))])
    def test_load_bundle_rejects_an_inconsistent_bundle(self, tmp_path, edit, dropped):
        """A bundle whose ratings the re-join would drop (no features.csv row,
        or a repeated pair) is refused, naming ratings.csv and both counts."""
        ratings = RatingDataset(records=[(1, 1, 4.0, 11), (2, 1, 3.5, 12), (1, 2, 5.0, 13), (2, 3, 2.0, 14)])
        catalog = make_catalog([1, 2, 3])
        out = save_bundle(clean_and_join(ratings, catalog), catalog, tmp_path / "bundle")
        if edit != "ratings":
            lines = (out / "features.csv").read_text().splitlines()
            (out / "features.csv").write_text("\n".join(lines[:1] + lines[2:]) + "\n")  # item 1's row
        if edit != "features":
            lines = (out / "ratings.csv").read_text().splitlines()
            (out / "ratings.csv").write_text("\n".join(lines + lines[3:5]) + "\n")  # items 2 and 3
        message = (f"{out / 'ratings.csv'}: {dropped[0]} rating(s) of items without a features.csv row and "
                   f"{dropped[1]} repeated (user, item) pair(s)")
        with pytest.raises(DataError, match=re.escape(message)):
            load_bundle(out)

    @pytest.mark.parametrize("world", ["cli", "three-decimal", "int64-edges"])
    def test_every_bundle_ingest_writes_is_read_in_one_columnar_pass(self, tmp_path, monkeypatch, world):
        """The per-line CSV parser is never needed for a bundle ingest wrote."""
        raw = tmp_path / "raw"
        if world == "cli":
            synthdata.write_genre_world_files(raw)
            scale = ["--rating-min", "1", "--rating-max", "5"]
        else:
            rng = np.random.default_rng(3)
            n = 300
            if world == "three-decimal":
                ids = rng.integers(1, 40, n), rng.integers(1, 30, n), rng.integers(0, 10**9, n)
                ratings = (rng.integers(0, 5001, n) / 1000).tolist()
            else:
                edges = np.array([-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])
                ids = rng.choice(edges, n), rng.choice(edges, n), rng.choice(edges, n)
                ratings = (rng.integers(0, 11, n) / 2).tolist()
            raw.mkdir()
            users, items, stamps = (c.tolist() for c in ids)
            (raw / "ratings.dat").write_text("".join(
                f"{u}::{i}::{r!r}::{t}\n" for u, i, r, t in zip(users, items, ratings, stamps)))
            (raw / "features.csv").write_text("itemId,directors,screenwriters,cast\n" + "".join(
                f"{i},d{i % 7},w,a|b{i % 3}\n" for i in np.unique(ids[1]).tolist()))
            scale = ["--rating-min", "0", "--rating-max", "5"]
        assert main(["ingest", "--ratings", str(raw / "ratings.dat"), "--metadata", str(raw / "features.csv"),
                     "--out", str(tmp_path / "bundle"), *scale]) == 0
        expected = load_bundle(tmp_path / "bundle")

        def refused(*args, **kwargs):
            raise AssertionError("a bundle ingest wrote went to the per-line parser")

        monkeypatch.setattr(ingest, "_parse_csv_lines", refused)
        loaded = load_bundle(tmp_path / "bundle")
        assert rating_columns(loaded.ratings) == rating_columns(expected.ratings)
        assert len(loaded.ratings) >= 49  # every (user, item) pair of the int64 edges

    def test_load_bundle_codes_the_records_once(self, tmp_path, monkeypatch):
        """A bundle the join keeps whole reuses the read's user and item codes:
        two full-length np.unique calls, and the arrays of a dataset coded afresh."""
        ratings, catalog, _sentences = synthdata.genre_world(seed=5, n_users=60, n_items=40, ratings_per_user=12)
        out = save_bundle(clean_and_join(ratings, catalog), catalog, tmp_path / "bundle")
        lengths = []
        original = np.unique

        def counted(values, *args, **kwargs):
            lengths.append(len(values))
            return original(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        loaded = load_bundle(out).ratings
        arrays = loaded.arrays
        assert lengths.count(len(ratings)) <= 2 and len(loaded) == len(ratings)
        monkeypatch.undo()
        fresh = RatingDataset(records=loaded.records)
        for name in ("items", "cols", "values", "indptr"):
            assert np.array_equal(getattr(arrays, name), getattr(fresh.arrays, name)), name
        assert list(arrays.rows) == list(fresh.arrays.rows) and loaded.item_means == fresh.item_means

    def test_load_bundle_missing_dir_fatal(self, tmp_path):
        with pytest.raises(DataError):
            load_bundle(tmp_path / "absent")


class TestTextStream:
    def test_writers_give_a_path_the_text_they_give_a_stream(self, tmp_path):
        """Each writer puts the same UTF-8 text in a file as in a stream,
        closes the file and leaves the stream open."""
        catalog = parse_item_features(io.StringIO(
            'itemId,directors,screenwriters,cast\n1,José Ñúñez,"Roe, John",A One|B Two\n2,77,,99\n'
        ))
        ratings = RatingDataset(records=[(1, 1, 3.5, 10), (2, 2, 4.0, 11)])
        rows = [["cf", "holdout(0.8)", "1", "35", "0", "0.9", "0.7", "2", "0"]]
        table = EmbeddingTable(
            vocab=Vocabulary(tokens=["josé", "b"], counts=np.ones(2, dtype=np.int64)),
            input_vectors=np.array([[0.1, -2.5e-7], [1 / 3, 0.0]]),
        )
        writers = {
            "results.csv": lambda sink: write_results_csv(rows, sink),
            "manifest.json": lambda sink: write_manifest({"bundle": "bündel/", "k": 35}, sink),
            "vectors.txt": lambda sink: save_embeddings(table, sink),
            "features.csv": lambda sink: write_catalog(catalog, sink),
            "ratings.csv": lambda sink: write_ratings_csv(ratings, sink),
        }
        for name, write in writers.items():
            stream = io.StringIO()
            write(stream)
            write(tmp_path / name)
            assert not stream.closed
            assert (tmp_path / name).read_bytes() == stream.getvalue().encode("utf-8"), name

    @pytest.mark.parametrize("read, text", [
        (parse_ratings, "1::1::4::10\n3::é::3::4\n2::2::3::11\n"),
        (parse_ratings, "userId,movieId,rating,timestamp\n1,1,4,10\n3,é,3,4\n"),
        (parse_item_features, "itemId,directors,screenwriters,cast\n1,José Luis,,\n2,Josè Luis,,\n"),
        (load_embeddings, "2 2\njosé_luis 0.1 0.2\njosè_luis 0.3 0.4\n"),
    ], ids=["ratings-dat", "ratings-csv", "metadata", "vectors"])
    def test_readers_reject_text_that_is_not_utf8(self, tmp_path, read, text):
        """Latin-1 input is a DataError naming the file, from a path or
        an open stream; decoded with replacement, "José Luis" and "Josè
        Luis" were one token and an undecodable rating line was skipped."""
        path = tmp_path / "input"
        path.write_bytes(text.encode("latin-1"))
        with open(path, encoding="utf-8") as stream:
            for source in (path, str(path), stream):
                with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
                    read(source)
        with pytest.raises(DataError, match="^<stream>: not UTF-8 text"):
            read(io.TextIOWrapper(io.BytesIO(text.encode("latin-1")), encoding="utf-8"))
