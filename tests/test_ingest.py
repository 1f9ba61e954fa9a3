"""Parsing, cleaning, and joining of ratings + item metadata."""

import io
import json

import numpy as np
import pytest

from relfrec.embed import EmbeddingTable, Vocabulary, save_embeddings
from relfrec.errors import DataError, EmptyJoinError
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
            # Duplicate (user, item) pairs are common here; the last one counts.
            collapsed = {(u, i): r for u, i, r, _ in records}
            assert ds.global_mean == pytest.approx(np.mean(list(collapsed.values())), abs=1e-12)
            assert set(ds.item_means) == {i for _u, i in collapsed}
            for item, mean in ds.item_means.items():
                vals = [r for (_u, i), r in collapsed.items() if i == item]
                assert mean == pytest.approx(np.mean(vals), abs=1e-12)

    def test_duplicate_pair_means_agree_with_lookup_maps(self):
        ds = RatingDataset(records=[(1, 1, 4.0, 0), (1, 1, 2.0, 1), (2, 2, 5.0, 2)])
        assert ds.per_item[1] == {1: 2.0}
        assert ds.item_means[1] == 2.0
        assert ds.global_mean == 3.5

    def test_out_of_scale_record_rejected(self):
        with pytest.raises(DataError):
            RatingDataset(records=[(1, 1, 7.0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            RatingDataset(records=[])

    def test_subset_preserves_scale_and_order(self):
        ds = RatingDataset(records=[(1, 1, 2.0, 0), (2, 1, 3.0, 1), (3, 2, 4.0, 2)])
        sub = ds.subset([2, 0])
        assert sub.records == [ds.records[2], ds.records[0]]
        assert (sub.r_min, sub.r_max) == (ds.r_min, ds.r_max)


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
        bundle = clean_and_join(ratings, make_catalog([1, 2, 3]))
        assert {s.item_id for s in bundle.sentences} == {1, 2, 3}
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
        loaded, loaded_catalog = load_bundle(out)
        assert loaded.ratings.records == bundle.ratings.records
        assert loaded.sentences == bundle.sentences
        assert loaded_catalog.entries == catalog.entries
        assert (out / "report.json").exists()

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
