"""End-to-end command-line behavior: pipelines, exit codes, config files."""

import csv
import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from relfrec import embed, simcore
from relfrec.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_UNKNOWN_ID, _config, build_parser, main
from relfrec.embed import TrainConfig, load_embeddings
from relfrec.evaluation import evaluate, make_split, results_rows, write_results_csv
from relfrec.ingest import RatingDataset, clean_and_join, load_bundle, parse_item_features, parse_ratings
from relfrec.predict import PredictionConfig, predict_rating
from relfrec.simcore import HybridPolicy, build_item_vectors, make_provider, relf_sim

import oracles
import synthdata


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small rated world taken through ingest and a quick training run."""
    root = tmp_path_factory.mktemp("cliworld")
    synthdata.write_genre_world_files(root)
    assert main([
        "ingest",
        "--ratings", str(root / "ratings.dat"),
        "--metadata", str(root / "features.csv"),
        "--out", str(root / "bundle"),
    ]) == EXIT_OK
    assert main([
        "train-embed",
        "--bundle", str(root / "bundle"),
        "--out", str(root / "vecs.txt"),
        "--window", "4", "--dim", "16", "--negatives", "5",
        "--epochs", "4", "--seed", "3",
    ]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def unrated_bundle(workdir):
    """The CLI world plus three unrated items, ingested into bundle-unrated.

    Item 1001 copies rated item 3's feature row, item 1002 copies item
    9's, and item 1003 has only item 3's directors.
    """
    lines = (workdir / "features.csv").read_text().splitlines()
    fields = {int(line.split(",", 1)[0]): line.split(",", 1)[1] for line in lines[1:]}
    extra = [f"1001,{fields[3]}", f"1002,{fields[9]}", f"1003,{fields[3].split(',')[0]},,"]
    features = workdir / "features-unrated.csv"
    features.write_text("\n".join(lines + extra) + "\n")
    bundle = workdir / "bundle-unrated"
    assert main([
        "ingest", "--ratings", str(workdir / "ratings.dat"),
        "--metadata", str(features), "--out", str(bundle),
    ]) == EXIT_OK
    return bundle


def exit_code(argv):
    """main's exit code, also when argparse exits on a value its converter rejects."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# One field longer than the csv module accepts.
LONG_FIELD = "9" * (csv.field_size_limit() + 1)


def latin1_vector_file(workdir):
    """The CLI world's vector file with its second token spelt in latin-1."""
    lines = (workdir / "vecs.txt").read_bytes().splitlines(keepends=True)
    lines[2] = b"jos\xe9" + lines[2][lines[2].index(b" "):]
    return b"".join(lines)


def read_results(out_dir):
    with open(Path(out_dir) / "results.csv", newline="") as stream:
        return list(csv.reader(stream))


class TestIngest:
    def test_report_json_on_stdout(self, tmp_path, capsys):
        synthdata.write_genre_world_files(tmp_path, n_users=30, n_items=20, ratings_per_user=10)
        rc = main([
            "ingest",
            "--ratings", str(tmp_path / "ratings.dat"),
            "--metadata", str(tmp_path / "features.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["n_ratings_kept"] > 0
        assert report["n_sentences"] == report["n_items_kept"] + report["n_items_without_features"] == 20
        for name in ("ratings.csv", "features.csv", "report.json"):
            assert (tmp_path / "bundle" / name).exists()

    def test_missing_ratings_file(self, tmp_path):
        synthdata.write_genre_world_files(tmp_path, n_users=10, n_items=8, ratings_per_user=5)
        rc = main([
            "ingest",
            "--ratings", str(tmp_path / "nope.dat"),
            "--metadata", str(tmp_path / "features.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_INPUT

    def test_missing_required_option(self, tmp_path):
        rc = main(["ingest", "--ratings", str(tmp_path / "r.dat")])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("bad", ["ratings", "metadata"])
    def test_overlong_csv_field_exit_code(self, tmp_path, caplog, bad):
        files = {
            "ratings": ("r.csv", "userId,movieId,rating,timestamp\n1,1,4,10\n{}\n"),
            "metadata": ("f.csv", "itemId,directors,screenwriters,cast\n1,Some Director,,Some Actor\n{}\n"),
        }
        for kind, (name, text) in files.items():
            (tmp_path / name).write_text(text.format(f"2,1,3,{LONG_FIELD}" if kind == bad else ""))
        rc = main([
            "ingest", "--ratings", str(tmp_path / "r.csv"), "--metadata", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_INPUT
        assert f"{tmp_path / files[bad][0]}:3: field larger than field limit" in caplog.text
        assert not (tmp_path / "bundle").exists()

    def test_id_beyond_int64_exit_code(self, tmp_path):
        (tmp_path / "r.dat").write_text("1::1::4::10\n9223372036854775808::1::3::11\n")
        (tmp_path / "f.csv").write_text("itemId,directors,screenwriters,cast\n1,Some Director,,Some Actor\n")
        rc = main([
            "ingest",
            "--ratings", str(tmp_path / "r.dat"),
            "--metadata", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_INPUT
        assert not (tmp_path / "bundle").exists()

    def test_metadata_id_beyond_int64_exit_code(self, tmp_path, caplog):
        (tmp_path / "r.dat").write_text("1::1::4::10\n")
        (tmp_path / "f.csv").write_text(
            f"itemId,directors,screenwriters,cast\n1,Some Director,,Some Actor\n{2**66},Other Director,,\n")
        rc = main([
            "ingest",
            "--ratings", str(tmp_path / "r.dat"),
            "--metadata", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_INPUT
        assert f"{tmp_path / 'f.csv'}:3: item id {2**66} does not fit in 64 bits" in caplog.text
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("bad, text, message", [
        ("r.csv", "\ufeffuserId,itemId,rating\n1,1,4\n", "r.csv:1: rating CSV header missing required columns"),
        ("f.csv", "\ufeffitemId,directors,cast\n1,Some Director,Some Actor\n",
         "f.csv:1: metadata CSV header missing required columns"),
        ("r.csv", "\ufeff1 1 4 10\n", "r.csv:1: cannot detect rating file format"),
    ], ids=["ratings-header", "metadata-header", "sniff"])
    def test_header_error_exit_code(self, tmp_path, caplog, bad, text, message):
        files = {
            "r.csv": "\ufeffuserId,movieId,rating,timestamp\n1,1,4,10\n",
            "f.csv": "\ufeffitemId,directors,screenwriters,cast\n1,Some Director,,Some Actor\n",
        }
        files[bad] = text
        for name, content in files.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        rc = main([
            "ingest", "--ratings", str(tmp_path / "r.csv"), "--metadata", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_INPUT
        assert f"{tmp_path / message}" in caplog.text
        assert not (tmp_path / "bundle").exists()

    def test_byte_order_marks_are_dropped(self, tmp_path):
        (tmp_path / "r.csv").write_text("\ufeffuserId,movieId,rating,timestamp\r1,1,4,10\r\n", encoding="utf-8")
        (tmp_path / "f.csv").write_text("\ufeffitemId,directors,screenwriters,cast\n1,Some Director,,Some Actor\n",
                                        encoding="utf-8")
        rc = main([
            "ingest", "--ratings", str(tmp_path / "r.csv"), "--metadata", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_OK
        bundle = load_bundle(tmp_path / "bundle")
        assert bundle.ratings.records == [(1, 1, 4.0, 10)]
        assert bundle.sentences[0].tokens == ("some_director", "some_actor")

    @pytest.mark.parametrize("bad", ["r.dat", "r.csv", "f.csv"])
    def test_not_utf8_exit_code(self, tmp_path, caplog, bad):
        """Latin-1 bytes are an input error naming the file: decoded with
        replacement, "José Luis" and "Josè Luis" would become one token."""
        files = {
            "r.dat": "1::1::4::10\n2::2::3::11\n3::\u00e9::2::12\n",
            "r.csv": "userId,movieId,rating,timestamp\n1,1,4,10\n2,2,3,11\n3,\u00e9,2,12\n",
            "f.csv": "itemId,directors,screenwriters,cast\n1,Jos\u00e9 Luis,,Some Actor\n2,Jos\u00e8 Luis,,Some Actor\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("latin-1" if name == bad else "utf-8"))
        ratings = "r.csv" if bad == "r.csv" else "r.dat"
        rc = main([
            "ingest", "--ratings", str(tmp_path / ratings), "--metadata", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_INPUT
        assert f"{tmp_path / bad}: not UTF-8 text" in caplog.text
        assert not (tmp_path / "bundle").exists()

    def test_disjoint_ratings_and_metadata(self, tmp_path):
        (tmp_path / "r.dat").write_text("1::900::4::10\n2::901::3::11\n")
        (tmp_path / "f.csv").write_text("itemId,directors,screenwriters,cast\n1,Some Director,,Some Actor\n")
        rc = main([
            "ingest",
            "--ratings", str(tmp_path / "r.dat"),
            "--metadata", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == EXIT_INPUT


class TestTrainEmbed:
    def test_writes_one_vector_file(self, workdir):
        text = (workdir / "vecs.txt").read_text().splitlines()
        n, dim = text[0].split()
        assert int(n) == len(text) - 1
        assert dim == "16"
        assert not (workdir / "vecs.txt.ctx").exists()

    def test_missing_bundle(self, tmp_path):
        rc = main([
            "train-embed", "--bundle", str(tmp_path / "nothing"), "--out", str(tmp_path / "v.txt"),
        ])
        assert rc == EXIT_INPUT

    def test_divergent_learning_rate_exit_code(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setattr(embed, "_INITIAL_LR", 1e155)
        monkeypatch.setattr(embed, "_FINAL_LR", 1e155)
        rc = main([
            "train-embed", "--bundle", str(workdir / "bundle"), "--out", str(tmp_path / "v.txt"),
            "--window", "2", "--dim", "4", "--negatives", "5", "--epochs", "2",
        ])
        assert rc == EXIT_NUMERIC and not (tmp_path / "v.txt").exists()

    def test_features_without_a_pair_exit_code(self, workdir, tmp_path, caplog):
        # Each item keeps only its directors, one token: no sentence has a pair.
        lines = (workdir / "bundle" / "features.csv").read_text().splitlines()
        (tmp_path / "bundle").mkdir()
        (tmp_path / "bundle" / "features.csv").write_text(
            "\n".join([lines[0]] + [",".join(line.split(",")[:2]) + ",," for line in lines[1:]]) + "\n")
        rc = main(["train-embed", "--bundle", str(tmp_path / "bundle"), "--out", str(tmp_path / "v.txt")])
        assert rc == EXIT_INPUT and not (tmp_path / "v.txt").exists()
        assert "no (center, context) pair to train" in caplog.text

    def test_options_are_the_train_config_fields(self):
        sub = build_parser().subcommands["train-embed"]
        options = {action.dest for action in sub._actions} - {"help", "bundle", "out", "config", "verbose"}
        assert options == {f.name for f in fields(TrainConfig)}

    # word2vec's reference constants, which were options once, with the values they had.
    CONSTANTS = {"--min-count": "1", "--initial-lr": "0.025", "--final-lr": "0.0001", "--ns-exponent": "0.75"}

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("flag", CONSTANTS)
    def test_takes_no_reference_constants(self, workdir, tmp_path, monkeypatch, capsys, flag, form):
        monkeypatch.chdir(tmp_path)
        key, value = flag[2:].replace("-", "_"), self.CONSTANTS[flag]
        (tmp_path / "c.cfg").write_text(f"{key} = {value}\n")
        given = [flag, value] if form == "flag" else ["--config", "c.cfg"]
        rc = exit_code(["train-embed", "--bundle", str(workdir / "bundle"), "--out", "v.txt", *given])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        message = f"unrecognized arguments: {flag} {value}" if form == "flag" else f"{key} is no option of train-embed"
        assert message in captured.err and not (tmp_path / "v.txt").exists()

    def test_reads_only_the_bundles_features(self, workdir, tmp_path):
        """A bundle rated on a 0-10 scale trains with no scale option, into
        the vectors of any bundle with the same features."""
        ratings = tmp_path / "ratings.dat"
        ratings.write_text("".join(
            f"{user}::{item}::{int(rating) + 5}::{ts}\n"
            for user, item, rating, ts in (line.split("::") for line in (workdir / "ratings.dat").read_text().split())
        ))
        assert main(["ingest", "--ratings", str(ratings), "--metadata", str(workdir / "features.csv"),
                     "--out", str(tmp_path / "bundle"), "--rating-min", "0", "--rating-max", "10"]) == EXIT_OK
        out = tmp_path / "vecs.txt"
        assert main([
            "train-embed", "--bundle", str(tmp_path / "bundle"), "--out", str(out),
            "--window", "4", "--dim", "16", "--negatives", "5", "--epochs", "4", "--seed", "3",
        ]) == EXIT_OK
        assert out.read_bytes() == (workdir / "vecs.txt").read_bytes()

    @pytest.mark.parametrize("given", [["--rating-max", "9"], ["--config", "scale.cfg"]])
    def test_takes_no_rating_scale(self, workdir, tmp_path, monkeypatch, given):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scale.cfg").write_text("rating_min = 0\n")
        rc = exit_code(["train-embed", "--bundle", str(workdir / "bundle"), "--out", "v.txt", *given])
        assert rc == EXIT_INPUT and not (tmp_path / "v.txt").exists()


class TestEvaluate:
    def test_cf_only_needs_no_embeddings(self, workdir, tmp_path, capsys):
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--predictors", "cf", "--split", "kfold(3)", "--seed", "2",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "cf kfold(3) k=35: rmse=" in out
        rows = read_results(tmp_path / "run")
        assert rows[0] == ["predictor", "split", "seed", "k", "fold",
                           "rmse", "mae", "n_predictions", "n_fallbacks"]
        assert [r[4] for r in rows[1:]] == ["0", "1", "2", "mean"]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert manifest["predictors"] == "cf"
        assert manifest["split"] == "kfold(3)"

    def test_content_predictors_require_embeddings(self, workdir, tmp_path):
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--predictors", "cb,hybrid",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT

    def test_all_predictors_with_embeddings(self, workdir, tmp_path, capsys):
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--embeddings", str(workdir / "vecs.txt"),
            "--split", "holdout(0.8)", "--k", "10",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if " holdout(0.8) k=10: " in l]
        assert [l.split()[0] for l in lines] == ["cf", "cb", "hybrid"]
        rows = read_results(tmp_path / "run")
        assert [r[0] for r in rows[1:]] == ["cf", "cb", "hybrid"]

    @pytest.mark.parametrize("edit", ["features", "ratings", "both"])
    def test_inconsistent_bundle_is_an_input_error(self, workdir, tmp_path, caplog, capsys, edit):
        """A features.csv row deleted or two ratings.csv lines repeated: the
        re-join would drop ratings, so evaluate scores none and exits 2."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        features = (bundle / "features.csv").read_text().splitlines()
        ratings = (bundle / "ratings.csv").read_text().splitlines()
        # The first item's row goes; the repeated lines rate other items.
        item = features[1].split(",")[0]
        of_item = [line for line in ratings[1:] if line.split(",")[1] == item]
        no_features, repeated = len(of_item), [line for line in ratings[1:] if line not in of_item][:2]
        if edit == "ratings":
            no_features = 0
        else:
            (bundle / "features.csv").write_text("\n".join(features[:1] + features[2:]) + "\n")
        if edit == "features":
            repeated = []
        (bundle / "ratings.csv").write_text("\n".join(ratings + repeated) + "\n")
        rc = main(["evaluate", "--bundle", str(bundle), "--predictors", "cf", "--out-dir", str(tmp_path / "run")])
        assert (rc, capsys.readouterr().out) == (EXIT_INPUT, "") and not (tmp_path / "run").exists()
        assert (f"{bundle / 'ratings.csv'}: {no_features} rating(s) of items without a features.csv row and "
                f"{len(repeated)} repeated (user, item) pair(s)") in caplog.text

    def test_non_finite_embeddings_exit_code(self, workdir, tmp_path):
        lines = (workdir / "vecs.txt").read_text().splitlines(keepends=True)
        token, *values = lines[1].split()
        lines[1] = " ".join([token, "nan", *values[1:]]) + "\n"
        bad = tmp_path / "vecs.txt"
        bad.write_text("".join(lines))
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--embeddings", str(bad), "--predictors", "cb",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_not_utf8_embeddings_exit_code(self, workdir, tmp_path, caplog):
        bad = tmp_path / "vecs.txt"
        bad.write_bytes(latin1_vector_file(workdir))
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--embeddings", str(bad), "--predictors", "cf",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT
        assert f"{bad}: not UTF-8 text" in caplog.text
        assert not (tmp_path / "run").exists()

    def test_row_after_blank_line_in_embeddings_exit_code(self, workdir, tmp_path, caplog):
        # The extra row would otherwise be dropped without a word.
        lines = (workdir / "vecs.txt").read_text().splitlines(keepends=True)
        bad = tmp_path / "vecs.txt"
        bad.write_text("".join(lines) + "\n" + lines[1])
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--embeddings", str(bad), "--predictors", "cb",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT
        assert f"{bad} line {len(lines) + 2}: more rows than the header declares ({len(lines) - 1})" in caplog.text
        assert not (tmp_path / "run").exists()

    def test_repeated_predictor_exit_code(self, workdir, tmp_path):
        # Each fold would otherwise be evaluated and written twice.
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--predictors", "cf,cf", "--split", "kfold(3)",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_unknown_predictor_name(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "evaluate", "--bundle", str(workdir / "bundle"),
                "--predictors", "svd", "--out-dir", str(tmp_path / "run"),
            ])
        assert err.value.code == 2


class TestSweepK:
    def test_grid_rows(self, workdir, tmp_path):
        rc = main([
            "sweep-k", "--bundle", str(workdir / "bundle"),
            "--predictors", "cf", "--ks", "5,10",
            "--split", "holdout(0.8)", "--seed", "4",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_OK
        rows = read_results(tmp_path / "run")
        assert [(r[0], r[3]) for r in rows[1:]] == [("cf", "5"), ("cf", "10")]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "sweep-k"
        assert manifest["ks"] == "5,10"

    def test_single_cell_matches_evaluate(self, workdir, tmp_path):
        common = [
            "--bundle", str(workdir / "bundle"),
            "--predictors", "cf", "--split", "holdout(0.8)", "--seed", "6",
        ]
        assert main(["evaluate", *common, "--k", "35",
                     "--out-dir", str(tmp_path / "ev")]) == EXIT_OK
        assert main(["sweep-k", *common, "--ks", "35",
                     "--out-dir", str(tmp_path / "sw")]) == EXIT_OK
        assert read_results(tmp_path / "ev")[1] == read_results(tmp_path / "sw")[1]

    @pytest.mark.parametrize("grid", [["--predictors", "cf", "--ks", "5,5"], ["--predictors", "cf,cf", "--ks", "5"]])
    def test_repeated_cell_exit_code(self, workdir, tmp_path, grid):
        rc = main([
            "sweep-k", "--bundle", str(workdir / "bundle"), *grid,
            "--split", "kfold(3)", "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_no_k_option_and_manifest_replays(self, workdir, tmp_path):
        """sweep-k predicts at the largest of --ks, so it has no --k; its
        manifest, which names no k, replays byte for byte."""
        common = ["--bundle", str(workdir / "bundle"), "--predictors", "cf", "--ks", "2,10", "--split", "kfold(3)"]
        assert exit_code(["sweep-k", *common, "--k", "5", "--out-dir", str(tmp_path / "k")]) == EXIT_INPUT
        assert not (tmp_path / "k").exists()
        first = tmp_path / "first"
        assert main(["sweep-k", *common, "--out-dir", str(first)]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        assert "k" not in manifest
        (tmp_path / "replay.json").write_text(json.dumps({**manifest, "out_dir": str(tmp_path / "replay")}))
        assert main(["sweep-k", "--config", str(tmp_path / "replay.json")]) == EXIT_OK
        assert (first / "results.csv").read_bytes() == (tmp_path / "replay" / "results.csv").read_bytes()

    def test_missing_ks(self, workdir, tmp_path):
        rc = main([
            "sweep-k", "--bundle", str(workdir / "bundle"),
            "--predictors", "cf", "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT


class TestPredict:
    def test_single_pair_output(self, workdir, capsys):
        rc = main([
            "predict", "--bundle", str(workdir / "bundle"),
            "--model", "cf", "--user", "1", "--item", "2",
        ])
        assert rc == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith("user=1 item=2 value=")
        assert "detail=" in line and "neighbors=" in line

    def test_hybrid_model(self, workdir, capsys):
        rc = main([
            "predict", "--bundle", str(workdir / "bundle"),
            "--embeddings", str(workdir / "vecs.txt"),
            "--user", "2", "--item", "3",
        ])
        assert rc == EXIT_OK
        assert "value=" in capsys.readouterr().out

    def test_unknown_user(self, workdir):
        rc = main([
            "predict", "--bundle", str(workdir / "bundle"),
            "--model", "cf", "--user", "99999", "--item", "2",
        ])
        assert rc == EXIT_UNKNOWN_ID

    def test_unknown_item(self, workdir):
        rc = main([
            "predict", "--bundle", str(workdir / "bundle"),
            "--model", "cf", "--user", "1", "--item", "99999",
        ])
        assert rc == EXIT_UNKNOWN_ID

    @pytest.mark.parametrize("model", ["cf", "cb", "hybrid"])
    @pytest.mark.parametrize("item", [2**70, -2**70])
    def test_item_beyond_int64_is_unknown(self, workdir, model, item):
        rc = main([
            "predict", "--bundle", str(workdir / "bundle"), "--embeddings", str(workdir / "vecs.txt"),
            "--model", model, "--user", "1", f"--item={item}",
        ])
        assert rc == EXIT_UNKNOWN_ID

    def test_builds_no_record_tuples(self, workdir, monkeypatch, capsys):
        def unread(self):
            raise AssertionError("predict read the per-record tuples")

        monkeypatch.setattr(RatingDataset, "records", property(unread))
        rc = main([
            "predict", "--bundle", str(workdir / "bundle"),
            "--embeddings", str(workdir / "vecs.txt"), "--user", "2", "--item", "3",
        ])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("user=2 item=3 value=")

    def test_pairs_csv(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("user,item\n1,2\n2,3\n3,4\n")
        rc = main([
            "predict", "--bundle", str(workdir / "bundle"),
            "--model", "cf", "--pairs", str(pairs),
        ])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("user=2 item=3")

    @pytest.mark.parametrize("model", ["cf", "hybrid"])
    def test_pairs_sum_each_items_row_once(self, workdir, tmp_path, monkeypatch, capsys, model):
        """A pairs file that comes back to an item sums its rating row once, and
        prints, in input order, what predict_rating gives for each pair."""
        bundle = load_bundle(workdir / "bundle")
        ratings = bundle.ratings
        index = build_item_vectors(bundle.sentences, load_embeddings(workdir / "vecs.txt"))
        provider = make_provider(model, ratings, index, HybridPolicy())
        items = ratings.arrays.items[[5, 0, 3]].tolist()
        pairs = [(u, i) for u in sorted(ratings.arrays.rows)[:4] for i in items]
        want = []
        for u, i in pairs:
            pred = predict_rating(u, i, ratings, provider, PredictionConfig())
            want.append(f"user={u} item={i} value={pred.value:.4f} detail={pred.detail} neighbors={pred.neighbors_used}")
        (tmp_path / "pairs.csv").write_text("user,item\n" + "".join(f"{u},{i}\n" for u, i in pairs))
        summed, pair_sums = [], simcore._pair_sums
        monkeypatch.setattr(simcore, "_pair_sums", lambda arrays, t, *a: summed.append(t) or pair_sums(arrays, t, *a))
        rc = main(["predict", "--bundle", str(workdir / "bundle"), "--embeddings", str(workdir / "vecs.txt"),
                   "--model", model, "--pairs", str(tmp_path / "pairs.csv")])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines() == want
        assert len(summed) == len(items)

    @pytest.mark.parametrize("first", ["12,x7", "12", "x7,12"])
    def test_pairs_csv_bad_first_line_exit_code(self, workdir, tmp_path, caplog, capsys, first):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"{first}\n2,3\n")
        rc = main(["predict", "--bundle", str(workdir / "bundle"), "--model", "cf", "--pairs", str(pairs)])
        assert rc == EXIT_INPUT
        assert f"{pairs}:1: expected 'user,item' integer columns" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("header", ["user,item", "userId,movieId,rating", "user"])
    def test_pairs_csv_header_is_skipped(self, workdir, tmp_path, capsys, header):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"{header}\n2,3\n")
        rc = main(["predict", "--bundle", str(workdir / "bundle"), "--model", "cf", "--pairs", str(pairs)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("user=2 item=3 ")

    def test_pairs_csv_overlong_field(self, workdir, tmp_path, caplog, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"user,item\n1,2\n{LONG_FIELD},3\n")
        rc = main(["predict", "--bundle", str(workdir / "bundle"), "--model", "cf", "--pairs", str(pairs)])
        assert rc == EXIT_INPUT
        assert f"{pairs}:3: field larger than field limit" in caplog.text
        assert capsys.readouterr().out == ""

    def test_pairs_csv_not_utf8(self, workdir, tmp_path, caplog, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(b"user,item\n1,2\n2,\xff3\n")
        rc = main(["predict", "--bundle", str(workdir / "bundle"), "--model", "cf", "--pairs", str(pairs)])
        assert rc == EXIT_INPUT
        assert f"{pairs}: not UTF-8 text" in caplog.text
        assert capsys.readouterr().out == ""

    def test_missing_pair_arguments(self, workdir):
        rc = main(["predict", "--bundle", str(workdir / "bundle"), "--model", "cf"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("line, given", [
        (None, ["--user", "2", "--item", "5"]),
        (None, ["--user", "2"]),
        (None, ["--item", "5"]),
        ("user = 2", []),
        ("item = 5", []),
    ], ids=["user-item", "user", "item", "user-config", "item-config"])
    def test_pairs_with_a_pair_argument_is_an_input_error(self, workdir, tmp_path, caplog, capsys, line, given):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("user,item\n1,3\n")
        argv = ["predict", "--bundle", str(workdir / "bundle"), "--model", "cf", "--pairs", str(pairs), *given]
        if line is not None:
            (tmp_path / "c.cfg").write_text(line + "\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        assert main(argv) == EXIT_INPUT
        assert "--pairs is not allowed with --user or --item" in caplog.text
        assert capsys.readouterr().out == ""


class TestSimilar:
    def test_feature_neighbors(self, workdir, capsys):
        rc = main([
            "similar", "--feature", "g0_dir0",
            "--embeddings", str(workdir / "vecs.txt"), "--n", "3",
        ])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        token, value = lines[0].split("\t")
        float(value)
        assert token != "g0_dir0"

    def test_feature_accepts_raw_name(self, workdir, capsys):
        rc = main([
            "similar", "--feature", "G0  Dir0",
            "--embeddings", str(workdir / "vecs.txt"), "--n", "1",
        ])
        assert rc == EXIT_OK

    def test_unknown_feature(self, workdir):
        rc = main([
            "similar", "--feature", "nobody_anywhere",
            "--embeddings", str(workdir / "vecs.txt"),
        ])
        assert rc == EXIT_UNKNOWN_ID

    def test_feature_not_utf8_embeddings(self, workdir, tmp_path, caplog, capsys):
        bad = tmp_path / "vecs.txt"
        bad.write_bytes(latin1_vector_file(workdir))
        rc = main(["similar", "--feature", "g0_dir0", "--embeddings", str(bad)])
        assert rc == EXIT_INPUT
        assert f"{bad}: not UTF-8 text" in caplog.text
        assert capsys.readouterr().out == ""

    def test_needs_a_query(self, workdir, caplog, capsys):
        rc = exit_code(["similar", "--bundle", str(workdir / "bundle"), "--embeddings", str(workdir / "vecs.txt")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        message = caplog.text + captured.err
        assert "--item" in message and "--feature" in message

    def test_feature_requires_embeddings(self, workdir):
        rc = main(["similar", "--feature", "g0_dir0"])
        assert rc == EXIT_INPUT

    def test_item_neighbors_content(self, workdir, capsys):
        # Item 1 is warm in this world, so hybrid takes the rating route.
        for model, expected in (("cb", "content"), ("hybrid", "rating")):
            rc = main([
                "similar", "--item", "1", "--model", model, "--n", "4",
                "--bundle", str(workdir / "bundle"),
                "--embeddings", str(workdir / "vecs.txt"),
            ])
            assert rc == EXIT_OK
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 4
            neighbor, value, source = lines[0].split("\t")
            assert source == expected
            assert int(neighbor) != 1

    def test_item_neighbors_rating(self, workdir, capsys):
        rc = main([
            "similar", "--item", "1", "--model", "cf", "--n", "2",
            "--bundle", str(workdir / "bundle"),
        ])
        assert rc == EXIT_OK
        assert all(l.split("\t")[2] == "rating" for l in capsys.readouterr().out.strip().splitlines())

    @pytest.mark.parametrize("taus", [[], ["--tau-pair", "1", "--tau-item", "0"]], ids=["default-taus", "all-warm"])
    def test_item_neighbors_match_reference_functions(self, workdir, unrated_bundle, capsys, taus):
        bundle = load_bundle(unrated_bundle)
        ratings = bundle.ratings
        index = build_item_vectors(bundle.sentences, load_embeddings(workdir / "vecs.txt"))
        policy = HybridPolicy(*(int(v) for v in taus[1::2])) if taus else HybridPolicy()
        rated, indexed = set(ratings.arrays.position), set(index.vectors)
        assert {1001, 1002, 1003} <= indexed - rated
        assert relf_sim(1, 3, index).value == relf_sim(1, 1001, index).value
        for model, items in (("cf", rated), ("cb", indexed), ("hybrid", rated | indexed)):
            reference = oracles.reference_similarity(model, ratings, index, policy)
            for item in sorted({1, 3, 9, 1001, 1002, 1003} & items):
                rc = main([
                    "similar", "--item", str(item), "--model", model, "--n", "1000",
                    "--bundle", str(unrated_bundle), "--embeddings", str(workdir / "vecs.txt"), *taus,
                ])
                assert rc == EXIT_OK
                scored = [(j, reference(item, j)) for j in sorted(items) if j != item]
                ranked = sorted(((j, sv) for j, sv in scored if sv is not None), key=lambda t: (-t[1].value, t[0]))
                want = "".join(f"{j}\t{sv.value:.6f}\t{sv.source}\n" for j, sv in ranked)
                assert capsys.readouterr().out == want, (model, item)

    def test_unknown_item(self, workdir):
        rc = main([
            "similar", "--item", "99999", "--model", "cf", "--bundle", str(workdir / "bundle"),
        ])
        assert rc == EXIT_UNKNOWN_ID

    @pytest.mark.parametrize("model", ["cf", "cb", "hybrid"])
    @pytest.mark.parametrize("item", [2**70, -2**70])
    def test_item_beyond_int64_is_unknown(self, workdir, capsys, model, item):
        rc = main([
            "similar", f"--item={item}", "--model", model,
            "--bundle", str(workdir / "bundle"), "--embeddings", str(workdir / "vecs.txt"),
        ])
        assert rc == EXIT_UNKNOWN_ID
        assert capsys.readouterr().out == ""

    def test_n_below_one_rejected(self, workdir, capsys):
        queries = (
            ["--item", "1", "--model", "cb", "--bundle", str(workdir / "bundle")],
            ["--feature", "g0_dir0"],
        )
        for query in queries:
            for n in ("0", "-1", "-2"):
                rc = main(["similar", *query, "--n", n, "--embeddings", str(workdir / "vecs.txt")])
                assert rc == EXIT_INPUT
        assert capsys.readouterr().out == ""


class TestBundleRatingScale:
    """Ingest records the rating scale in the bundle; later stages read it from there."""

    COMMANDS = {
        "evaluate": ["--predictors", "cf", "--out-dir", "run"],
        "sweep-k": ["--predictors", "cf", "--ks", "3", "--out-dir", "run"],
        "predict": ["--model", "cf", "--user", "1", "--item", "1"],
        "similar": ["--model", "cf", "--item", "1"],
    }

    @pytest.mark.parametrize("given, key", [(["--rating-max", "9"], "--rating-max"),
                                            (["--config", "scale.cfg"], "rating_min")], ids=["flag", "config"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_takes_no_rating_scale(self, workdir, tmp_path, monkeypatch, capsys, command, given, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scale.cfg").write_text("rating_min = 0\n")
        rc = exit_code([command, "--bundle", str(workdir / "bundle"), *self.COMMANDS[command], *given])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert key in captured.err and not (tmp_path / "run").exists()

    def test_evaluates_on_the_ingested_scale(self, workdir, tmp_path):
        """A 0-10 bundle evaluates with no scale option, clamped to 0-10 as
        the library clamps a dataset parsed on that scale."""
        assert main(["ingest", "--ratings", str(workdir / "ratings.dat"), "--metadata", str(workdir / "features.csv"),
                     "--out", str(tmp_path / "bundle"), "--rating-min", "0", "--rating-max", "10"]) == EXIT_OK
        assert json.loads((tmp_path / "bundle" / "report.json").read_text())["rating_scale"] == [0.0, 10.0]
        common = ["--predictors", "cf", "--split", "holdout(0.8)", "--k", "3"]
        for bundle, out in ((tmp_path / "bundle", "wide"), (workdir / "bundle", "default")):
            assert main(["evaluate", "--bundle", str(bundle), *common, "--out-dir", str(tmp_path / out)]) == EXIT_OK
        wide = clean_and_join(parse_ratings(workdir / "ratings.dat", scale=(0, 10)),
                              parse_item_features(workdir / "features.csv")).ratings
        plan = make_split(wide, "holdout(0.8)", 1)
        write_results_csv(results_rows("cf", plan, 3, evaluate("cf", plan, wide, PredictionConfig(k=3))),
                          tmp_path / "library.csv")
        results = (tmp_path / "wide" / "results.csv").read_bytes()
        assert results == (tmp_path / "library.csv").read_bytes()
        assert results != (tmp_path / "default" / "results.csv").read_bytes()

    @pytest.mark.parametrize("line", ["1,1,7,0", "1,1,four,0"], ids=["off-scale", "malformed"])
    def test_bad_bundle_rating_line_is_an_input_error(self, workdir, tmp_path, caplog, line):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        n_lines = len((bundle / "ratings.csv").read_text().splitlines())
        with open(bundle / "ratings.csv", "a") as stream:
            stream.write(line + "\n")
        rc = main(["evaluate", "--bundle", str(bundle), "--predictors", "cf", "--out-dir", str(tmp_path / "run")])
        assert rc == EXIT_INPUT and not (tmp_path / "run").exists()
        assert f"{bundle / 'ratings.csv'}:{n_lines + 1}: malformed or off the scale [1.0, 5.0]" in caplog.text
        assert "skipped" not in caplog.text

    def test_first_bad_bundle_line_is_named_and_none_is_skipped(self, workdir, tmp_path, caplog):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        lines = (bundle / "ratings.csv").read_text().splitlines()
        lines[2] = "oops"
        (bundle / "ratings.csv").write_text("\n".join([*lines, "1,1,7,0"]) + "\n")
        rc = main(["evaluate", "--bundle", str(bundle), "--predictors", "cf", "--out-dir", str(tmp_path / "run")])
        assert rc == EXIT_INPUT and not (tmp_path / "run").exists()
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
            f"{bundle / 'ratings.csv'}:3: malformed or off the scale [1.0, 5.0]"]

    def test_malformed_line_before_an_id_beyond_int64_is_named(self, workdir, tmp_path, caplog):
        # The strict read names the first bad line in file order, whichever kind it is.
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        lines = (bundle / "ratings.csv").read_text().splitlines()
        lines[2] = "oops"
        (bundle / "ratings.csv").write_text("\n".join([*lines, "9223372036854775808,1,3,0"]) + "\n")
        rc = main(["evaluate", "--bundle", str(bundle), "--predictors", "cf", "--out-dir", str(tmp_path / "run")])
        assert rc == EXIT_INPUT and not (tmp_path / "run").exists()
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
            f"{bundle / 'ratings.csv'}:3: malformed or off the scale [1.0, 5.0]"]
        # Without the malformed line, the id is named.
        lines[2] = lines[3]
        (bundle / "ratings.csv").write_text("\n".join([*lines, "9223372036854775808,1,3,0"]) + "\n")
        caplog.clear()
        assert main(["evaluate", "--bundle", str(bundle), "--predictors", "cf",
                     "--out-dir", str(tmp_path / "run")]) == EXIT_INPUT
        assert f"ratings.csv:{len(lines) + 1}: user id 9223372036854775808 does not fit in 64 bits" in caplog.text

    @pytest.mark.parametrize("scale", [("5", "1"), ("3", "3"), ("nan", "5"), ("1", "inf")],
                             ids=["inverted", "equal", "nan", "inf"])
    def test_bad_scale_is_an_input_error(self, workdir, tmp_path, caplog, scale):
        """Ingest refuses the scale before reading a line; a bundle whose report holds it is refused too."""
        rc = main(["ingest", "--ratings", str(workdir / "ratings.dat"), "--metadata", str(workdir / "features.csv"),
                   "--out", str(tmp_path / "bundle"), f"--rating-min={scale[0]}", f"--rating-max={scale[1]}"])
        assert rc == EXIT_INPUT and not (tmp_path / "bundle").exists()
        r_min, r_max = map(float, scale)
        assert f"rating scale [{r_min}, {r_max}] must be two finite numbers, min below max" in caplog.text
        assert "skipped" not in caplog.text
        bundle = tmp_path / "copy"
        shutil.copytree(workdir / "bundle", bundle)
        report = json.loads((bundle / "report.json").read_text())
        (bundle / "report.json").write_text(json.dumps({**report, "rating_scale": [r_min, r_max]}))
        rc = main(["evaluate", "--bundle", str(bundle), "--predictors", "cf", "--out-dir", str(tmp_path / "run")])
        assert rc == EXIT_INPUT and not (tmp_path / "run").exists()
        assert f"{bundle / 'report.json'}: expected a JSON object whose rating_scale is [min, max]" in caplog.text

    def test_report_without_a_scale_reads_on_one_to_five(self, workdir, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        report = json.loads((bundle / "report.json").read_text())
        report.pop("rating_scale", None)
        (bundle / "report.json").write_text(json.dumps(report))
        common = ["--predictors", "cf", "--split", "holdout(0.8)", "--k", "3"]
        for source, out in ((bundle, "older"), (workdir / "bundle", "current")):
            assert main(["evaluate", "--bundle", str(source), *common, "--out-dir", str(tmp_path / out)]) == EXIT_OK
        assert read_results(tmp_path / "older") == read_results(tmp_path / "current")


class TestConfigFile:
    def test_key_value_config(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# evaluation settings\n"
            f"bundle = {workdir / 'bundle'}\n"
            "predictors = cf\n"
            "split = holdout(0.8)\n"
            "k = 5\n"
            f"out-dir = {tmp_path / 'run'}\n"
        )
        rc = main(["evaluate", "--config", str(cfg)])
        assert rc == EXIT_OK
        rows = read_results(tmp_path / "run")
        assert rows[1][0] == "cf"
        assert rows[1][3] == "5"
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["k"] == 5

    def test_config_values_go_through_option_converters(self, workdir, tmp_path):
        """A number for a list option is a one-element list; flag text and
        a JSON value give the same sweep."""
        common = [f"bundle = {workdir / 'bundle'}", "predictors = cf", "split = holdout(0.8)", "seed = 4"]
        assert main([
            "sweep-k", "--bundle", str(workdir / "bundle"), "--predictors", "cf",
            "--split", "holdout(0.8)", "--seed", "4", "--ks", "35", "--out-dir", str(tmp_path / "flags"),
        ]) == EXIT_OK
        (tmp_path / "run.cfg").write_text("\n".join([*common, "ks = 35", f"out-dir = {tmp_path / 'kv'}"]) + "\n")
        (tmp_path / "run.json").write_text(json.dumps({
            "bundle": str(workdir / "bundle"), "predictors": "cf", "split": "holdout(0.8)",
            "seed": 4, "ks": 35, "out_dir": str(tmp_path / "json"),
        }))
        for name, out in (("run.cfg", "kv"), ("run.json", "json")):
            assert main(["sweep-k", "--config", str(tmp_path / name)]) == EXIT_OK
            rows = read_results(tmp_path / out)
            assert [(r[0], r[3]) for r in rows[1:]] == [("cf", "35")]
            assert (tmp_path / out / "results.csv").read_bytes() == (tmp_path / "flags" / "results.csv").read_bytes()

    @pytest.mark.parametrize("command, key, text", [
        ("sweep-k", "ks", "5,10"),
        ("sweep-k", "ks", "(5, 10)"),
        ("evaluate", "k", "5.0"),
        ("evaluate", "embeddings", "123"),
    ])
    def test_config_value_is_flag_text(self, workdir, tmp_path, monkeypatch, command, key, text):
        """A `key = value` line and the same text given as its flag end
        the same way: the same exit code and the same results.csv."""
        monkeypatch.chdir(tmp_path)
        common = ["--bundle", str(workdir / "bundle"), "--predictors", "cf", "--split", "holdout(0.8)"]
        (tmp_path / "run.cfg").write_text(f"{key} = {text}\n")
        outcomes = []
        for name, given in (("flag", [f"--{key}", text]), ("cfg", ["--config", "run.cfg"])):
            rc = exit_code([command, *common, *given, "--out-dir", name])
            results = tmp_path / name / "results.csv"
            outcomes.append((rc, results.read_bytes() if results.exists() else None))
        assert outcomes[0] == outcomes[1]

    def test_unconvertible_config_value(self, workdir, tmp_path):
        for command, name, text in (
            ("sweep-k", "ks.cfg", "ks = 3.5\n"),
            ("evaluate", "k.cfg", "k = 2.5\n"),
            ("sweep-k", "ks.json", json.dumps({"ks": [5, "x"]})),
            ("sweep-k", "predictors.json", json.dumps({"predictors": "cf,bogus"})),
        ):
            cfg = tmp_path / name
            cfg.write_text(text)
            with pytest.raises(SystemExit) as err:
                main([command, "--config", str(cfg), "--bundle", str(workdir / "bundle"),
                      "--out-dir", str(tmp_path / "run")])
            assert err.value.code == EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_manifest_replay_is_byte_identical(self, workdir, tmp_path):
        first = tmp_path / "first"
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--predictors", "cf", "--split", "kfold(3)", "--seed", "9", "--k", "7",
            "--out-dir", str(first),
        ])
        assert rc == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        assert "workers" not in manifest
        # Manifests from older versions carry a "workers" key; replay ignores it.
        for tag, extra in (("second", {}), ("legacy", {"workers": 1})):
            out = tmp_path / tag
            replay_cfg = tmp_path / f"{tag}.json"
            replay_cfg.write_text(json.dumps({**manifest, **extra, "out_dir": str(out)}))
            rc = main(["evaluate", "--config", str(replay_cfg)])
            assert rc == EXIT_OK
            assert (first / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    def test_flags_override_config(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"bundle = {workdir / 'bundle'}\n"
            "predictors = cf\n"
            "split = holdout(0.8)\n"
            "k = 5\n"
        )
        rc = main([
            "evaluate", "--config", str(cfg),
            "--k", "2", "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_OK
        assert read_results(tmp_path / "run")[1][3] == "2"

    def test_unknown_config_key_rejected(self, workdir, tmp_path, capsys):
        """A key that is no option of the subcommand is an input error naming
        the file and key, whether a misspelt option or argparse's own `func`."""
        for name, key, text in (
            ("run.cfg", "neighbours", f"bundle = {workdir / 'bundle'}\npredictors = cf\nneighbours = 5\n"),
            ("run.json", "func", json.dumps({"bundle": str(workdir / "bundle"), "predictors": "cf", "func": "x"})),
        ):
            cfg = tmp_path / name
            cfg.write_text(text)
            rc = main(["evaluate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
            assert rc == EXIT_INPUT
            err = capsys.readouterr().err
            assert str(cfg) in err
            assert key in err
        assert not (tmp_path / "run").exists()

    def test_removed_option_keys_ignored(self, workdir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("no-sidecar = true\nworkers = 2\ncommand = train-embed\n")
        out = tmp_path / "v.txt"
        rc = main([
            "train-embed", "--config", str(cfg), "--bundle", str(workdir / "bundle"), "--out", str(out),
            "--window", "2", "--dim", "4", "--negatives", "2", "--epochs", "1",
        ])
        assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg", "v.txt"]

    def test_config_before_subcommand_rejected(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("k = 5\n")
        assert exit_code(["--config", str(cfg)]) == EXIT_INPUT

    def test_one_config_per_run(self, workdir, tmp_path, capsys):
        for name, text in (("a.cfg", "k = 5\n"), ("b.cfg", "k = 9\n")):
            (tmp_path / name).write_text(text)
        common = ["evaluate", "--bundle", str(workdir / "bundle"), "--predictors", "cf",
                  "--out-dir", str(tmp_path / "run")]
        assert main([*common, "--config", str(tmp_path / "a.cfg"), "--config", str(tmp_path / "b.cfg")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(tmp_path / "a.cfg") in err and str(tmp_path / "b.cfg") in err
        assert main([*common, "--config="]) == EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_missing_config_file(self, workdir, tmp_path):
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--config", str(tmp_path / "ghost.cfg"),
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("name, lines", [
        ("latin-1.cfg", ["split = holdout(0.8)", "# d\xe9j\xe0 vu"]),
        ("unhashable-int.cfg", ["k = {[]: 1}"]),
        ("unhashable-text.cfg", ["split = {[]: 1}"]),
        ("number-path.cfg", ["embeddings = 123"]),
        ("number-path.json", ['{"embeddings": 5}']),
        ("list-path.json", ['{"out_dir": ["a", "b"]}']),
        ("deep.json", ['{"k": ' + "[" * 100_000 + "]" * 100_000 + "}"]),
    ])
    def test_bad_config_value_exit_code(self, workdir, tmp_path, capsys, name, lines):
        """An undecodable file, JSON nested too deep to decode, text an
        option's conversion rejects, or a non-text JSON value for a text
        option is an input error, not a crash."""
        cfg = tmp_path / name
        cfg.write_bytes("\n".join(lines).encode("latin-1"))
        rc = exit_code([
            "evaluate", "--config", str(cfg), "--bundle", str(workdir / "bundle"),
            "--predictors", "cf", "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_config_line(self, workdir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        rc = main(["evaluate", "--config", str(cfg)])
        assert rc == EXIT_INPUT

    def test_config_lines_end_where_every_input_file_ends_them(self, tmp_path, capsys):
        # A form feed or U+2028 ends no line; a lone CR does.
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes("# page one\x0c k = 2\u2028 k = 3\rno equals sign\n".encode())
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_INPUT
        assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err


class TestConfigLinesAreFlags:
    """A config entry is read as its flag, placed before the command line's."""

    def run(self, argv, capsys):
        rc = exit_code(argv)
        return rc, capsys.readouterr().out

    @pytest.mark.parametrize("model", ["cb", "hybrid"])
    def test_item_query_from_a_config(self, workdir, tmp_path, capsys, model):
        common = ["similar", "--bundle", str(workdir / "bundle"), "--embeddings", str(workdir / "vecs.txt"),
                  "--model", model]
        (tmp_path / "c.cfg").write_text("item = 7\n")
        flagged = self.run([*common, "--item", "7"], capsys)
        assert flagged[0] == EXIT_OK and flagged[1]
        assert self.run([*common, "--config", str(tmp_path / "c.cfg")], capsys) == flagged

    def test_feature_query_from_a_config(self, workdir, tmp_path, capsys):
        common = ["similar", "--embeddings", str(workdir / "vecs.txt")]
        (tmp_path / "c.cfg").write_text("feature = g0_dir1\n")
        flagged = self.run([*common, "--feature", "g0_dir1"], capsys)
        assert flagged[0] == EXIT_OK and flagged[1]
        assert self.run([*common, "--config", str(tmp_path / "c.cfg")], capsys) == flagged

    @pytest.mark.parametrize("line, query", [("feature = g0_dir1", ["--item", "7"]),
                                             ("item = 7", ["--feature", "g0_dir1"])])
    def test_config_query_and_command_line_query_conflict(self, workdir, tmp_path, capsys, line, query):
        (tmp_path / "c.cfg").write_text(line + "\n")
        rc = exit_code(["similar", "--config", str(tmp_path / "c.cfg"), *query, "--bundle",
                        str(workdir / "bundle"), "--embeddings", str(workdir / "vecs.txt")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert "not allowed with argument" in captured.err

    def test_command_line_query_repeats_win(self, workdir, tmp_path, capsys):
        common = ["similar", "--bundle", str(workdir / "bundle"), "--model", "cf"]
        (tmp_path / "c.cfg").write_text("item = 7\n")
        flagged = self.run([*common, "--item", "9"], capsys)
        assert self.run([*common, "--config", str(tmp_path / "c.cfg"), "--item", "9"], capsys) == flagged

    @pytest.mark.parametrize("key, text", [("help", "help = true\n"), ("config", "config = x\n"),
                                           ("help", '{"help": true}')])
    def test_help_and_config_are_no_config_keys(self, workdir, tmp_path, capsys, key, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        rc = exit_code(["evaluate", "--config", str(cfg), "--bundle", str(workdir / "bundle"),
                        "--predictors", "cf", "--out-dir", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert f"{cfg}: {key} is no option of evaluate" in captured.err
        assert not (tmp_path / "run").exists()

    def switch_run(self, workdir, tmp_path, monkeypatch, text):
        """The log level of a flagless evaluate run and of its run with a config of ``text``,
        which must give the same results."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"]))
        common = ["--bundle", str(workdir / "bundle"), "--predictors", "cf", "--split", "holdout(0.8)"]
        assert main(["evaluate", *common, "--out-dir", str(tmp_path / "flags")]) == EXIT_OK
        assert main(["evaluate", "--config", str(cfg), *common, "--out-dir", str(tmp_path / "cfg")]) == EXIT_OK
        assert (tmp_path / "cfg" / "results.csv").read_bytes() == (tmp_path / "flags" / "results.csv").read_bytes()
        return levels

    @pytest.mark.parametrize("text", ["verbose = False\n", '{"verbose": false}', '{"verbose": null, "k": null}'])
    def test_switch_at_its_default_adds_no_flag(self, workdir, tmp_path, monkeypatch, text):
        assert self.switch_run(workdir, tmp_path, monkeypatch, text) == [logging.INFO, logging.INFO]

    @pytest.mark.parametrize("text", ["verbose = TRUE\n", '{"verbose": true}'])
    def test_switch_set_adds_its_flag(self, workdir, tmp_path, monkeypatch, text):
        assert self.switch_run(workdir, tmp_path, monkeypatch, text) == [logging.INFO, logging.DEBUG]

    @pytest.mark.parametrize("value", ["yes", "1", 1, 0.0, ["true"]])
    def test_switch_takes_only_true_or_false(self, workdir, tmp_path, capsys, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"verbose": value}))
        rc = main(["evaluate", "--config", str(cfg), "--bundle", str(workdir / "bundle"),
                   "--predictors", "cf", "--out-dir", str(tmp_path / "run")])
        assert rc == EXIT_INPUT and not (tmp_path / "run").exists()
        assert f"{cfg}: verbose must be true or false" in capsys.readouterr().err


class TestManifestRoundTrip:
    """A run's manifest is its parsed options, and replaying it reruns the run."""

    @pytest.mark.parametrize("command, argv", [
        ("evaluate", ["--predictors", "cb,cf", "--split", "holdout(0.75)", "--k", "6"]),
        ("sweep-k", ["--predictors", "hybrid,cb", "--split", "kfold(3)", "--ks", "9,2,4"]),
    ])
    def test_manifest_replays_every_option(self, workdir, tmp_path, command, argv):
        argv = [command, *argv, "--bundle", str(workdir / "bundle"), "--embeddings", str(workdir / "vecs.txt"),
                "--seed", "5", "--tau-pair", "3", "--tau-item", "3"]
        sub = build_parser().subcommands[command]
        dests = {action.dest for action in sub._actions} - {"help", "config", "verbose"}
        parsed = build_parser().parse_args(argv)
        assert [dest for dest in sorted(dests) if getattr(parsed, dest) == sub.get_default(dest)] == ["out_dir"]

        first = tmp_path / "first"
        assert main([*argv, "--out-dir", str(first)]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest.keys() == dests | {"command"}
        replay = tmp_path / "replay"
        (tmp_path / "replay.json").write_text(json.dumps({**manifest, "out_dir": str(replay)}))
        assert main([command, "--config", str(tmp_path / "replay.json")]) == EXIT_OK
        assert json.loads((replay / "manifest.json").read_text()) == {**manifest, "out_dir": str(replay)}
        assert (replay / "results.csv").read_bytes() == (first / "results.csv").read_bytes()

    def test_older_manifest_with_a_rating_scale_is_an_input_error(self, workdir, tmp_path, capsys):
        """A bundle records its rating scale, so a manifest that sets one exits 2 naming both keys."""
        first = tmp_path / "first"
        assert main(["evaluate", "--bundle", str(workdir / "bundle"), "--predictors", "cf",
                     "--split", "holdout(0.8)", "--out-dir", str(first)]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**manifest, "rating_min": 1.0, "rating_max": 5.0, "out_dir": str(tmp_path / "r")}))
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(older)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert f"{older}: rating_max, rating_min is no option of evaluate" in captured.err
        assert not (tmp_path / "r").exists()

    def test_older_manifest_with_prediction_options_is_an_input_error(self, workdir, tmp_path, capsys):
        """A manifest from when predictions took --min-neighbors and --no-clamp exits 2 naming both
        keys. It holds the one formula's values, so without those lines it replays the run."""
        first = tmp_path / "first"
        assert main(["evaluate", "--bundle", str(workdir / "bundle"), "--predictors", "cf",
                     "--split", "holdout(0.8)", "--out-dir", str(first)]) == EXIT_OK
        manifest = {**json.loads((first / "manifest.json").read_text()), "out_dir": str(tmp_path / "r")}
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**manifest, "clamp": True, "min_neighbors": 1}))
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(older)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert f"{older}: clamp, min_neighbors is no option of evaluate" in captured.err
        assert not (tmp_path / "r").exists()
        older.write_text(json.dumps(manifest))
        assert main(["evaluate", "--config", str(older)]) == EXIT_OK
        assert (tmp_path / "r" / "results.csv").read_bytes() == (first / "results.csv").read_bytes()


class TestOneFormula:
    """Predictions always clamp and fall back only when no neighbor is positive: no option changes that."""

    COMMANDS = {command: TestBundleRatingScale.COMMANDS[command] for command in ("evaluate", "sweep-k", "predict")}

    @pytest.mark.parametrize("given, message", [
        (["--no-clamp"], "unrecognized arguments: --no-clamp"),
        (["--min-neighbors", "2"], "unrecognized arguments: --min-neighbors 2"),
        (["--config", "a.cfg"], "clamp is no option of {}"),
        (["--config", "b.cfg"], "min_neighbors is no option of {}"),
    ], ids=["no-clamp-flag", "min-neighbors-flag", "clamp-config", "min-neighbors-config"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_takes_no_prediction_options(self, workdir, tmp_path, monkeypatch, capsys, command, given, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.cfg").write_text("clamp = false\n")
        (tmp_path / "b.cfg").write_text("min_neighbors = 2\n")
        rc = exit_code([command, "--bundle", str(workdir / "bundle"), *self.COMMANDS[command], *given])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert message.format(command) in captured.err and not (tmp_path / "run").exists()


class TestHelp:
    def test_evaluate_help_lists_options(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--bundle", "--embeddings", "--predictors", "--split",
                     "--seed", "--k", "--tau-pair",
                     "--tau-item", "--out-dir", "--config"):
            assert flag in text
        assert "--min-neighbors" not in text and "--no-clamp" not in text

    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for name in ("ingest", "train-embed", "evaluate", "sweep-k", "predict", "similar"):
            assert name in text


class TestConfigObjects:
    def test_options_build_the_configs(self):
        parser = build_parser()
        cases = [
            (["train-embed"], TrainConfig, TrainConfig()),
            (["train-embed", "--window", "3", "--negatives", "0", "--seed", "9"], TrainConfig,
             TrainConfig(window=3, negatives=0, seed=9)),
            (["evaluate"], PredictionConfig, PredictionConfig()),
            (["predict", "--k", "4"], PredictionConfig, PredictionConfig(k=4)),
            (["sweep-k", "--tau-item", "0"], HybridPolicy, HybridPolicy(tau_item=0)),
            (["similar", "--item", "1"], HybridPolicy, HybridPolicy()),
            (["similar", "--item", "1", "--tau-pair", "3"], HybridPolicy, HybridPolicy(tau_pair=3)),
        ]
        for argv, cls, want in cases:
            assert _config(cls, parser.parse_args(argv)) == want, argv

    def test_bad_training_value_is_an_input_error(self, workdir, tmp_path):
        out = tmp_path / "v.txt"
        rc = main(["train-embed", "--bundle", str(workdir / "bundle"), "--out", str(out), "--seed", "-1"])
        assert rc == EXIT_INPUT and not out.exists()


# ingest -> train-embed -> evaluate -> cold-start sweep-k -> predict -> similar
# through main, in the working directory; with the argument "refuse", every
# scipy import raises ImportError. Prints the scipy modules loaded at the end,
# then whether numpy.ma was loaded.
PIPELINE = """
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")


if sys.argv[1:] == ["refuse"]:
    sys.meta_path.insert(0, RefuseScipy())

import synthdata
from relfrec.cli import main

synthdata.write_genre_world_files(".", n_users=40, n_items=30, ratings_per_user=10)
content = ["--bundle", "bundle", "--embeddings", "vecs.txt"]
for argv in (
    ["ingest", "--ratings", "ratings.dat", "--metadata", "features.csv", "--out", "bundle"],
    ["train-embed", "--bundle", "bundle", "--out", "vecs.txt", "--window", "2", "--dim", "8",
     "--negatives", "2", "--epochs", "2"],
    ["evaluate", *content, "--predictors", "cf,cb,hybrid", "--split", "holdout(0.8)", "--k", "5",
     "--out-dir", "run"],
    ["sweep-k", *content, "--predictors", "cf,hybrid", "--split", "cold-start(0.1)", "--ks", "5,10",
     "--out-dir", "sweep"],
    ["predict", *content, "--model", "hybrid", "--user", "1", "--item", "2"],
    ["similar", *content, "--model", "hybrid", "--item", "2", "--n", "3"],
):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited with {code}")
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
print("numpy.ma" in sys.modules)
"""


class TestWithoutScipy:
    """The package runs on numpy alone, without loading numpy.ma; scipy is a test dependency."""

    @staticmethod
    def python(code, *argv, cwd=None):
        import relfrec

        path = [str(Path(relfrec.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_pipeline_with_scipy_refused_matches_a_plain_run(self, tmp_path):
        runs = {}
        for mode in ("refuse", "plain"):
            (tmp_path / mode).mkdir()
            done = self.python(PIPELINE, mode, cwd=tmp_path / mode)
            assert done.returncode == 0, done.stderr
            assert done.stdout.endswith("\n[]\nFalse\n"), done.stdout
            runs[mode] = done.stdout, (tmp_path / mode / "run" / "results.csv").read_bytes()
        assert runs["refuse"] == runs["plain"]

    def test_importing_the_cli_loads_no_scipy(self):
        done = self.python("import sys, relfrec.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
