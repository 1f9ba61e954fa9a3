"""End-to-end command-line behavior: pipelines, exit codes, config files."""

import csv
import json
from pathlib import Path

import pytest

from relfrec.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_UNKNOWN_ID, main

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

    def test_divergent_learning_rate_exit_code(self, workdir, tmp_path):
        rc = main([
            "train-embed", "--bundle", str(workdir / "bundle"), "--out", str(tmp_path / "v.txt"),
            "--window", "2", "--dim", "4", "--negatives", "5", "--epochs", "2",
            "--initial-lr", "1e155", "--final-lr", "1e155",
        ])
        assert rc == EXIT_NUMERIC


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

    def test_missing_pair_arguments(self, workdir):
        rc = main(["predict", "--bundle", str(workdir / "bundle"), "--model", "cf"])
        assert rc == EXIT_INPUT


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

    def test_unknown_item(self, workdir):
        rc = main([
            "similar", "--item", "99999", "--model", "cf", "--bundle", str(workdir / "bundle"),
        ])
        assert rc == EXIT_UNKNOWN_ID

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

    def test_unconvertible_config_value(self, workdir, tmp_path):
        for name, text in (
            ("ks.cfg", "ks = 3.5\n"),
            ("k.cfg", "k = 2.5\n"),
            ("ks.json", json.dumps({"ks": [5, "x"]})),
            ("predictors.json", json.dumps({"predictors": "cf,bogus"})),
        ):
            cfg = tmp_path / name
            cfg.write_text(text)
            with pytest.raises(SystemExit) as err:
                main(["sweep-k", "--config", str(cfg), "--bundle", str(workdir / "bundle"),
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
        assert main(["--config", str(cfg)]) == EXIT_INPUT

    def test_missing_config_file(self, workdir, tmp_path):
        rc = main([
            "evaluate", "--bundle", str(workdir / "bundle"),
            "--config", str(tmp_path / "ghost.cfg"),
            "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == EXIT_INPUT

    def test_malformed_config_line(self, workdir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        rc = main(["evaluate", "--config", str(cfg)])
        assert rc == EXIT_INPUT


class TestHelp:
    def test_evaluate_help_lists_options(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--bundle", "--embeddings", "--predictors", "--split",
                     "--seed", "--k", "--min-neighbors", "--tau-pair",
                     "--tau-item", "--out-dir", "--config"):
            assert flag in text

    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for name in ("ingest", "train-embed", "evaluate", "sweep-k", "predict", "similar"):
            assert name in text
