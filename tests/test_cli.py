"""Command-line behavior: determinism, config precedence, error paths."""

import argparse
import hashlib
import json
import os
from pathlib import Path

import pytest

from radnet import cli
from radnet.cli import main
from radnet.model import RadNet, RadNetConfig


def tree_digest(root: Path) -> dict[str, bytes]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


class TestSynthCommand:
    def test_same_seed_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(
                ["synth", "--nodes", "4", "--days", "14", "--seed", "7", "--out", str(out)]
            )
            assert code == 0
        assert tree_digest(a) == tree_digest(b)

    def test_incident_csv_written(self, tmp_path):
        out = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "1", "--out", str(out),
              "--events", "5"])
        lines = (out / "incidents.csv").read_text().splitlines()
        assert lines[0] == "timestep,link_id"
        assert len(lines) > 1
        assert (out / "incidents.csv").read_bytes().endswith(b"\r\n")  # files.write_csv's rows

    @pytest.mark.parametrize("config, message", [
        ({"nodes": 4.0}, "nodes must be int, got 4.0"),
        ({"events": "5"}, "events must be int, got '5'"),
        ({"noise": "0.1"}, "noise must be float, got '0.1'"),
    ], ids=["float-nodes", "string-events", "string-noise"])
    def test_option_value_of_the_wrong_type_names_key_and_file(self, tmp_path, capsys, config,
                                                               message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 1
        assert f"config file {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()


    def test_min_start_past_series_end_names_both(self, tmp_path, capsys):
        argv = ["synth", "--days", "9", "--events", "3", "--min-start", "5000",
                "--out", str(tmp_path / "ds")]
        assert main(argv) == 1
        assert "min_start 5000 leaves no onset before step 2591" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_json(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "2", "--out", str(ds)])
        out_file = tmp_path / "stats.json"
        code = main(["stats", "--data", str(ds), "--out", str(out_file)])
        assert code == 0
        raw = json.loads(out_file.read_text())
        assert raw["timesteps"] == 9 * 288
        assert "timesteps 2592" in capsys.readouterr().out

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code = main(["stats", "--data", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


# 10 days of 4 links leave detect fewer than 50 excesses per tail fit, which warns
THIN_TAIL = pytest.mark.filterwarnings(r"ignore:only \d+ excesses \(< 50\):UserWarning")


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A small dataset with a trained checkpoint, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert main(
        ["synth", "--nodes", "4", "--days", "10", "--seed", "5", "--out", str(ds),
         "--events", "10", "--depth", "0.5", "--duration", "6", "--min-start", "300"]
    ) == 0
    run = root / "run"
    assert main(
        ["train", "--data", str(ds), "--out", str(run), "--seed", "5",
         "--max-epochs", "8", "--patience", "8", "--lr", "1e-3"]
    ) == 0
    return ds, run


class TestTrainForecastDetectEvaluate:
    def test_train_outputs(self, trained_dir):
        _, run = trained_dir
        assert (run / "checkpoint.json").exists()
        assert (run / "checkpoint.bin").exists()
        assert (run / "config.json").exists()
        lines = (run / "loss_curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 9

    def test_train_prints_why_it_stopped(self, trained_dir, tmp_path, capsys):
        ds, _ = trained_dir
        argv = ["train", "--data", str(ds), "--out", str(tmp_path / "run"), "--seed", "5",
                "--max-epochs", "1", "--patience", "1"]
        assert main(argv) == 0
        assert "stopped by max_epochs" in capsys.readouterr().out

    def test_detect_refuses_percentile_out_of_range(self, trained_dir, tmp_path, capsys):
        ds, run = trained_dir
        argv = ["detect", "--data", str(ds), "--checkpoint", str(run / "checkpoint"),
                "--out", str(tmp_path / "det"), "--percentile", "150"]
        assert main(argv) == 1
        assert "percentile must lie in (0, 100), got 150.0" in capsys.readouterr().err

    def test_forecast_writes_container(self, trained_dir, tmp_path):
        ds, run = trained_dir
        out = tmp_path / "fc"
        code = main(
            ["forecast", "--data", str(ds), "--checkpoint", str(run / "checkpoint"),
             "--out", str(out)]
        )
        assert code == 0
        targets = json.loads((out / "targets.json").read_text())["target_timesteps"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["T"] == len(targets)

    def test_forecast_runs_no_detection(self, trained_dir, tmp_path, monkeypatch):
        from radnet import incidents, pipeline

        def refuse(*args, **kwargs):
            raise AssertionError("forecast must not fit thresholds")

        monkeypatch.setattr(pipeline, "pot_fit", refuse)
        monkeypatch.setattr(incidents, "pot_fit", refuse)
        ds, run = trained_dir
        argv = ["forecast", "--data", str(ds), "--checkpoint", str(run / "checkpoint"),
                "--out", str(tmp_path / "fc")]
        assert main(argv) == 0
        with pytest.raises(SystemExit):
            main(argv + ["--percentile", "98"])  # forecast takes no threshold flags

    @THIN_TAIL
    def test_detect_then_evaluate(self, trained_dir, tmp_path, capsys, monkeypatch):
        ds, run = trained_dir
        det = tmp_path / "det"
        runs, run_detection = [], cli.run_detection

        def recorded(*args):
            runs.append(run_detection(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "run_detection", recorded)
        summaries = []
        # fitting 5 of the 10 days leaves weekdays without a baseline slot
        for extra in (["--test-fraction", "0.5"], []):
            code = main(
                ["detect", "--data", str(ds), "--checkpoint", str(run / "checkpoint"),
                 "--out", str(det), "--percentile", "98", "--risk-q", "1e-2", *extra]
            )
            assert code == 0
            summaries.append(capsys.readouterr().out.splitlines()[-1])
        counts = [r.baseline.fallback_count for r in runs]
        assert counts[0] > 0 == counts[1]
        for summary, count in zip(summaries, counts):
            assert summary.endswith(f"; {count} baseline fallbacks")
        assert (det / "labels_pred.csv").exists()
        assert (det / "labels_truth.csv").exists()
        code = main(["evaluate", "--detect", str(det), "--out", str(det)])
        assert code == 0
        report = json.loads((det / "report.json").read_text())
        assert set(report["counts"]) == {"tp", "fp", "fn"}
        assert "F1" in (det / "report.txt").read_text()

    @THIN_TAIL
    def test_evaluate_identity_when_pred_equals_truth(self, trained_dir, tmp_path):
        ds, run = trained_dir
        det = tmp_path / "det2"
        main(["detect", "--data", str(ds), "--checkpoint", str(run / "checkpoint"),
              "--out", str(det), "--percentile", "98", "--risk-q", "1e-2"])
        (det / "labels_pred.csv").write_text((det / "labels_truth.csv").read_text())
        main(["evaluate", "--detect", str(det), "--out", str(det)])
        report = json.loads((det / "report.json").read_text())
        assert report["f1"] == 1.0

    def test_missing_checkpoint_names_expected_path(self, trained_dir, tmp_path, capsys):
        ds, _ = trained_dir
        code = main(
            ["detect", "--data", str(ds), "--checkpoint", str(tmp_path / "ghost"),
             "--out", str(tmp_path / "d")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "ghost" in err and "checkpoint" in err

    def test_checkpoint_without_normalizer_names_the_field(self, trained_dir, tmp_path, capsys):
        ds, _ = trained_dir
        RadNet(RadNetConfig(n_nodes=4, n_features=1)).save(tmp_path / "bare")
        code = main(["detect", "--data", str(ds), "--checkpoint", str(tmp_path / "bare"),
                     "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bare.json has no hyperparameters.normalizer" in err

    @pytest.mark.parametrize("normalizer, field", [
        ({}, "mean"), ([], "mean"), ({"mean": [0.0]}, "std"), ({"mean": [0.0], "std": "1"}, "std"),
        ({"mean": [0.0, 1.0], "std": [1.0]}, "mean"), ({"mean": ["0"], "std": [1.0]}, "mean"),
        ({"mean": [0.0], "std": [True]}, "std"),
    ])
    def test_checkpoint_with_a_bad_normalizer_names_the_field(self, trained_dir, tmp_path, capsys,
                                                             normalizer, field):
        ds, _ = trained_dir
        RadNet(RadNetConfig(n_nodes=4, n_features=1)).save(
            tmp_path / "bare", extra_hyperparameters={"normalizer": normalizer})
        code = main(["detect", "--data", str(ds), "--checkpoint", str(tmp_path / "bare"),
                     "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bare.json" in err
        assert f"hyperparameters.normalizer.{field} must be a list of 1 numbers" in err

    def test_evaluate_without_labels_names_the_file(self, tmp_path, capsys):
        code = main(["evaluate", "--detect", str(tmp_path / "ghost")])
        assert code == 1
        err = capsys.readouterr().err
        assert "labels_pred.csv" in err and "ghost" in err

    @THIN_TAIL
    def test_report_command(self, trained_dir, tmp_path):
        ds, run = trained_dir
        out = tmp_path / "rep"
        code = main(
            ["report", "--data", str(ds), "--checkpoint", str(run / "checkpoint"),
             "--out", str(out), "--percentile", "98"]
        )
        assert code == 0
        header = (out / "series_report.csv").read_text().splitlines()[0]
        assert header.startswith("timestep,link_id,baseline,truth,prediction")


class TestAblateCommand:
    @THIN_TAIL
    def test_rows_match_library_ablate(self, tmp_path):
        from radnet import pipeline
        from radnet.data import load_dataset
        from radnet.model import VARIANTS, RadNetConfig
        from radnet.training import TrainConfig

        ds, out = tmp_path / "ds", tmp_path / "abl"
        assert main(["synth", "--nodes", "3", "--days", "9", "--seed", "4", "--out", str(ds)]) == 0
        assert main(
            ["ablate", "--data", str(ds), "--out", str(out), "--seeds", "0",
             "--max-epochs", "1", "--percentile", "98", "--risk-q", "1e-2"]
        ) == 0
        series, graph, _ = load_dataset(ds)
        rows = pipeline.ablate(
            series, graph, RadNetConfig(n_nodes=3, n_features=1), TrainConfig(max_epochs=1),
            pipeline.PotConfig(percentile=98.0, risk_q=1e-2), seeds=[0],
        )
        expected = ["variant,seed,val_mse,f1,hitrate_100"] + [
            f"{r['variant']},{r['seed']},{r['val_mse']:.10g},{r['f1']:.10g},{r['hitrate_100']:.10g}"
            for r in rows
        ]
        assert (out / "ablation.csv").read_text().splitlines() == expected
        assert (out / "ablation.csv").read_bytes().count(b"\r\n") == len(expected)
        assert [line.split(",")[0] for line in expected[1:]] == list(VARIANTS)
        table = (out / "ablation.txt").read_text().splitlines()
        assert [line.split()[0] for line in table[1:]] == list(VARIANTS)


    @THIN_TAIL
    def test_config_file_lists_seeds(self, tmp_path):
        from radnet.model import VARIANTS

        ds, out, cfg = tmp_path / "ds", tmp_path / "abl", tmp_path / "cfg.json"
        assert main(["synth", "--nodes", "3", "--days", "9", "--seed", "4", "--out", str(ds)]) == 0
        cfg.write_text(json.dumps({"seeds": [0, 1], "train": {"max_epochs": 1},
                                   "percentile": 98, "risk_q": 1e-2}))
        assert main(["ablate", "--data", str(ds), "--out", str(out), "--config", str(cfg)]) == 0
        rows = [line.split(",") for line in (out / "ablation.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [(v, s) for v in VARIANTS for s in ("0", "1")]

    @pytest.mark.parametrize("seeds, item", [([0, 1.5], "1.5"), (True, "True"), ("0,x", "'x'")],
                             ids=["float-in-list", "boolean", "word-in-string"])
    def test_config_seed_that_is_no_integer_names_it(self, tmp_path, capsys, seeds, item):
        ds, out, cfg = tmp_path / "ds", tmp_path / "abl", tmp_path / "cfg.json"
        assert main(["synth", "--nodes", "3", "--days", "9", "--seed", "4", "--out", str(ds)]) == 0
        cfg.write_text(json.dumps({"seeds": seeds}))
        assert main(["ablate", "--data", str(ds), "--out", str(out), "--config", str(cfg)]) == 1
        assert f"config file {cfg}: seeds: seed {item} is not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_seed_that_is_no_integer_names_it(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--data", "ds", "--seeds", "0, 1,x"])
        assert exc.value.code == 2
        assert "argument --seeds: seed 'x' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", [",", ""])
    def test_empty_seed_list_is_refused(self, tmp_path, capsys, seeds):
        ds, out = tmp_path / "ds", tmp_path / "abl"
        assert main(["synth", "--nodes", "3", "--days", "9", "--seed", "4", "--out", str(ds)]) == 0
        assert main(["ablate", "--data", str(ds), "--out", str(out), "--seeds", seeds]) == 1
        assert "ablate needs at least one seed" in capsys.readouterr().err
        assert not out.exists()


class TestTrainIdempotence:
    def test_same_seed_identical_checkpoints(self, tmp_path):
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "9", "--out", str(ds)])
        digests = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            assert main(
                ["train", "--data", str(ds), "--out", str(run), "--seed", "9",
                 "--max-epochs", "2", "--patience", "5"]
            ) == 0
            digests.append(
                ((run / "checkpoint.bin").read_bytes(), (run / "checkpoint.json").read_bytes())
            )
        assert digests[0] == digests[1]


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nodes": 3, "days": 9, "seed": 11}))
        a = tmp_path / "a"
        main(["synth", "--config", str(cfg), "--out", str(a)])
        meta = json.loads((a / "meta.json").read_text())
        assert meta["N"] == 3  # from file (default is 4)
        b = tmp_path / "b"
        main(["synth", "--config", str(cfg), "--nodes", "5", "--out", str(b)])
        meta = json.loads((b / "meta.json").read_text())
        assert meta["N"] == 5  # flag wins
        assert json.loads((b / "meta.json").read_text())["T"] == 9 * 288  # file wins over default

    def test_nested_train_block(self, tmp_path):
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "3", "--out", str(ds)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"max_epochs": 2, "lr": 1e-3}}))
        run = tmp_path / "run"
        code = main(
            ["train", "--data", str(ds), "--config", str(cfg), "--out", str(run),
             "--seed", "3"]
        )
        assert code == 0
        stored = json.loads((run / "config.json").read_text())
        assert stored["train"]["max_epochs"] == 2

    @pytest.mark.parametrize(
        "file_cfg, expected",
        [
            # top-level long options, dashed or not, reach the train settings
            ({"lr": 1e-3, "max-epochs": 2, "patience": 1}, {"lr": 1e-3, "max_epochs": 2}),
            # a seed in the train block is not overwritten by the default seed
            ({"train": {"seed": 5, "max_epochs": 2}}, {"seed": 5, "max_epochs": 2}),
            # the train block beats the top level, and may use dashes too
            ({"max_epochs": 3, "train": {"max-epochs": 2}}, {"max_epochs": 2}),
        ],
    )
    def test_train_settings_from_file(self, tmp_path, file_cfg, expected):
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "3", "--out", str(ds)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        run = tmp_path / "run"
        assert main(["train", "--data", str(ds), "--config", str(cfg), "--out", str(run)]) == 0
        stored = json.loads((run / "config.json").read_text())["train"]
        assert {k: stored[k] for k in expected} == expected

    @THIN_TAIL
    def test_top_level_percentile_reaches_detect(self, trained_dir, tmp_path):
        ds, run = trained_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"percentile": 98}))
        base = ["detect", "--data", str(ds), "--checkpoint", str(run / "checkpoint")]
        assert main([*base, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        assert main([*base, "--percentile", "98", "--out", str(tmp_path / "flag")]) == 0
        assert main([*base, "--out", str(tmp_path / "default")]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name / "labels_pred.csv").read_bytes()).hexdigest()
            for name in ("file", "flag", "default")
        }
        assert digests["file"] == digests["flag"] != digests["default"]

    def test_unknown_top_level_key_names_it(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "3", "--out", str(ds)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_epoch": 1}))
        code = main(["train", "--data", str(ds), "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "['max_epoch']" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_key_of_another_subcommand_accepted(self, tmp_path):
        # one file may serve train and detect: train ignores detect's percentile
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "3", "--out", str(ds)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"percentile": 98, "risk-q": 1e-2, "max_epochs": 1}))
        run = tmp_path / "run"
        assert main(["train", "--data", str(ds), "--config", str(cfg), "--out", str(run)]) == 0
        assert json.loads((run / "config.json").read_text())["train"]["max_epochs"] == 1

    def test_unknown_block_key_names_it(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "3", "--out", str(ds)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"max_epochz": 2}}))
        code = main(["train", "--data", str(ds), "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "max_epochz" in capsys.readouterr().err


    @pytest.mark.parametrize("config, key", [
        ({"percentile": "98"}, "percentile"),
        ({"pot": {"refit_every": 2.5}}, "refit_every"),
        ({"pot": 5}, "pot"),
        ({"static": "yes"}, "static"),
        ({"static": 1}, "static"),
        ({"static": 0}, "static"),
    ], ids=["string-percentile", "float-refit-every", "scalar-pot-block", "string-static",
            "one-static", "zero-static"])
    def test_value_of_the_wrong_json_type_names_key_and_file(self, tmp_path, capsys, config, key):
        ds = tmp_path / "ds"
        main(["synth", "--nodes", "3", "--days", "9", "--seed", "3", "--out", str(ds)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["ablate", "--data", str(ds), "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config file {cfg}: {key} must be" in err
        assert not (tmp_path / "r").exists()

    def test_help_and_config_keys_are_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"help": True, "config": "other.json"}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 1
        assert (f"config file {cfg}: keys no subcommand reads from a file: ['config', 'help']"
                in capsys.readouterr().err)
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("argv, config", [
        (["detect", "--data", "ds", "--checkpoint", "ck"], {"data": "nope"}),
        (["detect", "--data", "ds", "--checkpoint", "ck"], {"checkpoint": 5}),
        (["evaluate", "--detect", "det"], {"detect": "other"}),
    ], ids=["data", "checkpoint", "detect"])
    def test_required_path_in_a_file_is_refused(self, tmp_path, capsys, argv, config):
        # the flag is required, so a file value would never be read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        key = next(iter(config))
        assert (f"config file {cfg}: keys no subcommand reads from a file: ['{key}']"
                in capsys.readouterr().err)
        assert not (tmp_path / "r").exists()


class TestSurface:
    """Each subcommand's options: dest -> (action, type, choices, help, required)."""

    COMMON = {
        "help": ("_HelpAction", None, None, "show this help message and exit", False),
        "config": ("_StoreAction", None, None, "JSON config file; flags override it", False),
        "out": ("_StoreAction", None, None, "output directory", False),
    }
    DATA = {"data": ("_StoreAction", None, None, None, True)}
    TRAINED = {**DATA, "checkpoint": ("_StoreAction", None, None, None, True),
               "test_fraction": ("_StoreAction", float, None, None, False)}
    TRAIN = {
        **{name: ("_StoreAction", int, None, None, False)
           for name in ("window", "horizon", "max_epochs", "patience", "folds", "batch")},
        "variant": ("_StoreAction", None, ("full", "no_skip", "no_st", "no_ts"), None, False),
        **{name: ("_StoreAction", float, None, None, False)
           for name in ("lr", "weight_decay", "test_fraction")},
    }
    POT = {
        **{name: ("_StoreAction", float, None, None, False)
           for name in ("percentile", "risk_q", "delta_per_horizon")},
        **{name: ("_StoreAction", int, None, None, False)
           for name in ("horizon_index", "refit_every")},
        "static": ("_StoreTrueAction", None, None, "hold thresholds fixed", False),
    }
    SEED = {"seed": ("_StoreAction", int, None, None, False)}
    EXPECTED = {
        "synth": {
            **COMMON, **SEED,
            **{name: ("_StoreAction", int, None, None, False)
               for name in ("nodes", "days", "delta", "features", "events", "duration",
                            "min_start")},
            **{name: ("_StoreAction", float, None, None, False)
               for name in ("depth", "noise", "weekend_factor")},
        },
        "stats": {
            **COMMON, **DATA,
            "out": ("_StoreAction", None, None, "JSON file to write the summary to", False),
        },
        "train": {**COMMON, **SEED, **DATA, **TRAIN},
        "forecast": {**COMMON, **TRAINED},
        "detect": {**COMMON, **TRAINED, **POT},
        "evaluate": {
            **COMMON,
            "detect": ("_StoreAction", None, None, "directory from the detect step", True),
            "horizon": ("_StoreAction", int, None, None, False),
        },
        "ablate": {
            **COMMON, **DATA, **TRAIN, **POT,
            "seeds": ("_StoreAction", cli._seed_list, None, "comma-separated seed list", False),
        },
        "report": {**COMMON, **TRAINED, **POT},
    }

    def test_every_option_keeps_its_type_choices_and_help(self):
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert list(commands) == list(self.EXPECTED)
        for name, parser in commands.items():
            surface = {a.dest: (type(a).__name__, a.type, a.choices, a.help, a.required)
                       for a in parser._actions}
            assert surface == self.EXPECTED[name], name
        assert commands["ablate"].allow_abbrev is False


class TestSeedFlag:
    # Only synth and train draw random numbers; ablate takes --seeds.
    REQUIRED = {
        "stats": ["--data", "ds"],
        "forecast": ["--data", "ds", "--checkpoint", "ck"],
        "detect": ["--data", "ds", "--checkpoint", "ck"],
        "evaluate": ["--detect", "det"],
        "report": ["--data", "ds", "--checkpoint", "ck"],
        "ablate": ["--data", "ds"],
    }

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_seed_is_refused(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.REQUIRED[command], "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestEntrypoint:
    def test_console_script_exit_codes(self, tmp_path):
        import subprocess
        import sys

        env = dict(os.environ, RADNET_LOG="ERROR")
        proc = subprocess.run(
            [sys.executable, "-m", "radnet.cli", "stats", "--data", str(tmp_path / "missing")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
