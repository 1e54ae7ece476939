import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from imbkit.cli import _build_config, build_parser, main
from imbkit.config import RunConfig
from imbkit.data_model import load_csv
from imbkit.harness import clean, partition_regions
from tests.conftest import make_blobs


@pytest.fixture
def dataset_csv(tmp_path):
    ds = make_blobs([(0.0, 0.0), (1.5, 0.0), (8.0, 8.0)], [80, 15, 15], std=1.0, seed=7,
                    class_names=("maj", "min1", "min2"))
    path = tmp_path / "toy.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "class"])
        for row, lab in zip(ds.features, ds.labels):
            w.writerow([f"{row[0]:.6f}", f"{row[1]:.6f}", ds.class_names[lab]])
    return path


FAST_FLAGS = ["--folds", "3", "--repeats", "1", "--jaya-pop", "6", "--jaya-iters", "4"]


class TestPartitionCommand:
    def test_dumps_assignment_csv(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "assign.csv"
        rc = main(["partition", "--data", str(dataset_csv), "--label-col", "class",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 110
        assert set(rows[0]) == {"sample_index", "label", "tag", "max_own_posterior"}
        assert {r["tag"] for r in rows} <= {"core", "overlapping", "noisy"}


class TestCleanCommand:
    def test_reports_overlap_change(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "cleaned.csv"
        rc = main(["clean", "--data", str(dataset_csv), "--label-col", "class",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "overlap ratio before" in printed
        assert "%" in printed
        assert out.exists()


class TestBalanceCommand:
    def test_provenance_column(self, dataset_csv, tmp_path):
        out = tmp_path / "balanced.csv"
        rc = main(["balance", "--data", str(dataset_csv), "--label-col", "class",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert set(r["provenance"] for r in rows) <= {"original", "synthetic"}
        ds = load_csv(dataset_csv, "class")
        n_kept = np.flatnonzero(clean(ds, partition_regions(ds, RunConfig()), RunConfig())).size
        assert sum(r["provenance"] == "original" for r in rows) == n_kept
        counts = {}
        for r in rows:
            counts[r["class"]] = counts.get(r["class"], 0) + 1
        assert len(set(counts.values())) == 1  # balanced


class TestRunCommand:
    def test_writes_report_and_prints_aggregate(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["run", "--data", str(dataset_csv), "--label-col", "class",
                   "--seed", "3", "--out", str(out), *FAST_FLAGS])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 3
        assert "aggregate" in doc
        assert "g_mean" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, dataset_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["run", "--data", str(dataset_csv), "--label-col", "class", "--seed", "5",
                *FAST_FLAGS]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, dataset_csv, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["run", "--data", str(dataset_csv), "--label-col", "class",
                   "--out", str(out), "--format", "csv", *FAST_FLAGS])
        assert rc == 0
        assert out.read_text().startswith("repeat,fold,metric,value")

    def test_csv_format_default_path(self, dataset_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--data", str(dataset_csv), "--format", "csv", *FAST_FLAGS])
        assert rc == 0
        assert (tmp_path / "report.csv").read_text().startswith("repeat,fold,metric,value")
        assert not (tmp_path / "report.json").exists()

    def test_flags_override_config_file(self, dataset_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_path": str(dataset_csv), "label_column": "class",
                                   "seed": 1, "folds": 3, "repeats": 1,
                                   "jaya_pop": 6, "jaya_iters": 4}))
        out = tmp_path / "rep.json"
        rc = main(["run", "--config", str(cfg), "--seed", "42", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 42      # flag wins
        assert doc["config"]["folds"] == 3      # file value survives

    def test_missing_data_is_hard_error(self, tmp_path):
        rc = main(["run", "--data", str(tmp_path / "ghost.csv"), "--label-col", "class"])
        assert rc == 2

    def test_no_data_flag_is_hard_error(self, capsys):
        assert main(["run"]) == 2
        assert "--data" in capsys.readouterr().err


STAGE_COMMANDS = ("partition", "clean", "balance", "run", "ablate-noise", "ablate-components")

# A value differing from each field's default, and the argv that sets it.
NON_DEFAULT = {
    "data_path": (["--data", "x.csv"], "x.csv"),
    "label_column": (["--label-col", "label"], "label"),
    "seed": (["--seed", "7"], 7),
    "folds": (["--folds", "3"], 3),
    "repeats": (["--repeats", "2"], 2),
    "scale": (["--scale"], True),
    "threshold_mode": (["--threshold-mode", "mean"], "mean"),
    "z_threshold": (["--z-threshold", "1.5"], 1.5),
    "sor_fallback_fraction": (["--sor-fallback-fraction", "0.2"], 0.2),
    "sor_keep": (["--sor-keep", "before"], "before"),
    "omrp_k": (["--omrp-k", "3"], 3),
    "omrp_max_attempts_factor": (["--omrp-max-attempts-factor", "9"], 9),
    "jaya_pop": (["--jaya-pop", "4"], 4),
    "jaya_iters": (["--jaya-iters", "6"], 6),
    "use_balancing": (["--no-balancing"], False),
    "use_pruning": (["--no-pruning"], False),
    "noise_remove_fraction": (["--noise-remove-fraction", "0.5"], 0.5),
    "or_knn_k": (["--or-knn-k", "4"], 4),
}


class TestDerivedFlags:
    def test_every_field_but_pool_has_one_flag(self):
        assert set(NON_DEFAULT) == {f.name for f in fields(RunConfig)} - {"pool"}
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for command in STAGE_COMMANDS:
            dests = [a.dest for a in sub.choices[command]._actions]
            assert "pool" not in dests, command
            for name in NON_DEFAULT:
                assert dests.count(name) == 1, (command, name)

    @pytest.mark.parametrize("command", STAGE_COMMANDS)
    def test_each_flag_sets_its_field(self, command):
        parser = build_parser()
        for name, (argv, value) in NON_DEFAULT.items():
            assert getattr(RunConfig(), name) != value, name
            extra = [] if name == "data_path" else ["--data", "x.csv"]
            cfg = _build_config(parser.parse_args([command, *extra, *argv]))
            assert getattr(cfg, name) == value, name


# An out-of-range value for each RunConfig field that has a range.
OUT_OF_RANGE = {"folds": 1, "repeats": 0, "threshold_mode": "median",
                "sor_fallback_fraction": 0.0, "sor_keep": "middle", "omrp_k": 0, "jaya_pop": 1,
                "jaya_iters": 0, "noise_remove_fraction": 1.5, "or_knn_k": 0}


class TestOutOfRangeConfig:
    @pytest.mark.parametrize("name", OUT_OF_RANGE)
    def test_exits_2_naming_the_field(self, name, dataset_csv, tmp_path, capsys):
        value = OUT_OF_RANGE[name]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_path": str(dataset_csv), "folds": 3, "repeats": 1,
                                   "jaya_pop": 6, "jaya_iters": 4, name: value}))
        out = tmp_path / "report.json"
        argvs = [["run", "--config", str(cfg), "--out", str(out)]]
        if not isinstance(value, str):  # argparse itself rejects a mode flag's unknown choice
            argvs.append(["run", "--data", str(dataset_csv), *FAST_FLAGS,
                          "--" + name.replace("_", "-"), str(value), "--out", str(out)])
        for argv in argvs:
            assert main(argv) == 2, argv
            assert name in capsys.readouterr().err, argv
            assert not out.exists()  # failed before any fold ran


# A wrong-typed value for fields of each type; no value is coerced to the field's type.
WRONG_TYPE = [("scale", "no"), ("use_pruning", 0), ("seed", True), ("folds", "3"), ("folds", 2.5),
              ("jaya_iters", 3.0), ("z_threshold", "2"), ("noise_remove_fraction", None),
              ("threshold_mode", 1), ("label_column", 1.5), ("data_path", 3)]


class TestWrongTypedConfig:
    @pytest.mark.parametrize("name,value", WRONG_TYPE)
    def test_config_file_exits_2_naming_the_field(self, name, value, dataset_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_path": str(dataset_csv), "folds": 3, "repeats": 1,
                                   "jaya_pop": 6, "jaya_iters": 4, name: value}))
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert name in err and "must be of type" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,text", [("--folds", "2.5"), ("--jaya-iters", "3.0"),
                                           ("--seed", "true"), ("--z-threshold", "two")])
    def test_flag_rejected_by_argparse(self, flag, text, dataset_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--data", str(dataset_csv), *FAST_FLAGS, flag, text, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestAblateCommands:
    def test_ablate_noise_emits_per_fraction(self, dataset_csv, tmp_path):
        outdir = tmp_path / "noise"
        rc = main(["ablate-noise", "--data", str(dataset_csv), "--label-col", "class",
                   "--fractions", "0,1", "--out-dir", str(outdir), *FAST_FLAGS])
        assert rc == 0
        assert (outdir / "noise_0.json").exists()
        assert (outdir / "noise_1.json").exists()

    def test_ablate_components_emits_variants(self, dataset_csv, tmp_path):
        outdir = tmp_path / "comp"
        rc = main(["ablate-components", "--data", str(dataset_csv), "--label-col", "class",
                   "--out-dir", str(outdir), *FAST_FLAGS])
        assert rc == 0
        docs = {name: json.loads((outdir / f"{name}.json").read_text())
                for name in ("no_balancing", "no_pruning", "full")}
        assert docs["no_balancing"]["config"]["use_balancing"] is False
        assert docs["no_pruning"]["config"]["use_pruning"] is False
        assert docs["full"]["config"]["use_balancing"] is True


class TestReportCommand:
    def test_summarizes_json(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--data", str(dataset_csv), "--label-col", "class",
              "--out", str(out), *FAST_FLAGS])
        rc = main(["report", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "g_mean" in printed
        assert "overlap ratio" in printed
