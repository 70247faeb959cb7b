"""Command-line surface: subcommands, exit codes, and round trips."""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from ctgsvm.cli import main
from ctgsvm.data import load_dataset
from ctgsvm.svm import KernelSpec, SvmConfig, load_model, save_model, train_multiclass


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.csv"
    assert main(["synth", "--out", str(path), "--rows", "400"]) == 0
    return str(path)


class TestSynthCommand:
    def test_writes_full_table(self, tmp_path):
        out = tmp_path / "full.csv"
        assert main(["synth", "--out", str(out)]) == 0
        ds = load_dataset(out, class_column="NSP")
        assert ds.n_rows == 2126 and ds.n_features == 22

    @pytest.mark.parametrize("rows", [6, 7, 25, 200, 401, 1000])
    def test_rows_is_the_row_count(self, tmp_path, rows):
        out = tmp_path / "t.csv"
        assert main(["synth", "--out", str(out), "--rows", str(rows)]) == 0
        ds = load_dataset(out, class_column="NSP")
        assert ds.n_rows == rows
        assert np.bincount(ds.class_codes(), minlength=3).min() >= 2

    def test_too_few_rows_is_data_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "t.csv"), "--rows", "5"]) == 3
        assert "at least 6 rows" in capsys.readouterr().err


class TestSelectCommand:
    def test_ranker_writes_scores(self, small_csv, tmp_path):
        out = tmp_path / "sel.csv"
        assert main(["select", "--selector", "FS4", "--data", small_csv, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("selector,n_features,search_value,features")
        assert "feature,method,score,rank" in text
        assert text.count("info_gain") >= 21

    def test_best_first_with_trace(self, small_csv, tmp_path):
        out = tmp_path / "sel.csv"
        trace = tmp_path / "trace.csv"
        code = main(
            ["select", "--selector", "FS1", "--search", "best_first",
             "--data", small_csv, "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        assert trace.read_text().startswith("iteration,subset_hex,score")
        first = out.read_text().splitlines()[1]
        assert first.startswith("FS1-best_first,")
        assert int(first.split(",")[1]) >= 1

    def test_unknown_selector_is_data_error(self, small_csv, tmp_path):
        code = main(
            ["select", "--selector", "FS9", "--data", small_csv, "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--data", "x.csv"])
        assert exc.value.code == 2


class TestTrainPredict:
    def test_round_trip_matches_in_memory(self, small_csv, tmp_path):
        model_path = tmp_path / "model.txt"
        assert main(
            ["train", "--data", small_csv, "--c", "10", "--degree", "3", "--out", str(model_path)]
        ) == 0
        preds_path = tmp_path / "preds.csv"
        assert main(
            ["predict", "--model", str(model_path), "--data", small_csv, "--out", str(preds_path)]
        ) == 0
        lines = preds_path.read_text().strip().splitlines()
        ds = load_dataset(small_csv, class_column="NSP")
        assert len(lines) == ds.n_rows + 1

        from ctgsvm.data import mask_by_names, select_features

        work = select_features(ds, mask_by_names(ds, drop=["CLASS"]))
        model = load_model(model_path)
        expect, _ = model.predict_dataset(work)
        got = [ln.split(",")[1] for ln in lines[1:]]
        assert got == expect

    def test_separable_training_recall(self, tmp_path):
        from ctgsvm.data import export_csv
        from conftest import numeric_dataset

        rng = np.random.default_rng(0)
        rows = np.vstack([rng.normal(0, 0.3, (20, 2)), rng.normal(6, 0.3, (20, 2))])
        ds = numeric_dataset(rows, ["a"] * 20 + ["b"] * 20)
        data = tmp_path / "toy.csv"
        export_csv(ds, data)
        model_path = tmp_path / "m.txt"
        preds = tmp_path / "p.csv"
        assert main(["train", "--data", str(data), "--class-column", "cls",
                     "--out", str(model_path)]) == 0
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--class-column", "cls", "--out", str(preds)]) == 0
        body = preds.read_text().strip().splitlines()[1:]
        assert all(ln.split(",")[1] == ln.split(",")[2] for ln in body)

    def test_feature_count_mismatch_is_data_error(self, small_csv, tmp_path):
        from ctgsvm.data import export_csv
        from conftest import numeric_dataset

        model_path = tmp_path / "model.txt"
        assert main(["train", "--data", small_csv, "--out", str(model_path)]) == 0
        narrow = tmp_path / "narrow.csv"
        export_csv(numeric_dataset([[1.0], [2.0]], ["a", "b"]), narrow)
        code = main(["predict", "--model", str(model_path), "--data", str(narrow),
                     "--class-column", "cls", "--out", str(tmp_path / "p.csv")])
        assert code == 3

    def test_version_mismatch_is_data_error(self, small_csv, tmp_path):
        model_path = tmp_path / "model.txt"
        assert main(["train", "--data", small_csv, "--out", str(model_path)]) == 0
        text = model_path.read_text().replace("ctgsvm-model 1", "ctgsvm-model 9", 1)
        model_path.write_text(text)
        code = main(["predict", "--model", str(model_path), "--data", small_csv,
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3

    def test_nan_alpha_and_bad_label_is_data_error(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert main(["train", "--data", small_csv, "--out", str(model_path)]) == 0
        lines = model_path.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("sv\t"))
        parts = lines[i].split("\t")
        parts[1:3] = ["+7", "nan"]
        lines[i] = "\t".join(parts)
        model_path.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--model", str(model_path), "--data", small_csv,
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "malformed model file" in capsys.readouterr().err

    def test_bagged_train_and_predict(self, small_csv, tmp_path):
        model_path = tmp_path / "ens.txt"
        assert main(["train", "--data", small_csv, "--members", "3", "--c", "100",
                     "--degree", "2", "--out", str(model_path)]) == 0
        assert model_path.read_text().startswith("ctgsvm-ensemble 1")
        assert main(["predict", "--model", str(model_path), "--data", small_csv,
                     "--out", str(tmp_path / "p.csv")]) == 0

    @pytest.fixture(scope="class")
    def saved_ensemble(self, small_csv, tmp_path_factory):
        path = tmp_path_factory.mktemp("ens") / "ens.txt"
        assert main(["train", "--data", small_csv, "--members", "2", "--c", "100",
                     "--degree", "2", "--out", str(path)]) == 0
        return path.read_text().splitlines()

    @pytest.mark.parametrize("keep", [0, 1, 4, 6, 12, 40, -1])
    def test_truncated_ensemble_is_data_error(self, saved_ensemble, small_csv, tmp_path, keep):
        model_path = tmp_path / "ens.txt"
        model_path.write_text("".join(ln + "\n" for ln in saved_ensemble[:keep]))
        code = main(["predict", "--model", str(model_path), "--data", small_csv,
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3

    def test_corrupt_float_in_ensemble_is_data_error(self, saved_ensemble, small_csv, tmp_path):
        i = next(i for i, ln in enumerate(saved_ensemble) if ln.startswith("sv\t"))
        lines = list(saved_ensemble)
        lines[i] = lines[i].replace("0x", "0y", 1)
        model_path = tmp_path / "ens.txt"
        model_path.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--model", str(model_path), "--data", small_csv,
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3

    @pytest.mark.parametrize(
        "prefix, edit, what",
        [
            ("classes\t", lambda f: [f[0], f[2], f[1], *f[3:]], "classes"),
            ("kernel\t", lambda f: [f[0], f[1], "3", f[3]], "kernel"),
            ("mask\t", lambda f: [f[0], *map(str, range(21))], "feature mask"),
            ("feat\t", lambda f: [*f[:3], (2.0 * float.fromhex(f[3])).hex(), f[4]], "standardizer"),
            ("feat\t", lambda f: [*f[:4], (2.0 * float.fromhex(f[4])).hex()], "standardizer"),
            ("feat\t", lambda f: [f[0], "renamed", *f[2:]], "standardizer"),
        ],
    )
    def test_disagreeing_members_are_data_error(self, saved_ensemble, small_csv, tmp_path, capsys,
                                                prefix, edit, what):
        """Member 2 of a two-member file edited by hand to differ from member 1."""
        lines = list(saved_ensemble)
        second = [i for i, ln in enumerate(lines) if ln.startswith("member\t")][1]
        i = next(i for i in range(second, len(lines)) if lines[i].startswith(prefix))
        lines[i] = "\t".join(edit(lines[i].split("\t")))
        model_path = tmp_path / "ens.txt"
        model_path.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--model", str(model_path), "--data", small_csv,
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert f"ensemble member 2: {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["model", "ensemble"])
    def test_reordered_columns_are_data_error(self, kind, saved_ensemble, small_csv, tmp_path, capsys):
        """A table with LB and AC trading places (header and cells) fails,
        naming the first mismatch, instead of predicting from the wrong
        columns."""
        model_path = tmp_path / "model.txt"
        if kind == "model":
            assert main(["train", "--data", small_csv, "--out", str(model_path)]) == 0
        else:
            model_path.write_text("\n".join(saved_ensemble) + "\n")
        lines = open(small_csv, encoding="utf-8").read().splitlines()
        assert lines[0].startswith("LB,AC,")
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("".join(",".join([c[1], c[0], *c[2:]]) + "\n" for c in (ln.split(",") for ln in lines)))
        code = main(["predict", "--model", str(model_path), "--data", str(swapped),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "prediction column 1 is 'AC'; the model expects 'LB'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_data_error(self, small_csv, tmp_path, cell, capsys):
        lines = open(small_csv, encoding="utf-8").read().splitlines()
        cells = lines[5].split(",")
        cells[2] = cell
        lines[5] = ",".join(cells)
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.txt")])
        assert code == 3
        assert "row 5" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["model", "ensemble", "data", "config", "report"])
    def test_non_utf8_file_is_data_error(self, kind, saved_ensemble, small_csv, tmp_path, capsys):
        """One byte that is not UTF-8 in any file the commands read exits 3
        with an error line naming the file, not with a traceback."""
        bad = tmp_path / "bad.txt"
        out = str(tmp_path / "out")
        if kind == "model":
            assert main(["train", "--data", small_csv, "--out", str(bad)]) == 0
            source = bad.read_bytes()
        elif kind == "ensemble":
            source = ("\n".join(saved_ensemble) + "\n").encode()
        else:
            bad = tmp_path / "bad.csv"
            source = {
                "data": open(small_csv, "rb").read(),
                "config": b"seed=4\n",
                "report": b"experiment,model\nexp5,SVM\n",
            }[kind]
        at = source.index(b"\n") - 1
        bad.write_bytes(source[:at] + b"\xff" + source[at:])
        args = {
            "model": ["predict", "--model", str(bad), "--data", small_csv, "--out", out],
            "ensemble": ["predict", "--model", str(bad), "--data", small_csv, "--out", out],
            "data": ["train", "--data", str(bad), "--out", out],
            "config": ["experiment", "--id", "exp1", "--config", str(bad), "--data", small_csv, "--out", out],
            "report": ["report", "--in", str(bad)],
        }[kind]
        assert main(args) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--c", "nan", "C must be positive and finite"), ("--c", "inf", "C must be positive and finite"),
         ("--coef0", "nan", "coef0 must be finite"), ("--coef0", "inf", "coef0 must be finite")],
    )
    def test_non_finite_svm_parameter_is_data_error(self, small_csv, tmp_path, flag, value, message, capsys):
        out = tmp_path / "m.txt"
        assert main(["train", "--data", small_csv, flag, value, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mask", ["0\t99", "-1\t2", "2\t1", "1\t1", ""])
    def test_bad_mask_is_data_error(self, small_csv, tmp_path, mask, capsys):
        """A hand-edited mask that reads past the table, or that is not
        strictly increasing from 0, exits 3: one past the table's width
        would index out of range and a negative one would read the last
        column, as a model without a standardizer checks no column names."""
        from conftest import numeric_dataset

        rows = np.random.default_rng(0).normal(size=(12, 3)) + np.repeat([[0.0], [4.0]], 6, axis=0)
        model = train_multiclass(numeric_dataset(rows, ["1"] * 6 + ["2"] * 6),
                                 SvmConfig(C=10.0, kernel=KernelSpec(degree=1)), feature_mask=[0, 1])
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        text = model_path.read_text()
        assert "\nmask\t0\t1\n" in text and "\nstandardizer\tnone\n" in text
        args = ["predict", "--model", str(model_path), "--data", small_csv, "--out", str(tmp_path / "p.csv")]
        assert main(args) == 0
        model_path.write_text(text.replace("\nmask\t0\t1\n", f"\nmask\t{mask}\n"))
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "width 21: the model reads column 100" in err if mask == "0\t99" else "malformed model file" in err


GOLDEN_CLI = Path(__file__).with_name("golden_cli_seed42.sha256")


def test_files_match_golden_cli_manifest(tmp_path):
    """The model file, the ensemble file, the predictions of each and the
    FS3 and FS4 score files of the bundled synthetic table reproduce the
    committed SHA-256s."""
    commands = [line[len("#   ctgsvm "):].split() for line in GOLDEN_CLI.read_text(encoding="utf-8").splitlines()
                if line.startswith("#   ctgsvm ")]
    assert [c[0] for c in commands] == ["synth", "train", "train", "predict", "predict", "select", "select"]
    for args in commands:
        assert main([str(tmp_path / a) if a.endswith((".csv", ".txt")) else a for a in args]) == 0
    text = GOLDEN_CLI.read_text(encoding="utf-8")
    want = dict(reversed(ln.split()) for ln in text.splitlines() if ln and not ln.startswith("#"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    made_with = next(ln for ln in text.splitlines() if ln.startswith("# numpy"))
    assert got == want, f"manifest made with {made_with[2:]}, running numpy {np.__version__}"


@pytest.mark.parametrize("args", [["select", "--selector", "FS4"], ["train"]])
def test_missing_data_flag_is_data_error(args, tmp_path, capsys):
    assert main(args + ["--out", str(tmp_path / "out.csv")]) == 3
    assert "no dataset given" in capsys.readouterr().err


class TestOneClassTable:
    """A table of one row, so of one class label: prediction needs no second
    class, and every command that fits something refuses it."""

    @pytest.fixture(scope="class")
    def one_row(self, small_csv, tmp_path_factory):
        path = tmp_path_factory.mktemp("one") / "one.csv"
        path.write_text("".join(Path(small_csv).read_text().splitlines(keepends=True)[:2]))
        return str(path)

    @pytest.mark.parametrize("members", ["1", "2"])
    def test_predict(self, small_csv, one_row, tmp_path, members):
        model_path = tmp_path / "model.txt"
        assert main(["train", "--data", small_csv, "--members", members, "--degree", "2",
                     "--out", str(model_path)]) == 0
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model_path), "--data", one_row, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2  # header and the one row

    @pytest.mark.parametrize("args", [["train"], ["select", "--selector", "FS4"], ["experiment", "--id", "exp1"]],
                             ids=["train", "select", "experiment"])
    def test_fitting_is_data_error(self, one_row, tmp_path, capsys, args):
        assert main(args + ["--data", one_row, "--out", str(tmp_path / "out")]) == 3
        assert "class column 'NSP' has fewer than 2 distinct labels" in capsys.readouterr().err


class TestExperimentCommand:
    def test_missing_data_is_data_error(self, tmp_path):
        code = main(["experiment", "--id", "exp1", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path)])
        assert code == 3

    def test_bad_id_is_usage_error(self, small_csv):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--id", "exp9", "--data", small_csv])
        assert exc.value.code == 2

    def test_quick_exp1_writes_outputs(self, small_csv, tmp_path):
        out = tmp_path / "results"
        code = main(["experiment", "--id", "exp1", "--data", small_csv, "--quick",
                     "--out", str(out)])
        assert code in (0, 4)
        grid = out / "exp1_grid_seed42.csv"
        assert grid.is_file()
        lines = grid.read_text().strip().splitlines()
        assert len(lines) == 31  # header + 6 C values x 5 degrees
        timing = (out / "exp1_timing_seed42.csv").read_text().splitlines()
        assert timing[0] == "row,wall_seconds,cpu_seconds"
        assert timing[1].startswith("prepare,") and len(timing) == 32
        assert (out / "exp1_confusion_seed42.csv").is_file()

    def test_env_var_sets_output_dir(self, small_csv, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("CTGSVM_OUT", str(target))
        code = main(["experiment", "--id", "exp5", "--data", small_csv, "--quick"])
        assert code in (0, 4)
        assert (target / "exp5_summary_seed42.csv").is_file()

    def test_config_file_plus_override(self, small_csv, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"data={small_csv}\nquick=true\nseed=7\nc_grid=10,100\ndegree_grid=2,3\n",
            encoding="utf-8",
        )
        out = tmp_path / "cfgout"
        code = main(["experiment", "--id", "exp1", "--config", str(cfgfile),
                     "--out", str(out), "--seed", "9"])
        assert code in (0, 4)
        grid = out / "exp1_grid_seed9.csv"  # CLI seed wins over the file
        assert grid.is_file()
        assert len(grid.read_text().strip().splitlines()) == 5

    @pytest.mark.parametrize(
        "config_line,args,bad",
        [
            ("seed=abc", ["experiment", "--id", "exp1"], "abc"),
            ("exp2_cells=10;3", ["experiment", "--id", "exp2"], "10;3"),
            ("", ["select", "--selector", "FS4", "--cutoff", "top_k:abc"], "top_k:abc"),
        ],
    )
    def test_malformed_config_value_is_data_error(self, small_csv, tmp_path, capsys, config_line, args, bad):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config_line + "\n", encoding="utf-8")
        extra = ["--config", str(cfgfile)] if args[0] == "experiment" else []
        code = main(args + extra + ["--data", small_csv, "--out", str(tmp_path / "out")])
        assert code == 3
        assert bad in capsys.readouterr().err

    def test_unknown_format_in_config_is_data_error(self, small_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("fmt=html\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["experiment", "--id", "exp5", "--quick", "--config", str(cfgfile),
                     "--data", small_csv, "--out", str(out)])
        assert code == 3
        assert "'html'" in capsys.readouterr().err
        assert not out.exists()

    def test_markdown_format_also_written(self, small_csv, tmp_path, capsys):
        """`report` is the one table renderer: re-rendering each result CSV
        reproduces the markdown table and the CSV written beside it."""
        out = tmp_path / "md"
        code = main(["experiment", "--id", "exp5", "--data", small_csv, "--quick",
                     "--format", "markdown", "--out", str(out)])
        assert code in (0, 4)
        summary = out / "exp5_summary_seed42.md"
        assert summary.read_text(encoding="utf-8").startswith("| experiment |")
        for md in sorted(out.glob("*.md")):
            csv_path = md.with_suffix(".csv")
            assert main(["report", "--in", str(csv_path)]) == 0
            assert capsys.readouterr().out == md.read_text(encoding="utf-8")
            again = tmp_path / f"{md.stem}.again.csv"
            assert main(["report", "--in", str(csv_path), "--format", "csv", "--out", str(again)]) == 0
            assert again.read_bytes() == csv_path.read_bytes()
            rendered = tmp_path / f"{md.stem}.again.md"
            assert main(["report", "--in", str(csv_path), "--out", str(rendered)]) == 0
            assert rendered.read_bytes() == md.read_bytes()


class TestReportCommand:
    def test_markdown_rendering(self, tmp_path, capsys):
        table = tmp_path / "summary.csv"
        table.write_text("experiment,model,combined_accuracy\nexp5,\"FS1,bagged\",99.39\n", encoding="utf-8")
        assert main(["report", "--in", str(table)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "| experiment | model | combined_accuracy |",
            "|---|---|---|",
            "| exp5 | FS1,bagged | 99.39 |",
        ]

    def test_empty_input_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["report", "--in", str(empty)]) == 3
        assert "empty table" in capsys.readouterr().err
