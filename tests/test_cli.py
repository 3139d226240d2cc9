"""End-to-end tests for the rxnseq command line tool.

Every test drives main(argv) directly and asserts on exit codes, stdout,
and files, matching how the installed entry point behaves.
"""

import csv
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rxnseq import pipeline
from rxnseq.cli import build_parser, main

TRAIN_LINES = "C=C.Cl>>CCCl\nC=C.Br>>CCBr\nC=C.O>>CCO\n"

TRAIN_FLAGS = [
    "--seed", "7",
    "--hidden-dim", "48",
    "--embedding-dim", "16",
    "--layers", "3",
    "--buckets", "12:8",
    "--batch-size", "3",
    "--steps", "800",
    "--lr", "1.0",
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small checkpoint shared by the predict/eval/export tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.rsmi"
    data.write_text(TRAIN_LINES)
    checkpoint = root / "model.rxs2"
    code = main(
        ["train", "--data", str(data), "--out", str(checkpoint)] + TRAIN_FLAGS
    )
    assert code == 0
    return root, data, checkpoint


def copy_checkpoint(checkpoint, directory):
    """Copy a checkpoint and its two vocabulary sidecars for corrupting."""
    copy = directory / checkpoint.name
    for suffix in ("", ".input-vocab", ".output-vocab"):
        shutil.copy(f"{checkpoint}{suffix}", f"{copy}{suffix}")
    return copy


class TestSmallCommands:
    def test_tokenize_prints_one_token_per_line(self, capsys):
        assert main(["tokenize", "CC=C(C)C.Cl>>"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["C", "C", "=", "C", "(", "C", ")", "C", ".", "Cl", ">", ">"]

    def test_tokenize_rejects_garbage(self, capsys):
        assert main(["tokenize", "C?C"]) == 1
        assert "error" in capsys.readouterr().err

    def test_canon_molecule(self, capsys):
        assert main(["canon", "OCC"]) == 0
        assert capsys.readouterr().out.strip() == "CCO"

    def test_canon_reaction_sorts_parts(self, capsys):
        assert main(["canon", "OCC.C>>CC=O"]) == 0
        assert capsys.readouterr().out.strip() == "C.CCO>>CC=O"

    def test_canon_long_chain(self, capsys):
        chain = "C" * 1200
        assert main(["canon", chain]) == 0
        assert capsys.readouterr().out == chain + "\n"

    def test_canon_rejects_unclosed_ring(self, capsys):
        assert main(["canon", "C1CC"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,position",
        [("C\u00b2", 1), ("C\u0663CC\u0663", 1), ("[\u0663CH4]", 0)],
        ids=["superscript", "ring-closure", "isotope"],
    )
    def test_canon_rejects_non_ascii_digits(self, capsys, text, position):
        assert main(["canon", text]) == 1
        err = capsys.readouterr().err
        assert "unrecognized character" in err
        assert f"at position {position}" in err
        assert "internal error" not in err

    def test_fingerprint_prints_deterministic_bits(self, capsys):
        assert main(["fingerprint", "CCO"]) == 0
        first = capsys.readouterr().out
        bits = [int(x) for x in first.split()]
        assert bits and bits == sorted(bits)
        assert main(["fingerprint", "CCO"]) == 0
        assert capsys.readouterr().out == first

    def test_fingerprint_rejects_bad_nbits(self, capsys):
        assert main(["fingerprint", "CCO", "--nbits", "100"]) == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "rxnseq" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err


def test_main_leaves_the_environment_as_it_found_it(monkeypatch):
    # numpy's BLAS reads its own thread variables; main reads or writes none.
    monkeypatch.setenv("RXNSEQ_THREADS", "2")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "")  # recorded, so a write is undone after
        monkeypatch.delenv(name)
    before = dict(os.environ)
    assert main(["tokenize", "CC"]) == 0
    assert dict(os.environ) == before


class TestGen:
    def test_generates_expected_reaction(self, tmp_path, capsys):
        templates = tmp_path / "templates.txt"
        templates.write_text(
            "hydrochlorination | [C:1]=[C:2] | Cl | | [C:1][C:2]Cl\n"
        )
        substrates = tmp_path / "substrates.smi"
        substrates.write_text("C=C\nCC=C\n# a comment\n")
        out = tmp_path / "gen.rsmi"
        code = main(
            [
                "gen",
                "--templates", str(templates),
                "--substrates", str(substrates),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert "C=C.Cl>>CCCl" in lines
        assert all(line.count(">") == 2 for line in lines)

    def test_final_line_reports_wall_time_and_records_per_second(
        self, tmp_path, caplog, capsys
    ):
        templates = tmp_path / "templates.txt"
        templates.write_text("hydrochlorination | [C:1]=[C:2] | Cl | | [C:1][C:2]Cl\n")
        substrates = tmp_path / "substrates.smi"
        substrates.write_text("C=C\nCC=C\nCCC\n")
        out = tmp_path / "gen.rsmi"
        caplog.set_level(logging.INFO, logger="rxnseq")
        argv = ["gen", "--templates", str(templates), "--substrates", str(substrates),
                "--out", str(out)]
        assert main(argv) == 0
        line = caplog.records[-1].getMessage()
        assert re.fullmatch(
            r"generated 2 reactions from 1 templates \(0 applications failed\) "
            r"in \d+\.\d\d s, \d+\.\d records/s",
            line,
        ), line
        assert capsys.readouterr().out == ""
        assert out.read_text() == "C=C.Cl>>CCCl\nC=CC.Cl>>CC(C)Cl\n"

    def test_skipped_substrate_is_logged_with_its_file_line(self, tmp_path, caplog):
        templates = tmp_path / "templates.txt"
        templates.write_text("hydrochlorination | [C:1]=[C:2] | Cl | | [C:1][C:2]Cl\n")
        substrates = tmp_path / "substrates.smi"
        substrates.write_text("# header\nC=C\n\n# unclosed ring next\nC1CC\n")
        caplog.set_level(logging.INFO, logger="rxnseq.templates")
        argv = ["gen", "--templates", str(templates), "--substrates", str(substrates),
                "--out", str(tmp_path / "gen.rsmi")]
        assert main(argv) == 0
        assert "substrate skipped (line 5, C1CC)" in caplog.text

    def test_each_failed_application_is_logged_by_name(self, tmp_path, caplog):
        templates = tmp_path / "templates.txt"
        templates.write_text(
            "hydrochlorination | [C:1]=[C:2] | Cl | | [C:1][C:2]Cl\n"
            "overfill | [C:1]=[C:2] | | | [C:1]=[C:2](=O)=O\n"
        )
        substrates = tmp_path / "substrates.smi"
        substrates.write_text("C=C\nCC=C\n")
        out = tmp_path / "gen.rsmi"
        caplog.set_level(logging.INFO, logger="rxnseq")
        argv = ["gen", "--templates", str(templates), "--substrates", str(substrates),
                "--out", str(out)]
        assert main(argv) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "application failed (template overfill, substrate C=C): "
            "atom 1 (C, bond order sum 6) exceeds its largest valence",
            "application failed (template overfill, substrate C=CC): "
            "atom 2 (C, bond order sum 6) exceeds its largest valence",
        ]
        assert "(2 applications failed)" in caplog.records[-1].getMessage()
        assert out.read_text() == "C=C.Cl>>CCCl\nC=CC.Cl>>CC(C)Cl\n"

    @pytest.mark.parametrize(
        "out, message, named",
        [
            ("missing/x.rsmi", "output directory not found", "missing"),
            (".", "output path is a directory", "."),
        ],
    )
    def test_unwritable_out_is_refused_before_generating(
        self, tmp_path, capsys, monkeypatch, out, message, named
    ):
        def generate(*args):
            raise AssertionError("generated before checking --out")

        monkeypatch.setattr("rxnseq.templates.generate_dataset", generate)
        shipped = Path(pipeline.__file__).parent / "data"
        argv = ["gen", "--templates", str(shipped / "templates.txt"),
                "--substrates", str(shipped / "substrates.smi"), "--out", str(tmp_path / out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}: {tmp_path / named}\n"

    def test_substrate_rule_is_not_an_option(self, tmp_path, capsys):
        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        options = [a.option_strings for a in sub.choices["gen"]._actions]
        assert options == [["-h", "--help"], ["--templates"], ["--substrates"], ["--out"]]
        shipped = Path(pipeline.__file__).parent / "data"
        argv = ["gen", "--templates", str(shipped / "templates.txt"),
                "--substrates", str(shipped / "substrates.smi"),
                "--out", str(tmp_path / "gen.rsmi"), "--max-atoms", "5"]
        assert main(argv) == 1
        assert "unrecognized arguments: --max-atoms 5" in capsys.readouterr().err
        assert not (tmp_path / "gen.rsmi").exists()

    def test_missing_template_file(self, tmp_path, capsys):
        substrates = tmp_path / "substrates.smi"
        substrates.write_text("C=C\n")
        code = main(
            [
                "gen",
                "--templates", str(tmp_path / "nope.txt"),
                "--substrates", str(substrates),
                "--out", str(tmp_path / "out.rsmi"),
            ]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestIngestAndSplit:
    def test_ingest_filters_and_reports(self, tmp_path):
        data = tmp_path / "raw.rsmi"
        data.write_text(
            "C=C.Cl>>CCCl\n"
            + "C" * 160 + ">>C\n"
            + "CCO>>C.C.C.C\n"
            + "not a reaction\n"
        )
        out = tmp_path / "clean.rsmi"
        report = tmp_path / "rejects.tsv"
        code = main(
            [
                "ingest",
                "--data", str(data),
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines() == ["C=C.Cl>>CCCl"]
        rows = dict(
            line.split("\t") for line in report.read_text().splitlines()
        )
        assert rows["accepted"] == "1"
        assert rows["source_too_long"] == "1"
        assert rows["too_many_products"] == "1"
        assert rows["parse_failures"] == "1"
        assert rows["total"] == "4"

    def test_ingest_skips_lines_with_non_ascii_digits(self, tmp_path):
        data = tmp_path / "raw.rsmi"
        data.write_text(
            "C\u00b2>>CC\nC=C.Cl>>CCCl\nC\u0663CC\u0663>>CC\n[\u0663CH4]>>C\n",
            encoding="utf-8",
        )
        out, report = tmp_path / "clean.rsmi", tmp_path / "rejects.tsv"
        argv = ["ingest", "--data", str(data), "--out", str(out), "--report", str(report)]
        assert main(argv) == 0
        assert out.read_text() == "C=C.Cl>>CCCl\n"
        rows = dict(line.split("\t") for line in report.read_text().splitlines())
        assert rows["parse_failures"] == "3"
        assert rows["total"] == "4"

    def test_final_line_reports_wall_time_and_records_per_second(
        self, tmp_path, caplog, capsys
    ):
        data = tmp_path / "raw.rsmi"
        data.write_text("[CH2:1]=[CH2:2].[ClH:3]>>[CH3:1][CH2:2][Cl:3]\nnot a reaction\n")
        out, report = tmp_path / "clean.rsmi", tmp_path / "rejects.tsv"
        caplog.set_level(logging.INFO, logger="rxnseq")
        argv = ["ingest", "--data", str(data), "--out", str(out), "--report", str(report)]
        assert main(argv) == 0
        line = caplog.records[-1].getMessage()
        assert re.fullmatch(
            r"accepted 1 of 2 records in \d+\.\d\d s, \d+\.\d records/s", line
        ), line
        assert capsys.readouterr().out == ""
        assert out.read_text() == "C=C.Cl>>CCCl\n"
        assert report.read_text() == (
            "parse_failures\t1\nsource_too_long\t0\nproducts_too_long\t0\n"
            "too_many_products\t0\naccepted\t1\ntotal\t2\n"
        )

    def test_split_partitions_and_is_deterministic(self, tmp_path):
        data = tmp_path / "data.rsmi"
        lines = [f"{'C' * n}=C.Cl>>{'C' * n}CCCl" for n in range(1, 21)]
        data.write_text("".join(line + "\n" for line in lines))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert (
                main(["split", "--data", str(data), "--out", str(out), "--seed", "3"])
                == 0
            )
        names = ("train.rsmi", "valid.rsmi", "test.rsmi")
        counts = [
            len((out_a / name).read_text().splitlines()) for name in names
        ]
        assert counts == [16, 2, 2]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_failed_split_write_keeps_every_old_file(self, tmp_path, monkeypatch):
        data = tmp_path / "data.rsmi"
        lines = [f"{'C' * n}=C.Cl>>{'C' * n}CCCl" for n in range(1, 21)]
        data.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        argv = ["split", "--data", str(data), "--out", str(out), "--seed"]
        assert main(argv + ["3"]) == 0
        names = ("train.rsmi", "valid.rsmi", "test.rsmi")
        old = {name: (out / name).read_bytes() for name in names}
        write_bytes = Path.write_bytes

        def disk_full(path, data):
            if path.name.startswith(".test.rsmi."):
                raise OSError(28, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        assert main(argv + ["4"]) == 1
        assert {name: (out / name).read_bytes() for name in names} == old
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        monkeypatch.undo()
        assert main(argv + ["4"]) == 0
        assert all((out / name).read_bytes() != old[name] for name in names)

    def test_split_rejects_bad_fractions(self, tmp_path, capsys):
        data = tmp_path / "data.rsmi"
        data.write_text("C=C.Cl>>CCCl\n")
        code = main(
            [
                "split",
                "--data", str(data),
                "--out", str(tmp_path / "o"),
                "--fractions", "0.5,0.5",
            ]
        )
        assert code == 1
        assert "fractions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out,message",
        [
            ("a-file/splits", "output directory cannot be made: {root}/a-file/splits "
                              "({root}/a-file is not a directory)"),
            ("splits", "output path is a directory: {root}/splits/test.rsmi"),
        ],
        ids=["file-in-path", "test-rsmi-is-a-directory"],
    )
    def test_split_checks_out_before_reading_records(self, tmp_path, capsys, out, message):
        data = tmp_path / "data.rsmi"
        data.write_text("C=C.Cl>>CCCl\nC1CC>>CC\n")  # the second cannot normalize
        (tmp_path / "a-file").write_text("")
        (tmp_path / "splits" / "test.rsmi").mkdir(parents=True)
        argv = ["split", "--data", str(data), "--out", str(tmp_path / out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message.format(root=tmp_path)}\n"
        assert sorted(p.name for p in (tmp_path / "splits").iterdir()) == ["test.rsmi"]


class TestTrain:
    def test_checkpoint_and_vocabs_written(self, trained):
        _, _, checkpoint = trained
        assert checkpoint.is_file()
        assert checkpoint.with_name(checkpoint.name + ".input-vocab").is_file()
        assert checkpoint.with_name(checkpoint.name + ".output-vocab").is_file()

    def test_same_seed_reruns_are_byte_identical(self, trained, tmp_path):
        _, data, checkpoint = trained
        other = tmp_path / "again.rxs2"
        code = main(
            ["train", "--data", str(data), "--out", str(other)] + TRAIN_FLAGS
        )
        assert code == 0
        assert other.read_bytes() == checkpoint.read_bytes()
        for suffix in (".input-vocab", ".output-vocab"):
            assert (
                other.with_name(other.name + suffix).read_bytes()
                == checkpoint.with_name(checkpoint.name + suffix).read_bytes()
            )

    def test_failed_train_write_keeps_every_old_file(self, tmp_path, monkeypatch):
        data = tmp_path / "train.rsmi"
        data.write_text(TRAIN_LINES)
        out = tmp_path / "model.rxs2"
        argv = ["train", "--data", str(data), "--out", str(out)] + TRAIN_FLAGS
        argv += ["--steps", "5"]
        assert main(argv) == 0
        names = ("model.rxs2", "model.rxs2.input-vocab", "model.rxs2.output-vocab")
        old = {name: (tmp_path / name).read_bytes() for name in names}
        data.write_text(TRAIN_LINES + "C=C.I>>CCI\n")
        write_bytes = Path.write_bytes

        def disk_full(path, data):
            if path.name.startswith(".model.rxs2.output-vocab."):
                raise OSError(28, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        assert main(argv) == 1
        assert {name: (tmp_path / name).read_bytes() for name in names} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(("train.rsmi", *names))
        monkeypatch.undo()
        assert main(argv) == 0
        assert all((tmp_path / name).read_bytes() != old[name] for name in names)

    def test_diverged_training_fails_and_keeps_every_old_file(self, tmp_path):
        data = tmp_path / "train.rsmi"
        data.write_text("C=C.Cl>>CCCl\nC=C.Br>>CCBr\n")
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "model.rxs2")]
        argv += TRAIN_FLAGS + ["--steps", "5"]
        assert main(argv) == 0
        names = ("model.rxs2", "model.rxs2.input-vocab", "model.rxs2.output-vocab")
        old = {name: (tmp_path / name).read_bytes() for name in names}
        # In its own process, so numpy's overflow warnings would reach stderr.
        failed = run_alone(argv + ["--lr", "1e30"])
        assert failed.returncode == 1
        error = r"error: training diverged: gradient norm is nan at loss \S+\n"
        assert re.fullmatch(error, failed.stderr), failed.stderr
        assert {name: (tmp_path / name).read_bytes() for name in names} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(("train.rsmi", *names))

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--lr", "nan"], r"learning rate and clip norm must be finite and positive"),
            (["--lr", "inf"], r"learning rate and clip norm must be finite and positive"),
            (["--lr", "1e38"], r"training diverged: loss is \S+ after step 1"),
            (["--lr", "1e39"], r"training diverged: weight \S+ is not finite after step 1"),
            (["--seed", "-1"], r"seed must be non-negative"),
        ],
        ids=["lr-nan", "lr-inf", "lr-1e38", "lr-1e39", "negative-seed"],
    )
    def test_unusable_settings_fail_and_write_nothing(self, tmp_path, capsys, flags, error):
        # The one step's loss is finite at each rate, so train_step's own
        # checks would let the weights it leaves be written.
        data = tmp_path / "train.rsmi"
        data.write_text(TRAIN_LINES)
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "model.rxs2")]
        assert main(argv + TRAIN_FLAGS + ["--steps", "1"] + flags) == 1
        assert re.fullmatch(f"error: {error}\n", capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["train.rsmi"]

    def test_options_are_pinned(self):
        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        options = [(a.option_strings, a.dest) for a in sub.choices["train"]._actions]
        assert options == [
            (["-h", "--help"], "help"),
            (["--data"], "data"),
            (["--out"], "out"),
            (["--seed"], "seed"),
            (["--hidden-dim"], "hidden_dim"),
            (["--embedding-dim"], "embedding_dim"),
            (["--layers"], "layers"),
            (["--buckets"], "buckets"),
            (["--batch-size"], "batch_size"),
            (["--steps"], "steps"),
            (["--lr"], "lr"),
            (["--config"], "config"),
        ]

    def test_final_line_reports_wall_time_and_steps_per_second(self, tmp_path, caplog):
        data = tmp_path / "train.rsmi"
        data.write_text(TRAIN_LINES)
        caplog.set_level(logging.INFO, logger="rxnseq")
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.rxs2")]
        code = main(argv + TRAIN_FLAGS + ["--steps", "5"])
        assert code == 0
        line = caplog.records[-1].getMessage()
        assert re.fullmatch(
            r"trained 5 steps on 3 examples in (\d+\.\d\d) s, (\d+\.\d) steps/s; "
            r"first loss \d+\.\d{4}, last loss \d+\.\d{4}",
            line,
        ), line

    def test_config_file_supplies_flags(self, trained, tmp_path):
        _, data, checkpoint = trained
        config = tmp_path / "run.cfg"
        config.write_text(
            "# model shape\n"
            "seed = 7\nhidden_dim = 48\nembedding_dim = 16\nlayers = 3\n"
            "buckets = 12:8\nbatch_size = 3\nsteps = 800\nlr = 1.0\n"
        )
        out = tmp_path / "fromcfg.rxs2"
        code = main(
            ["train", "--data", str(data), "--out", str(out), "--config", str(config)]
        )
        assert code == 0
        assert out.read_bytes() == checkpoint.read_bytes()

    def test_flags_override_config_file(self, trained, tmp_path):
        _, data, checkpoint = trained
        config = tmp_path / "run.cfg"
        config.write_text(
            "seed = 99\nhidden_dim = 48\nembedding_dim = 16\nlayers = 3\n"
            "buckets = 12:8\nbatch_size = 3\nsteps = 800\nlr = 1.0\n"
        )
        out = tmp_path / "override.rxs2"
        code = main(
            [
                "train",
                "--data", str(data),
                "--out", str(out),
                "--config", str(config),
                "--seed", "7",
            ]
        )
        assert code == 0
        assert out.read_bytes() == checkpoint.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.rsmi"
        data.write_text("C=C.Cl>>CCCl\n")
        config = tmp_path / "run.cfg"
        config.write_text("volume = 11\n")
        code = main(
            [
                "train",
                "--data", str(data),
                "--out", str(tmp_path / "m.rxs2"),
                "--config", str(config),
            ]
        )
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_lines_are_numbered_as_data_lines_number_them(self, tmp_path, capsys):
        # A form feed ends no line, so 'bogus' is on the file's second line.
        data = tmp_path / "data.rsmi"
        data.write_text("C=C.Cl>>CCCl\n")
        config = tmp_path / "c.cfg"
        config.write_bytes(b"seed=1\x0c\nbogus\n")
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.rxs2")]
        assert main(argv + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"error: {config}:2: expected key=value, got 'bogus'" in err

    def test_unset_model_settings_take_the_model_config_defaults(self, tmp_path):
        from rxnseq.model import ModelConfig, load_checkpoint

        data = tmp_path / "train.rsmi"
        data.write_text(TRAIN_LINES)
        out = tmp_path / "m.rxs2"
        assert main(["train", "--data", str(data), "--out", str(out), "--steps", "1"]) == 0
        input_vocab = pipeline.Vocab.load(f"{out}.input-vocab")
        output_vocab = pipeline.Vocab.load(f"{out}.output-vocab")
        assert load_checkpoint(out).config == ModelConfig(len(input_vocab), len(output_vocab))

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data", str(tmp_path / "nope.rsmi"),
                "--out", str(tmp_path / "m.rxs2"),
            ]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestPredict:
    def test_predicts_memorized_product(self, trained, capsys):
        _, _, checkpoint = trained
        code = main(
            ["predict", "--checkpoint", str(checkpoint), "--input", "C=C.Cl>>"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "CCCl"

    def test_products_in_input_are_ignored(self, trained, capsys):
        _, _, checkpoint = trained
        code = main(
            ["predict", "--checkpoint", str(checkpoint), "--input", "C=C.Br>>CCBr"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "BrCC"

    @pytest.mark.parametrize("products", ["C..C", "("])
    def test_products_part_is_ignored_whatever_it_holds(self, trained, capsys, products):
        _, _, checkpoint = trained
        predict = ["predict", "--checkpoint", str(checkpoint), "--input"]
        assert main([*predict, "C=C.Br>>"]) == 0
        expected = capsys.readouterr().out
        assert main([*predict, f"C=C.Br>>{products}"]) == 0
        assert capsys.readouterr().out == expected

    def test_input_is_normalized_before_encoding(self, trained, capsys):
        _, _, checkpoint = trained
        code = main(
            ["predict", "--checkpoint", str(checkpoint), "--input", "Cl.C=C>>"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "CCCl"

    def test_empty_reaction_is_handled(self, trained, capsys):
        _, _, checkpoint = trained
        code = main(["predict", "--checkpoint", str(checkpoint), "--input", ">>"])
        assert code == 0
        capsys.readouterr()

    def test_data_file_mode_predicts_per_line(self, trained, tmp_path, capsys):
        _, data, checkpoint = trained
        code = main(["predict", "--checkpoint", str(checkpoint), "--data", str(data)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["CCCl", "BrCC", "CCO"]

    def test_data_file_lines_are_numbered_as_eval_numbers_them(
        self, trained, tmp_path, capsys, caplog
    ):
        # a form feed ends no line of a data file, whichever command reads it
        _, _, checkpoint = trained
        data = tmp_path / "ff.rsmi"
        data.write_text("C=C.Cl>>CCCl\x0c\nC=C.Br>CCBr\n")
        model = ["--checkpoint", str(checkpoint), "--data", str(data)]
        caplog.set_level(logging.WARNING, logger="rxnseq")
        assert main(["predict", *model]) == 0
        assert capsys.readouterr().out == "CCCl\n\n"
        fault = "expected exactly two '>' separators, found 1"
        assert caplog.messages == [f"line 2 skipped: {fault}"]
        assert main(["eval", *model]) == 1
        assert capsys.readouterr().err == f"error: {data}: line 2: {fault}\n"

    def test_requires_exactly_one_input_source(self, trained, capsys):
        _, data, checkpoint = trained
        assert main(["predict", "--checkpoint", str(checkpoint)]) == 1
        assert (
            main(
                [
                    "predict",
                    "--checkpoint", str(checkpoint),
                    "--input", ">>",
                    "--data", str(data),
                ]
            )
            == 1
        )

    def test_input_beyond_every_bucket_is_predicted_and_exported(
        self, trained, tmp_path, capsys
    ):
        _, _, checkpoint = trained
        model = ["--checkpoint", str(checkpoint), "--input", "C" * 40 + ">>"]
        assert main(["predict", *model]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and err == ""
        path = tmp_path / "attention.csv"
        assert main(["export-attention", *model, "--out", str(path)]) == 0
        with open(path, newline="") as handle:
            header = next(csv.reader(handle))
        assert len(header) == 1 + 2 * 42  # 40 carbons and two '>', no PAD

    def test_a_zero_step_decode_limit_predicts_nothing(self, trained, tmp_path, capsys):
        # A last bucket 30:1 leaves no decoder slot after GO: every path
        # decodes zero steps, and none of them fails.
        _, data, _ = trained
        checkpoint = tmp_path / "model.rxs2"
        flags = ["--seed", "7", "--layers", "1", "--hidden-dim", "8", "--embedding-dim", "4"]
        argv = ["train", "--data", str(data), "--out", str(checkpoint), *flags]
        assert main([*argv, "--buckets", "30:1", "--batch-size", "3", "--steps", "2"]) == 0
        model = ["--checkpoint", str(checkpoint)]
        capsys.readouterr()
        assert main(["predict", *model, "--input", "C=C.Cl>>"]) == 0
        assert capsys.readouterr().out == "\n"
        assert main(["predict", *model, "--data", str(data)]) == 0
        assert capsys.readouterr().out == "\n\n\n"
        path = tmp_path / "attention.csv"
        assert main(["export-attention", *model, "--input", "C=C.Cl>>", "--out", str(path)]) == 0
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 and rows[0][0] == "token"
        assert main(["eval", *model, "--data", str(data)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n"] == 3
        assert (summary["correct_ratio"], summary["invalid_ratio"]) == (0.0, 1.0)

    def test_empty_molecule_is_input_error(self, trained, capsys):
        _, _, checkpoint = trained
        code = main(["predict", "--checkpoint", str(checkpoint), "--input", "C..C>>"])
        assert code == 1
        assert "empty molecule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new", [(b"buckets=12:8", b"buckets=12;8"), (b"seed=7", b"seed=\xff")]
    )
    def test_corrupt_config_block_is_input_error(
        self, trained, tmp_path, capsys, old, new
    ):
        _, _, checkpoint = trained
        copy = copy_checkpoint(checkpoint, tmp_path)
        copy.write_bytes(copy.read_bytes().replace(old, new))
        code = main(["predict", "--checkpoint", str(copy), "--input", "C=C.Cl>>"])
        assert code == 1
        assert "bad config block" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".input-vocab", ".output-vocab"])
    def test_vocab_sidecar_of_wrong_size_is_input_error(
        self, trained, tmp_path, capsys, suffix
    ):
        _, _, checkpoint = trained
        copy = copy_checkpoint(checkpoint, tmp_path)
        sidecar = tmp_path / f"{copy.name}{suffix}"
        sidecar.write_text("".join(sidecar.read_text().splitlines(keepends=True)[:2]))
        code = main(["predict", "--checkpoint", str(copy), "--input", "C=C.Cl>>"])
        assert code == 1
        assert "the checkpoint expects" in capsys.readouterr().err

    # Rewrites of a vocabulary sidecar's lines that Vocab.load refuses, each
    # with what the message must say beyond the sidecar's path.
    CORRUPT_SIDECARS = {
        "duplicated token": (
            lambda lines: lines[:1] + lines,
            lambda lines: f"duplicate token {lines[0].rstrip()!r} on line 2",
        ),
        "pad line": (lambda lines: ["<pad>\n"] + lines[1:], lambda lines: ""),
        "blank line": (lambda lines: ["\n"] + lines[1:], lambda lines: ""),
    }

    @pytest.mark.parametrize(
        "corrupt, reason", CORRUPT_SIDECARS.values(), ids=CORRUPT_SIDECARS.keys()
    )
    def test_corrupt_vocab_sidecar_is_input_error_naming_it(
        self, trained, tmp_path, capsys, corrupt, reason
    ):
        _, _, checkpoint = trained
        copy = copy_checkpoint(checkpoint, tmp_path)
        sidecar = tmp_path / f"{copy.name}.output-vocab"
        lines = sidecar.read_text().splitlines(keepends=True)
        sidecar.write_text("".join(corrupt(lines)))
        code = main(["predict", "--checkpoint", str(copy), "--input", "C=C.Cl>>"])
        assert code == 1
        assert f"error: {sidecar}: {reason(lines)}" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        code = main(
            ["predict", "--checkpoint", str(tmp_path / "no.rxs2"), "--input", ">>"]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestEval:
    def test_memorized_set_scores_perfectly(self, trained, tmp_path, capsys):
        _, data, checkpoint = trained
        base = tmp_path / "report"
        code = main(
            [
                "eval",
                "--checkpoint", str(checkpoint),
                "--data", str(data),
                "--report", str(base),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n"] == 3
        assert summary["correct_ratio"] == 1.0
        assert summary["invalid_ratio"] == 0.0
        assert json.loads((tmp_path / "report.json").read_text()) == summary
        with open(tmp_path / "report.csv", newline="") as handle:
            assert len(list(csv.reader(handle))) == 4

    def test_reports_are_byte_identical_and_timing_goes_to_the_log(
        self, trained, tmp_path, capsys, caplog
    ):
        _, data, checkpoint = trained
        outputs = []
        for name in ("a", "b"):
            argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data)]
            with caplog.at_level(logging.INFO, logger="rxnseq"):
                assert main(argv + ["--report", str(tmp_path / name)]) == 0
            outputs.append(
                (
                    capsys.readouterr().out,
                    (tmp_path / f"{name}.csv").read_bytes(),
                    (tmp_path / f"{name}.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.csv", "a.json", "b.csv", "b.json"
        ]
        timings = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("evaluated ")
        ]
        assert len(timings) == 2
        assert timings[0].startswith("evaluated 3 records (0 skipped) in ")
        assert timings[0].endswith(" records/s")

    def test_failed_report_write_keeps_both_old_files(
        self, trained, tmp_path, monkeypatch
    ):
        _, data, checkpoint = trained
        subset = tmp_path / "subset.rsmi"
        subset.write_text(TRAIN_LINES.splitlines(keepends=True)[0])
        argv = ["eval", "--checkpoint", str(checkpoint), "--report", str(tmp_path / "report")]
        assert main(argv + ["--data", str(data)]) == 0
        names = ("report.csv", "report.json")
        old = {name: (tmp_path / name).read_bytes() for name in names}
        write_bytes = Path.write_bytes

        def disk_full(path, data):
            if path.name.startswith(".report.json."):
                raise OSError(28, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        assert main(argv + ["--data", str(subset)]) == 1
        assert {name: (tmp_path / name).read_bytes() for name in names} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(("subset.rsmi", *names))
        monkeypatch.undo()
        assert main(argv + ["--data", str(subset)]) == 0
        assert all((tmp_path / name).read_bytes() != old[name] for name in names)

    def test_product_less_record_is_input_error_naming_it(
        self, trained, tmp_path, capsys
    ):
        _, _, checkpoint = trained
        data = tmp_path / "data.rsmi"
        data.write_text("C=C.Cl>>CCCl\nCCO>>\n")
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {data}: record 'CCO>>': reference is empty" in err
        assert "internal error" not in err

    def test_empty_testset_is_input_error(self, trained, tmp_path, capsys):
        _, _, checkpoint = trained
        empty = tmp_path / "empty.rsmi"
        empty.write_text("")
        code = main(
            ["eval", "--checkpoint", str(checkpoint), "--data", str(empty)]
        )
        assert code == 1


class TestExports:
    def test_attention_csv_written(self, trained, tmp_path):
        _, _, checkpoint = trained
        out = tmp_path / "attention.csv"
        code = main(
            [
                "export-attention",
                "--checkpoint", str(checkpoint),
                "--input", "C=C.Cl>>",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "token"
        assert len(rows) > 1
        enc_len = 12
        assert len(rows[0]) == 1 + 2 * enc_len
        for row in rows[1:]:
            weights = [float(v) for v in row[1 + enc_len :]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-5)

    def test_embedding_tables_written(self, trained, tmp_path):
        _, _, checkpoint = trained
        base = tmp_path / "emb"
        code = main(
            [
                "export-embeddings",
                "--checkpoint", str(checkpoint),
                "--out", str(base),
                "--top-k", "5",
            ]
        )
        assert code == 0
        for side in ("encoder", "decoder"):
            with open(f"{base}.{side}.csv", newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0][:2] == ["token", "rank"]
            assert 1 < len(rows) <= 6


    def test_failed_embeddings_write_keeps_both_old_files(
        self, trained, tmp_path, monkeypatch
    ):
        _, _, checkpoint = trained
        argv = ["export-embeddings", "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "emb")]
        assert main(argv + ["--top-k", "2"]) == 0
        names = ("emb.encoder.csv", "emb.decoder.csv")
        old = {name: (tmp_path / name).read_bytes() for name in names}
        write_bytes = Path.write_bytes

        def disk_full(path, data):
            if path.name.startswith(".emb.decoder.csv."):
                raise OSError(28, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        assert main(argv + ["--top-k", "3"]) == 1
        assert {name: (tmp_path / name).read_bytes() for name in names} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        monkeypatch.undo()
        assert main(argv + ["--top-k", "3"]) == 0
        assert all((tmp_path / name).read_bytes() != old[name] for name in names)


class TestCheckpointVersion:
    def test_version_one_checkpoint_is_input_error(self, trained, tmp_path, capsys):
        _, _, checkpoint = trained
        copy = copy_checkpoint(checkpoint, tmp_path)
        data = bytearray(copy.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        copy.write_bytes(bytes(data))
        code = main(["predict", "--checkpoint", str(copy), "--input", "C=C.Cl>>"])
        assert code == 1
        assert "unsupported checkpoint version 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "export-attention"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("C=C.Cl", "not a reaction string (no '>'): 'C=C.Cl'"),
        ("C=C.Cl>", "expected exactly two '>' separators, found 1"),
        ("C=C>Cl>>", "expected exactly two '>' separators, found 3"),
    ],
)
def test_input_without_two_separators_is_input_error(
    trained, tmp_path, capsys, command, text, message
):
    _, _, checkpoint = trained
    argv = [command, "--checkpoint", str(checkpoint), "--input", text]
    if command == "export-attention":
        argv += ["--out", str(tmp_path / "a.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["split", "train", "eval"])
def test_malformed_record_is_named_by_its_line(trained, tmp_path, capsys, command):
    _, _, checkpoint = trained
    data = tmp_path / "bad.rsmi"
    data.write_text("# reactions\n\nC=C.Br>CCBr\nC=C.Cl>>CCCl\n")
    argv = {
        "split": ["split", "--data", str(data), "--out", str(tmp_path / "splits")],
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.rxs2")],
        "eval": ["eval", "--checkpoint", str(checkpoint), "--data", str(data)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: line 3: expected exactly two '>' separators, found 1\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.rsmi"]


@pytest.mark.parametrize("command", ["split", "train", "eval"])
def test_record_that_cannot_canonicalize_is_named_by_its_line(
    trained, tmp_path, capsys, command
):
    _, _, checkpoint = trained
    data = tmp_path / "nf.rsmi"
    data.write_text("# reactions\n\nC=C.Cl>>CCCl\nC1CC>>C\n")
    argv = {
        "split": ["split", "--data", str(data), "--out", str(tmp_path / "splits")],
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.rxs2")],
        "eval": ["eval", "--checkpoint", str(checkpoint), "--data", str(data)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: line 4: cannot canonicalize 'C1CC': "
        "structurally invalid token sequence: unpaired_ring_closure@1\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nf.rsmi"]


@pytest.mark.parametrize(
    "out, message, named",
    [
        ("missing/a.csv", "output directory not found", "missing"),
        (".", "output path is a directory", "."),
    ],
)
def test_export_attention_refuses_an_unwritable_out_before_decoding(
    trained, tmp_path, capsys, monkeypatch, out, message, named
):
    def export(*args):
        raise AssertionError("decoded before checking --out")

    monkeypatch.setattr("rxnseq.evaluation.export_attention", export)
    _, _, checkpoint = trained
    argv = ["export-attention", "--checkpoint", str(checkpoint), "--input", "C=C.Cl>>",
            "--out", str(tmp_path / out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}: {tmp_path / named}\n"


def unwritable_commands(root, data, checkpoint):
    """One argv per command that writes files, each aimed at a path that
    cannot be created: a missing directory, or a directory under a file."""
    shipped = Path(pipeline.__file__).parent / "data"
    missing = root / "missing" / "dir"
    a_file = root / "a-file"
    a_file.write_text("")
    (root / "splits" / "test.rsmi").mkdir(parents=True)
    model = ["--checkpoint", str(checkpoint)]
    return {
        "gen": ["gen", "--templates", str(shipped / "templates.txt"),
                "--substrates", str(shipped / "substrates.smi"), "--out", str(missing / "x")],
        "ingest": ["ingest", "--data", str(data), "--out", str(missing / "x")],
        "ingest-report": ["ingest", "--data", str(data), "--out", str(root / "ok.rsmi"),
                          "--report", str(missing / "r.tsv")],
        "split": ["split", "--data", str(data), "--out", str(a_file / "splits")],
        "split-test-dir": ["split", "--data", str(data), "--out", str(root / "splits")],
        "train": ["train", "--data", str(data), "--out", str(missing / "m.rxs2")] + TRAIN_FLAGS,
        "eval": ["eval", *model, "--data", str(data), "--report", str(missing / "r")],
        "export-attention": ["export-attention", *model, "--input", "C=C.Cl>>",
                             "--out", str(missing / "a.csv")],
        "export-embeddings": ["export-embeddings", *model, "--out", str(missing / "e")],
    }


@pytest.mark.parametrize(
    "command",
    ["gen", "ingest", "ingest-report", "split", "split-test-dir", "train", "eval",
     "export-attention", "export-embeddings"],
)
def test_unwritable_output_is_input_error(trained, tmp_path, capsys, command):
    _, data, checkpoint = trained
    argv = unwritable_commands(tmp_path, data, checkpoint)[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err
    assert "internal error" not in err
    assert not (tmp_path / "missing").exists()
    # a command with several outputs writes none of them when one fails
    assert not (tmp_path / "ok.rsmi").exists()
    assert sorted(p.name for p in (tmp_path / "splits").iterdir()) == ["test.rsmi"]


# Each writer aimed at ``target``; the CLI ones return their exit status.
ATOMIC_WRITERS = {
    "vocab": lambda target, data, model: pipeline.Vocab(["C", "O"]).save(target),
    "reactions": lambda target, data, model: pipeline.write_reactions(
        pipeline.read_reactions(data), target
    ),
    "ingest-report": lambda target, data, model: main(
        ["ingest", "--data", str(data), "--out", str(target.with_name("ok.rsmi")),
         "--report", str(target)]
    ),
    "export-attention": lambda target, data, model: main(
        ["export-attention", "--checkpoint", str(model), "--input", "C=C.Cl>>",
         "--out", str(target)]
    ),
    "export-embeddings": lambda target, data, model: main(
        ["export-embeddings", "--checkpoint", str(model),
         "--out", str(target).removesuffix(".encoder.csv")]
    ),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_failed_rename_leaves_the_old_file(trained, tmp_path, monkeypatch, writer):
    _, data, checkpoint = trained
    target = tmp_path / "out.encoder.csv"
    target.write_text("old\n")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == target:
            raise OSError("rename refused")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    try:
        status = ATOMIC_WRITERS[writer](target, data, checkpoint)
    except OSError:
        status = 1
    assert status == 1
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def not_utf8_commands(root, data, checkpoint, bad):
    """One argv per command input, each naming ``bad`` for that input."""
    shipped = Path(pipeline.__file__).parent / "data"
    model = ["--checkpoint", str(checkpoint)]
    return {
        "ingest --data": ["ingest", "--data", str(bad), "--out", str(root / "o.rsmi")],
        "split --data": ["split", "--data", str(bad), "--out", str(root / "splits")],
        "train --data": ["train", "--data", str(bad), "--out", str(root / "m.rxs2")],
        "train --config": ["train", "--data", str(data), "--config", str(bad),
                           "--out", str(root / "m.rxs2")],
        "eval --data": ["eval", *model, "--data", str(bad)],
        "predict --data": ["predict", *model, "--data", str(bad)],
        "gen --templates": ["gen", "--templates", str(bad), "--substrates",
                            str(shipped / "substrates.smi"), "--out", str(root / "g.rsmi")],
        "gen --substrates": ["gen", "--templates", str(shipped / "templates.txt"),
                             "--substrates", str(bad), "--out", str(root / "g.rsmi")],
        "vocab sidecar": ["predict", *model, "--input", "C=C.Cl>>"],
    }


@pytest.mark.parametrize(
    "command",
    ["ingest --data", "split --data", "train --data", "train --config", "eval --data",
     "predict --data", "gen --templates", "gen --substrates", "vocab sidecar"],
)
def test_input_that_is_not_utf8_is_input_error(trained, tmp_path, capsys, command):
    _, data, checkpoint = trained
    checkpoint = copy_checkpoint(checkpoint, tmp_path)
    bad = tmp_path / "bad.txt"
    if command == "vocab sidecar":
        bad = Path(f"{checkpoint}.input-vocab")
    bad.write_bytes(b"C=C.Cl>>CC\xffCl\n")
    argv = not_utf8_commands(tmp_path, data, checkpoint, bad)[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {bad} is not UTF-8 text" in err
    assert "internal error" not in err


def run_without_numpy(code):
    """Run ``code`` in a fresh process, then check numpy was never imported."""
    code += "; assert 'numpy' not in sys.modules, 'numpy loaded'"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_cli_leaves_numpy_unloaded():
    # Importing numpy takes about 0.1 s; a command that needs none skips it.
    run_without_numpy("import sys, rxnseq.cli")


def test_canon_leaves_numpy_unloaded():
    out = run_without_numpy(
        "import sys; from rxnseq.cli import main; "
        "assert main(['canon', 'CC']) == 0; "
        "assert main(['canon', 'OCC.C>>CC=O']) == 0"
    )
    assert out == "CC\nC.CCO>>CC=O\n"


def run_alone(argv):
    """``argv`` run by the command line tool in a fresh process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rxnseq.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_calls_in_one_process_print_what_each_prints_on_its_own(trained, capsys):
    # main builds its parser once per process and reuses an unchanged model;
    # no call may see another's state.
    _, data, checkpoint = trained
    model = ["--checkpoint", str(checkpoint)]
    calls = [
        ["predict", *model, "--input", "C=C.Br>>"],
        ["predict", *model],
        ["predict", *model, "--data", str(data)],
        ["eval", *model, "--data", str(data)],
        ["predict", *model, "--input", "C=C.Br>>"],
    ]
    alone = [run_alone(argv) for argv in calls]
    together = []
    for argv in calls:
        code = main(argv)
        together.append((code, capsys.readouterr()))
    for argv, result, (code, captured) in zip(calls, alone, together):
        assert code == result.returncode, argv
        assert captured.out == result.stdout, argv
    # the log lines go to pytest's handler here, so compare stderr of the
    # usage error, which is printed
    assert together[1][0] == 1
    assert together[1][1].err == alone[1].stderr
    assert "exactly one of --input or --data" in alone[1].stderr
    assert together[0][1].out == together[4][1].out == "BrCC\n"
    assert together[2][1].out.splitlines() == ["CCCl", "BrCC", "CCO"]


def test_a_checkpoint_rewritten_in_place_is_read_again(trained, tmp_path, capsys):
    # Two checkpoints of one size; the second overwrites the first and its
    # modification time is put back, so only the bytes tell them apart.
    _, data, _ = trained
    first, second = tmp_path / "a" / "model.rxs2", tmp_path / "b" / "model.rxs2"
    for seed, out in (("1", first), ("2", second)):
        out.parent.mkdir()
        argv = ["train", "--data", str(data), "--out", str(out)]
        assert main(argv + TRAIN_FLAGS + ["--seed", seed, "--steps", "20"]) == 0
    assert first.stat().st_size == second.stat().st_size
    model = ["--checkpoint", str(first)]
    # eval prints the mean cross-entropy, which tells the two models apart
    calls = [["predict", *model, "--input", "C=C.Br>>"], ["eval", *model, "--data", str(data)]]

    def outputs():
        alone = [run_alone(argv) for argv in calls]
        assert all(result.returncode == 0 for result in alone)
        for argv, result in zip(calls, alone):
            assert main(argv) == 0
            assert capsys.readouterr().out == result.stdout, argv
        return [result.stdout for result in alone]

    before = outputs()
    stat = first.stat()
    first.write_bytes(second.read_bytes())
    os.utime(first, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert first.stat().st_mtime_ns == stat.st_mtime_ns
    assert outputs()[1] != before[1]


@pytest.mark.parametrize(
    "corrupt",
    [lambda lines: lines[:2], lambda lines: lines[:1] + lines],
    ids=["wrong size", "duplicated token"],
)
def test_a_sidecar_corrupted_between_calls_is_input_error(
    trained, tmp_path, capsys, corrupt
):
    _, _, checkpoint = trained
    copy = copy_checkpoint(checkpoint, tmp_path)
    argv = ["predict", "--checkpoint", str(copy), "--input", "C=C.Cl>>"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "CCCl\n"
    sidecar = Path(f"{copy}.output-vocab")
    sidecar.write_text("".join(corrupt(sidecar.read_text().splitlines(keepends=True))))
    failed = run_alone(argv)
    assert failed.returncode == 1 and failed.stderr.startswith(f"error: {sidecar}")
    for _ in range(2):  # a load that fails its last check is not kept either
        assert main(argv) == 1
        assert capsys.readouterr().err == failed.stderr


def test_a_failed_load_is_not_served_later(trained, tmp_path, capsys):
    _, _, checkpoint = trained
    copy = copy_checkpoint(checkpoint, tmp_path)
    argv = ["predict", "--checkpoint", str(copy), "--input", "C=C.Cl>>"]
    good = copy.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == "CCCl\n"
    copy.write_bytes(good.replace(b"buckets=12:8", b"buckets=12;8"))
    failed = run_alone(argv)
    assert failed.returncode == 1 and "bad config block" in failed.stderr
    for _ in range(2):
        assert main(argv) == 1
        assert capsys.readouterr().err == failed.stderr
    copy.write_bytes(good)
    assert main(argv) == 0
    assert capsys.readouterr().out == run_alone(argv).stdout == "CCCl\n"


def test_a_reused_model_is_read_only(trained):
    from rxnseq.cli import _load_model_and_vocabs

    _, _, checkpoint = trained
    model, _, _ = _load_model_and_vocabs(str(checkpoint))
    again, _, _ = _load_model_and_vocabs(str(checkpoint))
    assert again is model
    with pytest.raises(ValueError):
        again.params.enc_embed[0, 0] = 0.0
