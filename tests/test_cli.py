"""End-to-end tests for the rxnseq command line tool.

Every test drives main(argv) directly and asserts on exit codes, stdout,
and files, matching how the installed entry point behaves.
"""

import csv
import json
import shutil

import pytest

from rxnseq.cli import main

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

    def test_canon_rejects_unclosed_ring(self, capsys):
        assert main(["canon", "C1CC"]) == 1
        assert "error" in capsys.readouterr().err

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


class TestThreadCap:
    def test_invalid_thread_cap_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RXNSEQ_THREADS", "zero")
        assert main(["tokenize", "CC"]) == 1
        assert "RXNSEQ_THREADS" in capsys.readouterr().err

    def test_valid_thread_cap_is_applied(self, monkeypatch):
        monkeypatch.setenv("RXNSEQ_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["tokenize", "CC"]) == 0
        import os

        assert os.environ["OMP_NUM_THREADS"] == "1"


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

    def test_too_long_input_is_input_error(self, trained, capsys):
        _, _, checkpoint = trained
        code = main(
            [
                "predict",
                "--checkpoint", str(checkpoint),
                "--input", "C" * 40 + ">>",
            ]
        )
        assert code == 1
        assert "bucket" in capsys.readouterr().err

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
