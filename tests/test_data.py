"""Integrity checks for the data files installed with the package."""

import hashlib
from pathlib import Path

import pytest

import rxnseq
from rxnseq.cli import main
from rxnseq.pipeline import ingest_file, normalize, read_reactions, write_reactions
from rxnseq.templates import (
    PatternGraph,
    default_substrate_filter,
    enumerate_substrates,
    generate_dataset,
    load_templates_file,
)

DATA = Path(rxnseq.__file__).parent / "data"


def test_templates_file_loads_with_unique_names():
    templates = load_templates_file(DATA / "templates.txt")
    names = [t.name for t in templates]
    assert len(names) == len(set(names))
    assert "hydrochlorination" in names
    assert len(templates) == 18


def test_substrates_all_pass_the_default_filter():
    lines = (DATA / "substrates.smi").read_text().splitlines()
    raw = [line for line in lines if line.strip() and not line.startswith("#")]
    forms, skipped = enumerate_substrates(raw, default_substrate_filter())
    assert skipped == []
    assert len(forms) >= len(raw)  # halogen expansion never shrinks the set


def test_corpus_lines_are_unique_and_ingestible():
    lines = [
        line.strip()
        for line in (DATA / "corpus_mixed_1k.rsmi").read_text().splitlines()
        if line.strip()
    ]
    assert len(lines) == 1000
    assert len(set(lines)) == 1000
    records, report = ingest_file(DATA / "corpus_mixed_1k.rsmi")
    assert report.accepted == 1000
    assert report.total == 1000
    assert len(records) == 1000


def records_digest(records) -> str:
    return hashlib.sha256("".join(r.smiles() + "\n" for r in records).encode()).hexdigest()


@pytest.fixture(scope="module")
def generated():
    """The shipped templates crossed with the shipped substrates, as `gen` does."""
    templates = load_templates_file(DATA / "templates.txt")
    substrates = (DATA / "substrates.smi").read_text().splitlines()
    return generate_dataset(templates, substrates, default_substrate_filter())


# Byte oracles for the chemistry layer: any change to parsing, map
# stripping, canonicalization or template application that alters an
# output string changes one of these digests.
def test_gen_output_is_pinned(generated):
    records, failures = generated
    assert failures == []
    assert len(records) == 291
    assert (
        records_digest(records)
        == "22503219e4e6ff7aa1eda4cd7ffffdf9bfd829ab89f86b9530fe351196c68017"
    )


def patterns_digest(patterns: list[PatternGraph]) -> str:
    text = "".join(repr((p.atoms, p.bonds())) + "\n" for p in patterns)
    return hashlib.sha256(text.encode()).hexdigest()


# Every parsed pattern, atom constraints and bonds alike: the gen digest
# shows a pattern change only when it moves a generated record.
def test_parsed_patterns_are_pinned():
    patterns = [
        pattern
        for t in load_templates_file(DATA / "templates.txt")
        for pattern in (t.substrate_pattern, t.product_pattern)
    ]
    f = default_substrate_filter()
    patterns += [*f.forbidden_motifs, *(pattern for _, pattern in f.functional_groups)]
    assert len(patterns) == 52
    assert (
        patterns_digest(patterns)
        == "2d15d4cfe9e529329e5f51764ef74edd542adfce6f9e40f1931451afc5fbfbec"
    )


def test_ingested_and_normalized_corpus_is_pinned():
    records, _ = ingest_file(DATA / "corpus_mixed_1k.rsmi")
    assert (
        records_digest(records)
        == "a7444d4138c1b4c17aa747b4ec443c3e36d4aa6d3626eb1cbe16cc361ffc2f4d"
    )
    assert (
        records_digest(normalize(r) for r in records)
        == "924eae9b8702b28cb1630c15b6fb31f697a391b03c9d91fe78320c8933d4286c"
    )


def test_gen_output_reads_back_as_equal_records(generated, tmp_path):
    records, _ = generated
    write_reactions(records, tmp_path / "gen.rsmi")
    assert read_reactions(tmp_path / "gen.rsmi") == records


def test_split_of_gen_output_is_pinned(generated, tmp_path):
    write_reactions(generated[0], tmp_path / "gen.rsmi")
    argv = ["split", "--data", str(tmp_path / "gen.rsmi"), "--out", str(tmp_path / "splits"),
            "--seed", "5"]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "splits" / name).read_bytes()).hexdigest()
        for name in ("train.rsmi", "valid.rsmi", "test.rsmi")
    }
    assert digests == {
        "train.rsmi": "b082a5608eec2408127259f561a8f6ec6ecf9f8e951dcd3c85709a51851dd315",
        "valid.rsmi": "56466ffb1e5eb981f69911ec1fb8c497f74763744239735eb8be35461858f244",
        "test.rsmi": "b8ad96c900e671e2f02889a31434599beacf32b21e6553f8f842f7486b643183",
    }
