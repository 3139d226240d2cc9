"""End-to-end checks of the guarantees the package ships with.

Each test is self-contained and runs the full path it exercises: shipped
data files, template expansion, training, decoding, and the command line.
"""

import csv
import functools
import math
import random
import time
from pathlib import Path

import numpy as np

import rxnseq
import test_templates
from rxnseq import smiles
from rxnseq.cli import main as cli_main
from rxnseq.evaluation import (
    evaluate,
    export_attention,
    score_prediction,
    write_report,
)
from rxnseq.model import (
    ModelConfig,
    batch_loss,
    fit,
    init_model,
    loss_and_grads,
    predict_with_attention,
)
from rxnseq.molgraph import canonical_from_string, parse_string, random_smiles
from rxnseq.pipeline import (
    BucketSpec,
    build_vocabs,
    encode_example,
    ingest_lines,
    source_string,
    target_string,
)
from rxnseq.templates import (
    apply_template,
    generate_dataset,
    load_templates_file,
    match_pattern,
    parse_pattern,
)

DATA = Path(rxnseq.__file__).parent / "data"


@functools.cache
def shipped_templates():
    return tuple(load_templates_file(DATA / "templates.txt"))


@functools.cache
def shipped_substrates():
    lines = (DATA / "substrates.smi").read_text().splitlines()
    return tuple(
        line.strip() for line in lines if line.strip() and not line.startswith("#")
    )


@functools.cache
def generated_records():
    records, failures = generate_dataset(
        list(shipped_templates()), list(shipped_substrates())
    )
    assert not failures
    return tuple(records)


def bucket_for(records):
    """Single bucket sized to the longest source/target among `records`."""
    enc = max(len(smiles.tokenize(source_string(r))) for r in records)
    dec = max(len(smiles.tokenize(target_string(r))) + 2 for r in records)
    return BucketSpec(((enc, dec),))


def exact_hits(model, records, examples, output_vocab):
    hits = 0
    decoded = predict_with_attention(model, [example.encoder_ids for example in examples])
    for record, result in zip(records, decoded):
        predicted = result.text(output_vocab)
        hits += score_prediction(predicted, target_string(record)).exact
    return hits


def test_corpus_round_trip_is_lossless_and_fast():
    lines = [
        line.strip()
        for line in (DATA / "corpus_mixed_1k.rsmi").read_text().splitlines()
        if line.strip()
    ]
    assert len(lines) == 1000
    start = time.perf_counter()
    mismatches = [
        line for line in lines if "".join(t.text for t in smiles.tokenize(line)) != line
    ]
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 1.0


# Fifty molecules spanning chains, rings, aromatics, charges, stereo bonds,
# and tetrahedral centres; every rendering of each must canonicalize back
# to a single string.
RENDER_POOL = [
    "C=C", "CC=C(C)C", "CCCCCC=C", "C1=CCCCC1", "CC1=CCCC1",
    "C#C", "CC#CC", "CC(C)CCC#C", "CO", "CCO",
    "CC(C)O", "CC(C)CC(C)O", "C1CCCCC1O", "CC=O", "CCC=O",
    "CC(C)=O", "CCC(C)=O", "C1CCCC1=O", "CC(=O)O", "CCCC(=O)O",
    "CC(=O)OC", "CCC(=O)OC", "CC(=O)Cl", "CCCC(=O)Cl", "ClCCl",
    "c1ccccc1", "Cc1ccccc1", "COc1ccccc1", "c1ccncc1", "c1cc[nH]c1",
    "c1ccsc1", "CCOCC", "Cc1cccc(C)c1", "O=[N+]([O-])c1ccccc1", "Nc1ccc(Cl)cc1",
    "FC(F)(F)c1ccccc1", "CC(=O)Nc1ccccc1", "c1ccc2ccccc2c1", "Clc1cccc(Br)c1",
    "Ic1ccccc1", "C/C=C/C", "C/C=C\\CC", "C/C=C/C=C/C", "C[C@H](N)C(=O)O",
    "C[C@@H](O)CC", "[NH3+]CCC([O-])=O", "CN1CCCC1", "OCC1CCCCC1",
    "N#Cc1ccccc1", "CC(C)(C)OC(=O)NC",
]


def test_random_renderings_collapse_to_one_canonical_form():
    assert len(RENDER_POOL) == 50
    for text in RENDER_POOL:
        graph = parse_string(text)
        canon = canonical_from_string(text)
        for seed in range(100):
            rendered = canonical_from_string(random_smiles(graph, seed))
            assert rendered == canon
            assert canonical_from_string(rendered) == rendered


def test_ingest_filters_cut_exactly_at_the_boundaries():
    # The source span counts everything before the second '>' including the
    # first '>' itself; the product span everything after it.
    source_at_limit = "C" * 149 + ">>C"
    source_over = "C" * 150 + ">>C"
    records, report = ingest_lines([source_at_limit, source_over])
    assert report.accepted == 1 and report.source_too_long == 1
    assert records[0].reactants == ("C" * 149,)

    products_at_limit = "C>>" + "C" * 80
    products_over = "C>>" + "C" * 81
    records, report = ingest_lines([products_at_limit, products_over])
    assert report.accepted == 1 and report.products_too_long == 1
    assert records[0].products == ("C" * 80,)

    count_at_limit = "C>>C.C.C"
    count_over = "C>>C.C.C.C"
    records, report = ingest_lines([count_at_limit, count_over])
    assert report.accepted == 1 and report.too_many_products == 1
    assert len(records[0].products) == 3


def test_pattern_matcher_agrees_with_exhaustive_search():
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        pattern = parse_pattern(rng.choice(test_templates.PATTERN_POOL))
        graph = parse_string(rng.choice(test_templates.MOLECULE_POOL))
        if len(graph.atoms) > 10:
            continue
        assert match_pattern(pattern, graph) == test_templates.brute_force_match(
            pattern, graph
        )
        checked += 1


def test_shipped_hydrochlorination_adds_chlorine_at_the_branched_carbon():
    template = next(t for t in shipped_templates() if t.name == "hydrochlorination")
    (record,) = apply_template(template, parse_string("CC=C(C)C"))
    assert record.products == (canonical_from_string("CCC(C)(C)Cl"),)
    assert canonical_from_string("CCC(C)(C)Cl") == "CCC(C)(C)Cl"


def test_backprop_matches_central_finite_differences():
    start = time.perf_counter()
    config = ModelConfig(
        input_vocab_size=8,
        output_vocab_size=8,
        num_layers=2,
        embedding_dim=4,
        hidden_dim=6,
        buckets=BucketSpec(((7, 8),)),
        learning_rate=0.5,
        seed=23,
    )
    model = init_model(config, dtype=np.float64)
    enc = np.array([[0, 0, 5, 6, 7, 4, 4], [0, 4, 4, 5, 5, 6, 7]], dtype=np.int64)
    dec = np.array(
        [[1, 4, 5, 6, 2, 0, 0, 0], [1, 7, 6, 2, 0, 0, 0, 0]], dtype=np.int64
    )
    _, grads = loss_and_grads(model, enc, dec)
    eps = 1e-5
    worst = 0.0
    for (name, arr), (_, grad) in zip(model.params.named(), grads.named()):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = batch_loss(model, enc, dec)
            flat[i] = keep - eps
            down = batch_loss(model, enc, dec)
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            # scale floor keeps near-zero entries from amplifying FD noise
            scale = max(abs(gflat[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[i] - numeric) / scale)
        assert worst < 1e-4, f"{name}: max relative error {worst}"
    assert time.perf_counter() - start < 60.0


def test_small_training_run_memorizes_fifty_generated_reactions():
    records = sorted(
        generated_records(), key=lambda r: (len(source_string(r)), source_string(r))
    )[:50]
    input_vocab, output_vocab = build_vocabs(records)
    buckets = bucket_for(records)
    examples = [encode_example(r, input_vocab, output_vocab, buckets) for r in records]
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=3,
        embedding_dim=64,
        hidden_dim=64,
        buckets=buckets,
        learning_rate=6.0,
        gradient_clip_norm=0.5,
        seed=0,
    )
    model = init_model(config)

    enc = np.array([ex.encoder_ids for ex in examples])
    dec = np.array([ex.decoder_ids for ex in examples])
    flat_start = math.log(len(output_vocab))
    assert abs(batch_loss(model, enc, dec) - flat_start) <= 0.1 * flat_start

    start = time.perf_counter()
    fit(model, examples, steps=500, batch_size=25, seed=11)
    assert time.perf_counter() - start < 600.0
    assert exact_hits(model, records, examples, output_vocab) >= 48  # 95% of 50


# Markovnikov additions across C=C: the family shares one substrate pattern,
# so a model trained on small alkenes sees each skeleton in five contexts.
ADDITION_FAMILY = (
    "hydrochlorination",
    "hydrobromination",
    "alkene_chlorination",
    "alkene_bromination",
    "alkene_hydrogenation",
)

TRAIN_ALKENES = [
    "C=C", "CC=C", "CC=CC", "CC(C)=C", "CCC=C", "CCC=CC", "CC=C(C)C",
    "CCCC=C", "CC(C)C=C", "CCCC=CC", "CCC=C(C)C", "CC(C)=C(C)C",
    "C=C(C)CC", "C=CCCC", "CC=CCC", "CC(C)=CC", "C=C(CC)CC",
    "CCC(C)C=C", "CC(C)CC=C", "C=CC(C)C", "CC(C)C=CC", "C=CC(C)(C)C",
    "CCC(C)=CC", "CC(C)(C)C=C", "CCC(CC)=C", "CCCC(C)=C",
    "C1=CCC1", "C1=CCCC1", "C1=CCCCC1", "CC1=CCCC1", "CC1=CCC1",
    "C=CC1CC1", "CC=CC1CC1", "C1=CC(C)C1",
    "C1=CC(C)CC1", "CC1=CC(C)C1", "C=CC1CCC1", "CC1CC=CC1",
    "C1=CCC(C)C1", "CC1=C(C)CC1", "C=CCC1CC1",
    "C=C1CCC1", "C=C1CCCC1", "CC=C1CCC1", "C=C(C)C1CC1",
    "C1=CC(CC)C1", "C1=CC(C)(C)C1",
]

# One-step ring homologs of motifs the training set contains: each holdout
# grows a trained ring pattern by a single carbon.
HOMOLOG_HOLDOUTS = [
    "C1=CCCCCC1", "C1=CCCCCCC1", "C=CC1CCCC1", "C=CCC1CCC1",
    "CC=CC1CCC1", "C=C1CCCCC1", "CC=C1CCCC1",
]


def family_records(alkenes):
    family = [t for t in shipped_templates() if t.name in ADDITION_FAMILY]
    assert len(family) == len(ADDITION_FAMILY)
    records = {}
    for template in family:
        for text in alkenes:
            for record in apply_template(template, parse_string(text)):
                records.setdefault(record.smiles(), record)
    return list(records.values())


def test_family_model_generalizes_to_ring_homologs(tmp_path):
    for text in TRAIN_ALKENES:
        assert len(parse_string(text).atoms) <= 6
    for text in HOMOLOG_HOLDOUTS:
        assert 7 <= len(parse_string(text).atoms) <= 8
    trained = {canonical_from_string(s) for s in TRAIN_ALKENES}
    held = {canonical_from_string(s) for s in HOMOLOG_HOLDOUTS}
    assert not (trained & held)

    train_records = family_records(TRAIN_ALKENES)
    holdout_records = family_records(HOMOLOG_HOLDOUTS)
    input_vocab, output_vocab = build_vocabs(train_records)
    buckets = bucket_for(train_records + holdout_records)
    examples = [
        encode_example(r, input_vocab, output_vocab, buckets) for r in train_records
    ]
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=3,
        embedding_dim=64,
        hidden_dim=64,
        buckets=buckets,
        learning_rate=6.0,
        gradient_clip_norm=0.5,
        seed=3,
    )
    model = init_model(config)
    fit(model, examples, steps=2500, batch_size=64, seed=11)

    report = evaluate(model, holdout_records, input_vocab, output_vocab)
    write_report(report, tmp_path / "holdout_report")
    summary = report.summary()
    for key in ("correct_ratio", "mean_tanimoto", "invalid_ratio", "mean_cross_entropy"):
        assert math.isfinite(summary[key])
    assert report.mean_tanimoto >= 0.6
    assert report.invalid_ratio <= 0.4


def test_exported_attention_rows_are_normalized_and_bucket_wide(tmp_path):
    records = sorted(
        generated_records(), key=lambda r: (len(source_string(r)), source_string(r))
    )[:100]
    input_vocab, output_vocab = build_vocabs(records)
    buckets = bucket_for(records)
    encoder_len = buckets.pairs[0][0]
    examples = [encode_example(r, input_vocab, output_vocab, buckets) for r in records]
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=3,
        embedding_dim=16,
        hidden_dim=32,
        buckets=buckets,
        learning_rate=1.0,
        seed=1,
    )
    model = init_model(config)
    fit(model, examples, steps=150, batch_size=20, seed=11)

    for index, record in enumerate(records):
        path = tmp_path / f"attention_{index}.csv"
        export_attention(model, source_string(record), input_vocab, output_vocab, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        assert sum(name.startswith("weight:") for name in header) == encoder_len
        assert body
        for row in body:
            weights = np.array([float(v) for v in row[1 + encoder_len :]])
            assert weights.shape == (encoder_len,)
            assert (weights >= 0.0).all()
            assert abs(weights.sum() - 1.0) <= 1e-5


def test_pipeline_reruns_produce_identical_bytes(tmp_path):
    outputs = [
        "gen.rsmi",
        "splits/train.rsmi",
        "splits/valid.rsmi",
        "splits/test.rsmi",
        "model.rxs2",
        "model.rxs2.input-vocab",
        "model.rxs2.output-vocab",
        "report.csv",
        "report.json",
    ]

    def run(base):
        base.mkdir()
        assert cli_main([
            "gen",
            "--templates", str(DATA / "templates.txt"),
            "--substrates", str(DATA / "substrates.smi"),
            "--out", str(base / "gen.rsmi"),
        ]) == 0
        assert cli_main([
            "split",
            "--data", str(base / "gen.rsmi"),
            "--out", str(base / "splits"),
            "--seed", "5",
        ]) == 0
        assert cli_main([
            "train",
            "--data", str(base / "splits" / "train.rsmi"),
            "--out", str(base / "model.rxs2"),
            "--seed", "7",
            "--hidden-dim", "16",
            "--embedding-dim", "12",
            "--layers", "2",
            "--buckets", "64:40",
            "--batch-size", "16",
            "--steps", "25",
            "--lr", "0.5",
        ]) == 0
        assert cli_main([
            "eval",
            "--checkpoint", str(base / "model.rxs2"),
            "--data", str(base / "splits" / "test.rsmi"),
            "--report", str(base / "report"),
        ]) == 0
        return {name: (base / name).read_bytes() for name in outputs}

    first = run(tmp_path / "first")
    second = run(tmp_path / "second")
    for name in outputs:
        assert first[name] == second[name], name
