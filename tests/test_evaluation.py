"""Tests for prediction scoring, aggregate reports, and CSV exports."""

import csv
import dataclasses
import functools
import json
import logging
from collections import Counter

import numpy as np
import pytest

from rxnseq import evaluation, molgraph
from rxnseq import model as rmodel
from rxnseq.cli import main
from rxnseq.evaluation import (
    EmptyTestset,
    EvalReport,
    ExampleRow,
    ReferenceInvalid,
    evaluate,
    export_attention,
    export_embeddings,
    score_prediction,
    write_report,
)
from rxnseq.model import (
    Decoded,
    Model,
    ModelConfig,
    batch_loss,
    fit,
    init_model,
    predict_with_attention,
    save_checkpoint,
)
from rxnseq.molgraph import (
    GraphError,
    canonical_smiles,
    morgan_fingerprint,
    parse_string,
    tanimoto,
)
from rxnseq.pipeline import (
    BucketSpec,
    Vocab,
    build_vocabs,
    encode_example,
    encode_source,
    normalize,
    parse_record,
    source_string,
    target_string,
)
from rxnseq.smiles import SmilesError, tokenize


def small_records():
    return [
        normalize(parse_record(line))
        for line in ("C=C.Cl>>CCCl", "C=C.Br>>CCBr", "C=C.O>>CCO")
    ]


@functools.cache
def memorized():
    """A model trained to reproduce three one-product reactions exactly."""
    records = small_records()
    input_vocab, output_vocab = build_vocabs(records)
    buckets = BucketSpec(((12, 8),))
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=3,
        embedding_dim=16,
        hidden_dim=48,
        buckets=buckets,
        learning_rate=1.0,
        seed=7,
    )
    model = init_model(config)
    examples = [
        encode_example(r, input_vocab, output_vocab, buckets) for r in records
    ]
    fit(model, examples, steps=800, batch_size=3, seed=3)
    return model, records, input_vocab, output_vocab


@functools.cache
def two_buckets():
    """A briefly trained model whose records fall into two buckets."""
    records = [
        normalize(parse_record(line))
        for line in (
            "C=C.Cl>>CCCl",
            "CC(C)=C.Cl>>CC(C)(C)Cl",
            "C=C.Br>>CCBr",
            "CC=C(C)C.Br>>CCC(C)(C)Br",
            "C=C.O>>CCO",
            "CC(C)=C.O>>CC(C)(C)O",
            "C=CC.Cl>>CC(C)Cl",
        )
    ]
    input_vocab, output_vocab = build_vocabs(records)
    buckets = BucketSpec(((8, 8), (12, 14)))
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=2,
        embedding_dim=12,
        hidden_dim=24,
        buckets=buckets,
        learning_rate=1.0,
        seed=4,
    )
    model = init_model(config)
    examples = [
        encode_example(r, input_vocab, output_vocab, buckets) for r in records
    ]
    assert {(len(e.encoder_ids), len(e.decoder_ids)) for e in examples} == set(buckets.pairs)
    fit(model, examples, steps=800, batch_size=3, seed=2)
    return model, records, input_vocab, output_vocab


class TestScorePrediction:
    def test_identical_is_exact_with_unit_similarity(self):
        score = score_prediction("CCCl", "CCCl")
        assert score.valid and score.exact
        assert score.tanimoto == 1.0

    def test_same_molecule_different_rendering_is_exact(self):
        score = score_prediction("C(O)C", "OCC")
        assert score.exact
        assert score.tanimoto == 1.0

    def test_component_order_is_ignored(self):
        assert score_prediction("CO.C", "C.CO").exact

    def test_duplicate_components_are_distinguished(self):
        score = score_prediction("C.C", "C")
        assert score.valid
        assert not score.exact

    def test_unbalanced_paren_is_invalid(self):
        score = score_prediction("CC(C", "CCCl")
        assert not score.valid and not score.exact and score.tanimoto == 0.0

    def test_overvalent_prediction_is_invalid(self):
        score = score_prediction("C(C)(C)(C)(C)C", "CC(C)(C)C")
        assert not score.valid
        assert score.tanimoto == 0.0

    def test_empty_prediction_is_invalid(self):
        score = score_prediction("", "CCO")
        assert not score.valid and not score.exact and score.tanimoto == 0.0

    def test_near_miss_scores_between_zero_and_one(self):
        score = score_prediction("CCO", "CC=O")
        assert score.valid and not score.exact
        assert 0.0 < score.tanimoto < 1.0

    def test_exact_implies_unit_similarity(self):
        pairs = [
            ("ClCC", "CCCl"),
            ("c1ccccc1", "c1ccccc1"),
            ("O.CC(=O)O", "CC(=O)O.O"),
            ("C1CCCCC1", "C1CCCCC1"),
        ]
        for predicted, reference in pairs:
            score = score_prediction(predicted, reference)
            assert score.exact, (predicted, reference)
            assert score.tanimoto == 1.0

    def test_invalid_reference_raises(self):
        with pytest.raises(ReferenceInvalid):
            score_prediction("CC", "C(C")

    def test_empty_reference_raises(self):
        with pytest.raises(ReferenceInvalid):
            score_prediction("CC", "")


def oracle_score(predicted, reference):
    """score_prediction's contract, computed from scratch with no memo."""
    ref_graph = parse_string(reference)
    ref_canonical = canonical_smiles(ref_graph)
    if not predicted:
        return False, False, 0.0
    try:
        pred_graph = parse_string(predicted)
        pred_canonical = canonical_smiles(pred_graph)
    except (SmilesError, GraphError):
        return False, False, 0.0
    similarity = tanimoto(morgan_fingerprint(pred_graph), morgan_fingerprint(ref_graph))
    return True, pred_canonical == ref_canonical, similarity


# (reaction, prediction) pairs: repeated predictions, an invalid one repeated
# in one batch, an overvalent one, an empty one, multi-product references,
# and exact matches written in another rendering.
SCORED = [
    ("C=C.Cl>>CCCl", "ClCC"),
    ("C=C.Br>>CCBr", "CCCl"),
    ("C=C.O>>CCO", "CCO"),
    ("C=CC.O>>CC(C)O", "CCO"),
    ("CCC=C.O>>CCCCO", "CCO"),
    ("C=CC.Cl>>CC(C)Cl", "C(C"),
    ("C=CC.Br>>CC(C)Br", "C(C"),
    ("CCC=C.Br>>CCCCBr", "C(C)(C)(C)(C)C"),
    ("C=C.I>>CCI", ""),
    ("CC(=O)OC.O>>CC(=O)O.CO", "OC.OC(C)=O"),
    ("CC(=O)OCC.O>>CC(=O)O.CCO", "CC(=O)O"),
    ("CC(=O)OC.O>O>CC(=O)O.CO", "CC(=O)O.CO"),
    ("C=C.OO>>OCCO", "OCCO"),
]


@functools.cache
def scored_fixture():
    """Records, and a model whose batched decode returns SCORED's predictions."""
    records = [normalize(parse_record(line)) for line, _ in SCORED]
    input_vocab, _ = build_vocabs(records)
    texts = [target_string(r) for r in records] + [p for _, p in SCORED]
    output_vocab = Vocab(sorted({t.text for text in texts for t in tokenize(text)}))
    buckets = BucketSpec(((24, 24),))
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=1,
        embedding_dim=4,
        hidden_dim=4,
        buckets=buckets,
    )
    model = init_model(config)
    predicted_for = {
        encode_source(source_string(r), input_vocab, buckets): p
        for r, (_, p) in zip(records, SCORED)
    }
    assert len(predicted_for) == len(records)
    return model, records, input_vocab, output_vocab, predicted_for


class TestScoringMemo:
    """evaluate scores through canonical_from_string's memo and a fingerprint
    memo; its rows must equal a memo-free oracle's."""

    @pytest.fixture
    def scored(self, monkeypatch):
        model, records, input_vocab, output_vocab, predicted_for = scored_fixture()

        def decoded(model, encoder_ids, decoder_ids):
            for index, row in enumerate(encoder_ids):
                text = predicted_for[tuple(row)]
                ids = [output_vocab.id_of(t.text) for t in tokenize(text)]
                empty = np.zeros((0, len(row)), dtype=np.float32)
                yield Decoded(ids, empty, empty, index / 8)

        monkeypatch.setattr(evaluation, "predict_with_attention", decoded)
        return model, records, input_vocab, output_vocab

    def test_rows_and_summary_equal_the_oracle(self, scored):
        model, records, input_vocab, output_vocab = scored
        intended = {source_string(r): p for r, (_, p) in zip(records, SCORED)}
        for order in (records, records[::-1], records[1::2] + records[::2]):
            report = evaluate(model, order, input_vocab, output_vocab)
            rows = []
            for row in report.rows:
                record = order[row.index]
                predicted = intended[source_string(record)]
                valid, exact, similarity = oracle_score(predicted, target_string(record))
                rows.append(
                    ExampleRow(
                        index=row.index,
                        source=source_string(record),
                        reference=target_string(record),
                        predicted=predicted,
                        valid=valid,
                        exact=exact,
                        tanimoto=similarity,
                        cross_entropy=row.cross_entropy,
                    )
                )
            assert [r.index for r in rows] == list(range(len(order)))
            assert {(r.valid, r.exact) for r in rows} == {
                (True, True), (True, False), (False, False)
            }
            assert report.rows == tuple(rows)
            n = len(rows)
            assert report.summary() == {
                "n": n,
                "correct_ratio": sum(r.exact for r in rows) / n,
                "mean_tanimoto": sum(r.tanimoto for r in rows) / n,
                "invalid_ratio": sum(not r.valid for r in rows) / n,
                "mean_cross_entropy": sum(r.cross_entropy for r in rows) / n,
                "skipped": 0,
            }

    def test_each_distinct_string_is_canonicalized_and_fingerprinted_once(
        self, scored, monkeypatch
    ):
        model, records, input_vocab, output_vocab = scored
        molgraph.canonical_from_string.cache_clear()
        evaluation._fingerprint.cache_clear()
        canonicalized, fingerprinted = Counter(), Counter()
        calls = Counter()

        def counting(module, name, seen=None):
            original = getattr(module, name)

            def wrapper(arg):
                calls[name] += 1
                if seen is not None:
                    seen[arg] += 1
                return original(arg)

            monkeypatch.setattr(module, name, wrapper)

        # canonical_from_string parses through molgraph's name, the
        # fingerprint memo through evaluation's.
        counting(molgraph, "parse_string", canonicalized)
        counting(molgraph, "canonical_smiles")
        counting(evaluation, "parse_string", fingerprinted)
        counting(evaluation, "morgan_fingerprint")
        report = evaluate(model, records, input_vocab, output_vocab)
        strings = {s for r in report.rows for s in (r.reference, r.predicted) if s}
        invalid = Counter(r.predicted for r in report.rows if r.predicted and not r.valid)
        assert set(canonicalized) == strings
        # Each valid string is read once; an invalid one on every row.
        assert canonicalized == Counter(strings) + Counter(
            {s: n - 1 for s, n in invalid.items()}
        )
        assert calls["canonical_smiles"] <= len(strings)
        scored_pairs = [r for r in report.rows if r.valid and not r.exact]
        assert set(fingerprinted) == {
            s for r in scored_pairs for s in (r.reference, r.predicted)
        }
        assert max(fingerprinted.values()) == 1
        assert calls["morgan_fingerprint"] == len(fingerprinted)
        counts = dict(calls)
        again = evaluate(model, records, input_vocab, output_vocab)
        assert again == report
        # Only the invalid strings are read again: errors are never remembered.
        assert calls["parse_string"] == counts["parse_string"] + invalid.total()
        assert calls["canonical_smiles"] == counts["canonical_smiles"]
        assert calls["morgan_fingerprint"] == counts["morgan_fingerprint"]

    def test_errors_are_raised_on_every_call(self, scored):
        model, records, input_vocab, output_vocab = scored
        report = evaluate(model, records, input_vocab, output_vocab)
        invalid = [r for r in report.rows if r.predicted == "C(C"]
        assert len(invalid) == 2
        for row in invalid:
            assert (row.valid, row.exact, row.tanimoto) == (False, False, 0.0)
        for _ in range(3):
            with pytest.raises(ReferenceInvalid):
                score_prediction("CC", "C(C")
            with pytest.raises((SmilesError, GraphError)):
                evaluation._fingerprint("C(C")


class TestEvaluate:
    def test_memorized_testset_scores_perfectly(self):
        model, records, input_vocab, output_vocab = memorized()
        report = evaluate(model, records, input_vocab, output_vocab)
        assert report.n == 3
        assert report.skipped == 0
        assert report.correct_ratio == 1.0
        assert report.mean_tanimoto == 1.0
        assert report.invalid_ratio == 0.0
        assert report.mean_cross_entropy < 0.5

    def test_aggregates_are_means_of_rows(self):
        model, records, input_vocab, output_vocab = memorized()
        report = evaluate(model, records, input_vocab, output_vocab)
        n = report.n
        assert len(report.rows) == n
        assert report.correct_ratio == pytest.approx(
            sum(r.exact for r in report.rows) / n
        )
        assert report.mean_tanimoto == pytest.approx(
            sum(r.tanimoto for r in report.rows) / n
        )
        assert report.invalid_ratio == pytest.approx(
            sum(not r.valid for r in report.rows) / n
        )
        assert report.mean_cross_entropy == pytest.approx(
            sum(r.cross_entropy for r in report.rows) / n
        )

    def test_exact_rows_are_valid_rows(self):
        model, records, input_vocab, output_vocab = memorized()
        report = evaluate(model, records, input_vocab, output_vocab)
        for row in report.rows:
            assert not row.exact or row.valid
        assert report.correct_ratio <= 1.0 - report.invalid_ratio + 1e-12

    def test_rows_carry_source_and_strings(self):
        model, records, input_vocab, output_vocab = memorized()
        report = evaluate(model, records, input_vocab, output_vocab)
        sources = {row.source for row in report.rows}
        assert "C=C.Cl>>" in sources
        for row in report.rows:
            assert row.predicted == row.reference

    def test_records_beyond_every_bucket_are_scored(self):
        model, records, input_vocab, output_vocab = memorized()
        long_record = normalize(parse_record("C" * 40 + ".Cl>>CCCl"))
        report = evaluate(
            model, records + [long_record], input_vocab, output_vocab
        )
        assert report.skipped == 0
        assert report.n == 4
        assert report.rows[3].source == "C" * 40 + ".Cl>>"
        alone = evaluate(model, records, input_vocab, output_vocab)
        assert report.rows[:3] == alone.rows

    def test_empty_testset_raises(self):
        model, _, input_vocab, output_vocab = memorized()
        with pytest.raises(EmptyTestset):
            evaluate(model, [], input_vocab, output_vocab)

    def test_testset_beyond_every_bucket_is_scored(self):
        model, _, input_vocab, output_vocab = memorized()
        long_record = normalize(parse_record("C" * 40 + ".Cl>>CCCl"))
        report = evaluate(model, [long_record], input_vocab, output_vocab)
        assert (report.n, report.skipped) == (1, 0)

    def test_empty_reference_names_its_record(self):
        model, records, input_vocab, output_vocab = memorized()
        empty = normalize(parse_record("CCO>>"))
        with pytest.raises(ReferenceInvalid, match=r"record 'CCO>>': reference is empty"):
            evaluate(model, records + [empty], input_vocab, output_vocab)

    def test_untrained_model_still_reports(self):
        _, records, input_vocab, output_vocab = memorized()
        config = ModelConfig(
            input_vocab_size=len(input_vocab),
            output_vocab_size=len(output_vocab),
            num_layers=2,
            embedding_dim=8,
            hidden_dim=8,
            buckets=BucketSpec(((12, 8),)),
            seed=99,
        )
        report = evaluate(init_model(config), records, input_vocab, output_vocab)
        assert report.n == 3
        assert 0.0 <= report.invalid_ratio <= 1.0
        assert 0.0 <= report.mean_tanimoto <= 1.0


class TestBatchedEvaluate:
    @pytest.mark.parametrize("batch_size", [2, 32])
    def test_rows_match_predict_and_batch_loss_per_record(
        self, batch_size, monkeypatch
    ):
        monkeypatch.setattr(rmodel, "DECODE_BATCH_SIZE", batch_size)
        model, records, input_vocab, output_vocab = two_buckets()
        report = evaluate(model, records, input_vocab, output_vocab)
        assert [row.index for row in report.rows] == list(range(len(records)))
        for row, record in zip(report.rows, records):
            example = encode_example(
                record, input_vocab, output_vocab, model.config.buckets
            )
            (decoded,) = predict_with_attention(model, [example.encoder_ids])
            assert row.predicted == decoded.text(output_vocab)
            alone = batch_loss(
                model, np.array([example.encoder_ids]), np.array([example.decoder_ids])
            )
            assert row.cross_entropy == pytest.approx(alone, rel=1e-5)

    def test_record_order_does_not_change_rows(self, monkeypatch):
        monkeypatch.setattr(rmodel, "DECODE_BATCH_SIZE", 2)
        model, records, input_vocab, output_vocab = two_buckets()
        forward = evaluate(model, records, input_vocab, output_vocab)
        backward = evaluate(model, records[::-1], input_vocab, output_vocab)
        assert [row.index for row in backward.rows] == list(range(len(records)))
        last = len(records) - 1
        for row, mirrored in zip(forward.rows, reversed(backward.rows)):
            assert mirrored.index == last - row.index
            assert mirrored.source == row.source
            assert mirrored.predicted == row.predicted
            assert mirrored.cross_entropy == pytest.approx(row.cross_entropy, abs=1e-6)

    def test_record_beyond_every_bucket_is_scored(self):
        model, records, input_vocab, output_vocab = two_buckets()
        long_source = normalize(parse_record("C" * 20 + ".Cl>>CCCl"))
        # 22 reference tokens with GO and EOS: past the decode limit of 13.
        long_reference = normalize(parse_record("C=C.Cl>>" + "C" * 19 + "Cl"))
        mixed = records[:3] + [long_source] + records[3:] + [long_reference]
        report = evaluate(model, mixed, input_vocab, output_vocab)
        assert (report.n, report.skipped) == (len(mixed), 0)
        alone = evaluate(model, records, input_vocab, output_vocab)
        kept = report.rows[:3] + report.rows[4:-1]
        assert [r.predicted for r in kept] == [r.predicted for r in alone.rows]
        for index in (3, len(mixed) - 1):
            row, record = report.rows[index], mixed[index]
            example = encode_example(record, input_vocab, output_vocab, model.config.buckets)
            (decoded,) = predict_with_attention(model, [example.encoder_ids])
            assert row.predicted == decoded.text(output_vocab)
            alone_loss = batch_loss(
                model, np.array([example.encoder_ids]), np.array([example.decoder_ids])
            )
            assert row.cross_entropy == pytest.approx(alone_loss, rel=1e-5)
        assert not report.rows[-1].exact
        assert len(tokenize(report.rows[-1].predicted)) <= model.config.buckets[-1][1] - 1


@pytest.fixture(scope="module")
def narrow_first_bucket(tmp_path_factory):
    """A saved model with buckets 8:5,12:12: records whose products need more
    than 5 decoder slots sit in evaluate's 12-wide bucket, while predict
    encodes their sources in the 8-wide one.  The last two records, left out
    of training, are beyond every bucket: the first in both lengths, the
    second in its source alone."""
    records = [
        normalize(parse_record(line))
        for line in (
            "C=C.Cl>>CCCl",
            "C=C.Br>>CCBr",
            "C=C.O>>CCO",
            "C=CC.Cl>>CC(C)Cl",
            "C=CC.Br>>CC(C)Br",
            "C=CC.O>>CC(C)O",
            "CC=C.Cl>>CC(C)Cl",
            "C=C.I>>CCI",
            "CCCCCCCCC=C.Cl>>CCCCCCCCC(C)Cl",
            "C=C.Cl>CCCCCCCCCCO>CCCl",
        )
    ]
    trained_on = records[:-2]
    input_vocab, output_vocab = build_vocabs(trained_on)
    buckets = BucketSpec(((8, 5), (12, 12)))
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=2,
        embedding_dim=12,
        hidden_dim=24,
        buckets=buckets,
        learning_rate=1.0,
        seed=3,
    )
    model = init_model(config)
    examples = [encode_example(r, input_vocab, output_vocab, buckets) for r in trained_on]
    fit(model, examples, steps=300, batch_size=4, seed=1)
    checkpoint = tmp_path_factory.mktemp("narrow") / "model.rxs2"
    save_checkpoint(model, checkpoint)
    input_vocab.save(f"{checkpoint}.input-vocab")
    output_vocab.save(f"{checkpoint}.output-vocab")
    return model, records, input_vocab, output_vocab, checkpoint


class TestOnePath:
    def test_evaluate_predict_and_export_attention_agree(
        self, narrow_first_bucket, tmp_path, capsys
    ):
        model, records, input_vocab, output_vocab, checkpoint = narrow_first_bucket
        buckets = model.config.buckets
        wider = 0
        for record in records:
            example = encode_example(record, input_vocab, output_vocab, buckets)
            source_ids = encode_source(source_string(record), input_vocab, buckets)
            wider += len(example.encoder_ids) > len(source_ids)
        assert wider >= 4
        report = evaluate(model, records, input_vocab, output_vocab)
        assert (report.n, report.skipped) == (len(records), 0)
        capsys.readouterr()
        for row in report.rows:
            argv = ["predict", "--checkpoint", str(checkpoint), "--input", row.source]
            assert main(argv) == 0
            assert capsys.readouterr().out == row.predicted + "\n"
            path = tmp_path / "attention.csv"
            export_attention(model, row.source, input_vocab, output_vocab, path)
            with open(path, newline="") as handle:
                tokens = [r[0] for r in list(csv.reader(handle))[1:]]
            emitted = tokens[: tokens.index("<eos>")] if "<eos>" in tokens else tokens
            assert "".join(t for t in emitted if t not in ("<pad>", "<go>")) == row.predicted
        assert max(len(row.predicted) for row in report.rows) > 4

    def test_predict_data_prints_eval_predictions_in_input_order(
        self, narrow_first_bucket, tmp_path, monkeypatch, capsys, caplog
    ):
        # Batches of 2 over three encoder shapes, with counts 8, 1 and 1, so
        # batches of 2 and of 1 both occur.  The two records beyond every
        # bucket go second and fourth, so the first batch, rows 0 and 2,
        # skips a row of another shape.
        monkeypatch.setattr(rmodel, "DECODE_BATCH_SIZE", 2)
        model, records, input_vocab, output_vocab, checkpoint = narrow_first_bucket
        records = [records[0], records[8], records[1], records[9], *records[2:8]]
        buckets = model.config.buckets
        rows = [encode_source(source_string(r), input_vocab, buckets) for r in records]
        shapes = [len(row) for row in rows]
        assert sorted(Counter(shapes).values()) == [1, 1, 8]
        assert shapes[0] == shapes[2] != shapes[1]
        middle = len(records) // 2
        lines = [r.smiles() for r in records]
        lines.insert(middle, "C=C.Br>CCBr")
        data = tmp_path / "data.rsmi"
        data.write_text("".join(line + "\n" for line in lines))
        monkeypatch.delenv("RXNSEQ_THREADS", raising=False)  # no thread-cap warning
        caplog.set_level(logging.WARNING, logger="rxnseq")
        assert main(["predict", "--checkpoint", str(checkpoint), "--data", str(data)]) == 0
        fault = "expected exactly two '>' separators, found 1"
        assert caplog.messages == [f"line {middle + 1} skipped: {fault}"]
        report = evaluate(model, records, input_vocab, output_vocab)
        predicted = [row.predicted for row in report.rows]
        predicted.insert(middle, "")
        assert capsys.readouterr().out == "".join(p + "\n" for p in predicted)
        batched = list(predict_with_attention(model, rows))
        for row, decoded in zip(rows, batched):
            (alone,) = predict_with_attention(model, [row])
            assert decoded.ids == alone.ids
            assert np.allclose(decoded.weights, alone.weights, rtol=0, atol=1e-6)

    def test_records_beyond_every_bucket_match_a_spec_that_holds_them(
        self, narrow_first_bucket
    ):
        model, records, input_vocab, output_vocab, _ = narrow_first_bucket
        narrow = model.config.buckets
        held = BucketSpec(narrow.pairs + ((24, 24),))
        wide = Model(dataclasses.replace(model.config, buckets=held), model.params)
        beyond = 0
        for record in records:
            example = encode_example(record, input_vocab, output_vocab, narrow)
            padded = encode_example(record, input_vocab, output_vocab, held)
            beyond += example != padded
            enc, dec = np.array([example.encoder_ids]), np.array([example.decoder_ids])
            wide_enc = np.array([padded.encoder_ids])
            wide_dec = np.array([padded.decoder_ids])
            # greedy decoding is prefix-consistent: the wide spec's longer
            # limit only adds steps after the narrow one's
            (steps,) = predict_with_attention(model, enc)
            (wide_steps,) = predict_with_attention(wide, wide_enc)
            assert wide_steps.ids[: len(steps.ids)] == steps.ids
            assert batch_loss(model, enc, dec) == pytest.approx(
                batch_loss(wide, wide_enc, wide_dec), rel=1e-5
            )
        assert beyond == 2


class TestReportFiles:
    def test_csv_round_trip(self, tmp_path):
        model, records, input_vocab, output_vocab = memorized()
        report = evaluate(model, records, input_vocab, output_vocab)
        write_report(report, tmp_path / "report")
        with open(tmp_path / "report.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "index",
            "source",
            "reference",
            "predicted",
            "valid",
            "exact",
            "tanimoto",
            "cross_entropy",
        ]
        assert len(rows) == 1 + report.n
        for text_row, row in zip(rows[1:], report.rows):
            assert int(text_row[0]) == row.index
            assert text_row[1] == row.source
            assert text_row[3] == row.predicted
            assert float(text_row[6]) == pytest.approx(row.tanimoto)
            assert float(text_row[7]) == pytest.approx(row.cross_entropy)

    def test_csv_is_deterministic(self, tmp_path):
        model, records, input_vocab, output_vocab = memorized()
        report = evaluate(model, records, input_vocab, output_vocab)
        write_report(report, tmp_path / "a")
        write_report(report, tmp_path / "b")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_matches_summary_and_has_no_timestamps(self, tmp_path):
        model, records, input_vocab, output_vocab = memorized()
        report = evaluate(model, records, input_vocab, output_vocab)
        write_report(report, tmp_path / "report")
        text = (tmp_path / "report.json").read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data == report.summary()
        assert set(data) == {
            "n",
            "correct_ratio",
            "mean_tanimoto",
            "invalid_ratio",
            "mean_cross_entropy",
            "skipped",
        }

    def test_written_text_is_pinned(self, tmp_path):
        # bools as 0/1 and floats through .8g, by the columns' declared types:
        # numpy scalars are written as the Python values would be
        rows = (
            ExampleRow(0, "C=C.Cl>>", "CCCl", "CCCl", True, True, 1.0, 0.123456789),
            ExampleRow(
                1, "C=C.Br>>", "CCBr", "CC(C)Br", np.True_, False, 1 / 3, np.float64(np.e)
            ),
        )
        report = EvalReport(
            n=2,
            correct_ratio=0.5,
            mean_tanimoto=(1 + 1 / 3) / 2,
            invalid_ratio=0.0,
            mean_cross_entropy=(0.123456789 + np.e) / 2,
            skipped=0,
            rows=rows,
        )
        write_report(report, tmp_path / "report")
        assert (tmp_path / "report.csv").read_bytes() == (
            b"index,source,reference,predicted,valid,exact,tanimoto,cross_entropy\r\n"
            b"0,C=C.Cl>>,CCCl,CCCl,1,1,1,0.12345679\r\n"
            b"1,C=C.Br>>,CCBr,CC(C)Br,1,0,0.33333333,2.7182818\r\n"
        )
        assert (tmp_path / "report.json").read_bytes() == (
            b'{\n  "correct_ratio": 0.5,\n  "invalid_ratio": 0.0,\n'
            b'  "mean_cross_entropy": 1.4208693087295226,\n'
            b'  "mean_tanimoto": 0.6666666666666666,\n  "n": 2,\n  "skipped": 0\n}\n'
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]


class TestExportAttention:
    def test_header_and_weight_rows(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        path = tmp_path / "attention.csv"
        export_attention(model, "C=C.Cl>>", input_vocab, output_vocab, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        enc_len = model.config.buckets.pairs[0][0]
        assert len(rows[0]) == 1 + 2 * enc_len
        assert rows[0][0] == "token"
        assert all(c.startswith("score:") for c in rows[0][1 : 1 + enc_len])
        assert all(c.startswith("weight:") for c in rows[0][1 + enc_len :])
        assert len(rows) > 1
        for row in rows[1:]:
            weights = [float(v) for v in row[1 + enc_len :]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-5)
            assert all(w >= 0.0 for w in weights)

    def test_memorized_trace_ends_at_eos(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        path = tmp_path / "attention.csv"
        export_attention(model, "C=C.Cl>>", input_vocab, output_vocab, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        tokens = [row[0] for row in rows[1:]]
        assert tokens[-1] == "<eos>"
        assert "".join(tokens[:-1]) == "CCCl"

    def test_header_tokens_are_reversed_encoder_feed(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        path = tmp_path / "attention.csv"
        export_attention(model, "C=C.Cl>>", input_vocab, output_vocab, path)
        with open(path, newline="") as handle:
            header = next(csv.reader(handle))
        enc_len = model.config.buckets.pairs[0][0]
        labels = [c.split(":", 1)[1] for c in header[1 : 1 + enc_len]]
        source_tokens = ["C", "=", "C", ".", "Cl", ">", ">"]
        pad = enc_len - len(source_tokens)
        assert labels == ["<pad>"] * pad + source_tokens[::-1]


class TestExportEmbeddings:
    def test_rows_match_parameter_table(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        enc_path = tmp_path / "enc.csv"
        dec_path = tmp_path / "dec.csv"
        export_embeddings(
            model, input_vocab, output_vocab, enc_path, dec_path, top_k=3
        )
        with open(enc_path, newline="") as handle:
            rows = list(csv.reader(handle))
        dim = model.config.embedding_dim
        assert rows[0] == ["token", "rank"] + [f"e{i}" for i in range(dim)]
        assert len(rows) == 4
        for rank, row in enumerate(rows[1:], start=1):
            assert int(row[1]) == rank
            assert row[0] == input_vocab.token_of(rank + 3)
            vector = np.array([float(v) for v in row[2:]])
            expected = model.params.enc_embed[rank + 3]
            assert np.allclose(vector, expected, atol=1e-6)

    def test_decoder_table_uses_output_vocab(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        enc_path = tmp_path / "enc.csv"
        dec_path = tmp_path / "dec.csv"
        export_embeddings(
            model, input_vocab, output_vocab, enc_path, dec_path, top_k=2
        )
        with open(dec_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][0] == output_vocab.token_of(4)
        vector = np.array([float(v) for v in rows[1][2:]])
        assert np.allclose(vector, model.params.dec_embed[4], atol=1e-6)

    def test_top_k_is_clamped_to_vocabulary(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        enc_path = tmp_path / "enc.csv"
        dec_path = tmp_path / "dec.csv"
        export_embeddings(
            model, input_vocab, output_vocab, enc_path, dec_path, top_k=10_000
        )
        with open(enc_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + (len(input_vocab) - 4)

    def test_top_k_zero_writes_header_only(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        enc_path = tmp_path / "enc.csv"
        dec_path = tmp_path / "dec.csv"
        export_embeddings(
            model, input_vocab, output_vocab, enc_path, dec_path, top_k=0
        )
        for path in (enc_path, dec_path):
            with open(path, newline="") as handle:
                assert len(list(csv.reader(handle))) == 1

    def test_negative_top_k_rejected(self, tmp_path):
        model, _, input_vocab, output_vocab = memorized()
        with pytest.raises(ValueError):
            export_embeddings(
                model,
                input_vocab,
                output_vocab,
                tmp_path / "e.csv",
                tmp_path / "d.csv",
                top_k=-1,
            )
