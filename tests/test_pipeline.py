import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rxnseq
from rxnseq import molgraph, pipeline, smiles
from rxnseq.molgraph import canonical_from_string, parse_graph
from rxnseq.pipeline import (
    DEFAULT_BUCKETS,
    EOS_ID,
    GO_ID,
    PAD_ID,
    UNK_ID,
    BucketSpec,
    BucketSpecError,
    CanonicalizationError,
    ReactionRecord,
    RejectReport,
    Vocab,
    batch_iter,
    build_vocabs,
    encode_example,
    encode_source,
    ingest_lines,
    normalize,
    parse_record,
    read_reactions,
    source_string,
    split_records,
    write_atomic,
    write_reactions,
)

CORPUS = Path(rxnseq.__file__).parent / "data" / "corpus_mixed_1k.rsmi"


def record_of(line: str) -> ReactionRecord:
    return parse_record(line)


class TestParseRecord:
    def test_parts(self):
        r = record_of("CC=C(C)C.Cl>>CCC(C)(C)Cl")
        assert r.reactants == ("CC=C(C)C", "Cl")
        assert r.reagents == ()
        assert r.products == ("CCC(C)(C)Cl",)

    def test_reagents_kept_separate(self):
        r = record_of("CCO>O=S(=O)(O)O>C=C")
        assert r.reagents == ("O=S(=O)(O)O",)

    def test_round_trip(self):
        line = "CC(=O)O.CO>O=S(=O)(O)O>CC(=O)OC"
        assert record_of(line).smiles() == line

    def test_wrong_separator_count(self):
        for line, found in (("CCO>CC=O", 1), ("CC>O", 1), ("C>C>C>C", 3)):
            with pytest.raises(
                smiles.MalformedReaction,
                match=f"^expected exactly two '>' separators, found {found}$",
            ):
                record_of(line)

    def test_empty_molecule_piece(self):
        with pytest.raises(smiles.MalformedReaction):
            record_of("C..C>>O")


class TestIngestFilters:
    def accept(self, line):
        records, report = ingest_lines([line])
        assert report.accepted == 1, report.tsv()
        return records[0]

    def reject(self, line, rule):
        records, report = ingest_lines([line])
        assert not records
        assert getattr(report, rule) == 1, report.tsv()

    def test_source_150_chars_accepted(self):
        # 149 reactant chars + the first '>' = exactly 150.
        line = "C" * 149 + ">>C"
        assert len(line.split(">")[0]) + 1 == 150
        self.accept(line)

    def test_source_151_chars_rejected(self):
        self.reject("C" * 150 + ">>C", "source_too_long")

    def test_source_length_includes_reagents(self):
        # 100 + 1 + 50 = 151 characters before the second '>'.
        self.reject("C" * 100 + ">" + "C" * 50 + ">C", "source_too_long")

    def test_products_80_chars_accepted(self):
        self.accept("C>>" + "C" * 80)

    def test_products_81_chars_rejected(self):
        self.reject("C>>" + "C" * 81, "products_too_long")

    def test_three_products_accepted(self):
        self.accept("CCO>>C.C.O")

    def test_four_products_rejected(self):
        self.reject("CCCO>>C.C.C.O", "too_many_products")

    def test_rule_priority_first_match_counts(self):
        # Violates both the source-length and product-count rules; only the
        # first rule is charged.
        line = "C" * 150 + ">>C.C.C.C"
        self.reject(line, "source_too_long")

    def test_unparseable_line_skipped(self):
        records, report = ingest_lines(["this is not a reaction", "C>>C"])
        assert report.parse_failures == 1
        assert report.accepted == 1
        assert len(records) == 1

    def test_valence_nonsense_is_a_parse_failure(self):
        records, report = ingest_lines(["C(C)(C)(C)(C)C>>C"])
        assert report.parse_failures == 1
        assert not records

    def test_atom_maps_stripped(self):
        r = self.accept("[CH2:1]=[CH2:2].[ClH:3]>>[CH3:1][CH2:2][Cl:3]")
        assert r.smiles() == "C=C.Cl>>CCCl"

    def test_lengths_measured_after_strip(self):
        # Mapped source is 153 characters, stripped source 30: accepted.
        mapped = ".".join("[CH3:%d][CH3:%d]" % (i, i + 1) for i in range(1, 11))
        line = mapped + ">>CC"
        assert len(line.split(">")[0]) > 150
        assert self.accept(line).smiles() == ".".join(["CC"] * 10) + ">>CC"

    def test_blank_and_comment_lines_ignored(self):
        records, report = ingest_lines(["", "   ", "# header", "C>>C"])
        assert report.total == 1
        assert len(records) == 1

    # One crafted line per report category and per broken shape, with the
    # reason a parse failure is logged with.
    OUTCOMES = {
        "accepted": ("accepted", "[CH2:1]=[CH2:2].[ClH:3]>>[CH3:1][CH2:2][Cl:3]", None),
        "source too long": ("source_too_long", "C" * 151 + ">>C", None),
        "products too long": ("products_too_long", "C>>" + "C" * 81, None),
        "too many products": ("too_many_products", "CCCO>>C.C.C.O", None),
        "bad token": (
            "parse_failures",
            "CC>>C$C",
            # the position counts within the molecule the message names
            "molecule 'C$C': unrecognized character ('$') at position 1",
        ),
        "unclosed ring": (
            "parse_failures",
            "C1CC>>C",
            "molecule 'C1CC': structurally invalid token sequence: unpaired_ring_closure@1",
        ),
        "ring bond across '.'": (
            "parse_failures",
            "C1.C1>>C",
            "molecule 'C1': structurally invalid token sequence: unpaired_ring_closure@1",
        ),
        "mapped ring bond across '.'": (
            "parse_failures",
            "[CH3:1]1.[CH3:2]1>>CC",
            "molecule '[CH3:1]1': structurally invalid token sequence: "
            "unpaired_ring_closure@7",
        ),
        "ring bond across '>'": (
            "parse_failures",
            "CC1>>C1",
            "molecule 'CC1': structurally invalid token sequence: unpaired_ring_closure@2",
        ),
        "branch across '.'": (
            "parse_failures",
            "C(C.C)C>>C",
            "molecule 'C(C': structurally invalid token sequence: unclosed_branch@2",
        ),
        "branch across '>'": (
            "parse_failures",
            "C(C>>C)C",
            "molecule 'C(C': structurally invalid token sequence: unclosed_branch@2",
        ),
        "empty molecule": (
            "parse_failures",
            "C..C>>C",
            "empty molecule in part 'C..C'",
        ),
        "one '>'": (
            "parse_failures",
            "CCO>CC",
            "expected exactly two '>' separators, found 1",
        ),
        "three '>'": (
            "parse_failures",
            "C>C>C>C",
            "expected exactly two '>' separators, found 3",
        ),
    }

    @pytest.mark.parametrize(
        "category, line, reason", OUTCOMES.values(), ids=OUTCOMES.keys()
    )
    def test_line_keeps_its_category(self, category, line, reason, caplog):
        caplog.set_level(logging.WARNING, logger="rxnseq.pipeline")
        records, report = ingest_lines(["# header", "", line])
        assert report == RejectReport(**{category: 1}), report.tsv()
        assert len(records) == (category == "accepted")
        logged = [r.getMessage() for r in caplog.records]
        if category == "parse_failures":
            assert logged == [f"line 3: skipped unparseable reaction: {reason}"]
        else:
            assert logged == []

    def test_batch_counts_each_category_and_logs_failures_by_line(self, caplog):
        caplog.set_level(logging.WARNING, logger="rxnseq.pipeline")
        categories = [category for category, _, _ in self.OUTCOMES.values()]
        records, report = ingest_lines([line for _, line, _ in self.OUTCOMES.values()])
        assert report == RejectReport(**Counter(categories))
        assert [r.smiles() for r in records] == ["C=C.Cl>>CCCl"]
        logged = [r.getMessage().split(":")[0] for r in caplog.records]
        failed = [i for i, c in enumerate(categories, start=1) if c == "parse_failures"]
        assert logged == [f"line {i}" for i in failed]

    MAPPED_LINES = {
        "[CH3:1][CH2:2][OH:3].[NH3:4]>[Na+:5].[Cl-:6]>[CH3:1][CH2:2][NH2:4]":
            "CCO.N>[Na+].[Cl-]>CCN",
        "[cH:1]1[cH:2][cH:3][cH:4][cH:5][c:6]1[CH3:7]"
        ">>[cH:1]1[cH:2][cH:3][cH:4][cH:5][c:6]1[CH2:7]Br":
            "c1ccccc1C>>c1ccccc1CBr",
        "[NH4+:1].[CH2:2]=[O:3]>>[NH2:1][CH2:2][OH:3]": "[NH4+].C=O>>NCO",
    }

    @pytest.mark.parametrize(
        "line, expected", MAPPED_LINES.items(), ids=MAPPED_LINES.keys()
    )
    def test_mapped_line_strips_like_the_whole_line(self, line, expected):
        assert self.accept(line).smiles() == expected

    def test_ingest_parses_each_distinct_molecule_once(self, monkeypatch):
        tokenized, parsed = Counter(), Counter()
        tokenize = smiles.tokenize

        def counting_tokenize(text):
            tokenized[text] += 1
            return tokenize(text)

        def counting_parse(tokens):
            parsed[smiles.detokenize(tokens)] += 1
            return parse_graph(tokens)

        for module in (smiles, molgraph):
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
        monkeypatch.setattr(molgraph, "parse_graph", counting_parse)
        pipeline._stripped_molecule.cache_clear()
        canonical_from_string.cache_clear()
        lines = CORPUS.read_text(encoding="utf-8").splitlines()[:200]
        records, _ = ingest_lines(lines)
        ingest_lines(lines)
        assert len(records) == len(lines)
        # one tokenize and one parse per distinct molecule string as written,
        # maps and all
        written = [m for line in lines for part in line.split(">") if part for m in part.split(".")]
        assert len(set(written)) < len(written)
        assert tokenized == parsed == Counter(set(written))
        # canonicalizing is normalize's job, not ingest's
        info = canonical_from_string.cache_info()
        assert info.hits + info.misses == 0

    def test_report_tsv_shape(self):
        _, report = ingest_lines(["C>>C", "C" * 151 + ">>C", "junk("])
        lines = report.tsv().splitlines()
        assert lines[-1] == "total\t3"
        assert "source_too_long\t1" in lines
        assert "parse_failures\t1" in lines
        assert "accepted\t1" in lines


class TestNormalize:
    def test_canonicalizes_each_molecule(self):
        r = normalize(record_of("OCC>>CC=O"))
        assert r.smiles() == "CCO>>CC=O"

    def test_sorts_molecules_within_part(self):
        a = normalize(record_of("C.CO>>O"))
        b = normalize(record_of("CO.C>>O"))
        assert a == b
        assert a.reactants == ("C", "CO")

    def test_idempotent(self):
        r = normalize(record_of("CC=C(C)C.Cl>>CCC(C)(C)Cl"))
        assert normalize(r) == r

    def test_error_carries_part(self):
        r = ReactionRecord(("C1CC",), (), ("C",))  # unclosed ring
        with pytest.raises(CanonicalizationError) as err:
            normalize(r)
        assert err.value.part == "C1CC"

    def test_error_repeats_with_its_part(self):
        # canonical_from_string memoizes results, never errors
        for part in ("C(C)(C)(C)(C)C", "C(C)(C)(C)(C)C", "C1CC"):
            with pytest.raises(CanonicalizationError) as err:
                normalize(ReactionRecord(("CCO", part), (), ("C",)))
            assert err.value.part == part


class TestVocab:
    def test_specials_fixed(self):
        v = Vocab(["C", "O"])
        assert v.id_of("<pad>") == PAD_ID == 0
        assert v.id_of("<go>") == GO_ID == 1
        assert v.id_of("<eos>") == EOS_ID == 2
        assert v.id_of("<unk>") == UNK_ID == 3
        assert v.id_of("C") == 4
        assert v.token_of(5) == "O"

    def test_out_of_vocab_maps_to_unk(self):
        v = Vocab(["C"])
        assert v.id_of("Br") == UNK_ID

    def test_frequency_then_lexicographic_order(self):
        v = Vocab.from_counts(Counter({"C": 5, "O": 2, "=": 2, "(": 1}))
        assert [v.token_of(i) for i in range(4, len(v))] == ["C", "=", "O", "("]

    def test_single_reaction_vocab_sizes(self):
        records = [normalize(record_of("CCO>>CC=O"))]
        input_vocab, output_vocab = build_vocabs(records)
        # Input side covers "CCO>>": tokens C, O, '>' plus the four specials.
        assert len(input_vocab) == 7
        assert input_vocab.id_of(">") != UNK_ID
        # Output side covers "CC=O": tokens C, =, O plus the four specials.
        assert len(output_vocab) == 7
        assert output_vocab.id_of(">") == UNK_ID

    def test_empty_corpus_vocab_is_specials_only(self):
        input_vocab, output_vocab = build_vocabs([])
        assert len(input_vocab) == 4
        assert len(output_vocab) == 4

    def test_dot_counted_in_input_vocab(self):
        input_vocab, _ = build_vocabs([record_of("C.C>>CC")])
        assert input_vocab.id_of(".") != UNK_ID

    def test_save_load_round_trip(self, tmp_path):
        v = Vocab.from_counts(Counter({"C": 3, "Cl": 1, ">": 2, "(": 1, ")": 1}))
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert Vocab.load(path) == v

    def test_save_deterministic_bytes(self, tmp_path):
        v = Vocab(["C", "O", ">"])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        v.save(a)
        v.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_duplicates_and_special_collisions(self):
        with pytest.raises(pipeline.VocabError):
            Vocab(["C", "C"])
        with pytest.raises(pipeline.VocabError):
            Vocab(["<pad>"])


class TestBucketSpec:
    def test_default_pairs(self):
        assert DEFAULT_BUCKETS.pairs == ((54, 54), (70, 60), (90, 65), (150, 80))

    def test_parse_format_round_trip(self):
        text = "54:54,70:60,90:65,150:80"
        spec = BucketSpec.parse(text)
        assert spec == DEFAULT_BUCKETS
        assert spec.format() == text

    def test_parse_rejects_malformed(self):
        with pytest.raises(BucketSpecError):
            BucketSpec.parse("54-54")
        with pytest.raises(BucketSpecError):
            BucketSpec.parse("54:x")

    def test_must_increase_in_both_coordinates(self):
        with pytest.raises(BucketSpecError):
            BucketSpec(((54, 54), (70, 54)))
        with pytest.raises(BucketSpecError):
            BucketSpec(((54, 54), (54, 60)))

    def test_smallest_bucket_wins(self):
        assert DEFAULT_BUCKETS.shape_for(10, 10) == (54, 54)
        assert DEFAULT_BUCKETS.shape_for(54, 54) == (54, 54)
        assert DEFAULT_BUCKETS.shape_for(10) == (54, 54)

    def test_sixty_token_source_selects_second_bucket(self):
        # 60 source tokens with a 58-token product (60 with GO/EOS).
        assert DEFAULT_BUCKETS.shape_for(60, 60) == (70, 60)

    def test_decoder_length_alone_can_bump_bucket(self):
        assert DEFAULT_BUCKETS.shape_for(10, 61) == (90, 65)

    def test_beyond_every_bucket_is_its_own_shape(self):
        assert DEFAULT_BUCKETS.shape_for(150, 80) == (150, 80)
        assert DEFAULT_BUCKETS.shape_for(151, 10) == (151, 10)
        assert DEFAULT_BUCKETS.shape_for(10, 81) == (10, 81)
        assert DEFAULT_BUCKETS.shape_for(151) == (151, 0)


def tiny_vocabs():
    records = [
        normalize(record_of(line))
        for line in ["CC=C(C)C.Cl>>CCC(C)(C)Cl", "C=C.Cl>>CCCl", "CCO>>C=C"]
    ]
    return records, *build_vocabs(records)


class TestEncodeExample:
    def test_shapes_match_bucket(self):
        records, iv, ov = tiny_vocabs()
        ex = encode_example(records[0], iv, ov)
        assert len(ex.encoder_ids) == 54
        assert len(ex.decoder_ids) == 54

    def test_encoder_reversed_and_pad_prefixed(self):
        records, iv, ov = tiny_vocabs()
        r = records[0]
        ex = encode_example(r, iv, ov)
        src = [t.text for t in smiles.tokenize(source_string(r))]
        n = len(src)
        assert ex.encoder_ids[: 54 - n] == (PAD_ID,) * (54 - n)
        body = ex.encoder_ids[54 - n :]
        assert [iv.token_of(i) for i in body] == list(reversed(src))

    def test_reversal_involution(self):
        records, iv, ov = tiny_vocabs()
        for r in records:
            ex = encode_example(r, iv, ov)
            body = [i for i in ex.encoder_ids if i != PAD_ID]
            forward = [iv.token_of(i) for i in reversed(body)]
            assert "".join(forward) == source_string(r)

    def test_decoder_framing(self):
        records, iv, ov = tiny_vocabs()
        r = records[1]
        ex = encode_example(r, iv, ov)
        tgt = [t.text for t in smiles.tokenize(r.products[0])]
        n = len(tgt)
        assert ex.decoder_ids[0] == GO_ID
        assert ex.decoder_ids[n + 1] == EOS_ID
        assert set(ex.decoder_ids[n + 2 :]) <= {PAD_ID}
        assert [ov.token_of(i) for i in ex.decoder_ids[1 : n + 1]] == tgt

    def test_unknown_token_becomes_unk(self):
        records, iv, ov = tiny_vocabs()
        r = normalize(record_of("CCBr>>C=C"))  # Br unseen by the tiny corpus
        ex = encode_example(r, iv, ov)
        assert UNK_ID in ex.encoder_ids

    def test_record_beyond_every_bucket_is_padded_to_its_own_lengths(self):
        records, iv, ov = tiny_vocabs()
        long_source = encode_example(ReactionRecord(("C" * 160,), (), ("C",)), iv, ov)
        assert long_source.encoder_ids == (iv.id_of(">"),) * 2 + (iv.id_of("C"),) * 160
        assert long_source.decoder_ids == (GO_ID, ov.id_of("C"), EOS_ID)
        long_product = encode_example(ReactionRecord(("C",), (), ("C" * 90,)), iv, ov)
        assert long_product.encoder_ids == (iv.id_of(">"),) * 2 + (iv.id_of("C"),)
        assert long_product.decoder_ids == (GO_ID, *(ov.id_of("C"),) * 90, EOS_ID)

    def test_encode_source_matches_example_prefix(self):
        records, iv, ov = tiny_vocabs()
        long_record = ReactionRecord(("C" * 160,), (), ("C",))
        for r in [records[0], long_record]:
            ids = encode_source(source_string(r), iv)
            assert ids == encode_example(r, iv, ov).encoder_ids


class TestBatchIter:
    def examples(self, n, iv, ov, mixed=False):
        out = []
        for i in range(n):
            # Vary the reactant chain length so examples are distinguishable.
            chain = "C" * (i % 5 + 2)
            line = f"{chain}.Cl>>{chain}Cl"
            record = record_of(line)
            if mixed and i % 3 == 1:
                # Pad the source past 54 tokens to land in the second bucket.
                record = record_of("C" * 60 + f".Cl>>{chain}Cl")
            if mixed and i % 3 == 2:
                # Beyond every bucket: sources past 150 tokens in two lengths,
                # each with products of two lengths.
                record = record_of("C" * (160 + i % 2) + ".Cl>>" + "C" * (i % 4) + "Cl")
            out.append(encode_example(record, iv, ov))
        return out

    def setup_method(self):
        records = [record_of("CC.Cl>>CCCl"), record_of("C" * 60 + ".Cl>>CCl")]
        self.iv, self.ov = build_vocabs(records)

    def test_batch_sizes(self):
        examples = self.examples(10, self.iv, self.ov)
        sizes = [len(b) for b in batch_iter(examples, 4, seed=1)]
        assert sorted(sizes) == [2, 4, 4]

    def test_no_mixed_bucket_batches(self):
        examples = self.examples(12, self.iv, self.ov, mixed=True)
        rows = {(ex.encoder_ids, ex.decoder_ids) for ex in examples}
        shapes = Counter((len(ex.encoder_ids), len(ex.decoder_ids)) for ex in examples)
        assert shapes == {
            (54, 54): 4, (70, 60): 4, (164, 5): 1, (164, 3): 1, (165, 4): 1, (165, 6): 1
        }
        batched = Counter()
        for batch in batch_iter(examples, 3, seed=5):
            for enc, dec in zip(batch.encoder, batch.decoder):
                assert (tuple(enc), tuple(dec)) in rows
            batched[batch.encoder.shape[1], batch.decoder.shape[1]] += len(batch)
        assert batched == shapes

    def test_same_seed_same_stream(self):
        examples = self.examples(20, self.iv, self.ov, mixed=True)
        a = list(batch_iter(examples, 4, seed=9, epoch=0))
        b = list(batch_iter(examples, 4, seed=9, epoch=0))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.encoder, y.encoder)
            assert np.array_equal(x.decoder, y.decoder)

    def test_epoch_changes_order(self):
        examples = self.examples(20, self.iv, self.ov)
        a = np.concatenate([b.encoder for b in batch_iter(examples, 4, seed=9, epoch=0)])
        b = np.concatenate([b.encoder for b in batch_iter(examples, 4, seed=9, epoch=1)])
        assert not np.array_equal(a, b)
        # Same multiset of rows either way.
        assert np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))

    def test_matrices_are_int64(self):
        examples = self.examples(4, self.iv, self.ov)
        batch = next(batch_iter(examples, 4, seed=0))
        assert batch.encoder.dtype == np.int64
        assert batch.decoder.dtype == np.int64

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_iter([], 0, seed=0))


class TestSplitAndFiles:
    def records(self, n):
        return [record_of(f"{'C' * (i % 6 + 1)}.Cl>>{'C' * (i % 6 + 1)}Cl") for i in range(n)]

    def test_split_sizes_and_partition(self):
        records = self.records(100)
        train, valid, test = split_records(records, seed=3)
        assert len(train) == 80 and len(valid) == 10 and len(test) == 10
        combined = sorted(r.smiles() for r in train + valid + test)
        assert combined == sorted(r.smiles() for r in records)

    def test_split_deterministic(self):
        records = self.records(50)
        assert split_records(records, seed=7) == split_records(records, seed=7)
        assert split_records(records, seed=7) != split_records(records, seed=8)

    def test_split_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            split_records([], seed=0, fractions=(0.5, 0.2, 0.2))

    def test_write_read_round_trip(self, tmp_path):
        records = [record_of("CC=C(C)C.Cl>>CCC(C)(C)Cl"), record_of("C=C.O>O>CCO")]
        path = tmp_path / "corpus.rsmi"
        write_reactions(records, path)
        assert read_reactions(path) == records

    def test_write_deterministic_bytes(self, tmp_path):
        records = self.records(10)
        a, b = tmp_path / "a.rsmi", tmp_path / "b.rsmi"
        write_reactions(records, a)
        write_reactions(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents, longer than the new")
        write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_atomic_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
