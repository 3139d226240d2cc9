"""Prediction scoring and reporting for the translation model.

Scores decoded product strings against references (validity, canonical
multiset equality, fingerprint similarity), aggregates the four headline
metrics, and exports attention matrices and embedding tables as CSV.

Each record's dataclass is the one list of its fields: ``write_report``'s
CSV columns are ExampleRow's fields, formatted by their declared types, and
``EvalReport.summary()`` (the report JSON and ``rxnseq eval``'s stdout) is
every EvalReport field but ``rows``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

# batch_loss stays importable here: perfbench's traced run wraps it, and it
# is the per-record reference for the cross-entropies evaluate reports.  The
# traced run also wraps predict_with_attention, parse_string,
# canonical_from_string and morgan_fingerprint at these names, so evaluate,
# export_attention and scoring call them through this module.
from .model import Model, batch_loss, predict_with_attention  # noqa: F401
from .molgraph import (
    _CANON_CACHE_SIZE,
    Fingerprint,
    GraphError,
    canonical_from_string,
    morgan_fingerprint,
    parse_string,
    tanimoto,
)
from .pipeline import (
    SPECIAL_TOKENS,
    ReactionRecord,
    Vocab,
    encode_example,
    encode_source,
    source_string,
    target_string,
    write_all_atomic,
    write_atomic,
)
from .smiles import SmilesError


class EvaluationError(Exception):
    pass


class ReferenceInvalid(EvaluationError):
    pass


class EmptyTestset(EvaluationError):
    pass


@dataclass(frozen=True)
class PredictionScore:
    valid: bool
    exact: bool
    tanimoto: float


@functools.lru_cache(maxsize=_CANON_CACHE_SIZE)
def _fingerprint(text: str) -> Fingerprint:
    """``morgan_fingerprint(parse_string(text))``, memoized on ``text``.

    Errors are raised again on every call; only results are remembered.
    """
    return morgan_fingerprint(parse_string(text))


def score_prediction(predicted: str, reference: str) -> PredictionScore:
    """Validity, canonical-multiset equality, and union-graph similarity.

    An unparseable (or empty) prediction scores (False, False, 0.0); the
    reference must parse or the test set itself is broken.  Canonical forms
    come from canonical_from_string's memo and fingerprints from one of the
    same size, so each distinct string is canonicalized and fingerprinted at
    most once per process.  An exact match has equal fingerprints, so it
    scores Tanimoto 1.0 without fingerprinting.
    """
    if not reference:
        raise ReferenceInvalid("reference is empty")
    try:
        ref_canonical = canonical_from_string(reference)
    except (SmilesError, GraphError) as exc:
        raise ReferenceInvalid(f"reference {reference!r}: {exc}") from exc
    if not predicted:
        return PredictionScore(valid=False, exact=False, tanimoto=0.0)
    try:
        pred_canonical = canonical_from_string(predicted)
    except (SmilesError, GraphError):
        return PredictionScore(valid=False, exact=False, tanimoto=0.0)
    if pred_canonical == ref_canonical:
        return PredictionScore(valid=True, exact=True, tanimoto=1.0)
    similarity = tanimoto(_fingerprint(predicted), _fingerprint(reference))
    return PredictionScore(valid=True, exact=False, tanimoto=similarity)


@dataclass(frozen=True)
class ExampleRow:
    index: int
    source: str
    reference: str
    predicted: str
    valid: bool
    exact: bool
    tanimoto: float
    cross_entropy: float


@dataclass(frozen=True)
class EvalReport:
    n: int
    correct_ratio: float
    mean_tanimoto: float
    invalid_ratio: float
    mean_cross_entropy: float
    # Always 0, since every record is scored; report.json and perfbench's
    # infer check still read it.
    skipped: int
    rows: tuple[ExampleRow, ...]

    def summary(self) -> dict:
        """Every field but ``rows``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def evaluate(
    model: Model,
    records: list[ReactionRecord],
    input_vocab: Vocab,
    output_vocab: Vocab,
) -> EvalReport:
    """Strip products, decode greedily, score each record, average.

    Records are encoded one by one with their references, which the
    cross-entropy needs, and every record is scored: one longer than every
    bucket is padded to its own lengths.  predict_with_attention, the decoder
    `rxnseq predict` uses too, hands them back in record order, with one
    encoder pass per batch of a padded shape serving both the greedy decode
    and the teacher-forced cross-entropy; a row keeps only the predicted
    string and the cross-entropy.  So predictions match `rxnseq predict` on
    each record, a reference longer than the decode limit scores as a miss,
    and cross-entropies match batch_loss on each record alone to float32
    roundoff.  score_prediction's memos canonicalize and fingerprint each
    distinct reference or prediction string at most once, however often it
    repeats across rows or calls.  A record whose reference is invalid raises
    ReferenceInvalid naming the record.
    """
    if not records:
        raise EmptyTestset("no evaluation records")
    examples = [
        encode_example(record, input_vocab, output_vocab, model.config.buckets)
        for record in records
    ]
    decoded = predict_with_attention(
        model,
        [example.encoder_ids for example in examples],
        [example.decoder_ids for example in examples],
    )
    rows: list[ExampleRow] = []
    for index, (record, result) in enumerate(zip(records, decoded)):
        predicted = result.text(output_vocab)
        reference = target_string(record)
        try:
            score = score_prediction(predicted, reference)
        except ReferenceInvalid as exc:
            raise ReferenceInvalid(f"record {record.smiles()!r}: {exc}") from exc
        rows.append(
            ExampleRow(
                index=index,
                source=source_string(record),
                reference=reference,
                predicted=predicted,
                valid=score.valid,
                exact=score.exact,
                tanimoto=score.tanimoto,
                cross_entropy=result.cross_entropy,
            )
        )
    n = len(rows)
    return EvalReport(
        n=n,
        correct_ratio=sum(r.exact for r in rows) / n,
        mean_tanimoto=sum(r.tanimoto for r in rows) / n,
        invalid_ratio=sum(not r.valid for r in rows) / n,
        mean_cross_entropy=sum(r.cross_entropy for r in rows) / n,
        skipped=0,
        rows=tuple(rows),
    )


def _fmt(value: float) -> str:
    return f"{value:.8g}"


# write_report's cell format for each ExampleRow column, by its declared type
# (not the value's, so a numpy scalar cannot change a column's format).
_COLUMNS = tuple(
    (f.name, {"bool": int, "float": _fmt}.get(f.type, str)) for f in fields(ExampleRow)
)


def _csv_bytes(header, rows) -> bytes:
    """``header``, then ``rows``, in the csv module's default dialect, as UTF-8."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def write_report(report: EvalReport, stem: str | Path) -> None:
    """Write ``stem.csv``, one row per record under ExampleRow's field names,
    and ``stem.json``, the summary, as one set: a failed write leaves both
    old files in place."""
    table = _csv_bytes(
        [name for name, _ in _COLUMNS],
        ([cell(getattr(row, name)) for name, cell in _COLUMNS] for row in report.rows),
    )
    summary = json.dumps(report.summary(), indent=2, sort_keys=True) + "\n"
    write_all_atomic({f"{stem}.csv": table, f"{stem}.json": summary.encode("utf-8")})


def export_attention(
    model: Model,
    source: str,
    input_vocab: Vocab,
    output_vocab: Vocab,
    path: str | Path,
) -> None:
    """One CSV row per decoding step: generated token, raw scores, weights.

    Column labels carry the encoder tokens exactly as fed (reversed, PAD
    prefix included), so each score/weight column names its position.
    """
    encoder_ids = encode_source(source, input_vocab, model.config.buckets)
    (decoded,) = predict_with_attention(model, [encoder_ids])
    encoder_tokens = [input_vocab.token_of(i) for i in encoder_ids]
    header = (
        ["token"]
        + [f"score:{t}" for t in encoder_tokens]
        + [f"weight:{t}" for t in encoder_tokens]
    )
    steps = zip(decoded.ids, decoded.scores, decoded.weights)
    rows = (
        [output_vocab.token_of(token_id)]
        + [_fmt(v) for v in scores]
        + [_fmt(v) for v in weights]
        for token_id, scores, weights in steps
    )
    write_atomic(path, _csv_bytes(header, rows))


def export_embeddings(
    model: Model,
    input_vocab: Vocab,
    output_vocab: Vocab,
    encoder_path: str | Path,
    decoder_path: str | Path,
    top_k: int = 50,
) -> None:
    """Embedding rows for the most frequent tokens of each vocabulary.

    Vocabulary ids are frequency-ordered, so the top-k tokens are simply the
    first k regular ids; rank 1 is the most common.  The two files are
    written as one set.
    """
    if top_k < 0:
        raise ValueError("top_k must be non-negative")
    sides = [
        (input_vocab, model.params.enc_embed, encoder_path),
        (output_vocab, model.params.dec_embed, decoder_path),
    ]
    files = {}
    # Regular ids follow the special tokens' and are frequency-ordered.
    first = len(SPECIAL_TOKENS)
    for vocab, table, path in sides:
        k = min(top_k, len(vocab) - first)
        header = ["token", "rank"] + [f"e{i}" for i in range(table.shape[1])]
        rows = (
            [vocab.token_of(token_id), rank] + [_fmt(v) for v in table[token_id]]
            for rank, token_id in enumerate(range(first, first + k), start=1)
        )
        files[path] = _csv_bytes(header, rows)
    write_all_atomic(files)
