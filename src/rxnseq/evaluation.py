"""Prediction scoring and reporting for the translation model.

Scores decoded product strings against references (validity, canonical
multiset equality, fingerprint similarity), aggregates the four headline
metrics, and exports attention matrices and embedding tables as CSV.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# batch_loss and canonical_from_string stay importable here: perfbench's
# traced run wraps them, and batch_loss is the per-record reference for the
# cross-entropies evaluate reports.
from .model import Model, batch_loss, evaluate_batch, predict_with_attention  # noqa: F401
from .molgraph import (  # noqa: F401
    GraphError,
    canonical_from_string,
    canonical_smiles,
    morgan_fingerprint,
    parse_string,
    tanimoto,
)
from .pipeline import (
    EncodedExample,
    ReactionRecord,
    TooLongForBuckets,
    Vocab,
    encode_example,
    encode_source,
    source_string,
    target_string,
    write_atomic,
)
from .smiles import SmilesError


# Rows per batch in evaluate; each batch is one encoder pass.
EVAL_BATCH_SIZE = 32


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


def score_prediction(predicted: str, reference: str) -> PredictionScore:
    """Validity, canonical-multiset equality, and union-graph similarity.

    An unparseable (or empty) prediction scores (False, False, 0.0); the
    reference must parse or the test set itself is broken.
    """
    if not reference:
        raise ReferenceInvalid("reference is empty")
    try:
        ref_graph = parse_string(reference)
        ref_canonical = canonical_smiles(ref_graph)
    except (SmilesError, GraphError) as exc:
        raise ReferenceInvalid(f"reference {reference!r}: {exc}") from exc
    if not predicted:
        return PredictionScore(valid=False, exact=False, tanimoto=0.0)
    try:
        pred_graph = parse_string(predicted)
        pred_canonical = canonical_smiles(pred_graph)
    except (SmilesError, GraphError):
        return PredictionScore(valid=False, exact=False, tanimoto=0.0)
    exact = pred_canonical == ref_canonical
    similarity = tanimoto(
        morgan_fingerprint(pred_graph), morgan_fingerprint(ref_graph)
    )
    return PredictionScore(valid=True, exact=exact, tanimoto=similarity)


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
    skipped: int
    rows: tuple[ExampleRow, ...]

    def summary(self) -> dict:
        return {
            "n": self.n,
            "correct_ratio": self.correct_ratio,
            "mean_tanimoto": self.mean_tanimoto,
            "invalid_ratio": self.invalid_ratio,
            "mean_cross_entropy": self.mean_cross_entropy,
            "skipped": self.skipped,
        }


def evaluate(
    model: Model,
    records: list[ReactionRecord],
    input_vocab: Vocab,
    output_vocab: Vocab,
) -> EvalReport:
    """Strip products, decode greedily, score each record, average.

    Records are encoded one by one with their references, which the
    cross-entropy needs; those that fit no bucket are counted as skipped and
    excluded from n.  The rest are grouped by bucket, which only sets the batch
    shape because the model ignores PADs, and decoded in batches of
    EVAL_BATCH_SIZE, one encoder pass per batch serving both the greedy decode
    and the teacher-forced cross-entropy.  Every record decodes up to the
    largest decoder length, as in predict.  Predictions match predict (and so
    `rxnseq predict`) on each record, cross-entropies match batch_loss on each
    record alone to float32 roundoff, and rows come back in record order.
    """
    if not records:
        raise EmptyTestset("no evaluation records")
    by_bucket: dict[int, list[tuple[int, EncodedExample]]] = {}
    skipped = 0
    for index, record in enumerate(records):
        try:
            example = encode_example(
                record, input_vocab, output_vocab, model.config.buckets
            )
        except TooLongForBuckets:
            skipped += 1
            continue
        by_bucket.setdefault(example.bucket_index, []).append((index, example))
    rows: list[ExampleRow] = []
    for members in by_bucket.values():
        for start in range(0, len(members), EVAL_BATCH_SIZE):
            chunk = members[start : start + EVAL_BATCH_SIZE]
            predictions, cross_entropies = evaluate_batch(
                model,
                np.array([example.encoder_ids for _, example in chunk]),
                np.array([example.decoder_ids for _, example in chunk]),
            )
            for (index, _), ids, cross_entropy in zip(
                chunk, predictions, cross_entropies
            ):
                record = records[index]
                predicted = "".join(output_vocab.token_of(i) for i in ids)
                reference = target_string(record)
                score = score_prediction(predicted, reference)
                rows.append(
                    ExampleRow(
                        index=index,
                        source=source_string(record),
                        reference=reference,
                        predicted=predicted,
                        valid=score.valid,
                        exact=score.exact,
                        tanimoto=score.tanimoto,
                        cross_entropy=float(cross_entropy),
                    )
                )
    if not rows:
        raise EmptyTestset(f"all {skipped} records exceeded the buckets")
    rows.sort(key=lambda row: row.index)
    n = len(rows)
    return EvalReport(
        n=n,
        correct_ratio=sum(r.exact for r in rows) / n,
        mean_tanimoto=sum(r.tanimoto for r in rows) / n,
        invalid_ratio=sum(not r.valid for r in rows) / n,
        mean_cross_entropy=sum(r.cross_entropy for r in rows) / n,
        skipped=skipped,
        rows=tuple(rows),
    )


def _fmt(value: float) -> str:
    return f"{value:.8g}"


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "index",
            "source",
            "reference",
            "predicted",
            "valid",
            "exact",
            "tanimoto",
            "cross_entropy",
        ]
    )
    for r in report.rows:
        writer.writerow(
            [
                r.index,
                r.source,
                r.reference,
                r.predicted,
                int(r.valid),
                int(r.exact),
                _fmt(r.tanimoto),
                _fmt(r.cross_entropy),
            ]
        )
    write_atomic(path, buffer.getvalue().encode("utf-8"))


def write_report_json(report: EvalReport, path: str | Path) -> None:
    text = json.dumps(report.summary(), indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


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
    encoder_ids, _ = encode_source(source, input_vocab, model.config.buckets)
    _, records = predict_with_attention(model, np.array(encoder_ids))
    encoder_tokens = [input_vocab.token_of(i) for i in encoder_ids]
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(
        ["token"]
        + [f"score:{t}" for t in encoder_tokens]
        + [f"weight:{t}" for t in encoder_tokens]
    )
    for record in records:
        token = output_vocab.token_of(record.token_id)
        writer.writerow(
            [token]
            + [_fmt(v) for v in record.scores]
            + [_fmt(v) for v in record.weights]
        )
    write_atomic(path, buffer.getvalue().encode("utf-8"))


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
    first k regular ids; rank 1 is the most common.
    """
    if top_k < 0:
        raise ValueError("top_k must be non-negative")
    sides = [
        (input_vocab, model.params.enc_embed, encoder_path),
        (output_vocab, model.params.dec_embed, decoder_path),
    ]
    for vocab, table, path in sides:
        k = min(top_k, len(vocab) - 4)
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        dim = table.shape[1]
        writer.writerow(["token", "rank"] + [f"e{i}" for i in range(dim)])
        for rank in range(1, k + 1):
            token_id = rank + 3  # ids 4.. are frequency-ordered
            writer.writerow(
                [vocab.token_of(token_id), rank] + [_fmt(v) for v in table[token_id]]
            )
        write_atomic(path, buffer.getvalue().encode("utf-8"))
