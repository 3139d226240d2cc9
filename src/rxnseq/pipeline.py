"""Reaction records, corpus ingestion, normalization, vocabularies, and
bucketed encoding.

Turns raw reaction SMILES lines into fixed-size integer matrices ready for the
translation model.  :func:`parse_record` is the one place a reaction line is
split into its reactant, reagent and product molecules.  Then come
length/count filters, per-part canonicalization, frequency vocabularies with
fixed special ids, reversed PAD-prefixed encoder inputs, and seeded bucketed
batching.
"""

from __future__ import annotations

import functools
import logging
import os
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

from . import smiles
from .molgraph import _CANON_CACHE_SIZE, GraphError, canonical_from_string, strip_atom_maps

# parse_string stays importable here: perfbench's traced run wraps it.
from .molgraph import parse_string  # noqa: F401
from .smiles import SmilesError

log = logging.getLogger(__name__)

PAD_ID = 0
GO_ID = 1
EOS_ID = 2
UNK_ID = 3
SPECIAL_TOKENS = ("<pad>", "<go>", "<eos>", "<unk>")

# Filter thresholds: character counts over the map-stripped reaction string.
MAX_SOURCE_CHARS = 150
MAX_PRODUCT_CHARS = 80
MAX_PRODUCT_COUNT = 3


class PipelineError(Exception):
    pass


class CanonicalizationError(PipelineError):
    """A reaction part could not be normalized; carries the offending part."""

    def __init__(self, part: str, reason: str):
        super().__init__(f"cannot canonicalize {part!r}: {reason}")
        self.part = part


class UnparseableMolecule(PipelineError):
    """A molecule of an ingested line failed to parse; carries the molecule.

    Positions in ``reason`` count from the molecule's first character.
    """

    def __init__(self, molecule: str, reason: str):
        super().__init__(f"molecule {molecule!r}: {reason}")
        self.molecule = molecule


class VocabError(PipelineError):
    pass


class BucketSpecError(PipelineError):
    pass


@dataclass(frozen=True)
class ReactionRecord:
    reactants: tuple[str, ...]
    reagents: tuple[str, ...]
    products: tuple[str, ...]

    def smiles(self) -> str:
        return source_string(self) + target_string(self)


def parse_record(line: str) -> ReactionRecord:
    """Split ``reactants>reagents>products`` into its parts' molecule tuples.

    Any part may be empty; a molecule may not.  No graph-level checks.
    """
    parts = line.split(">")
    if len(parts) != 3:
        raise smiles.MalformedReaction(
            f"expected exactly two '>' separators, found {len(parts) - 1}"
        )

    def pieces(part: str) -> tuple[str, ...]:
        if not part:
            return ()
        out = tuple(part.split("."))
        if any(not p for p in out):
            raise smiles.MalformedReaction(f"empty molecule in part {part!r}")
        return out

    return ReactionRecord(*map(pieces, parts))


def source_string(record: ReactionRecord) -> str:
    """The product-less encoder input, separators included: "reactants>reagents>"."""
    return ".".join(record.reactants) + ">" + ".".join(record.reagents) + ">"


def target_string(record: ReactionRecord) -> str:
    return ".".join(record.products)


@dataclass
class RejectReport:
    parse_failures: int = 0
    source_too_long: int = 0
    products_too_long: int = 0
    too_many_products: int = 0
    accepted: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def tsv(self) -> str:
        """One ``name<TAB>count`` row per field, in field order, then the total."""
        rows = [(f.name, getattr(self, f.name)) for f in fields(self)]
        rows.append(("total", self.total))
        return "".join(f"{name}\t{count}\n" for name, count in rows)


@functools.lru_cache(maxsize=_CANON_CACHE_SIZE)
def _stripped_molecule(molecule: str) -> str:
    """``molecule`` with its atom maps stripped, read in one parse.

    Memoized, so a molecule repeated across lines is read once.  Failures
    are raised again on every call as :class:`UnparseableMolecule`; only
    results are remembered.  Canonicalizing is left to ``normalize``.
    """
    try:
        return strip_atom_maps(molecule)
    except (SmilesError, GraphError) as exc:
        raise UnparseableMolecule(molecule, str(exc)) from exc


def ingest_lines(lines: Iterable[str]) -> tuple[list[ReactionRecord], RejectReport]:
    """Strip atom maps, then filter on character lengths and product count.

    Maps are stripped one molecule at a time; a ring bond or branch that
    spans '.' or '>' leaves a molecule that does not parse alone.  A line
    that does not split into three parts, or with a molecule that cannot be
    parsed, is a parse failure, logged and skipped, never fatal.

    The source length covers everything before the second '>' (the first '>'
    counts as a character); the product length everything after it.  Both
    are measured on the stripped text.
    """
    records: list[ReactionRecord] = []
    report = RejectReport()
    for lineno, line in numbered_lines(lines):
        try:
            mapped = parse_record(line)
            record = ReactionRecord(
                reactants=tuple(map(_stripped_molecule, mapped.reactants)),
                reagents=tuple(map(_stripped_molecule, mapped.reagents)),
                products=tuple(map(_stripped_molecule, mapped.products)),
            )
        except (SmilesError, UnparseableMolecule) as exc:
            report.parse_failures += 1
            log.warning("line %d: skipped unparseable reaction: %s", lineno, exc)
            continue
        # source_string ends in the second '>', which the source length leaves out
        if len(source_string(record)) - 1 > MAX_SOURCE_CHARS:
            report.source_too_long += 1
            continue
        if len(target_string(record)) > MAX_PRODUCT_CHARS:
            report.products_too_long += 1
            continue
        if len(record.products) > MAX_PRODUCT_COUNT:
            report.too_many_products += 1
            continue
        report.accepted += 1
        records.append(record)
    return records, report


def ingest_file(path: str | Path) -> tuple[list[ReactionRecord], RejectReport]:
    with open(path, encoding="utf-8") as handle:
        return ingest_lines(handle)


def normalize(record: ReactionRecord) -> ReactionRecord:
    """Canonicalize every molecule and sort each part lexicographically."""

    def canon_part(molecules: tuple[str, ...]) -> tuple[str, ...]:
        out = []
        for molecule in molecules:
            try:
                out.append(canonical_from_string(molecule))
            except (SmilesError, GraphError) as exc:
                raise CanonicalizationError(molecule, str(exc)) from exc
        return tuple(sorted(out))

    return ReactionRecord(
        reactants=canon_part(record.reactants),
        reagents=canon_part(record.reagents),
        products=canon_part(record.products),
    )


class Vocab:
    """Token table with fixed specials PAD=0, GO=1, EOS=2, UNK=3.

    Regular tokens follow in descending corpus frequency, ties broken
    lexicographically, so the same corpus always yields the same table.
    """

    def __init__(self, tokens: Sequence[str]):
        self._tokens = list(SPECIAL_TOKENS)
        self._ids = {text: i for i, text in enumerate(self._tokens)}
        # line counts regular tokens from 1, as the saved sidecar numbers them.
        for line, token in enumerate(tokens, 1):
            if token in SPECIAL_TOKENS:
                raise VocabError(f"token collides with a special: {token!r}")
            if not token or "\n" in token:
                raise VocabError(f"unusable token text: {token!r}")
            if token in self._ids:
                raise VocabError(f"duplicate token {token!r} on line {line}")
            self._ids[token] = len(self._tokens)
            self._tokens.append(token)

    @classmethod
    def from_counts(cls, counts: Counter[str]) -> "Vocab":
        ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return cls([token for token, _ in ordered])

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise VocabError(f"id out of range: {token_id}")
        return self._tokens[token_id]

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self._tokens == other._tokens

    def sidecar_bytes(self) -> bytes:
        """The sidecar file, as save writes it."""
        # One regular token per line; line number = id - 3, counting from 1.
        # Specials are implicit so the file stays a plain token list.
        body = "".join(token + "\n" for token in self._tokens[len(SPECIAL_TOKENS):])
        return body.encode("utf-8")

    def save(self, path: str | Path) -> None:
        write_atomic(path, self.sidecar_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        """The vocabulary in the sidecar file at ``path``, as from_sidecar_bytes
        reads the file's bytes."""
        return cls.from_sidecar_bytes(Path(path).read_bytes())

    @classmethod
    def from_sidecar_bytes(cls, raw: bytes) -> "Vocab":
        """The vocabulary that sidecar_bytes wrote as ``raw``.  Bytes that are
        not UTF-8 raise UnicodeDecodeError, and a bad token VocabError."""
        return cls(raw.decode("utf-8").splitlines())


def build_vocabs(records: Sequence[ReactionRecord]) -> tuple[Vocab, Vocab]:
    """Input vocabulary over "reactants>reagents>" tokens ('.' and '>' included),
    output vocabulary over product tokens."""
    input_counts: Counter[str] = Counter()
    output_counts: Counter[str] = Counter()
    for record in records:
        input_counts.update(t.text for t in smiles.tokenize(source_string(record)))
        output_counts.update(t.text for t in smiles.tokenize(target_string(record)))
    return Vocab.from_counts(input_counts), Vocab.from_counts(output_counts)


@dataclass(frozen=True)
class BucketSpec:
    """Ascending (encoder_length, decoder_length) padding classes.

    A bucket only sets a batch's shape: the model ignores PADs.  Sequences
    longer than the largest bucket are padded to their own lengths.
    """

    pairs: tuple[tuple[int, int], ...] = ((54, 54), (70, 60), (90, 65), (150, 80))

    def __post_init__(self):
        if not self.pairs:
            raise BucketSpecError("at least one bucket required")
        for enc, dec in self.pairs:
            if enc < 1 or dec < 1:
                raise BucketSpecError(f"bucket dims must be positive: ({enc}, {dec})")
        for (e0, d0), (e1, d1) in zip(self.pairs, self.pairs[1:]):
            if e1 <= e0 or d1 <= d0:
                raise BucketSpecError(
                    f"buckets must increase in both coordinates: ({e0},{d0}) -> ({e1},{d1})"
                )

    @classmethod
    def parse(cls, text: str) -> "BucketSpec":
        pairs = []
        for chunk in text.split(","):
            fields = chunk.strip().split(":")
            if len(fields) != 2:
                raise BucketSpecError(f"expected ENC:DEC, got {chunk!r}")
            try:
                pairs.append((int(fields[0]), int(fields[1])))
            except ValueError as exc:
                raise BucketSpecError(f"bad bucket dims {chunk!r}") from exc
        return cls(tuple(pairs))

    def format(self) -> str:
        return ",".join(f"{enc}:{dec}" for enc, dec in self.pairs)

    def __getitem__(self, index: int) -> tuple[int, int]:
        return self.pairs[index]

    def shape_for(self, encoder_len: int, decoder_len: int = 0) -> tuple[int, int]:
        """The padded (encoder, decoder) shape of sequences of these lengths:
        the smallest bucket holding both, or beyond the largest bucket the
        lengths themselves."""
        for enc, dec in self.pairs:
            if encoder_len <= enc and decoder_len <= dec:
                return enc, dec
        return encoder_len, decoder_len


DEFAULT_BUCKETS = BucketSpec()


@dataclass(frozen=True)
class EncodedExample:
    encoder_ids: tuple[int, ...]
    decoder_ids: tuple[int, ...]


def _encoder_ids(tokens, input_vocab: Vocab, encoder_len: int) -> tuple[int, ...]:
    """Source token ids reversed, PAD ids prefixed up to encoder_len."""
    body = tuple(input_vocab.id_of(t.text) for t in reversed(tokens))
    return (PAD_ID,) * (encoder_len - len(body)) + body


def encode_source(
    text: str, input_vocab: Vocab, buckets: BucketSpec = DEFAULT_BUCKETS
) -> tuple[int, ...]:
    """Encode a product-less input, PAD-prefixed to its shape's encoder width."""
    tokens = smiles.tokenize(text)
    return _encoder_ids(tokens, input_vocab, buckets.shape_for(len(tokens))[0])


def encode_example(
    record: ReactionRecord,
    input_vocab: Vocab,
    output_vocab: Vocab,
    buckets: BucketSpec = DEFAULT_BUCKETS,
) -> EncodedExample:
    """Padded id sequences: reversed PAD-prefixed source, GO..EOS target.

    Both are padded to buckets.shape_for their lengths, measured in tokens
    (GO and EOS count; the ingest filters measure characters), so a record
    longer than every bucket is padded to its own lengths.  Out-of-vocabulary
    tokens map to UNK.  The model ignores PADs.
    """
    source = smiles.tokenize(source_string(record))
    products = smiles.tokenize(target_string(record))
    target = [GO_ID, *(output_vocab.id_of(t.text) for t in products), EOS_ID]
    encoder_len, decoder_len = buckets.shape_for(len(source), len(target))
    decoder_ids = tuple(target) + (PAD_ID,) * (decoder_len - len(target))
    return EncodedExample(_encoder_ids(source, input_vocab, encoder_len), decoder_ids)


@dataclass(frozen=True)
class Batch:
    encoder: np.ndarray  # (batch, encoder_len) int64
    decoder: np.ndarray  # (batch, decoder_len) int64

    def __len__(self) -> int:
        return self.encoder.shape[0]


def batch_iter(
    examples: Sequence[EncodedExample],
    batch_size: int,
    seed: int,
    epoch: int = 0,
) -> Iterator[Batch]:
    """One epoch of same-shape batches, shuffled deterministically.

    Examples are grouped by padded shape: a bucket is one group, and a record
    longer than every bucket batches only with records of exactly its shape.
    Groups are taken in ascending shape order, which is bucket order.  The
    shuffle depends on (seed, epoch) only, so replaying an epoch reproduces
    the exact batch stream.
    """
    import numpy as np  # here alone, so commands that never batch skip its import

    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    by_shape: dict[tuple[int, int], list[EncodedExample]] = {}
    for example in examples:
        shape = (len(example.encoder_ids), len(example.decoder_ids))
        by_shape.setdefault(shape, []).append(example)
    rng = random.Random(seed * 1_000_003 + epoch)
    slots: list[list[EncodedExample]] = []
    for shape in sorted(by_shape):
        pool = list(by_shape[shape])
        rng.shuffle(pool)
        for start in range(0, len(pool), batch_size):
            slots.append(pool[start : start + batch_size])
    rng.shuffle(slots)
    for group in slots:
        yield Batch(
            encoder=np.array([ex.encoder_ids for ex in group], dtype=np.int64),
            decoder=np.array([ex.decoder_ids for ex in group], dtype=np.int64),
        )


def split_records(
    records: Sequence[ReactionRecord],
    seed: int,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> tuple[list[ReactionRecord], list[ReactionRecord], list[ReactionRecord]]:
    """Seeded shuffle then contiguous train/valid/test cut."""
    if any(f < 0 for f in fractions) or not 0.999 <= sum(fractions) <= 1.001:
        raise ValueError(f"fractions must be non-negative and sum to 1: {fractions}")
    order = list(records)
    random.Random(seed).shuffle(order)
    n = len(order)
    n_train = round(n * fractions[0])
    n_valid = round(n * fractions[1])
    n_train = min(n_train, n)
    n_valid = min(n_valid, n - n_train)
    return (
        order[:n_train],
        order[n_train : n_train + n_valid],
        order[n_train + n_valid :],
    )


def write_all_atomic(files: Mapping[str | Path, bytes]) -> None:
    """Write every file's data to a temp file beside it, then rename each temp
    onto its path, so a failed write leaves every old file in place and a
    killed writer leaves each file old or new, never truncated."""
    temps = {
        Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp"): path
        for path in files
    }
    try:
        for temp, path in temps.items():
            temp.write_bytes(files[path])
        for temp, path in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def write_atomic(path: str | Path, data: bytes) -> None:
    write_all_atomic({path: data})


def reactions_bytes(records: Iterable[ReactionRecord]) -> bytes:
    """One reaction SMILES line per record, as write_reactions writes them."""
    return "".join(record.smiles() + "\n" for record in records).encode("utf-8")


def write_reactions(records: Iterable[ReactionRecord], path: str | Path) -> None:
    write_atomic(path, reactions_bytes(records))


def numbered_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each stripped line with its line number, counted from 1 over every
    line; blank lines and whole-line ``#`` comments are skipped ('#' is a
    triple bond in SMILES and patterns, so a '#' later in a line is data)."""
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line


def data_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The numbered_lines of a data file."""
    with open(path, encoding="utf-8") as handle:
        yield from numbered_lines(handle)


def numbered_reactions(path: str | Path) -> Iterator[tuple[int, ReactionRecord]]:
    """Each record of a reaction file with its line number, as data_lines
    numbers it.  A malformed record raises MalformedReaction naming its line.
    """
    for number, line in data_lines(path):
        try:
            record = parse_record(line)
        except smiles.MalformedReaction as exc:
            raise smiles.MalformedReaction(f"line {number}: {exc}") from exc
        yield number, record


def read_reactions(path: str | Path) -> list[ReactionRecord]:
    """The records of a reaction file, as numbered_reactions reads them."""
    return [record for _, record in numbered_reactions(path)]
