"""The ``rxnseq`` command line tool.

Exposes the pipeline end-to-end: tokenize, canon, fingerprint, gen,
ingest, split, train, predict, eval, export-attention, export-embeddings.
Diagnostics go to standard error; data goes to files or standard output.
Exit status is 0 on success, 1 on input errors (an output path that cannot
be written included), 2 on internal errors.  Each handler imports the
modules it needs, so a command such as ``tokenize`` starts without numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

logger = logging.getLogger("rxnseq")


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


# train's settings, each written once: its type, its default and the
# ModelConfig field it sets (None for buckets, batch_size and steps).  Each is
# a --flag (the key with '_' as '-') and a key=value config-file key; flags
# override the file.  A model setting left at None takes its default from
# ModelConfig (buckets from DEFAULT_BUCKETS).
_SETTINGS = {
    "seed": (int, None, "seed"),
    "hidden_dim": (int, None, "hidden_dim"),
    "embedding_dim": (int, None, "embedding_dim"),
    "layers": (int, None, "num_layers"),
    "buckets": (str, None, None),
    "batch_size": (int, 32, None),
    "steps": (int, 500, None),
    "lr": (float, None, "learning_rate"),
}


@contextlib.contextmanager
def _reading(path):
    """Report a ``path`` that is not UTF-8 text as an input error naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_config_file(path: str) -> dict:
    from .pipeline import data_lines

    values = {}
    try:
        with _reading(path):
            lines = list(data_lines(path))
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    for number, line in lines:
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise InputError(f"{path}:{number}: expected key=value, got {line!r}")
        if key not in _SETTINGS:
            raise InputError(f"{path}:{number}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key][0](value)
        except ValueError as exc:
            raise InputError(f"{path}:{number}: bad value for {key}: {exc}") from exc
    return values


def _effective(args) -> dict:
    """Merge defaults, then config file, then explicit flags."""
    merged = {key: default for key, (_, default, _) in _SETTINGS.items()}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _vocab_paths(checkpoint: str) -> tuple[Path, Path]:
    return Path(f"{checkpoint}.input-vocab"), Path(f"{checkpoint}.output-vocab")


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{what} not found: {path}")
    return p


def _require_writable(*paths) -> None:
    """Check every output path before a command writes any of them, so a
    command that cannot write one output leaves none behind."""
    for path in map(Path, paths):
        if path.is_dir():
            raise InputError(f"output path is a directory: {path}")
        if not path.parent.is_dir():
            raise InputError(f"output directory not found: {path.parent}")
        if not os.access(path if path.exists() else path.parent, os.W_OK):
            raise InputError(f"output not writable: {path}")


# The last successful load: the bytes of a checkpoint and its two sidecars,
# and the (model, input vocab, output vocab) parsed from exactly those bytes.
_last_load: tuple = ()


def _load_model_and_vocabs(checkpoint: str):
    """The model and both vocabularies of ``checkpoint``, every check passed.

    The three files are read as bytes once per call.  When they equal the
    bytes of the last successful load, that load's objects are returned;
    otherwise these bytes are parsed, and kept for the next call only if every
    check passes.  The model is shared with later calls, so its arrays are
    read-only.
    """
    global _last_load
    from .model import CheckpointError, checkpoint_from_bytes
    from .pipeline import Vocab, VocabError

    _require_file(checkpoint, "checkpoint")
    input_path, output_path = _vocab_paths(checkpoint)
    _require_file(str(input_path), "input vocabulary")
    _require_file(str(output_path), "output vocabulary")
    raw = tuple(Path(p).read_bytes() for p in (checkpoint, input_path, output_path))
    last = _last_load
    if last and last[0] == raw:
        return last[1]
    try:
        model = checkpoint_from_bytes(raw[0])
    except CheckpointError as exc:
        raise InputError(f"cannot load checkpoint: {exc}") from exc
    vocabs = []
    for path, data, size in (
        (input_path, raw[1], model.config.input_vocab_size),
        (output_path, raw[2], model.config.output_vocab_size),
    ):
        try:
            with _reading(path):
                vocab = Vocab.from_sidecar_bytes(data)
        except VocabError as exc:
            raise InputError(f"{path}: {exc}") from exc
        if len(vocab) != size:
            raise InputError(
                f"{path} has {len(vocab)} tokens, the checkpoint expects {size}"
            )
        vocabs.append(vocab)
    for _, arr in model.params.named():
        arr.flags.writeable = False
    _last_load = (raw, (model, *vocabs))
    return _last_load[1]


def _normalized_records(path: str):
    """The file's records, normalized; a record that fails is named by its
    line.  The whole file is read before any record is normalized."""
    from .pipeline import CanonicalizationError, normalize, numbered_reactions
    from .smiles import SmilesError

    _require_file(path, "data file")
    try:
        with _reading(path):
            numbered = list(numbered_reactions(path))
    except SmilesError as exc:
        raise InputError(f"{path}: {exc}") from exc
    records = []
    for number, record in numbered:
        try:
            records.append(normalize(record))
        except CanonicalizationError as exc:
            raise InputError(f"{path}: line {number}: {exc}") from exc
    return records


def _source_of(text: str) -> str:
    """Reduce a reaction string to its model input: everything up to the
    products, second '>' included, normalized as the training data was.
    Whatever follows the last '>' is dropped unread."""
    from .pipeline import CanonicalizationError, normalize, parse_record, source_string
    from .smiles import MalformedReaction

    if ">" not in text:
        raise InputError(f"not a reaction string (no '>'): {text!r}")
    try:
        record = parse_record(text[: text.rindex(">") + 1])
        return source_string(normalize(record))
    except (MalformedReaction, CanonicalizationError) as exc:
        raise InputError(str(exc)) from exc


def cmd_tokenize(args) -> int:
    from .smiles import SmilesError, tokenize

    try:
        tokens = tokenize(args.text)
    except SmilesError as exc:
        raise InputError(str(exc)) from exc
    sys.stdout.write("".join(t.text + "\n" for t in tokens))
    return 0


def cmd_canon(args) -> int:
    from .molgraph import GraphError, canonical_from_string
    from .pipeline import CanonicalizationError, normalize, parse_record
    from .smiles import SmilesError

    try:
        if ">" in args.text:
            print(normalize(parse_record(args.text)).smiles())
        else:
            print(canonical_from_string(args.text))
    except (SmilesError, GraphError, CanonicalizationError) as exc:
        raise InputError(str(exc)) from exc
    return 0


def cmd_fingerprint(args) -> int:
    from .molgraph import GraphError, morgan_fingerprint, parse_string
    from .smiles import SmilesError

    try:
        graph = parse_string(args.text)
        fp = morgan_fingerprint(graph, radius=args.radius, nbits=args.nbits)
    except (SmilesError, GraphError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    print(" ".join(str(i) for i in fp.on_bits()))
    return 0


def cmd_gen(args) -> int:
    from .pipeline import write_reactions
    from .templates import TemplateError, generate_dataset, load_templates_file

    _require_file(args.templates, "template file")
    _require_file(args.substrates, "substrate file")
    _require_writable(args.out)
    try:
        with _reading(args.templates):
            templates = load_templates_file(args.templates)
    except TemplateError as exc:
        raise InputError(f"{args.templates}: {exc}") from exc
    # unfiltered, so skipped substrates are logged with their file line numbers
    with _reading(args.substrates):
        substrates = Path(args.substrates).read_text(encoding="utf-8").splitlines()
    began = time.perf_counter()
    records, failures = generate_dataset(templates, substrates)
    seconds = time.perf_counter() - began
    write_reactions(records, args.out)
    logger.info(
        "generated %d reactions from %d templates (%d applications failed) "
        "in %.2f s, %.1f records/s",
        len(records),
        len(templates),
        len(failures),
        seconds,
        len(records) / seconds,
    )
    return 0


def cmd_ingest(args) -> int:
    from .pipeline import ingest_file, reactions_bytes, write_all_atomic

    _require_file(args.data, "data file")
    _require_writable(args.out, *([args.report] if args.report else []))
    began = time.perf_counter()
    with _reading(args.data):
        records, report = ingest_file(args.data)
    seconds = time.perf_counter() - began
    outputs = {args.out: reactions_bytes(records)}
    if args.report:
        outputs[args.report] = report.tsv().encode("utf-8")
    write_all_atomic(outputs)
    logger.info(
        "accepted %d of %d records in %.2f s, %.1f records/s",
        report.accepted,
        report.total,
        seconds,
        report.total / seconds,
    )
    return 0


def cmd_split(args) -> int:
    from .pipeline import reactions_bytes, split_records, write_all_atomic

    try:
        fractions = tuple(float(x) for x in args.fractions.split(","))
        if len(fractions) != 3:
            raise ValueError("expected three comma-separated fractions")
    except ValueError as exc:
        raise InputError(f"bad --fractions: {exc}") from exc
    out = Path(args.out)
    paths = [out / "train.rsmi", out / "valid.rsmi", out / "test.rsmi"]
    # --out is made if missing, so its nearest existing ancestor must be a
    # writable directory; all is checked before any record is read
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise InputError(
            f"output directory cannot be made: {out} ({nearest} is not a directory)"
        )
    if nearest == out:
        _require_writable(*paths)
    elif not os.access(nearest, os.W_OK):
        raise InputError(
            f"output directory cannot be made: {out} ({nearest} is not writable)"
        )
    records = _normalized_records(args.data)
    try:
        train, valid, test = split_records(records, args.seed, fractions)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out.mkdir(parents=True, exist_ok=True)
    parts = zip(paths, (train, valid, test))
    write_all_atomic({path: reactions_bytes(part) for path, part in parts})
    logger.info(
        "split %d records into %d/%d/%d", len(records), len(train), len(valid), len(test)
    )
    return 0


def cmd_train(args) -> int:
    import numpy as np

    from .model import ModelConfig, NonFiniteLoss, checkpoint_bytes, fit, init_model
    from .pipeline import (
        DEFAULT_BUCKETS,
        BucketSpec,
        BucketSpecError,
        build_vocabs,
        encode_example,
        write_all_atomic,
    )

    cfg = _effective(args)
    _require_writable(args.out, *_vocab_paths(args.out))
    if cfg["steps"] < 1:
        raise InputError("--steps must be positive")
    if cfg["batch_size"] < 1:
        raise InputError("--batch-size must be positive")
    try:
        buckets = (
            DEFAULT_BUCKETS if cfg["buckets"] is None else BucketSpec.parse(cfg["buckets"])
        )
    except BucketSpecError as exc:
        raise InputError(f"bad --buckets: {exc}") from exc
    records = _normalized_records(args.data)
    if not records:
        raise InputError(f"{args.data}: no training records")
    input_vocab, output_vocab = build_vocabs(records)
    examples = [
        encode_example(record, input_vocab, output_vocab, buckets) for record in records
    ]
    try:
        config = ModelConfig(
            input_vocab_size=len(input_vocab),
            output_vocab_size=len(output_vocab),
            buckets=buckets,
            **{
                field: cfg[key]
                for key, (_, _, field) in _SETTINGS.items()
                if field is not None and cfg[key] is not None
            },
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    model = init_model(config)
    began = time.perf_counter()
    try:
        # fit raises NonFiniteLoss on a diverged step; the overflows on the way
        # there would only print numpy's warnings before that error.
        with np.errstate(over="ignore", invalid="ignore"):
            log = fit(
                model,
                examples,
                steps=cfg["steps"],
                batch_size=cfg["batch_size"],
                seed=config.seed,
            )
    except NonFiniteLoss as exc:
        raise InputError(f"training diverged: {exc}") from exc
    seconds = time.perf_counter() - began
    input_path, output_path = _vocab_paths(args.out)
    write_all_atomic(
        {
            args.out: checkpoint_bytes(model),
            input_path: input_vocab.sidecar_bytes(),
            output_path: output_vocab.sidecar_bytes(),
        }
    )
    logger.info(
        "trained %d steps on %d examples in %.2f s, %.1f steps/s; "
        "first loss %.4f, last loss %.4f",
        log.steps,
        len(examples),
        seconds,
        log.steps / seconds,
        log.losses[0],
        log.losses[-1],
    )
    return 0


def _encoded_source(text: str, input_vocab, buckets):
    """The bucket-padded encoder row of a reaction string's model input."""
    from .pipeline import encode_source
    from .smiles import SmilesError

    try:
        return encode_source(_source_of(text), input_vocab, buckets)
    except SmilesError as exc:
        raise InputError(str(exc)) from exc


def cmd_predict(args) -> int:
    from .model import predict_with_attention
    from .pipeline import data_lines

    if (args.input is None) == (args.data is None):
        raise UsageError("predict needs exactly one of --input or --data")
    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    buckets = model.config.buckets
    if args.input is not None:
        rows = [_encoded_source(args.input, input_vocab, buckets)]
    else:
        _require_file(args.data, "data file")
        with _reading(args.data):
            lines = list(data_lines(args.data))
        rows = []  # None for a line that is skipped
        for number, line in lines:
            try:
                rows.append(_encoded_source(line, input_vocab, buckets))
            except InputError as exc:
                logger.warning("line %d skipped: %s", number, exc)
                rows.append(None)
    decoded = predict_with_attention(model, [row for row in rows if row is not None])
    for row in rows:
        print("" if row is None else next(decoded).text(output_vocab))
    return 0


def cmd_eval(args) -> int:
    from .evaluation import EvaluationError, evaluate, write_report

    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    if args.report:
        _require_writable(f"{args.report}.csv", f"{args.report}.json")
    records = _normalized_records(args.data)
    began = time.perf_counter()
    try:
        report = evaluate(model, records, input_vocab, output_vocab)
    except EvaluationError as exc:
        raise InputError(f"{args.data}: {exc}") from exc
    seconds = time.perf_counter() - began
    logger.info(
        "evaluated %d records (%d skipped) in %.2f s, %.1f records/s",
        report.n,
        report.skipped,
        seconds,
        report.n / seconds,
    )
    if args.report:
        write_report(report, args.report)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0


def cmd_export_attention(args) -> int:
    from .evaluation import export_attention

    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    _require_writable(args.out)
    source = _source_of(args.input)
    export_attention(model, source, input_vocab, output_vocab, args.out)
    return 0


def cmd_export_embeddings(args) -> int:
    from .evaluation import export_embeddings

    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    if args.top_k < 0:
        raise InputError("--top-k must be non-negative")
    paths = (f"{args.out}.encoder.csv", f"{args.out}.decoder.csv")
    _require_writable(*paths)
    export_embeddings(model, input_vocab, output_vocab, *paths, top_k=args.top_k)
    return 0


def _add_model_flags(parser) -> None:
    for key, (kind, _, _) in _SETTINGS.items():
        parser.add_argument(f"--{key.replace('_', '-')}", type=kind, default=None, dest=key)
    parser.add_argument("--config", type=str, default=None)


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on first use and reused: parse_args returns a fresh
    Namespace on every call, so nothing carries from one main call to the next."""
    parser = _Parser(prog="rxnseq", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tokenize", help="print one token per line")
    p.add_argument("text")
    p.set_defaults(handler=cmd_tokenize)

    p = sub.add_parser("canon", help="canonicalize a molecule or reaction")
    p.add_argument("text")
    p.set_defaults(handler=cmd_canon)

    p = sub.add_parser("fingerprint", help="print the on-bit indices")
    p.add_argument("text")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--nbits", type=int, default=2048)
    p.set_defaults(handler=cmd_fingerprint)

    p = sub.add_parser("gen", help="cross templates with substrates")
    p.add_argument("--templates", required=True)
    p.add_argument("--substrates", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("ingest", help="filter raw reactions into a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("split", help="seeded train/valid/test split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="decode products for reaction inputs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", default=None)
    p.add_argument("--data", default=None)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("export-attention", help="write one decode's attention CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_export_attention)

    p = sub.add_parser("export-embeddings", help="write embedding tables as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=50, dest="top_k")
    p.set_defaults(handler=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
