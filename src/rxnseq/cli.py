"""The ``rxnseq`` command line tool.

Exposes the pipeline end-to-end: tokenize, canon, fingerprint, gen,
ingest, split, train, predict, eval, export-attention, export-embeddings.
Diagnostics go to standard error; data goes to files or standard output.
Exit status is 0 on success, 1 on input errors, 2 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

logger = logging.getLogger("rxnseq")


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


def _apply_thread_cap() -> None:
    """Honor RXNSEQ_THREADS by capping the numeric libraries' thread pools.

    Must run before anything imports numpy, which is why the subcommand
    handlers import the heavy modules lazily.
    """
    value = os.environ.get("RXNSEQ_THREADS")
    if value is None:
        return
    try:
        threads = int(value)
        if threads < 1:
            raise ValueError
    except ValueError:
        raise InputError(
            f"RXNSEQ_THREADS must be a positive integer, got {value!r}"
        ) from None
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[name] = str(threads)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


# Keys a key=value config file may provide; flags override them.
_CONFIG_KEYS = {
    "seed": int,
    "hidden_dim": int,
    "embedding_dim": int,
    "layers": int,
    "buckets": str,
    "batch_size": int,
    "steps": int,
    "lr": float,
}

_DEFAULTS = {
    "seed": 0,
    "hidden_dim": 64,
    "embedding_dim": 64,
    "layers": 3,
    "buckets": "54:54,70:60,90:65,150:80",
    "batch_size": 32,
    "steps": 500,
    "lr": 0.5,
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise InputError(f"{path}:{number}: expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}:{number}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise InputError(f"{path}:{number}: bad value for {key}: {exc}") from exc
    return values


def _effective(args) -> dict:
    """Merge defaults, then config file, then explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _CONFIG_KEYS:
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


def _load_model_and_vocabs(checkpoint: str):
    from .model import CheckpointError, load_checkpoint
    from .pipeline import Vocab

    _require_file(checkpoint, "checkpoint")
    input_path, output_path = _vocab_paths(checkpoint)
    _require_file(str(input_path), "input vocabulary")
    _require_file(str(output_path), "output vocabulary")
    try:
        model = load_checkpoint(checkpoint)
    except CheckpointError as exc:
        raise InputError(f"cannot load checkpoint: {exc}") from exc
    input_vocab, output_vocab = Vocab.load(input_path), Vocab.load(output_path)
    for path, vocab, size in (
        (input_path, input_vocab, model.config.input_vocab_size),
        (output_path, output_vocab, model.config.output_vocab_size),
    ):
        if len(vocab) != size:
            raise InputError(
                f"{path} has {len(vocab)} tokens, the checkpoint expects {size}"
            )
    return model, input_vocab, output_vocab


def _normalized_records(path: str):
    from .pipeline import CanonicalizationError, normalize, read_reactions
    from .smiles import SmilesError

    _require_file(path, "data file")
    try:
        records = read_reactions(path)
        return [normalize(r) for r in records]
    except (SmilesError, CanonicalizationError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _source_of(text: str) -> str:
    """Reduce a reaction string to its model input: everything up to the
    products, second '>' included, normalized as the training data was."""
    from .pipeline import CanonicalizationError, normalize, parse_record, source_string
    from .smiles import MalformedReaction, split_reaction

    if ">" not in text:
        raise InputError(f"not a reaction string (no '>'): {text!r}")
    try:
        parts = split_reaction(text)
        record = parse_record(f"{parts.reactants}>{parts.reagents}>")
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
    from .templates import (
        TemplateError,
        default_substrate_filter,
        generate_dataset,
        load_templates_file,
    )

    _require_file(args.templates, "template file")
    _require_file(args.substrates, "substrate file")
    try:
        templates = load_templates_file(args.templates)
    except TemplateError as exc:
        raise InputError(f"{args.templates}: {exc}") from exc
    substrates = [
        line.strip()
        for line in Path(args.substrates).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    f = default_substrate_filter(
        min_atoms=args.min_atoms,
        max_atoms=args.max_atoms,
        max_functional_groups=args.max_groups,
    )
    records, failures = generate_dataset(templates, substrates, f)
    write_reactions(records, args.out)
    logger.info(
        "generated %d reactions from %d templates (%d applications failed)",
        len(records),
        len(templates),
        len(failures),
    )
    return 0


def cmd_ingest(args) -> int:
    from .pipeline import ingest_file, write_reactions

    _require_file(args.data, "data file")
    records, report = ingest_file(args.data)
    write_reactions(records, args.out)
    if args.report:
        Path(args.report).write_text(report.tsv(), encoding="utf-8")
    logger.info("accepted %d of %d records", report.accepted, report.total)
    return 0


def cmd_split(args) -> int:
    from .pipeline import split_records, write_reactions

    try:
        fractions = tuple(float(x) for x in args.fractions.split(","))
        if len(fractions) != 3:
            raise ValueError("expected three comma-separated fractions")
    except ValueError as exc:
        raise InputError(f"bad --fractions: {exc}") from exc
    records = _normalized_records(args.data)
    try:
        train, valid, test = split_records(records, args.seed, fractions)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        write_reactions(part, out / f"{name}.rsmi")
    logger.info(
        "split %d records into %d/%d/%d", len(records), len(train), len(valid), len(test)
    )
    return 0


def cmd_train(args) -> int:
    from .model import ModelConfig, NonFiniteLoss, fit, init_model, save_checkpoint
    from .pipeline import (
        BucketSpec,
        BucketSpecError,
        TooLongForBuckets,
        build_vocabs,
        encode_example,
    )

    cfg = _effective(args)
    if cfg["steps"] < 1:
        raise InputError("--steps must be positive")
    if cfg["batch_size"] < 1:
        raise InputError("--batch-size must be positive")
    try:
        buckets = BucketSpec.parse(cfg["buckets"])
    except BucketSpecError as exc:
        raise InputError(f"bad --buckets: {exc}") from exc
    records = _normalized_records(args.data)
    if not records:
        raise InputError(f"{args.data}: no training records")
    input_vocab, output_vocab = build_vocabs(records)
    examples = []
    skipped = 0
    for record in records:
        try:
            examples.append(
                encode_example(record, input_vocab, output_vocab, buckets)
            )
        except TooLongForBuckets:
            skipped += 1
    if skipped:
        logger.warning("%d records exceed the buckets and were skipped", skipped)
    if not examples:
        raise InputError("every record exceeds the buckets")
    try:
        config = ModelConfig(
            input_vocab_size=len(input_vocab),
            output_vocab_size=len(output_vocab),
            num_layers=cfg["layers"],
            embedding_dim=cfg["embedding_dim"],
            hidden_dim=cfg["hidden_dim"],
            buckets=buckets,
            learning_rate=cfg["lr"],
            seed=cfg["seed"],
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    model = init_model(config)
    try:
        log = fit(
            model,
            examples,
            steps=cfg["steps"],
            batch_size=cfg["batch_size"],
            seed=cfg["seed"],
        )
    except NonFiniteLoss as exc:
        raise InputError(f"training diverged: {exc}") from exc
    save_checkpoint(model, args.out)
    input_path, output_path = _vocab_paths(args.out)
    input_vocab.save(input_path)
    output_vocab.save(output_path)
    logger.info(
        "trained %d steps on %d examples; first loss %.4f, last loss %.4f",
        log.steps,
        len(examples),
        log.losses[0],
        log.losses[-1],
    )
    return 0


def _predict_one(model, input_vocab, output_vocab, source: str) -> str:
    import numpy as np

    from .model import predict
    from .pipeline import TooLongForBuckets, encode_source
    from .smiles import SmilesError

    try:
        encoder_ids, _ = encode_source(source, input_vocab, model.config.buckets)
    except TooLongForBuckets as exc:
        raise InputError(f"input exceeds the buckets: {source!r}") from exc
    except SmilesError as exc:
        raise InputError(str(exc)) from exc
    ids = predict(model, np.array(encoder_ids))
    return "".join(output_vocab.token_of(i) for i in ids)


def cmd_predict(args) -> int:
    if (args.input is None) == (args.data is None):
        raise UsageError("predict needs exactly one of --input or --data")
    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    if args.input is not None:
        source = _source_of(args.input)
        print(_predict_one(model, input_vocab, output_vocab, source))
        return 0
    _require_file(args.data, "data file")
    for number, raw in enumerate(
        Path(args.data).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            source = _source_of(line)
            print(_predict_one(model, input_vocab, output_vocab, source))
        except InputError as exc:
            logger.warning("line %d skipped: %s", number, exc)
            print()
    return 0


def cmd_eval(args) -> int:
    from .evaluation import (
        EmptyTestset,
        evaluate,
        write_report_csv,
        write_report_json,
    )

    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    records = _normalized_records(args.data)
    try:
        report = evaluate(model, records, input_vocab, output_vocab)
    except EmptyTestset as exc:
        raise InputError(str(exc)) from exc
    if args.report:
        write_report_csv(report, f"{args.report}.csv")
        write_report_json(report, f"{args.report}.json")
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0


def cmd_export_attention(args) -> int:
    from .evaluation import export_attention
    from .pipeline import TooLongForBuckets

    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    source = _source_of(args.input)
    try:
        export_attention(model, source, input_vocab, output_vocab, args.out)
    except TooLongForBuckets as exc:
        raise InputError(f"input exceeds the buckets: {source!r}") from exc
    return 0


def cmd_export_embeddings(args) -> int:
    from .evaluation import export_embeddings

    model, input_vocab, output_vocab = _load_model_and_vocabs(args.checkpoint)
    if args.top_k < 0:
        raise InputError("--top-k must be non-negative")
    export_embeddings(
        model,
        input_vocab,
        output_vocab,
        f"{args.out}.encoder.csv",
        f"{args.out}.decoder.csv",
        top_k=args.top_k,
    )
    return 0


def _add_model_flags(parser) -> None:
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--hidden-dim", type=int, default=None, dest="hidden_dim")
    parser.add_argument(
        "--embedding-dim", type=int, default=None, dest="embedding_dim"
    )
    parser.add_argument("--layers", type=int, default=None)
    parser.add_argument("--buckets", type=str, default=None)
    parser.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None)
    parser.add_argument("--config", type=str, default=None)


def build_parser() -> _Parser:
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
    p.add_argument("--min-atoms", type=int, default=1, dest="min_atoms")
    p.add_argument("--max-atoms", type=int, default=10, dest="max_atoms")
    p.add_argument("--max-groups", type=int, default=1, dest="max_groups")
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
        _apply_thread_cap()
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InputError as exc:
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
