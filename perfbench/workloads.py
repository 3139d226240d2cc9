"""The rxnseq benchmark workloads: ``prep``, ``train`` and ``infer``.

Each workload is a closed loop with one client.  Its work comes in units,
and every unit runs in a fresh process, as a user's command would: the unit
sets up, is timed, checks its outputs and reports back.  Units repeat until
``seconds`` of measured time have passed and at least ``Size.min_units``
ran.  Every unit does the same requests, so a request's latency is its mean
over the units, and throughput is all work over all measured time: on a
shared host whose speed drifts, means move smoothly where medians of a
two-speed mix jump.  Fresh processes keep one unit's caches from serving
the next, and give each unit its own set-up (importing the package, then
loading its inputs), timed and reported as a median.

- ``prep`` (unit: one pass): the chemistry side, no model work.  The shipped
  1k corpus, with every distinct map-free molecule string given one seeded
  random rendering (fresh per pass), goes through ingest -> normalize ->
  build_vocabs -> encode_example; then ``generate_dataset`` runs over the
  shipped templates and substrates.  A request is one corpus line.
- ``train`` (unit: a fixed number of steps from a fresh init): README-shaped
  training (buckets 30:18, batch 32, 3x64 GRU, lr 1.5) on the seeded split
  of the ``gen`` output.  A request is one ``train_step``.
- ``infer`` (unit: one round): a README-shaped model is trained with pinned
  seeds and saved (once per checkout and source); each round loads it, runs ``evaluate`` over the
  generated records, then sends one ``rxnseq predict --input`` request per
  source through ``cli.main`` in seeded order.  A request is one predict call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from rxnseq import cli, evaluation, molgraph, pipeline, smiles, templates
from rxnseq import model as rmodel

import environment
import flops
import tracing

DATA = Path(pipeline.__file__).parent / "data"
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))

# The README training shape.
BUCKETS = pipeline.BucketSpec.parse("30:18")
BATCH_SIZE = 32
LAYERS = 3
WIDTH = 64
LEARNING_RATE = 1.5
# The README's `split --seed 5` and `train --seed 7`, pinned for the infer model.
INFER_SPLIT_SEED = 5
INFER_MODEL_SEED = 7
# evaluate's mean cross-entropy may exceed the pinned model's stored value by
# this factor before it counts as a failure: numerics may change, quality not.
CROSS_ENTROPY_SLACK = 1.05
_ATOM_MAP = re.compile(r":\d+\]")


@dataclass(frozen=True)
class Size:
    name: str  # key into expected.json
    corpus_lines: int | None  # prep: leading corpus lines; None = all
    records: int | None  # infer: leading generated records; None = all
    train_steps: int  # train: steps per unit
    loss_window: int
    infer_fit_steps: int
    min_units: int
    probe_calls: int  # calls per gru_cell_step / attention probe


FULL = Size("full", None, None, 100, 40, 300, 3, 200)
SMALL = Size("small", 60, 24, 8, 4, 12, 1, 10)


@dataclass(frozen=True)
class Unit:
    """What a fresh process needs to run one unit of a workload."""

    seed: int
    index: int
    trace: bool
    size: Size
    expected: dict
    work: str  # directory for files shared with the parent


class Run:
    """One process's share of a benchmark run: tracer, tallies and measured values."""

    def __init__(self, seed: int, seconds: float, trace: bool, size: Size, work: Path, expected=None):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.work = work
        self.expected = EXPECTED[size.name] if expected is None else expected
        self.tracer = tracing.Tracer(enabled=trace)
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}  # end to end
        self.report: dict[str, tuple[float, str]] = {}  # workload-specific detail
        self.layers: dict[str, tuple[float, str]] = {}  # traced run only
        self.unit_notes: list[dict] = []  # each unit's notes, kept per process
        self._patches: list = []
        self._units = 0

    @classmethod
    def for_unit(cls, unit: Unit) -> "Run":
        run = cls(unit.seed, 0.0, unit.trace, unit.size, Path(unit.work), unit.expected)
        if unit.trace:
            run.install()
        return run

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def attempt(self, what: str, fn, *args):
        """Call ``fn``; an exception is one failed operation, not the end of the run."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return False, None

    def span(self, name: str):
        return self.tracer.span(name)

    @contextlib.contextmanager
    def untraced(self):
        """Benchmark-side input generation: never in a span."""
        enabled, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = enabled

    def install(self) -> None:
        self._patches = tracing.install(self.tracer, trace_targets())

    def restore(self) -> None:
        tracing.restore(self._patches)
        self._patches = []

    def outcome(self, **measured) -> dict:
        """A unit's picklable result: its measurements plus tallies and spans."""
        return dict(
            measured,
            attempted=self.attempted,
            failures=self.failures,
            spans=self.tracer.spans,
            notes=dict(self.tracer.notes),
        )

    def absorb(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failures += result["failures"]
        offset = len(self.tracer.spans)
        for name, start, end, parent, request in result["spans"]:
            self.tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1, request])
        self.unit_notes.append(result["notes"])

    def units(self, fn) -> tuple[list[dict], list[dict]]:
        """Run ``fn(Unit)`` in fresh processes; returns (untraced, traced) results.

        Untraced units run until ``seconds`` of measured time and
        ``min_units`` units; a traced run splits ``seconds`` between an
        untraced and a traced phase of at least one unit each.
        """
        if not self.trace:
            return self._phase(fn, False, self.seconds, self.size.min_units), []
        untraced = self._phase(fn, False, self.seconds / 2, 1)
        traced = self._phase(fn, True, self.seconds / 2, 1)
        return untraced, traced

    def _phase(self, fn, trace: bool, seconds: float, minimum: int) -> list[dict]:
        results: list[dict] = []
        while len(results) < minimum or sum(r["measured_s"] for r in results) < seconds:
            unit = Unit(self.seed, self._units, trace, self.size, self.expected, str(self.work))
            unit_path = self.work / f"unit{self._units}.pickle"
            result_path = self.work / f"result{self._units}.pickle"
            self._units += 1
            unit_path.write_bytes(pickle.dumps(unit))
            command = [sys.executable, str(Path(__file__).parent / "unit.py"), fn.__name__, str(unit_path), str(result_path)]
            subprocess.run(command, check=True, stdout=sys.stderr)
            result = pickle.loads(result_path.read_bytes())
            unit_path.unlink()
            result_path.unlink()
            self.absorb(result)
            results.append(result)
        return results


def trace_targets():
    """Cross-module calls wrapped in the traced run, at the name the caller looks up.

    ``cli`` imports from ``molgraph``, ``pipeline`` and ``model`` inside its
    handlers, so wrapping those module attributes covers it.
    """
    first = lambda args, result: args[0]  # noqa: E731
    produced = lambda args, result: len(result)  # noqa: E731
    return [
        (smiles, "tokenize", "smiles.tokenize"),
        (molgraph, "tokenize", "smiles.tokenize"),
        (molgraph, "parse_string", "molgraph.parse"),
        (pipeline, "parse_string", "molgraph.parse"),
        (templates, "parse_string", "molgraph.parse"),
        (evaluation, "parse_string", "molgraph.parse"),
        (molgraph, "canonical_from_string", "molgraph.canon", first),
        (pipeline, "canonical_from_string", "molgraph.canon", first),
        (evaluation, "canonical_from_string", "molgraph.canon", first),
        (templates, "canonical_smiles", "molgraph.canon"),
        (evaluation, "morgan_fingerprint", "molgraph.fingerprint"),
        (templates, "enumerate_substrates", "templates.enumerate"),
        (templates, "apply_template", "templates.apply", produced),
        (pipeline, "encode_source", "pipeline.encode"),
        (evaluation, "encode_example", "pipeline.encode"),
        (rmodel, "batch_iter", "pipeline.batch_wait"),
        (rmodel, "train_step", "model.train_step"),
        (rmodel, "loss_and_grads", "model.loss_and_grads"),
        (rmodel, "encode", "model.encode"),
        (rmodel, "decode_step", "model.decode_step"),
        (rmodel, "load_checkpoint", "model.checkpoint_load"),
        (evaluation, "predict_with_attention", "evaluation.predict"),
        (evaluation, "batch_loss", "evaluation.batch_loss"),
        (evaluation, "score_prediction", "evaluation.score"),
    ]


# ---------------------------------------------------------------------------
# helpers


def digest(records) -> str:
    return hashlib.sha256("".join(r.smiles() + "\n" for r in records).encode()).hexdigest()


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); a single value is its own percentile."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def throughput(results: list[dict], work: str, seconds: str = "measured_s") -> float:
    """All units' ``work`` count over all their ``seconds``."""
    return sum(r[work] for r in results) / sum(r[seconds] for r in results)


def mean_latency(results: list[dict], key: str) -> list[float]:
    """Each request's mean time over the units that completed it."""
    times: dict = {}
    for result in results:
        for request, seconds in result[key].items():
            times.setdefault(request, []).append(seconds)
    return [statistics.fmean(samples) for samples in times.values()]


def set_end_to_end(run: Run, untraced: list[dict], rate, latency_key: str) -> list[float]:
    """``rate(results)`` is the workload's throughput over some units."""
    run.metrics["setup_s"] = (statistics.median(r["setup_s"] for r in untraced), "s")
    run.metrics["throughput_per_s"] = (rate(untraced), "1/s")
    latency = mean_latency(untraced, latency_key)
    run.metrics["latency_p50_ms"] = (1000 * quantile(latency, 50), "ms")
    run.metrics["latency_p90_ms"] = (1000 * quantile(latency, 90), "ms")
    run.report["requests"] = (len(latency), "count")
    run.report["units"] = (len(untraced), "count")
    return latency


def set_overhead(run: Run, untraced: list[dict], traced: list[dict], rate) -> None:
    if traced:
        share = rate(untraced) / rate(traced) - 1.0
        run.layers["trace.overhead_share"] = (share, "ratio")


def read_lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.strip().startswith("#")]


def generate(run: Run):
    """The ``rxnseq gen`` step on the shipped templates and substrates."""
    with run.span("templates.load"):
        shipped = templates.load_templates_file(DATA / "templates.txt")
        substrate_filter = templates.default_substrate_filter()
    substrates = read_lines(DATA / "substrates.smi")
    with run.span("templates.generate_dataset"):
        records, failures = templates.generate_dataset(shipped, substrates, substrate_filter)
    run.check(not failures, f"{len(failures)} template applications failed")
    return records


def normalize_all(run: Run, records):
    out = []
    for record in records:
        with run.span("pipeline.normalize"):
            ok, normalized = run.attempt(f"normalize {record.smiles()}", pipeline.normalize, record)
        if ok:
            out.append(normalized)
    return out


def encode_all(run: Run, records, input_vocab, output_vocab, buckets):
    out = []
    for record in records:
        with run.span("pipeline.encode"):
            ok, example = run.attempt(
                f"encode {record.smiles()}",
                pipeline.encode_example, record, input_vocab, output_vocab, buckets,
            )
        if ok:
            out.append(example)
    return out


def pad_counts(examples) -> dict:
    """PAD positions and all positions, encoder and decoder side."""
    enc = [e.encoder_ids for e in examples]
    dec = [e.decoder_ids for e in examples]
    return {
        "enc": (sum(s.count(pipeline.PAD_ID) for s in enc), sum(map(len, enc))),
        "dec": (sum(s.count(pipeline.PAD_ID) for s in dec), sum(map(len, dec))),
    }


def set_pad_shares(run: Run, counts: dict) -> None:
    for side, (pads, positions) in counts.items():
        run.layers[f"pipeline.{side}_pad_share"] = (pads / positions, "ratio")


def readme_config(input_vocab, output_vocab, seed: int) -> rmodel.ModelConfig:
    return rmodel.ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=LAYERS,
        embedding_dim=WIDTH,
        hidden_dim=WIDTH,
        buckets=BUCKETS,
        learning_rate=LEARNING_RATE,
        seed=seed,
    )


def probe_cells(run: Run, model: rmodel.Model, batch: int) -> None:
    """Time the public ``gru_cell_step`` and ``attention`` at one batch size."""
    params, h = model.params, model.config.hidden_dim
    rng = np.random.default_rng(run.seed)
    x = rng.standard_normal((batch, h)).astype(np.float32)
    state = rng.standard_normal((batch, h)).astype(np.float32)
    memory = rng.standard_normal((batch, BUCKETS[0][0], h)).astype(np.float32)
    for _ in range(run.size.probe_calls):
        with run.span("model.gru_step"):
            rmodel.gru_cell_step(params.enc_layers[1], x, state)
        with run.span("model.attention"):
            rmodel.attention(params, state, memory)


# ---------------------------------------------------------------------------
# prep


def render_corpus(lines: list[str], seed: int) -> list[str]:
    """One seeded random rendering per distinct map-free molecule string.

    Molecules carrying atom maps stay verbatim, so ingest still strips maps.
    Canonical form does not depend on the rendering, so the normalized
    corpus is the same for every seed.
    """
    distinct = sorted(
        {m for line in lines for part in line.split(">") if part for m in part.split(".")}
    )
    rng = random.Random(seed)
    rendering = {
        m: molgraph.random_smiles(molgraph.parse_string(m), rng.randrange(2**32))
        for m in distinct
        if not _ATOM_MAP.search(m)
    }
    return [
        ">".join(".".join(rendering.get(m, m) for m in part.split(".")) if part else "" for part in line.split(">"))
        for line in lines
    ]


def prep_pass(unit: Unit) -> dict:
    """One pass over the rendered corpus plus one ``gen``, in a fresh process."""
    run = Run.for_unit(unit)
    began = perf_counter()
    lines = read_lines(DATA / "corpus_mixed_1k.rsmi")[: unit.size.corpus_lines]
    with run.untraced():
        lines = render_corpus(lines, unit.seed * 1000 + unit.index)
    with run.span("templates.load"):
        shipped = templates.load_templates_file(DATA / "templates.txt")
        substrate_filter = templates.default_substrate_filter()
    substrates = read_lines(DATA / "substrates.smi")
    setup_s = perf_counter() - began

    latency: dict[int, float] = {}
    records, examples, numbers = [], [], []
    start = perf_counter()
    for number, line in enumerate(lines):
        run.tracer.request = f"pass{unit.index}.line{number}"
        began = perf_counter()
        with run.span("pipeline.ingest"):
            ok, ingested = run.attempt(f"ingest line {number}", pipeline.ingest_lines, [line])
        if not ok or not run.check(len(ingested[0]) == 1, f"ingest rejected line {number}"):
            continue
        with run.span("pipeline.normalize"):
            ok, record = run.attempt(f"normalize line {number}", pipeline.normalize, ingested[0][0])
        if ok:
            records.append(record)
            numbers.append(number)
            latency[number] = perf_counter() - began
    run.tracer.request = f"pass{unit.index}.vocab"
    with run.span("pipeline.build_vocabs"):
        input_vocab, output_vocab = pipeline.build_vocabs(records)
    for number, record in zip(numbers, records):
        run.tracer.request = f"pass{unit.index}.line{number}"
        began = perf_counter()
        with run.span("pipeline.encode"):
            ok, example = run.attempt(
                f"encode line {number}", pipeline.encode_example, record, input_vocab, output_vocab
            )
        latency[number] += perf_counter() - began
        if ok:
            examples.append(example)
    corpus_s = perf_counter() - start
    run.tracer.request = f"pass{unit.index}.gen"
    began = perf_counter()
    with run.span("templates.generate_dataset"):
        generated, gen_failures = templates.generate_dataset(shipped, substrates, substrate_filter)
    gen_s = perf_counter() - began
    run.tracer.request = None

    observed = digest(records)
    run.check(observed == unit.expected["prep_normalized_sha256"], f"normalized corpus digest {observed}")
    observed = digest(generated)
    run.check(observed == unit.expected["gen_sha256"], f"gen records digest {observed}")
    run.check(not gen_failures, f"{len(gen_failures)} template applications failed")
    return run.outcome(
        setup_s=setup_s,
        measured_s=corpus_s + gen_s,
        prepared=len(records) + len(generated),
        records=len(records),
        corpus_s=corpus_s,
        generated=len(generated),
        gen_s=gen_s,
        latency=latency,
        pads=pad_counts(examples),
    )


def prep(run: Run) -> None:
    untraced, traced = run.units(prep_pass)

    def rate(results):
        return throughput(results, "prepared")

    set_end_to_end(run, untraced, rate, "latency")
    run.report["prep_records_per_s"] = (throughput(untraced, "records", "corpus_s"), "1/s")
    run.report["gen_records_per_s"] = (throughput(untraced, "generated", "gen_s"), "1/s")
    set_overhead(run, untraced, traced, rate)
    if traced:
        set_pad_shares(run, traced[-1]["pads"])


# ---------------------------------------------------------------------------
# train


def train_unit(unit: Unit) -> dict:
    """Set up from the gen output and train a fresh model, in a fresh process."""
    run = Run.for_unit(unit)
    size = unit.size
    began = perf_counter()
    normalized = normalize_all(run, generate(run))
    with run.span("pipeline.split"):
        train_records, _, _ = pipeline.split_records(normalized, unit.seed)
    with run.span("pipeline.build_vocabs"):
        input_vocab, output_vocab = pipeline.build_vocabs(train_records)
    examples = encode_all(run, train_records, input_vocab, output_vocab, BUCKETS)
    model = rmodel.init_model(readme_config(input_vocab, output_vocab, unit.seed))
    setup_s = perf_counter() - began

    step_s: dict[int, float] = {}
    losses: list[float] = []
    products: list[tuple[float, float]] = []
    loop_s = 0.0
    epoch = 0
    while len(losses) < size.train_steps:
        batches = pipeline.batch_iter(examples, BATCH_SIZE, unit.seed, epoch)
        epoch += 1
        while len(losses) < size.train_steps:
            run.tracer.request = f"step{len(losses)}"
            began = perf_counter()
            with run.span("pipeline.batch_wait"):
                batch = next(batches, None)
            if batch is None:
                loop_s += perf_counter() - began
                break
            if unit.trace:
                probe_start = perf_counter()
                with run.span("model.forward"):
                    rmodel.batch_loss(model, batch.encoder, batch.decoder)
                products.append(step_cost(model.config, batch))
                began += perf_counter() - probe_start  # the probe is not training time
            step_start = perf_counter()
            ok, loss = run.attempt(f"train_step {len(losses)}", rmodel.train_step, model, batch.encoder, batch.decoder)
            done = perf_counter()
            step_s[len(losses)] = done - step_start
            loop_s += done - began
            losses.append(loss if ok else float("nan"))
            if ok:
                run.check(bool(np.isfinite(loss)), f"loss {loss} at step {len(losses)}")
    run.tracer.request = None
    window = size.loss_window
    first, last = float(np.mean(losses[:window])), float(np.mean(losses[-window:]))
    run.check(last < first, f"no progress: loss {first:.4f} -> {last:.4f}")
    if unit.trace:
        with run.span("model.probe"):
            probe_cells(run, model, BATCH_SIZE)
    return run.outcome(
        setup_s=setup_s,
        measured_s=loop_s,
        steps=len(losses),
        step_s=step_s,
        losses=losses,
        products=products,
        pads=pad_counts(examples),
    )


def step_cost(config, batch) -> tuple[float, float]:
    """Computed matmul (FLOPs, bytes) of one train_step on ``batch``."""
    target = batch.decoder[:, 1:] != pipeline.PAD_ID
    steps = int(np.nonzero(target.any(axis=0))[0][-1]) + 1
    return flops.cost(flops.train_step_products(config, len(batch), batch.encoder.shape[1], steps))


def train(run: Run) -> None:
    untraced, traced = run.units(train_unit)

    def rate(results):
        return throughput(results, "steps")

    set_end_to_end(run, untraced, rate, "step_s")
    losses = untraced[0]["losses"]
    run.check(all(r["losses"] == losses for r in untraced + traced), "losses differ between identical units")
    run.report["train_steps_per_s"] = run.metrics["throughput_per_s"]
    run.report["train_final_loss"] = (float(np.mean(losses[-run.size.loss_window :])), "nats")
    set_overhead(run, untraced, traced, rate)
    if traced:
        set_pad_shares(run, traced[-1]["pads"])
        products = traced[-1]["products"]
        run.report["model.train_step.gflop"] = (float(np.mean([f for f, _ in products])) / 1e9, "GFLOP (computed)")
        run.report["model.train_step.mbyte"] = (float(np.mean([b for _, b in products])) / 1e6, "MB (computed)")


# ---------------------------------------------------------------------------
# infer


def infer_model(run: Run) -> Path:
    """The README-shaped model trained with pinned seeds, saved with its vocabularies.

    Training is deterministic, so the checkpoint is kept next to the run's
    work directory, keyed by the package source, numpy and thread count, and
    reused by later runs in the same checkout.  Also writes the normalized
    generated records the rounds evaluate.
    """
    checkpoint = run.work / "model.rxs2"
    normalized = normalize_all(run, generate(run)[: run.size.records])
    with run.span("pipeline.split"):
        train_records, _, _ = pipeline.split_records(normalized, INFER_SPLIT_SEED)
    with run.span("pipeline.build_vocabs"):
        input_vocab, output_vocab = pipeline.build_vocabs(train_records)
    pipeline.write_reactions(normalized, run.work / "records.rsmi")
    source = environment.source_sha256(DATA.parent)
    key = hashlib.sha256(f"{source} {np.__version__} {os.environ.get('RXNSEQ_THREADS')}".encode()).hexdigest()
    cached = run.work.parent / f"infer-model-{run.size.name}-{key[:16]}"
    if not cached.is_dir():
        began = perf_counter()
        examples = encode_all(run, train_records, input_vocab, output_vocab, BUCKETS)
        model = rmodel.init_model(readme_config(input_vocab, output_vocab, INFER_MODEL_SEED))
        with run.span("model.fit"):
            rmodel.fit(model, examples, steps=run.size.infer_fit_steps, batch_size=BATCH_SIZE, seed=INFER_MODEL_SEED)
        staging = Path(tempfile.mkdtemp(dir=run.work.parent))
        with run.span("model.checkpoint_save"):
            rmodel.save_checkpoint(model, staging / checkpoint.name)
        input_vocab.save(staging / f"{checkpoint.name}.input-vocab")
        output_vocab.save(staging / f"{checkpoint.name}.output-vocab")
        staging.rename(cached)  # whole or absent, even if this run is cut short
        run.report["infer_model_s"] = (perf_counter() - began, "s")
    for path in cached.iterdir():
        shutil.copy(path, run.work / path.name)
    same = pipeline.Vocab.load(f"{checkpoint}.input-vocab") == input_vocab
    run.check(same and pipeline.Vocab.load(f"{checkpoint}.output-vocab") == output_vocab, "kept model's vocabularies differ")
    return checkpoint


def infer_round(unit: Unit) -> dict:
    """Load the saved model, evaluate, then one predict request per source."""
    run = Run.for_unit(unit)
    work = Path(unit.work)
    checkpoint = str(work / "model.rxs2")
    began = perf_counter()
    model = rmodel.load_checkpoint(checkpoint)
    input_vocab = pipeline.Vocab.load(f"{checkpoint}.input-vocab")
    output_vocab = pipeline.Vocab.load(f"{checkpoint}.output-vocab")
    records = normalize_all(run, pipeline.read_reactions(work / "records.rsmi"))
    random.Random(unit.seed).shuffle(records)
    setup_s = perf_counter() - began

    run.tracer.request = f"round{unit.index}.eval"
    began = perf_counter()
    with run.span("evaluation.evaluate"):
        ok, report = run.attempt("evaluate", evaluation.evaluate, model, records, input_vocab, output_vocab)
    eval_s = perf_counter() - began
    latency: dict[int, float] = {}
    cross_entropy = float("nan")
    evaluated = report.n if ok else 0
    if ok:
        run.check(report.skipped == 0, f"evaluate skipped {report.skipped} records")
        cross_entropy = report.mean_cross_entropy
        limit = unit.expected["infer_cross_entropy"] * CROSS_ENTROPY_SLACK
        run.check(cross_entropy <= limit, f"eval cross-entropy {cross_entropy} > {limit}")
        for row in report.rows:
            run.tracer.request = f"round{unit.index}.predict{row.index}"
            out = io.StringIO()
            argv = ["predict", "--checkpoint", checkpoint, "--input", row.source]
            began = perf_counter()
            with run.span("cli.predict"), contextlib.redirect_stdout(out):
                ok, status = run.attempt(f"predict {row.source}", cli.main, argv)
            latency[row.index] = perf_counter() - began
            printed = out.getvalue().strip()
            run.check(
                ok and status == 0 and printed == row.predicted,
                f"predict {row.source!r}: exit {status}, printed {printed!r}, evaluate predicted {row.predicted!r}",
            )
    run.tracer.request = None
    pads = None
    if unit.trace:
        pads = pad_counts(encode_all(run, records, input_vocab, output_vocab, BUCKETS))
        with run.span("model.probe"):
            probe_cells(run, model, 1)
    return run.outcome(
        setup_s=setup_s,
        measured_s=eval_s + sum(latency.values()),
        evaluated=evaluated,
        eval_s=eval_s,
        cross_entropy=cross_entropy,
        latency=latency,
        pads=pads,
    )


def infer(run: Run) -> None:
    if run.trace:
        run.install()
    try:
        checkpoint = infer_model(run)
    finally:
        run.restore()
    untraced, traced = run.units(infer_round)

    def rate(results):
        return throughput(results, "evaluated", "eval_s")

    latency = set_end_to_end(run, untraced, rate, "latency")
    cross_entropy = untraced[0]["cross_entropy"]
    same = all(r["cross_entropy"] == cross_entropy for r in untraced + traced)
    run.check(same, "evaluate's cross-entropy differs between identical rounds")
    run.report["eval_records_per_s"] = run.metrics["throughput_per_s"]
    run.report["eval_mean_cross_entropy"] = (cross_entropy, "nats")
    run.report["predict_p50_ms"] = run.metrics["latency_p50_ms"]
    run.report["predict_p95_ms"] = (1000 * quantile(latency, 95), "ms")
    run.report["predict_samples"] = (len(latency), "count")
    set_overhead(run, untraced, traced, rate)
    if traced:
        set_pad_shares(run, traced[-1]["pads"])
        config = rmodel.load_checkpoint(checkpoint).config
        step_flops, step_bytes = flops.cost(flops.decode_step_products(config, 1, BUCKETS[0][0]))
        run.report["model.decode_step.mflop"] = (step_flops / 1e6, "MFLOP (computed)")
        run.report["model.decode_step.kbyte"] = (step_bytes / 1e3, "kB (computed)")


WORKLOADS = {"prep": prep, "train": train, "infer": infer}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(run: Run) -> None:
    """Derive the traced run's per-layer metrics; every ``.s`` is self time."""
    spans = run.tracer.summary()
    layers = run.layers
    for name in ("smiles.tokenize", "molgraph.parse", "molgraph.canon", "templates.apply"):
        layers[f"{name}.calls"] = (spans.calls[name], "count")
    for name in ("smiles.tokenize", "molgraph.parse", "molgraph.canon", "templates.enumerate",
                 "templates.apply", "pipeline.encode"):
        layers[f"{name}.s"] = (spans.self_s(name), "s")
    layers["molgraph.canon.p99_ms"] = (spans.self_quantile_ms("molgraph.canon", 99), "ms")
    # A memo lives in one process, so repeats are counted per process.
    notes = [run.tracer.notes, *run.unit_notes]
    inputs = [n.get("molgraph.canon", []) for n in notes]
    repeats = sum(len(x) - len(set(x)) for x in inputs)
    total = sum(map(len, inputs))
    layers["molgraph.canon.repeat_share"] = (repeats / total if total else 0.0, "ratio")
    produced = [count for n in notes for count in n.get("templates.apply", [])]
    layers["templates.apply.yield"] = (sum(produced) / len(produced) if produced else 0.0, "ratio")
    layers["pipeline.normalize.self_s"] = (spans.self_s("pipeline.normalize"), "s")
    for layer in ("smiles", "molgraph", "templates", "pipeline"):
        layers[f"{layer}.self_s"] = (spans.layer_self_ns[layer] / 1e9, "s")

    # Workload-specific detail, for the layers and functions this workload
    # reaches: printed and recorded, not in the result line.
    report = run.report

    def ran(name: str) -> bool:
        return spans.calls[name] > 0

    for layer in ("model", "evaluation", "cli"):
        if spans.layer_self_ns[layer]:
            report[f"{layer}.self_s"] = (spans.layer_self_ns[layer] / 1e9, "s")
    for name in ("pipeline.ingest", "molgraph.fingerprint", "evaluation.predict",
                 "evaluation.batch_loss", "evaluation.score"):
        if ran(name):
            report[f"{name}.s"] = (spans.self_s(name), "s")
    if ran("molgraph.fingerprint"):
        report["molgraph.fingerprint.calls"] = (spans.calls["molgraph.fingerprint"], "count")
    if ran("pipeline.batch_wait"):
        report["pipeline.batch_wait.s"] = (spans.total_s("pipeline.batch_wait"), "s")
    if ran("model.train_step"):
        step_ms = spans.mean_ms("model.train_step")
        grads_ms = spans.mean_ms("model.loss_and_grads")
        report["model.train_step.ms"] = (step_ms, "ms")
        report["model.update.ms"] = (step_ms - grads_ms, "ms")
        if ran("model.forward"):
            report["model.forward.ms"] = (spans.mean_ms("model.forward"), "ms")
            report["model.backward.ms"] = (grads_ms - spans.mean_ms("model.forward"), "ms")
        if "model.train_step.gflop" in report:
            rate = report["model.train_step.gflop"][0] / (step_ms / 1000)
            report["model.train_step.gflop_per_s"] = (rate, "GFLOP/s (computed/measured)")
    if ran("model.gru_step"):
        report["model.gru_step.us"] = (1000 * spans.mean_ms("model.gru_step"), "us")
        report["model.attention.us"] = (1000 * spans.mean_ms("model.attention"), "us")
    if ran("model.decode_step"):
        report["model.encode.ms"] = (spans.mean_ms("model.encode"), "ms")
        report["model.decode_step.us"] = (1000 * spans.mean_ms("model.decode_step"), "us")
        per_prediction = spans.calls["model.decode_step"] / spans.calls["model.encode"]
        report["model.decode_steps_per_pred"] = (per_prediction, "count")
    for name in ("model.checkpoint_load", "model.checkpoint_save"):
        if ran(name):
            report[f"{name}.ms"] = (spans.mean_ms(name), "ms")
    if ran("cli.predict"):
        self_ms = spans.self_s("cli.predict") * 1000 / spans.calls["cli.predict"]
        report["cli.predict.self_ms"] = (self_ms, "ms")
    report["spans"] = (len(run.tracer.spans), "count")
