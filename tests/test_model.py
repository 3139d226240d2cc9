import functools
import hashlib
import math
import struct

import numpy as np
import pytest

from rxnseq import model as m
from rxnseq.model import (
    AttentionRecord,
    BadMagic,
    ConfigMismatch,
    DimensionMismatch,
    Model,
    ModelConfig,
    NonFiniteLoss,
    TruncatedFile,
    UnknownId,
    VersionMismatch,
    attention,
    batch_loss,
    decode_step,
    encode,
    fit,
    gru_cell_step,
    init_model,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict,
    predict_with_attention,
    save_checkpoint,
    train_step,
)
from rxnseq.pipeline import (
    EOS_ID,
    GO_ID,
    PAD_ID,
    BucketSpec,
    build_vocabs,
    encode_example,
    normalize,
    parse_record,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        input_vocab_size=8,
        output_vocab_size=9,
        num_layers=3,
        embedding_dim=4,
        hidden_dim=5,
        buckets=BucketSpec(((7, 8),)),
        learning_rate=0.5,
        gradient_clip_norm=5.0,
        seed=11,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_batch():
    enc = np.array([[0, 0, 5, 6, 7, 4, 4], [0, 4, 4, 5, 5, 6, 7]], dtype=np.int64)
    dec = np.array(
        [[GO_ID, 4, 5, 6, EOS_ID, 0, 0, 0], [GO_ID, 7, 8, EOS_ID, 0, 0, 0, 0]],
        dtype=np.int64,
    )
    return enc, dec


def zeroed_model(config) -> Model:
    built = init_model(config)
    for _, arr in built.params.named():
        arr[:] = 0.0
    return built


class TestConfig:
    def test_rejects_small_vocab(self):
        with pytest.raises(ValueError):
            tiny_config(input_vocab_size=3)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            tiny_config(hidden_dim=0)
        with pytest.raises(ValueError):
            tiny_config(learning_rate=0.0)


def reference_gru(layer, x, h):
    """Element-by-element transcription of the gate formulas."""
    input_dim, hidden = layer.w.shape[0], layer.u.shape[0]
    w_z, w_r, w_h = np.split(layer.w, 3, axis=1)
    u_z, u_r, u_h = np.split(layer.u, 3, axis=1)
    b_z, b_r, b_h = np.split(layer.b, 3)
    z = np.zeros(hidden)
    r = np.zeros(hidden)
    for j in range(hidden):
        a_z = b_z[j]
        a_r = b_r[j]
        for i in range(input_dim):
            a_z += x[i] * w_z[i, j]
            a_r += x[i] * w_r[i, j]
        for k in range(hidden):
            a_z += h[k] * u_z[k, j]
            a_r += h[k] * u_r[k, j]
        z[j] = 1.0 / (1.0 + math.exp(-a_z))
        r[j] = 1.0 / (1.0 + math.exp(-a_r))
    out = np.zeros(hidden)
    for j in range(hidden):
        a_h = b_h[j]
        for i in range(input_dim):
            a_h += x[i] * w_h[i, j]
        for k in range(hidden):
            a_h += r[k] * h[k] * u_h[k, j]
        out[j] = (1.0 - z[j]) * h[j] + z[j] * math.tanh(a_h)
    return out


class TestGruCell:
    def test_zero_params_halve_the_state(self):
        layer = zeroed_model(tiny_config()).params.enc_layers[1]
        h = np.array([0.4, -1.0, 2.0, 0.0, 1.0])
        x = np.ones(5)
        # z = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0.
        assert np.allclose(gru_cell_step(layer, x, h), 0.5 * h)

    def test_zero_state_stays_zero_under_zero_params(self):
        layer = zeroed_model(tiny_config()).params.enc_layers[1]
        out = gru_cell_step(layer, np.ones(5), np.zeros(5))
        assert np.allclose(out, 0.0)

    def test_matches_looped_reference(self):
        rng = np.random.default_rng(7)
        params = init_params(tiny_config(seed=21), dtype=np.float64)
        for layer in (params.enc_layers[0], params.enc_layers[2], params.dec_layers[1]):
            input_dim = layer.w.shape[0]
            for _ in range(10):
                x = rng.normal(size=input_dim)
                h = rng.normal(size=5)
                assert np.allclose(
                    gru_cell_step(layer, x, h), reference_gru(layer, x, h), atol=1e-12
                )

    def test_batched_rows_match_single_rows(self):
        params = init_params(tiny_config(seed=4), dtype=np.float64)
        layer = params.enc_layers[1]
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(3, 5))
        hs = rng.normal(size=(3, 5))
        batched = gru_cell_step(layer, xs, hs)
        for i in range(3):
            assert np.allclose(batched[i], gru_cell_step(layer, xs[i], hs[i]))

    def test_dimension_mismatch(self):
        layer = init_params(tiny_config()).enc_layers[0]
        with pytest.raises(DimensionMismatch):
            gru_cell_step(layer, np.zeros(9), np.zeros(5))


class TestEncode:
    def test_shapes(self):
        built = init_model(tiny_config())
        memory, finals = encode(built, np.zeros(7, dtype=np.int64))
        assert memory.shape == (7, 5)
        assert len(finals) == 3 and all(f.shape == (5,) for f in finals)

    def test_zero_params_give_zero_states(self):
        built = zeroed_model(tiny_config())
        memory, finals = encode(built, np.zeros(7, dtype=np.int64))
        assert np.allclose(memory, 0.0)
        assert all(np.allclose(f, 0.0) for f in finals)

    def test_prefix_causality(self):
        built = init_model(tiny_config(seed=3))
        a = np.array([4, 5, 6, 7, 4, 5, 6], dtype=np.int64)
        b = a.copy()
        b[3:] = [6, 7, 4, 5]
        mem_a, _ = encode(built, a)
        mem_b, _ = encode(built, b)
        assert np.allclose(mem_a[:3], mem_b[:3])
        assert not np.allclose(mem_a[3:], mem_b[3:])

    def test_non_bucket_length_rejected(self):
        built = init_model(tiny_config())
        with pytest.raises(DimensionMismatch):
            encode(built, np.zeros(6, dtype=np.int64))

    def test_unknown_id_rejected(self):
        built = init_model(tiny_config())
        bad = np.array([0, 0, 0, 0, 0, 0, 99], dtype=np.int64)
        with pytest.raises(UnknownId):
            encode(built, bad)


class TestAttention:
    def test_uniform_weights_for_equal_scores(self):
        params = zeroed_model(tiny_config()).params
        memory = np.random.default_rng(1).normal(size=(7, 5))
        context, record = attention(params, np.zeros(5), memory)
        assert np.allclose(record.weights, 1.0 / 7.0)
        assert np.allclose(context, memory.mean(axis=0), atol=1e-12)

    def test_saturated_score_takes_all_weight(self):
        params = zeroed_model(tiny_config()).params
        params.attn_m[:] = np.eye(5) * 10.0
        params.attn_v[:] = np.array([2000.0, 0.0, 0.0, 0.0, 0.0])
        memory = -np.ones((4, 5))
        memory[2] = 1.0  # scores: -2000 everywhere except +2000 at row 2
        _, record = attention(params, np.zeros(5), memory)
        assert record.scores[2] > record.scores[0] + 1000
        assert record.weights[2] > 1.0 - 1e-9

    def test_weights_normalized_for_random_inputs(self):
        params = init_params(tiny_config(seed=9))
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, record = attention(
                params, rng.normal(size=5), rng.normal(size=(7, 5))
            )
            assert record.weights.min() >= 0.0
            assert abs(record.weights.sum() - 1.0) < 1e-5

    def test_dimension_mismatch(self):
        params = init_params(tiny_config())
        with pytest.raises(DimensionMismatch):
            attention(params, np.zeros(4), np.zeros((7, 5)))


class TestDecodeStep:
    def test_logits_shape_and_normalization(self):
        built = init_model(tiny_config(seed=8))
        memory, finals = encode(built, np.zeros(7, dtype=np.int64))
        logits, new_stack, record = decode_step(built, GO_ID, finals, memory)
        assert logits.shape == (9,)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert abs(probs.sum() - 1.0) < 1e-6
        assert len(new_stack) == 3
        assert record.weights.shape == (7,)

    def test_wrong_stack_depth(self):
        built = init_model(tiny_config())
        memory, finals = encode(built, np.zeros(7, dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            decode_step(built, GO_ID, finals[:2], memory)

    def test_fed_reference_prefix_reproduces_teacher_forced_loss(self):
        built = init_model(tiny_config(seed=8), dtype=np.float64)
        enc, dec = tiny_batch()
        for row in range(len(enc)):
            memory, stack = encode(built, enc[row])
            targets = [t for t in dec[row, 1:] if t != PAD_ID]
            prev = GO_ID
            picked = []
            for target in targets:
                logits, stack, _ = decode_step(built, prev, stack, memory)
                shifted = logits - logits.max()
                picked.append(shifted[target] - np.log(np.exp(shifted).sum()))
                prev = target
            expected = batch_loss(built, enc[row : row + 1], dec[row : row + 1])
            assert abs(-np.mean(picked) - expected) < 1e-6


class TestLoss:
    def test_initial_loss_near_log_vocab(self):
        built = init_model(tiny_config(seed=2))
        enc, dec = tiny_batch()
        loss = batch_loss(built, enc, dec)
        assert abs(loss - math.log(9)) < 0.1 * math.log(9)

    def test_duplicated_batch_same_loss(self):
        built = init_model(tiny_config(seed=2))
        enc, dec = tiny_batch()
        single = batch_loss(built, enc[:1], dec[:1])
        doubled = batch_loss(built, np.repeat(enc[:1], 2, 0), np.repeat(dec[:1], 2, 0))
        assert abs(single - doubled) < 1e-6

    def test_all_pad_targets_rejected(self):
        built = init_model(tiny_config())
        enc, dec = tiny_batch()
        dec = np.full_like(dec, PAD_ID)
        dec[:, 0] = GO_ID
        with pytest.raises(ValueError):
            batch_loss(built, enc, dec)

    def test_loss_strictly_decreases_on_repeated_batch(self):
        built = init_model(tiny_config(seed=13))
        enc, dec = tiny_batch()
        losses = [train_step(built, enc, dec, learning_rate=1.0) for _ in range(50)]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.6 * losses[0]

    def test_non_finite_loss_raises(self):
        built = init_model(tiny_config())
        built.params.out_b[:] = np.nan
        enc, dec = tiny_batch()
        with pytest.raises(NonFiniteLoss):
            train_step(built, enc, dec)


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    # Central differences at eps=1e-5 carry ~1e-10 absolute noise; the scale
    # floor keeps vanishing-magnitude elements from amplifying that noise
    # into false alarms while still catching any systematically wrong term.
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return np.abs(analytic - numeric) / scale


class TestGradients:
    def test_matches_central_finite_differences(self):
        built = init_model(tiny_config(seed=17), dtype=np.float64)
        enc, dec = tiny_batch()
        _, grads = loss_and_grads(built, enc, dec)
        eps = 1e-5
        worst = 0.0
        for (name, arr), (_, g) in zip(built.params.named(), grads.named()):
            numeric = np.zeros_like(arr)
            flat = arr.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                up = batch_loss(built, enc, dec)
                flat[i] = keep - eps
                down = batch_loss(built, enc, dec)
                flat[i] = keep
                nflat[i] = (up - down) / (2 * eps)
            err = relative_errors(g, numeric).max()
            worst = max(worst, err)
            assert err < 1e-4, f"{name}: max relative error {err}"
        assert worst < 1e-4


def build_overfit_single():
    record = normalize(parse_record("CC=C(C)C.Cl>>CCC(C)(C)Cl"))
    input_vocab, output_vocab = build_vocabs([record])
    buckets = BucketSpec(((16, 16),))
    example = encode_example(record, input_vocab, output_vocab, buckets)
    config = ModelConfig(
        input_vocab_size=len(input_vocab),
        output_vocab_size=len(output_vocab),
        num_layers=3,
        embedding_dim=24,
        hidden_dim=32,
        buckets=buckets,
        learning_rate=1.0,
        seed=5,
    )
    built = init_model(config)
    log = fit(built, [example], steps=400, batch_size=1, seed=1)
    return built, example, record, output_vocab, log


@functools.cache
def overfit_single():
    return build_overfit_single()


class TestTraining:
    def test_memorizes_single_reaction(self):
        built, example, record, output_vocab, log = overfit_single()
        assert log.losses[-1] < 0.1
        ids = predict(built, np.array(example.encoder_ids))
        text = "".join(output_vocab.token_of(i) for i in ids)
        assert text == record.products[0]

    def test_greedy_decode_deterministic(self):
        built, example, *_ = overfit_single()
        enc = np.array(example.encoder_ids)
        assert predict(built, enc) == predict(built, enc)

    def test_max_len_zero_gives_empty(self):
        built, example, *_ = overfit_single()
        assert predict(built, np.array(example.encoder_ids), max_len=0) == []

    def test_attention_rows_normalized(self):
        built, example, *_ = overfit_single()
        ids, records = predict_with_attention(built, np.array(example.encoder_ids))
        assert len(records) == len(ids) + 1  # EOS step keeps its trace
        for record in records:
            assert record.weights.shape == (16,)
            assert abs(record.weights.sum() - 1.0) < 1e-5

    def test_fit_deterministic(self):
        a = build_overfit_single()[4].losses
        b = overfit_single()[4].losses
        assert a == b


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        built = init_model(tiny_config(seed=23))
        path = tmp_path / "model.rxs2"
        save_checkpoint(built, path)
        loaded = load_checkpoint(path)
        assert loaded.config == built.config
        for (name, a), (_, b) in zip(built.params.named(), loaded.params.named()):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    def test_init_checkpoint_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "model.rxs2"
        save_checkpoint(init_model(tiny_config(seed=23)), path)
        data = path.read_bytes()
        assert len(data) == 6614
        assert (
            hashlib.sha256(data).hexdigest()
            == "c3a1e9e16b2cb1135dcedf126b675b50c77489bb292ae9844200350d808002ae"
        )

    def test_save_deterministic_bytes(self, tmp_path):
        built = init_model(tiny_config(seed=23))
        p1, p2 = tmp_path / "a.rxs2", tmp_path / "b.rxs2"
        save_checkpoint(built, p1)
        save_checkpoint(built, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        built = init_model(tiny_config())
        path = tmp_path / "model.rxs2"
        save_checkpoint(built, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        built = init_model(tiny_config())
        path = tmp_path / "model.rxs2"
        save_checkpoint(built, path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        built = init_model(tiny_config())
        path = tmp_path / "model.rxs2"
        save_checkpoint(built, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedFile):
            load_checkpoint(path)

    def test_config_mismatch_on_expected(self, tmp_path):
        built = init_model(tiny_config())
        path = tmp_path / "model.rxs2"
        save_checkpoint(built, path)
        other = tiny_config(input_vocab_size=12)
        with pytest.raises(ConfigMismatch):
            load_checkpoint(path, expected=other)

    def test_trailing_garbage_rejected(self, tmp_path):
        built = init_model(tiny_config())
        path = tmp_path / "model.rxs2"
        save_checkpoint(built, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ConfigMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"buckets=7:8", b"buckets=7;8"),
            (b"seed=11", b"seed=\xff1"),
            (b"enc.0.w_z", b"enc.0.w_\xff"),
        ],
        ids=["bad-buckets", "config-not-utf8", "name-not-utf8"],
    )
    def test_corrupt_text_is_config_mismatch(self, tmp_path, old, new):
        path = tmp_path / "model.rxs2"
        save_checkpoint(init_model(tiny_config()), path)
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        with pytest.raises(ConfigMismatch):
            load_checkpoint(path)

    def test_oversized_config_is_config_mismatch(self, tmp_path):
        path = tmp_path / "model.rxs2"
        save_checkpoint(init_model(tiny_config()), path)
        data = path.read_bytes()
        (length,) = struct.unpack("<I", data[8:12])
        config = data[12 : 12 + length].replace(
            b"input_vocab_size=8", b"input_vocab_size=80000000000"
        )
        rest = data[12 + length :]
        path.write_bytes(data[:8] + struct.pack("<I", len(config)) + config + rest)
        with pytest.raises(ConfigMismatch):
            load_checkpoint(path)
