import dataclasses
import functools
import hashlib
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest

from rxnseq import model as m
from rxnseq.model import (
    AttentionRecord,
    BadMagic,
    CheckpointError,
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
    predict_with_attention,
    save_checkpoint,
    train_step,
)
from rxnseq.pipeline import (
    EOS_ID,
    GO_ID,
    PAD_ID,
    BucketSpec,
    Vocab,
    batch_iter,
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


class TestSigmoid:
    # The tolerance is fixed from the dtype: the 2 eps `_sigmoid` promises.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_logistic_function_within_two_eps(self, dtype):
        x = np.concatenate([[-1e30], np.linspace(-100, 100, 20001), [1e30]]).astype(dtype)
        with np.errstate(over="ignore"):
            exact = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        got = m._sigmoid(x)
        assert got.dtype == dtype
        assert np.abs(got - exact).max() <= 2 * np.finfo(dtype).eps
        assert got.min() >= 0.0 and got.max() <= 1.0
        assert (np.diff(got) >= 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raises_nothing_at_any_magnitude(self, dtype):
        info = np.finfo(dtype)
        x = np.array([-np.inf, info.min, -1e30, -90.0, -0.0, info.tiny, 90.0, info.max, np.inf], dtype)
        with np.errstate(all="raise"):
            got = m._sigmoid(x)
        assert got[0] == 0.0 and got[-1] == 1.0 and got[4] == 0.5


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

    def test_leading_pads_are_inert(self):
        built = init_model(tiny_config(seed=3))
        body = np.array([5, 6, 7, 4], dtype=np.int64)
        bare_memory, bare_finals = encode(built, body)
        for pads in (1, 3, 7):  # any width, not just the bucket's
            memory, finals = encode(built, np.concatenate([np.zeros(pads, np.int64), body]))
            assert not memory[:pads].any()
            assert np.array_equal(memory[pads:], bare_memory)
            for a, b in zip(finals, bare_finals):
                assert np.array_equal(a, b)
        enc, _ = tiny_batch()  # rows with different PAD counts share columns
        memory, finals = encode(built, enc)
        for row in range(len(enc)):
            pads = int((enc[row] == PAD_ID).sum())
            alone, alone_finals = encode(built, enc[row, pads:])
            assert not memory[row, :pads].any()
            assert np.allclose(memory[row, pads:], alone, rtol=0, atol=1e-6)
            for a, b in zip(finals, alone_finals):
                assert np.allclose(a[row], b, rtol=0, atol=1e-6)

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

    def test_pad_bias_weights_match_masked_scores_bit_for_bit(self):
        rng = np.random.default_rng(8)
        e = rng.normal(size=(2000, 9)).astype(np.float32)
        e[rng.random(e.shape) < 0.1] = -0.0
        e[rng.random(e.shape) < 0.1] = 0.0
        pad = np.arange(9) < rng.integers(0, 9, size=(2000, 1))  # masked prefixes
        masked = m._softmax(np.where(pad, -np.inf, e), axis=1)
        biased = m._softmax(e + m._pad_bias(pad, np.float32), axis=1)
        assert biased.dtype == np.float32
        assert masked.tobytes() == biased.tobytes()

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
                logits, stack, _ = decode_step(
                    built, prev, stack, memory, enc[row] == PAD_ID
                )
                shifted = logits - logits.max()
                picked.append(shifted[target] - np.log(np.exp(shifted).sum()))
                prev = target
            expected = batch_loss(built, enc[row : row + 1], dec[row : row + 1])
            assert abs(-np.mean(picked) - expected) < 1e-6


class TestPadding:
    def test_source_at_two_widths_predicts_identical_ids(self):
        built, example, *_ = overfit_single()
        body = [i for i in example.encoder_ids if i != PAD_ID]
        narrow, wide = predict_with_attention(built, [body, [PAD_ID] * 9 + body])
        assert narrow.ids == wide.ids
        assert np.all(wide.weights[:, :9] == 0.0)
        assert np.allclose(wide.weights[:, 9:], narrow.weights, rtol=1e-5, atol=1e-7)
        untrained = init_model(tiny_config(seed=2))
        short, padded = predict_with_attention(
            untrained, [[5, 6, 7, 4, 4], [0, 0, 5, 6, 7, 4, 4]]
        )
        assert short.ids == padded.ids

    def test_pad_weights_are_exactly_zero_in_batch_decoding(self):
        built = init_model(tiny_config(seed=4))
        enc, _ = tiny_batch()
        memory, stack, ma, bias = m._encoder_pass(built, enc)
        _, _, weights = m._greedy(built, memory, ma, bias, stack)
        pad = enc == PAD_ID
        for w in weights.transpose(1, 0, 2):
            assert np.all(w[pad] == 0.0)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-6)

    def test_batch_loss_ignores_the_pad_prefix(self):
        built = init_model(tiny_config(seed=6), dtype=np.float64)
        enc, dec = tiny_batch()
        for row in range(len(enc)):
            body = enc[row][enc[row] != PAD_ID]
            alone = batch_loss(built, body[None, :], dec[row : row + 1])
            padded = batch_loss(built, enc[row : row + 1], dec[row : row + 1])
            assert abs(alone - padded) < 1e-12

    def test_all_pad_row_is_a_clear_error(self):
        built = init_model(tiny_config())
        enc, dec = tiny_batch()
        enc[1] = PAD_ID
        with pytest.raises(ValueError, match="only PAD"):
            batch_loss(built, enc, dec)
        with pytest.raises(ValueError, match="only PAD"):
            next(predict_with_attention(built, [[PAD_ID] * 7]))


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
        built = init_model(tiny_config(seed=13, learning_rate=1.0))
        enc, dec = tiny_batch()
        losses = [train_step(built, enc, dec) for _ in range(50)]
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

    def test_interior_pads_carry_gradient_past_the_cell(self):
        # The encoders only prefix PADs; encode and loss_and_grads accept any
        # ids, and a row keeps its state across an interior PAD as well.
        built = init_model(tiny_config(seed=19), dtype=np.float64)
        enc = np.array([[5, 0, 6, 7, 0, 4, 4], [4, 4, 0, 5, 5, 6, 7]], dtype=np.int64)
        _, dec = tiny_batch()
        _, grads = loss_and_grads(built, enc, dec)
        eps = 1e-5
        for (name, arr), (_, g) in zip(built.params.named(), grads.named()):
            if not name.startswith("enc"):
                continue
            numeric = np.zeros_like(arr)
            flat, nflat = arr.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                up = batch_loss(built, enc, dec)
                flat[i] = keep - eps
                down = batch_loss(built, enc, dec)
                flat[i] = keep
                nflat[i] = (up - down) / (2 * eps)
            err = relative_errors(g, numeric).max()
            assert err < 1e-4, f"{name}: max relative error {err}"


def arrays_in(obj):
    """Every array in a nest of tuples and lists, with each array it views."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays_in(item)
    elif isinstance(obj, np.ndarray):
        while obj is not None:
            yield obj
            obj = obj.base


def step_peak_bytes(built, enc_len: int, dec_len: int) -> int:
    rng = np.random.default_rng(enc_len)
    enc = rng.integers(4, 40, (32, enc_len))
    dec = rng.integers(4, 40, (32, dec_len))
    dec[:, 0] = GO_ID
    tracemalloc.start()
    try:
        loss_and_grads(built, enc, dec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainingMemory:
    def test_step_memory_grows_linearly_with_sequence_length(self):
        # Linear growth predicts (66+40)/(30+18) = 2.2; caching a (batch,
        # length, hidden) array per decoder step grows with 66*40/(30*18) = 4.9.
        config = tiny_config(
            input_vocab_size=40, output_vocab_size=40, embedding_dim=64, hidden_dim=64
        )
        built = init_model(config)
        step_peak_bytes(built, 4, 3)  # one-time allocations outside the ratio
        short = step_peak_bytes(built, 30, 18)
        long = step_peak_bytes(built, 66, 40)
        assert long / short <= 2.5, (short, long)

    def test_decoder_step_caches_hold_no_attention_tanh(self):
        built = init_model(tiny_config(seed=4))
        enc, dec = tiny_batch()
        step_caches: list = []
        memory, stack, ma, bias = m._encoder_pass(built, enc)
        m._teacher_forced(built.params, memory, ma, bias, stack, dec, step_caches)
        assert step_caches
        for arr in arrays_in(step_caches):
            assert arr.size != memory.size, arr.shape

    def test_encoder_caches_store_each_state_once(self):
        built = init_model(tiny_config(seed=4))
        enc, _ = tiny_batch()
        caches: list = []
        memory, *_ = m._encoder_pass(built, enc, caches)
        start = enc.shape[1] - len(caches[0])
        assert start == 1  # the all-PAD first column is skipped
        outputs = [layer_caches[0][0].base for layer_caches in caches[1:]] + [memory]
        for layer_caches, out in zip(caches, outputs):
            for k, (_, h, *_) in enumerate(layer_caches[1:], start=1):
                assert np.shares_memory(h, out[:, start + k - 1])


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
        (decoded,) = predict_with_attention(built, [example.encoder_ids])
        assert decoded.text(output_vocab) == record.products[0]

    def test_greedy_decode_deterministic(self):
        built, example, *_ = overfit_single()
        (first,) = predict_with_attention(built, [example.encoder_ids])
        (second,) = predict_with_attention(built, [example.encoder_ids])
        assert first.ids == second.ids
        assert np.array_equal(first.weights, second.weights)

    def test_attention_rows_normalized(self):
        built, example, *_ = overfit_single()
        (decoded,) = predict_with_attention(built, [example.encoder_ids])
        assert decoded.ids[-1] == EOS_ID  # EOS step keeps its trace
        assert decoded.weights.shape == (len(decoded.ids), 16)
        assert np.allclose(decoded.weights.sum(axis=1), 1.0, atol=1e-5)

    def test_predict_with_attention_is_the_decode_step_loop_bit_for_bit(self):
        trained, example, _, output_vocab, _ = overfit_single()
        untrained = init_model(tiny_config(seed=2))  # emits GO until the limit
        cases = [
            (trained, np.array(example.encoder_ids), output_vocab),
            # the tiny config's nine output ids
            (untrained, np.array([0, 0, 5, 6, 7, 4, 4]), Vocab(list("abcde"))),
        ]
        for built, enc, vocab in cases:
            memory, stack = encode(built, enc)
            prev, tokens, scores, weights = GO_ID, [], [], []
            for _ in range(built.config.buckets[0][1] - 1):
                logits, stack, record = decode_step(
                    built, prev, stack, memory, enc == PAD_ID
                )
                prev = int(np.argmax(logits))
                tokens.append(prev)
                scores.append(record.scores)
                weights.append(record.weights)
                if prev == EOS_ID:
                    break
            (decoded,) = predict_with_attention(built, [enc])
            assert decoded.ids == tokens
            assert decoded.cross_entropy is None
            regular = [t for t in tokens if t not in (PAD_ID, GO_ID, EOS_ID)]
            assert decoded.text(vocab) == "".join(vocab.token_of(t) for t in regular)
            assert np.array_equal(decoded.scores, scores)
            assert np.array_equal(decoded.weights, weights)

    def test_fit_deterministic(self):
        a = build_overfit_single()[4].losses
        b = overfit_single()[4].losses
        assert a == b

    def test_fit_is_train_step_over_batch_iter_epochs_bit_for_bit(self):
        # A small rate keeps the loss almost flat, so any rule reacting to
        # loss noise would change the rate partway through.
        records = [
            normalize(parse_record(line))
            for line in ("CC=C(C)C.Cl>>CCC(C)(C)Cl", "C=C.Br>>CCBr", "C1=CCCCC1.Br>>BrC1CCCCC1")
        ]
        input_vocab, output_vocab = build_vocabs(records)
        buckets = BucketSpec(((16, 16),))
        examples = [encode_example(r, input_vocab, output_vocab, buckets) for r in records]
        config = tiny_config(
            input_vocab_size=len(input_vocab),
            output_vocab_size=len(output_vocab),
            buckets=buckets,
            learning_rate=1e-4,
        )
        fitted, looped = init_model(config), init_model(config)
        steps, batch_size, seed = 160, 2, 4
        log = fit(fitted, examples, steps=steps, batch_size=batch_size, seed=seed)
        epochs = (batch_iter(examples, batch_size, seed, epoch) for epoch in itertools.count())
        batches = itertools.islice(itertools.chain.from_iterable(epochs), steps)
        losses = [train_step(looped, b.encoder, b.decoder) for b in batches]
        assert log.losses == losses
        for (name, a), (_, b) in zip(fitted.params.named(), looped.params.named()):
            assert a.tobytes() == b.tobytes(), name


# One layer a side and two units, so every byte of its 1378-byte file can be
# cut or changed in about a second.
SMALLEST = tiny_config(num_layers=1, embedding_dim=2, hidden_dim=2)


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
            == "872ce88d5a622585e1c369265667fc1f4a3fdcd36107b9de97b0b5a649ec309d"
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

    def test_version_one_file_is_refused(self, tmp_path):
        # Version-1 weights were trained with PADs that carry state.
        path = tmp_path / "model.rxs2"
        save_checkpoint(init_model(tiny_config()), path)
        data = bytearray(path.read_bytes())
        assert data[4:8] == (2).to_bytes(4, "little")
        data[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch, match="version 1"):
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
        # every proper prefix, so a cut inside any field is covered
        path = tmp_path / "model.rxs2"
        save_checkpoint(init_model(SMALLEST), path)
        data = path.read_bytes()
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(TruncatedFile):
                load_checkpoint(path)

    def test_one_byte_corruptions_fail_as_checkpoint_errors(self, tmp_path):
        # A changed byte may load (a payload byte) or fail, but only ever as
        # a CheckpointError.
        path = tmp_path / "model.rxs2"
        save_checkpoint(init_model(SMALLEST), path)
        data = path.read_bytes()
        rng = np.random.default_rng(0)
        for where in range(len(data)):
            corrupt = bytearray(data)
            corrupt[where] ^= int(rng.integers(1, 256))
            path.write_bytes(bytes(corrupt))
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass

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

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ModelConfig)]
    )
    def test_missing_config_key_is_config_mismatch(self, tmp_path, name):
        path = tmp_path / "model.rxs2"
        save_checkpoint(init_model(tiny_config()), path)
        data = path.read_bytes()
        (length,) = struct.unpack("<I", data[8:12])
        lines = data[12 : 12 + length].splitlines(keepends=True)
        config = b"".join(x for x in lines if not x.startswith(f"{name}=".encode()))
        assert len(config) < length
        rest = data[12 + length :]
        path.write_bytes(data[:8] + struct.pack("<I", len(config)) + config + rest)
        with pytest.raises(ConfigMismatch, match=name):
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
