"""Encoder-decoder translation model over reaction token ids.

Three stacked GRU layers on each side, additive attention queried by the
incoming top decoder state, and a linear projection of [top state; context]
to output-vocabulary logits.  Everything — forward, backpropagation through
time, SGD with global-norm clipping, greedy decoding, checkpointing — is
implemented directly on numpy arrays so gradients can be audited against
finite differences.

Each GRU layer is held as three packed arrays, w (in, 3h), u (h, 3h) and
b (3h,), with the z, r and h gate blocks side by side, so a step is three
matrix products.  RXS2 checkpoints still store nine per-gate tensors per layer.
PADs are inert: an encoder row keeps its state across its own PAD steps and
attention gives them weight 0, so buckets only shape batches.

Backpropagation through time keeps, per step, only what backward cannot
cheaply recompute: each GRU cell's input, incoming state, gates and
candidate, the attention query and weights, and the output features.
Encoder states are stored once, in each layer's output array.  Backward
recomputes the attention tanh s (batch, length, hidden) from the query and
the keys with the same operands in the same order, so gradients keep their
bits while a step's memory grows with the encoder length plus the decoder
length, not with their product.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .pipeline import (
    DEFAULT_BUCKETS,
    EOS_ID,
    GO_ID,
    PAD_ID,
    BucketSpec,
    BucketSpecError,
    EncodedExample,
    batch_iter,
    write_atomic,
)

INIT_SCALE = 0.08


class ModelError(Exception):
    pass


class DimensionMismatch(ModelError):
    pass


class UnknownId(ModelError):
    pass


class NonFiniteLoss(ModelError):
    pass


class CheckpointError(ModelError):
    pass


class BadMagic(CheckpointError):
    pass


class VersionMismatch(CheckpointError):
    pass


class TruncatedFile(CheckpointError):
    pass


class ConfigMismatch(CheckpointError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    input_vocab_size: int
    output_vocab_size: int
    num_layers: int = 3
    embedding_dim: int = 64
    hidden_dim: int = 64
    buckets: BucketSpec = DEFAULT_BUCKETS
    learning_rate: float = 0.5
    gradient_clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.input_vocab_size < 4 or self.output_vocab_size < 4:
            raise ValueError("vocab sizes must cover the four special ids")
        if min(self.num_layers, self.embedding_dim, self.hidden_dim) < 1:
            raise ValueError("layer count and dims must be positive")
        if self.learning_rate <= 0 or self.gradient_clip_norm <= 0:
            raise ValueError("learning rate and clip norm must be positive")


@dataclass
class GruLayerParams:
    """One GRU layer with its gate blocks side by side in z, r, h column order:
    w (in, 3h), u (h, 3h), b (3h,)."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray


def _gate_blocks(layer: GruLayerParams) -> list[tuple[str, np.ndarray]]:
    """The nine per-gate views into a layer's packed arrays, in checkpoint order."""
    n = layer.u.shape[0]
    return [
        (f"{kind}_{gate}", arr[..., k * n : (k + 1) * n])
        for k, gate in enumerate("zrh")
        for kind, arr in (("w", layer.w), ("u", layer.u), ("b", layer.b))
    ]


@dataclass
class ModelParams:
    enc_embed: np.ndarray
    dec_embed: np.ndarray
    enc_layers: list[GruLayerParams]
    dec_layers: list[GruLayerParams]
    attn_q: np.ndarray
    attn_m: np.ndarray
    attn_v: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    def named(self) -> list[tuple[str, np.ndarray]]:
        """All tensors in a stable order; the update loops key on it."""
        return _named(
            self, lambda layer: [("w", layer.w), ("u", layer.u), ("b", layer.b)]
        )

    @property
    def dtype(self) -> np.dtype:
        return self.enc_embed.dtype


def _named(params: ModelParams, layer_tensors) -> list[tuple[str, np.ndarray]]:
    out = [("enc_embed", params.enc_embed), ("dec_embed", params.dec_embed)]
    for side, layers in (("enc", params.enc_layers), ("dec", params.dec_layers)):
        for i, layer in enumerate(layers):
            out.extend((f"{side}.{i}.{n}", arr) for n, arr in layer_tensors(layer))
    out.extend(
        [
            ("attn_q", params.attn_q),
            ("attn_m", params.attn_m),
            ("attn_v", params.attn_v),
            ("out_w", params.out_w),
            ("out_b", params.out_b),
        ]
    )
    return out


def _checkpoint_tensors(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """The checkpoint's tensors in file order, GRU layers split per gate."""
    return _named(params, _gate_blocks)


@dataclass
class Model:
    config: ModelConfig
    params: ModelParams


def zero_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    e, h = config.embedding_dim, config.hidden_dim

    def gru(input_dim: int) -> GruLayerParams:
        return GruLayerParams(
            w=np.zeros((input_dim, 3 * h), dtype),
            u=np.zeros((h, 3 * h), dtype),
            b=np.zeros(3 * h, dtype),
        )

    layers = range(config.num_layers)
    return ModelParams(
        enc_embed=np.zeros((config.input_vocab_size, e), dtype),
        dec_embed=np.zeros((config.output_vocab_size, e), dtype),
        enc_layers=[gru(e if i == 0 else h) for i in layers],
        # First decoder layer sees [token embedding; attention context].
        dec_layers=[gru(e + h if i == 0 else h) for i in layers],
        attn_q=np.zeros((h, h), dtype),
        attn_m=np.zeros((h, h), dtype),
        attn_v=np.zeros(h, dtype),
        out_w=np.zeros((2 * h, config.output_vocab_size), dtype),
        out_b=np.zeros(config.output_vocab_size, dtype),
    )


def init_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Uniform init in [-INIT_SCALE, INIT_SCALE], drawn in checkpoint-tensor order."""
    rng = np.random.default_rng(config.seed)
    params = zero_params(config, dtype)
    for _, arr in _checkpoint_tensors(params):
        arr[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, arr.shape)
    return params


def init_model(config: ModelConfig, dtype=np.float32) -> Model:
    return Model(config, init_params(config, dtype))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function 1/(1+exp(-x)), computed as 0.5*(1+tanh(x/2)).

    The two are the same function.  Every GRU step sends its z and r gates
    through here, and numpy's float32 ``tanh`` is a SIMD loop, about ten
    times faster on a gate block than the scalar loop behind
    ``exp(-logaddexp(0, -x))``.  ``tanh`` saturates without overflow or
    underflow, so no input raises under ``np.errstate(all="raise")``.  The
    result keeps the input dtype, stays within 2 eps of the exact value in
    absolute terms, and lies in [0, 1].
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def gru_cell_step(layer: GruLayerParams, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One GRU update h' = (1-z)*h + z*tanh(W_h x + U_h (r*h) + b_h)."""
    x = np.asarray(x)
    h = np.asarray(h)
    if x.shape[-1] != layer.w.shape[0] or h.shape[-1] != layer.u.shape[0]:
        raise DimensionMismatch(
            f"gru step got x width {x.shape[-1]}, h width {h.shape[-1]}; "
            f"expected {layer.w.shape[0]} and {layer.u.shape[0]}"
        )
    h_new, _ = _gru_forward(layer, np.atleast_2d(x), np.atleast_2d(h))
    return h_new[0] if x.ndim == 1 else h_new


def _gru_forward(layer: GruLayerParams, x: np.ndarray, h: np.ndarray):
    n = h.shape[1]
    xw = x @ layer.w
    zr = _sigmoid(xw[:, : 2 * n] + h @ layer.u[:, : 2 * n] + layer.b[: 2 * n])
    z, r = zr[:, :n], zr[:, n:]
    ht = np.tanh(xw[:, 2 * n :] + (r * h) @ layer.u[:, 2 * n :] + layer.b[2 * n :])
    h_new = (1.0 - z) * h + z * ht
    return h_new, (x, h, z, r, ht)


def _gru_backward(layer: GruLayerParams, grad: GruLayerParams, cache, dh_new):
    x, h, z, r, ht = cache
    n = h.shape[1]
    w_z, w_r, w_h = (layer.w[:, k * n : (k + 1) * n] for k in range(3))
    u_z, u_r, u_h = (layer.u[:, k * n : (k + 1) * n] for k in range(3))
    da_h = dh_new * z * (1.0 - ht * ht)
    drh = da_h @ u_h.T
    da_z = dh_new * (ht - h) * z * (1.0 - z)
    da_r = drh * h * r * (1.0 - r)
    da = np.concatenate([da_z, da_r, da_h], axis=1)

    grad.w += x.T @ da
    grad.u[:, : 2 * n] += h.T @ da[:, : 2 * n]
    grad.u[:, 2 * n :] += (r * h).T @ da_h
    grad.b += da.sum(axis=0)
    # dx and dh sum one product per gate, h then z then r.  A single packed
    # product adds in another order, and that roundoff alone changes where
    # pinned-seed training runs end up.
    dx = da_h @ w_h.T + da_z @ w_z.T + da_r @ w_r.T
    dh = dh_new * (1.0 - z) + drh * r + da_z @ u_z.T + da_r @ u_r.T
    return dx, dh


def _stack_backward(layers, grads, caches, dh_carry, dabove, pad=None):
    """Backpropagate one time step down a GRU stack, top layer first.

    dh_carry holds each layer's gradient flowing back from the next step and
    is replaced in place by the gradient for the previous step; returns the
    gradient with respect to the bottom layer's input.  Rows set in pad
    (batch, 1) kept their state: their gradient bypasses the cell.  None
    means no row holds a PAD at this step.
    """
    for l in reversed(range(len(layers))):
        dh = dh_carry[l] + dabove
        cell_dh = dh if pad is None else np.where(pad, 0.0, dh)
        dabove, dh_carry[l] = _gru_backward(layers[l], grads[l], caches[l], cell_dh)
        if pad is not None:
            dh_carry[l] += np.where(pad, dh, 0.0)
    return dabove


def _check_ids(ids: np.ndarray, vocab_size: int, side: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise UnknownId(f"{side} id outside [0, {vocab_size})")


def _encode_forward(model: Model, enc_ids: np.ndarray, caches: list | None = None):
    """Run the encoder stack; returns (top-layer states, final hidden per
    layer, PAD mask).  A row keeps its state across its own PAD steps, so
    leading columns that are PAD in every row stay zero and are skipped, and
    only a column holding some PAD selects per row.  When caches is a list
    (training), each layer's BPTT caches are appended to it.  Each state is
    stored once, in its layer's (batch, length, hidden) output: a step's
    cached incoming state is a view of the previous column there.
    """
    params, config = model.params, model.config
    batch, length = enc_ids.shape
    _check_ids(enc_ids, config.input_vocab_size, "encoder")
    pad = enc_ids == PAD_ID
    start = int(np.cumprod(pad.all(axis=0)).sum())
    padded = pad.any(axis=0).tolist()
    dtype = params.dtype
    layer_in = params.enc_embed[enc_ids]
    finals = []
    for layer in params.enc_layers:
        h = np.zeros((batch, config.hidden_dim), dtype=dtype)
        outs = np.zeros((batch, length, config.hidden_dim), dtype=dtype)
        layer_caches = []
        for t in range(start, length):
            h_new, cache = _gru_forward(layer, layer_in[:, t], h)
            if padded[t]:
                h_new = np.where(pad[:, t, None], h, h_new)
            outs[:, t] = h_new
            h = outs[:, t]
            if caches is not None:
                layer_caches.append(cache)
        if caches is not None:
            caches.append(layer_caches)
        # a copy, so a lower layer's outputs are not held through decoding
        finals.append(h.copy())
        layer_in = outs
    return layer_in, finals, pad


def encode(model: Model, encoder_ids) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the encoder stack; returns (top-layer states, final hidden per layer).

    Accepts one sequence (length,) or a batch (batch, length); the memory
    comes back as (..., length, hidden) matching the input rank.
    """
    ids = np.asarray(encoder_ids, dtype=np.int64)
    single = ids.ndim == 1
    if single:
        ids = ids[None, :]
    memory, finals, _ = _encode_forward(model, ids)
    if single:
        return memory[0], [h[0] for h in finals]
    return memory, finals


@dataclass(frozen=True)
class AttentionRecord:
    """Alignment trace for one attention call: raw scores and softmax weights."""

    scores: np.ndarray
    weights: np.ndarray


def _pad_bias(pad: np.ndarray, dtype) -> np.ndarray:
    """The additive attention mask for PAD mask pad (batch, length): -inf at
    PAD positions and 0 elsewhere.  A score plus 0 is the score, so the
    softmax weights are those of the score masked to -inf at the PADs."""
    return np.where(pad, -np.inf, 0.0).astype(dtype)


def _attention_tanh(params: ModelParams, query, ma) -> np.ndarray:
    """s = tanh(A q + B m_i) (batch, length, hidden), from the keys ma = memory
    @ attn_m.  Forward and backward both compute s here, so the recomputed
    array has the same bits as the forward one."""
    s = (query @ params.attn_q)[:, None, :] + ma
    return np.tanh(s, out=s)


def _attention_forward(params: ModelParams, query, memory, ma, bias=None):
    """Additive attention; bias (batch, length) from _pad_bias gives PAD
    positions weight 0, and None means no PAD.  Returns the context, the raw
    scores, the weights and the BPTT cache (query, weights).  The cache keeps
    no (batch, length, hidden) array: backward recomputes s from query and ma.
    """
    s = _attention_tanh(params, query, ma)
    e = s @ params.attn_v
    w = _softmax(e if bias is None else e + bias, axis=1)
    context = np.einsum("bt,bth->bh", w, memory)
    return context, e, w, (query, w)


def _attention_backward(params: ModelParams, grad: ModelParams, cache, dc, memory, ma):
    """Gradients of one _attention_forward call: accumulates attn_v's and
    attn_q's into grad, and returns those of the query, the memory (through
    the context) and the keys ma.  s is recomputed here rather than cached,
    which costs one (batch, hidden) product and one tanh per step; the
    (batch, length, hidden) temporaries are reused in place."""
    query, w = cache
    s = _attention_tanh(params, query, ma)
    dw = np.einsum("bh,bth->bt", dc, memory)
    dmem = w[:, :, None] * dc[:, None, :]
    de = w * (dw - (dw * w).sum(axis=1, keepdims=True))
    grad.attn_v += np.einsum("bth,bt->h", s, de)
    da = de[:, :, None] * params.attn_v
    s *= s
    np.subtract(1.0, s, out=s)
    da *= s
    dqa = da.sum(axis=1)
    grad.attn_q += query.T @ dqa
    dquery = dqa @ params.attn_q.T
    return dquery, dmem, da


def attention(
    params: ModelParams, query: np.ndarray, memory: np.ndarray
) -> tuple[np.ndarray, AttentionRecord]:
    """Additive attention: e_i = v·tanh(A q + B m_i), weights = softmax(e)."""
    query = np.asarray(query)
    memory = np.asarray(memory)
    single = query.ndim == 1
    if single:
        query = query[None, :]
        memory = memory[None, :, :]
    if query.shape[-1] != params.attn_q.shape[0] or memory.shape[-1] != params.attn_m.shape[0]:
        raise DimensionMismatch("attention query/memory width mismatch")
    ma = memory @ params.attn_m
    context, e, w, _ = _attention_forward(params, query, memory, ma)
    if single:
        return context[0], AttentionRecord(scores=e[0], weights=w[0])
    return context, AttentionRecord(scores=e, weights=w)


def _decoder_step(params: ModelParams, ids, stack, memory, ma, bias):
    """Attention on the incoming top state, then [embedding; context] through
    the GRU stack and the output projection of [new top state; context]."""
    context, e, w, att_cache = _attention_forward(params, stack[-1], memory, ma, bias)
    x = np.concatenate([params.dec_embed[ids], context], axis=1)
    new_stack = []
    cell_caches = []
    for layer, h in zip(params.dec_layers, stack):
        x, cache = _gru_forward(layer, x, h)
        new_stack.append(x)
        cell_caches.append(cache)
    feat = np.concatenate([x, context], axis=1)
    logits = feat @ params.out_w + params.out_b
    return logits, new_stack, e, w, (att_cache, cell_caches, feat)


def decode_step(
    model: Model,
    prev_token_id,
    hidden_stack: Sequence[np.ndarray],
    memory: np.ndarray,
    pad_mask=None,
) -> tuple[np.ndarray, list[np.ndarray], AttentionRecord]:
    """One greedy-decoding step; the attention query is the incoming top state.
    Memory positions set in pad_mask get weight 0; None means no PAD."""
    params, config = model.params, model.config
    ids = np.atleast_1d(np.asarray(prev_token_id, dtype=np.int64))
    _check_ids(ids, config.output_vocab_size, "decoder")
    single = np.asarray(prev_token_id).ndim == 0
    memory = np.asarray(memory)
    if memory.ndim == 2:
        memory = memory[None, :, :]
    stack = [np.atleast_2d(h) for h in hidden_stack]
    if len(stack) != config.num_layers:
        raise DimensionMismatch(
            f"hidden stack has {len(stack)} layers, expected {config.num_layers}"
        )
    bias = None
    if pad_mask is not None:
        bias = _pad_bias(np.atleast_2d(np.asarray(pad_mask, dtype=bool)), params.dtype)
    logits, new_stack, e, w, _ = _decoder_step(
        params, ids, stack, memory, memory @ params.attn_m, bias
    )
    if single:
        return (
            logits[0],
            [h[0] for h in new_stack],
            AttentionRecord(scores=e[0], weights=w[0]),
        )
    return logits, new_stack, AttentionRecord(scores=e, weights=w)


def _teacher_forced(params: ModelParams, memory, ma, bias, stack, dec_ids, step_caches=None):
    """Decoder pass fed the reference, from an encoder pass (memory, its
    attention keys ma = memory @ attn_m, PAD bias, final hidden stack).

    Returns the mean cross-entropy per non-PAD target token, each row's mean
    over its own target tokens, and the softmax pieces backward needs.  When
    step_caches is a list (training), each step's BPTT caches are appended.
    """
    _check_ids(dec_ids, params.out_b.shape[0], "decoder")
    inputs = dec_ids[:, :-1]
    targets = dec_ids[:, 1:]
    mask = targets != PAD_ID
    if not mask.any():
        raise ValueError("batch contains no target tokens")
    steps = int(np.nonzero(mask.any(axis=0))[0][-1]) + 1
    inputs = inputs[:, :steps]
    targets = targets[:, :steps]
    mask = mask[:, :steps]

    batch = dec_ids.shape[0]
    logits = np.empty((batch, steps, params.out_b.shape[0]), dtype=params.dtype)
    for t in range(steps):
        logits[:, t], stack, _, _, step_cache = _decoder_step(
            params, inputs[:, t], stack, memory, ma, bias
        )
        if step_caches is not None:
            step_caches.append(step_cache)
        del step_cache  # unless kept above, not held while the next step runs

    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=2, keepdims=True)
    log_probs = shifted - np.log(denom)
    picked = np.take_along_axis(log_probs, targets[:, :, None], axis=2)[:, :, 0]
    masked = picked * mask
    n_tokens = int(mask.sum())
    loss = float(-masked.sum() / n_tokens)
    row_losses = -masked.sum(axis=1) / mask.sum(axis=1)
    return loss, row_losses, {
        "inputs": inputs,
        "targets": targets,
        "mask": mask,
        "exp": exp,
        "denom": denom,
        "n_tokens": n_tokens,
    }


def _encoder_pass(model: Model, enc_ids: np.ndarray, caches: list | None = None):
    """(memory, final hidden stack, keys memory @ attn_m, PAD bias) for a batch."""
    memory, stack, pad = _encode_forward(model, enc_ids, caches)
    if pad.all(axis=1).any():
        raise ValueError("an encoder row holds only PAD ids")
    params = model.params
    return memory, stack, memory @ params.attn_m, _pad_bias(pad, params.dtype)


def batch_loss(model: Model, enc_ids, dec_ids) -> float:
    """Mean cross-entropy per non-PAD target token under teacher forcing."""
    enc = np.asarray(enc_ids, dtype=np.int64)
    dec = np.asarray(dec_ids, dtype=np.int64)
    memory, stack, ma, bias = _encoder_pass(model, enc)
    loss, _, _ = _teacher_forced(model.params, memory, ma, bias, stack, dec)
    return loss


def loss_and_grads(model: Model, enc_ids, dec_ids) -> tuple[float, ModelParams]:
    """Loss plus full-parameter gradients by backpropagation through time."""
    params, config = model.params, model.config
    enc = np.asarray(enc_ids, dtype=np.int64)
    dec = np.asarray(dec_ids, dtype=np.int64)
    enc_caches: list = []
    step_caches: list = []
    memory, stack, ma, bias = _encoder_pass(model, enc, enc_caches)
    loss, _, fwd = _teacher_forced(params, memory, ma, bias, stack, dec, step_caches)
    grad = zero_params(config, params.dtype)

    targets = fwd["targets"]
    mask = fwd["mask"]
    inputs = fwd["inputs"]
    steps = targets.shape[1]
    hidden = config.hidden_dim

    dlogits = fwd["exp"] / fwd["denom"]
    np.put_along_axis(
        dlogits,
        targets[:, :, None],
        np.take_along_axis(dlogits, targets[:, :, None], axis=2) - 1.0,
        axis=2,
    )
    dlogits *= (mask / fwd["n_tokens"])[:, :, None]

    dh_carry = [np.zeros_like(memory[:, 0]) for _ in range(config.num_layers)]
    dmem = np.zeros_like(memory)
    dma_total = np.zeros_like(memory)
    for t in reversed(range(steps)):
        att_cache, cell_caches, feat = step_caches[t]
        dl = dlogits[:, t]
        grad.out_w += feat.T @ dl
        grad.out_b += dl.sum(axis=0)
        dfeat = dl @ params.out_w.T
        dcontext = dfeat[:, hidden:].copy()
        dx = _stack_backward(
            params.dec_layers,
            grad.dec_layers,
            cell_caches,
            dh_carry,
            dfeat[:, :hidden],
        )
        dcontext += dx[:, config.embedding_dim :]
        np.add.at(grad.dec_embed, inputs[:, t], dx[:, : config.embedding_dim])
        dquery, dmem_step, dma = _attention_backward(
            params, grad, att_cache, dcontext, memory, ma
        )
        dmem += dmem_step
        dma_total += dma
        dh_carry[-1] += dquery

    grad.attn_m += np.einsum("bth,btk->hk", memory, dma_total)
    dmem += dma_total @ params.attn_m.T

    length = memory.shape[1]
    start = length - len(enc_caches[0])  # leading all-PAD columns were skipped
    pad = enc == PAD_ID
    padded = pad.any(axis=0).tolist()
    dx_embed = np.zeros(
        (enc.shape[0], length, config.embedding_dim), dtype=params.dtype
    )
    for t in reversed(range(start, length)):
        dx_embed[:, t] = _stack_backward(
            params.enc_layers,
            grad.enc_layers,
            [layer_caches[t - start] for layer_caches in enc_caches],
            dh_carry,
            dmem[:, t],
            pad[:, t, None] if padded[t] else None,
        )
    np.add.at(grad.enc_embed, enc, dx_embed)
    return loss, grad


def global_grad_norm(grad: ModelParams) -> float:
    total = 0.0
    for _, arr in grad.named():
        total += float((arr.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def clip_gradients(grad: ModelParams, max_norm: float) -> float:
    """Scale all tensors so the global norm is at most max_norm; returns the norm."""
    norm = global_grad_norm(grad)
    if norm > max_norm:
        scale = max_norm / norm
        for _, arr in grad.named():
            arr *= scale
    return norm


def train_step(model: Model, enc_ids, dec_ids) -> float:
    """One SGD update at the config's rate with global-norm clipping; returns
    the pre-update loss."""
    config = model.config
    loss, grad = loss_and_grads(model, enc_ids, dec_ids)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss}")
    norm = clip_gradients(grad, config.gradient_clip_norm)
    if not np.isfinite(norm):
        raise NonFiniteLoss(f"gradient norm is {norm} at loss {loss}")
    for (_, p), (_, g) in zip(model.params.named(), grad.named()):
        p -= config.learning_rate * g
    return loss


@dataclass
class TrainLog:
    losses: list[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.losses)


def fit(
    model: Model,
    examples: Sequence[EncodedExample],
    steps: int,
    batch_size: int,
    seed: int,
) -> TrainLog:
    """Plain SGD at the config's learning rate over bucketed batches, epoch
    after epoch of `batch_iter`, for `steps` updates.

    Deterministic for a fixed (model seed, data, steps, batch_size, seed).
    """
    if not examples:
        raise ValueError("no training examples")
    log = TrainLog()
    for epoch in itertools.count():
        if log.steps >= steps:
            break
        for batch in batch_iter(examples, batch_size, seed, epoch):
            if log.steps >= steps:
                break
            log.losses.append(train_step(model, batch.encoder, batch.decoder))
    return log


def _greedy(model: Model, memory, ma, bias, stack):
    """Greedy decoding from GO for a batch, until every row has emitted EOS or
    the limit has run: the largest decoder length less GO's slot, which may be
    0 steps.

    Returns the ids emitted (batch, steps), and the raw attention scores and
    the attention weights (batch, steps, length), for the steps run.  Rows
    that have already emitted EOS keep stepping; callers read each row up to
    its first EOS.
    """
    batch, length = bias.shape
    limit = model.config.buckets[-1][1] - 1
    emitted = np.empty((batch, limit), dtype=np.int64)
    scores = np.empty((batch, limit, length), dtype=model.params.dtype)
    weights = np.empty_like(scores)
    prev = np.full(batch, GO_ID, dtype=np.int64)
    done = np.zeros(batch, dtype=bool)
    steps = 0
    while steps < limit and not done.all():
        # [:4] lets the step's backward caches go before the next step runs
        logits, stack, scores[:, steps], weights[:, steps] = _decoder_step(
            model.params, prev, stack, memory, ma, bias
        )[:4]
        prev = emitted[:, steps] = logits.argmax(axis=1)
        done |= prev == EOS_ID
        steps += 1
    return emitted[:, :steps], scores[:, :steps], weights[:, :steps]


# Rows per batch in predict_with_attention; each batch is one encoder pass.
DECODE_BATCH_SIZE = 32


@dataclass(frozen=True)
class Decoded:
    """One row's greedy decode.

    ids holds the id emitted at each step, through the row's first EOS (every
    step when the limit ran out first); scores and weights (steps, length)
    hold those steps' attention.  cross_entropy is the row's teacher-forced
    mean over its reference tokens, or None when no reference was given.
    """

    ids: list[int]
    scores: np.ndarray
    weights: np.ndarray
    cross_entropy: float | None

    def text(self, output_vocab) -> str:
        """The predicted string: the emitted tokens, PAD, GO and EOS dropped."""
        return "".join(
            output_vocab.token_of(i) for i in self.ids if i not in (PAD_ID, GO_ID, EOS_ID)
        )


def _decode_batch(model: Model, enc: np.ndarray, dec: np.ndarray | None) -> list[Decoded]:
    """Each row of one batch decoded, from one encoder pass.  The
    teacher-forced pass runs before the greedy one, so that the two never
    hold their arrays at the same time."""
    memory, stack, ma, bias = _encoder_pass(model, enc)
    losses = [None] * len(enc)
    if dec is not None:
        losses = _teacher_forced(model.params, memory, ma, bias, stack, dec)[1].tolist()
    emitted, scores, weights = _greedy(model, memory, ma, bias, stack)
    out = []
    for row, loss in enumerate(losses):
        eos = np.flatnonzero(emitted[row] == EOS_ID)
        n = int(eos[0]) + 1 if eos.size else emitted.shape[1]
        out.append(
            Decoded(
                emitted[row, :n].tolist(),
                scores[row, :n].copy(),
                weights[row, :n].copy(),
                loss,
            )
        )
    return out


def predict_with_attention(
    model: Model, encoder_ids, decoder_ids=None
) -> Iterator[Decoded]:
    """Greedy-decode bucket-padded encoder rows; yields one Decoded per row,
    in input order.  This is the one decoder: eval, predict and
    export-attention all call it.

    Rows are grouped by padded shape, with their reference rows when
    decoder_ids is given, and each group is decoded in batches of
    DECODE_BATCH_SIZE consecutive members.  One encoder pass per batch serves
    the greedy decode and the teacher-forced cross-entropies.  PADs are
    inert, so a row's ids equal those it gets decoded alone, and its
    cross-entropy batch_loss on that row alone, to float32 roundoff.  A
    batch is decoded when its first row is due, so only rows decoded ahead
    of their turn are held.
    """
    enc_rows = list(encoder_ids)
    dec_rows = None if decoder_ids is None else list(decoder_ids)
    groups: dict[tuple[int, int], list[int]] = {}
    for index, row in enumerate(enc_rows):
        shape = (len(row), 0 if dec_rows is None else len(dec_rows[index]))
        groups.setdefault(shape, []).append(index)
    batch_of = {}
    for members in groups.values():
        for start in range(0, len(members), DECODE_BATCH_SIZE):
            batch = members[start : start + DECODE_BATCH_SIZE]
            batch_of.update((index, batch) for index in batch)
    ready: dict[int, Decoded] = {}
    for index in range(len(enc_rows)):
        if index not in ready:
            batch = batch_of[index]
            enc = np.array([enc_rows[i] for i in batch], dtype=np.int64)
            dec = None
            if dec_rows is not None:
                dec = np.array([dec_rows[i] for i in batch], dtype=np.int64)
            ready.update(zip(batch, _decode_batch(model, enc, dec)))
        yield ready.pop(index)


# --- checkpoint format -------------------------------------------------------
# magic "RXS2" | u32 version | u32 config length + key=value lines |
# u32 tensor count | per tensor: u32 name length, name bytes, u32 rank,
# u32 dims..., row-major little-endian float32 payload.
# Each GRU layer is written as nine per-gate tensors (w_z, u_z, b_z, w_r, ...),
# cut from the packed w/u/b blocks held in memory; checkpoint_from_bytes copies
# each payload from the file's bytes straight back into its block.
# Version 2 weights were trained with inert PADs; version 1 files are refused.

CHECKPOINT_MAGIC = b"RXS2"
CHECKPOINT_VERSION = 2
_U32 = struct.Struct("<I")


def _config_to_text(config: ModelConfig) -> str:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, BucketSpec):
            value = value.format()
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


# How _config_from_bytes reads each field back from _config_to_text's form.
_FIELD_PARSERS = {
    f.name: {"int": int, "float": float, "BucketSpec": BucketSpec.parse}[f.type]
    for f in fields(ModelConfig)
}


def _config_from_bytes(block: bytes) -> ModelConfig:
    values: dict[str, str] = {}
    try:
        for line in block.decode("utf-8").splitlines():
            if not line:
                continue
            key, _, raw = line.partition("=")
            values[key] = raw
        return ModelConfig(
            **{name: parse(values[name]) for name, parse in _FIELD_PARSERS.items()}
        )
    except (KeyError, ValueError, BucketSpecError) as exc:
        raise ConfigMismatch(f"bad config block: {exc}") from exc


def checkpoint_bytes(model: Model) -> bytes:
    """The RXS2 file of ``model``, as save_checkpoint writes it."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += _U32.pack(CHECKPOINT_VERSION)
    config_bytes = _config_to_text(model.config).encode("utf-8")
    buf += _U32.pack(len(config_bytes))
    buf += config_bytes
    tensors = _checkpoint_tensors(model.params)
    buf += _U32.pack(len(tensors))
    for name, arr in tensors:
        name_bytes = name.encode("utf-8")
        data = np.ascontiguousarray(arr, dtype="<f4")
        buf += _U32.pack(len(name_bytes))
        buf += name_bytes
        buf += _U32.pack(data.ndim)
        buf += struct.pack(f"<{data.ndim}I", *data.shape)
        buf += data.tobytes()
    return bytes(buf)


def save_checkpoint(model: Model, path: str | Path) -> None:
    write_atomic(path, checkpoint_bytes(model))


def load_checkpoint(path: str | Path) -> Model:
    """The model in the RXS2 file at ``path``, as checkpoint_from_bytes reads
    the file's bytes."""
    return checkpoint_from_bytes(Path(path).read_bytes())


def checkpoint_from_bytes(raw: bytes) -> Model:
    """The model that checkpoint_bytes wrote as ``raw``, read in one pass.  A
    file that ends early raises TruncatedFile, and any other fault another
    CheckpointError."""
    data = memoryview(raw)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(data):
            raise TruncatedFile(
                f"needed {n} bytes at offset {pos}, file has {len(data)}"
            )
        pos += n
        return data[pos - n : pos]

    def u32() -> int:
        return _U32.unpack(take(4))[0]

    magic = bytes(take(4))
    if magic != CHECKPOINT_MAGIC:
        raise BadMagic(f"expected {CHECKPOINT_MAGIC!r}, found {magic!r}")
    version = u32()
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {version}")
    config = _config_from_bytes(bytes(take(u32())))
    try:
        params = zero_params(config)
    except MemoryError as exc:
        raise ConfigMismatch(f"config block implies tensors too large: {exc}") from exc
    slots = dict(_checkpoint_tensors(params))
    for _ in range(u32()):
        try:
            name = str(take(u32()), "utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigMismatch(f"tensor name is not UTF-8: {exc}") from exc
        rank = u32()
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        payload = take(4 * math.prod(shape))
        slot = slots.pop(name, None)
        if slot is None:
            raise ConfigMismatch(f"tensor {name!r} is unknown or repeated")
        if slot.shape != shape:
            raise ConfigMismatch(
                f"tensor {name} has shape {shape}, config implies {slot.shape}"
            )
        slot[...] = np.frombuffer(payload, "<f4").reshape(shape)
    if pos != len(data):
        raise ConfigMismatch("trailing bytes after final tensor")
    if slots:
        raise ConfigMismatch(f"checkpoint lacks tensors {sorted(slots)}")
    return Model(config, params)
