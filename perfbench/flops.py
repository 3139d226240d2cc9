"""Matmul FLOPs and bytes of the model, computed from its shapes (not measured).

Each entry is (count, m, k, n): ``count`` products of an (m, k) by a (k, n)
float32 matrix, costing 2*m*k*n FLOPs and moving 4*(m*k + k*n + m*n) bytes
once.  Elementwise work (gates, softmax) is left out.
"""

from __future__ import annotations


def _gru(batch: int, width_in: int, hidden: int, backward: bool) -> list[tuple]:
    # Forward: x@W and h@U for three gates.  Backward, per gate: x.T@da,
    # h.T@da, da@W.T and da@U.T.
    if not backward:
        return [(3, batch, width_in, hidden), (3, batch, hidden, hidden)]
    return [
        (3, width_in, batch, hidden),
        (3, hidden, batch, hidden),
        (3, batch, hidden, width_in),
        (3, batch, hidden, hidden),
    ]


def _widths(config) -> tuple[list[int], list[int]]:
    e, h, layers = config.embedding_dim, config.hidden_dim, config.num_layers
    encoder = [e] + [h] * (layers - 1)
    decoder = [e + h] + [h] * (layers - 1)  # first decoder layer sees [embedding; context]
    return encoder, decoder


def train_step_products(config, batch: int, enc_len: int, dec_steps: int) -> list[tuple]:
    """Products in one ``train_step``: teacher-forced forward plus BPTT."""
    h, vocab = config.hidden_dim, config.output_vocab_size
    enc_widths, dec_widths = _widths(config)
    out: list[tuple] = []
    for backward in (False, True):
        for width in enc_widths:
            out += [(enc_len * c, m, k, n) for c, m, k, n in _gru(batch, width, h, backward)]
        for width in dec_widths:
            out += [(dec_steps * c, m, k, n) for c, m, k, n in _gru(batch, width, h, backward)]
    out += [
        (1, batch * enc_len, h, h),  # memory @ attn_m
        (dec_steps, batch, h, h),  # query @ attn_q
        (dec_steps * batch, enc_len, h, 1),  # scores = tanh(...) @ attn_v
        (dec_steps * batch, 1, enc_len, h),  # context = weights @ memory
        (dec_steps, batch, 2 * h, vocab),  # logits
        # backward
        (dec_steps, 2 * h, batch, vocab),
        (dec_steps, batch, vocab, 2 * h),
        (dec_steps * batch, 1, h, enc_len),  # d weights
        (dec_steps * batch, 1, enc_len, h),  # d attn_v
        (dec_steps, h, batch, h),  # d attn_q
        (dec_steps, batch, h, h),  # d query
        (1, h, batch * enc_len, h),  # d attn_m
        (1, batch * enc_len, h, h),  # d memory through attn_m
    ]
    return out


def decode_step_products(config, batch: int, enc_len: int) -> list[tuple]:
    """Products in one greedy ``decode_step`` (which recomputes memory @ attn_m)."""
    h, vocab = config.hidden_dim, config.output_vocab_size
    _, dec_widths = _widths(config)
    out: list[tuple] = [
        (1, batch * enc_len, h, h),
        (1, batch, h, h),
        (batch, enc_len, h, 1),
        (batch, 1, enc_len, h),
        (1, batch, 2 * h, vocab),
    ]
    for width in dec_widths:
        out += _gru(batch, width, h, backward=False)
    return out


def cost(products: list[tuple]) -> tuple[float, float]:
    """(FLOPs, bytes) of a product list."""
    flops = sum(2 * c * m * k * n for c, m, k, n in products)
    moved = sum(4 * c * (m * k + k * n + m * n) for c, m, k, n in products)
    return float(flops), float(moved)
