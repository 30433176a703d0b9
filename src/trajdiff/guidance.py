"""Per-pedestrian conditioning vectors from history and neighbors.

Two encoders with identical structure but separate parameters:

* the history encoder reads a pedestrian's own observed displacements,
* the neighbor encoder reads the masked mean of its neighbors'
  displacements per timestep (a zero sequence when it has none).

Each runs T parallel causal 1-D convolutions, keeps every feature map's
value at the final observed timestep, treats those T values as a token
sequence, mixes them with one single-head self-attention block and
projects the flattened result to the context width.  The two context
vectors concatenated form the guidance embedding.

The convolutions' outputs at the final timestep read only the last k
(kernel) observed steps, so they are computed as one matmul over those k
steps, with the same values and the same per-convolution parameters.

Both encoders run on plain arrays: ``encode_windows`` is the forward and
``encoder_backward`` its backward, which the tests hold to the primitive
tape of the same body byte for byte.

Sizes (t_obs, conv_channels, kernel, d_phi, d_psi) are read from the
model's ``ModelConfig``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm

if TYPE_CHECKING:
    from .model import ModelConfig


def encoder_layout(cfg: ModelConfig, prefix: str, out_dim: int) -> dict[str, tuple]:
    """One encoder's parameters for ``numerics.init_params``."""
    c, k, t = cfg.conv_channels, cfg.kernel, cfg.t_obs
    layout = {}
    for j in range(t):
        layout[f"{prefix}.conv{j}.w"] = ((c, 2, k), 2 * k)
        layout[f"{prefix}.conv{j}.b"] = ((c,), None)
    for name in ("wq", "wk", "wv"):
        layout[f"{prefix}.attn.{name}"] = ((c, c), c)
    layout[f"{prefix}.proj.w"] = ((t * c, out_dim), t * c)
    layout[f"{prefix}.proj.b"] = ((out_dim,), None)
    return layout


def _forward(x: np.ndarray, params: dict[str, np.ndarray], prefix: str,
             cfg: ModelConfig) -> tuple[np.ndarray, dict]:
    """One encoder on plain arrays: the context [N, out_dim] of the
    sequences ``x`` [N, T, 2], and what ``_backward`` reads.  The
    stacked conv weight is rebuilt from the ``conv{j}`` parameters per call."""
    def p(name):
        return params[f"{prefix}.{name}"]

    n, t, c, kern = x.shape[0], cfg.t_obs, cfg.conv_channels, cfg.kernel
    # taps that read an observation; with kern > t the first kern - t taps
    # read the causal zero padding and are left out, weights included
    taps = min(kern, t)
    last = np.ascontiguousarray(x[:, t - taps:].transpose(0, 2, 1)).reshape(n, 2 * taps)
    w = np.concatenate([p(f"conv{j}.w") for j in range(t)])[:, :, kern - taps:]
    w = np.ascontiguousarray(w.reshape(t * c, 2 * taps).T)        # [2 taps, T*C]
    b = np.concatenate([p(f"conv{j}.b") for j in range(t)])
    seq = np.tanh(last @ w + b).reshape(n, t, c)
    q, k, v = (seq @ p(f"attn.{name}") for name in ("wq", "wk", "wv"))
    # single-head attention, as the reference tape's ``scaled_dot_attention`` computes it
    scale = q.dtype.type(1.0 / np.sqrt(c))
    scores = (q @ k.transpose(0, 2, 1)) * scale
    # each row's max, one column at a time: exact, and at T = 8 about 8x
    # faster than numpy's max over the short last axis
    row_max = scores[..., 0].copy()
    for j in range(1, t):
        np.maximum(row_max, scores[..., j], out=row_max)
    scores -= row_max[..., None]
    e = np.exp(scores)
    att_w = e / e.sum(axis=2, keepdims=True)
    flat = (att_w @ v).reshape(n, t * c)
    out = flat @ p("proj.w") + p("proj.b")
    keep = {"last": last, "seq": seq, "q": q, "k": k, "v": v, "att_w": att_w,
            "flat": flat, "scale": scale, "taps": taps}
    return out, keep


def _backward(g: np.ndarray, params: dict[str, np.ndarray], prefix: str,
              cfg: ModelConfig, keep: dict) -> dict[str, np.ndarray]:
    """Gradients of the ``prefix`` parameters given the context's gradient
    ``g`` [N, out_dim].  Each value rounds as the primitive tape of the
    same body (kept in the tests as the reference): the sequence sums its
    value, key and query gradients in that order, each from its own
    matmul."""
    def p(name):
        return params[f"{prefix}.{name}"]

    n, t, c, kern = g.shape[0], cfg.t_obs, cfg.conv_channels, cfg.kernel
    seq, q, k, v, att_w, scale = (keep[name] for name in
                                  ("seq", "q", "k", "v", "att_w", "scale"))
    grads = {"proj.b": g.sum(axis=0), "proj.w": keep["flat"].T @ g}
    g_att = (g @ p("proj.w").T).reshape(n, t, c)
    gw = g_att @ v.transpose(0, 2, 1)
    gv = att_w.transpose(0, 2, 1) @ g_att
    gs = att_w * (gw - (gw * att_w).sum(axis=2, keepdims=True))
    gq = (gs @ k) * scale
    gk = (gs.transpose(0, 2, 1) @ q) * scale
    g_seq = None
    for name, gx in (("wv", gv), ("wk", gk), ("wq", gq)):
        grads[f"attn.{name}"] = np.tensordot(seq, gx, axes=([0, 1], [0, 1]))
        part = gx @ p(f"attn.{name}").T
        g_seq = part if g_seq is None else g_seq + part
    d = nm.tanh_grad(seq.reshape(n, t * c), g_seq.reshape(n, t * c))
    taps = keep["taps"]
    gw_full = np.zeros((t * c, 2, kern), dtype=d.dtype)
    gw_full[:, :, kern - taps:] = (keep["last"].T @ d).T.reshape(t * c, 2, taps)
    gb = d.sum(axis=0)
    for j in range(t):
        grads[f"conv{j}.w"] = gw_full[j * c:(j + 1) * c]
        grads[f"conv{j}.b"] = gb[j * c:(j + 1) * c]
    return {f"{prefix}.{name}": a for name, a in grads.items()}


def aggregate_neighbors(windows) -> np.ndarray:
    """Masked mean of neighbor displacements per pedestrian and timestep,
    rows concatenated in window order; pedestrians without neighbors get
    the all-zero sequence.  Parameter free, so it runs in plain numpy
    ahead of the encoder, as one einsum over the windows padded to the
    largest: a padded row or column adds exact zeros after a row's own
    terms, so every sum is the per-window sum."""
    sizes = [len(w.observed) for w in windows]
    m, t = max(sizes), np.shape(windows[0].observed)[1]
    mask = np.zeros((len(windows), m, m))
    obs = np.zeros((len(windows), m, t, 2))
    for i, (w, n) in enumerate(zip(windows, sizes)):
        if np.shape(w.neighbor_mask) != (n, n) or np.any(np.diag(w.neighbor_mask)):
            raise ValueError("neighbor mask must be [N, N] for N pedestrians, "
                             "with a false diagonal")
        mask[i, :n, :n] = w.neighbor_mask
        obs[i, :n] = w.observed
    summed = np.einsum("bij,bjtc->bitc", mask, obs)
    agg = summed / np.maximum(mask.sum(axis=2), 1.0)[:, :, None, None]
    return agg[np.arange(m) < np.array(sizes)[:, None]]


def guidance_layout(cfg: ModelConfig) -> dict[str, tuple]:
    return {**encoder_layout(cfg, "hist", cfg.d_phi),
            **encoder_layout(cfg, "nbr", cfg.d_psi)}


def encode_windows(windows, params: dict[str, np.ndarray], cfg: ModelConfig,
                   keep: dict | None = None) -> np.ndarray:
    """Encode several windows in one batched pass into the guidance
    embedding [N, d_phi + d_psi]: history context, then neighbor context.

    Pedestrian rows are concatenated across windows (neighbor aggregation
    happens per window, everything learned is per pedestrian).  Row order
    follows the window order.  The encoders compute in their parameters'
    dtype, and the embedding gets ``numerics.checked``'s check for it.
    ``keep``, when given, receives what ``encoder_backward`` reads.
    """
    obs = np.concatenate([np.asarray(w.observed) for w in windows], axis=0)
    if obs.ndim != 3 or obs.shape[1:] != (cfg.t_obs, 2):
        raise nm.NumericsError(f"expected [N, {cfg.t_obs}, 2] history, got {obs.shape}")
    dtype = params["hist.proj.w"].dtype
    hist, hist_keep = _forward(obs.astype(dtype), params, "hist", cfg)
    nbr, nbr_keep = _forward(aggregate_neighbors(windows).astype(dtype), params, "nbr", cfg)
    if keep is not None:
        keep.update(hist=hist_keep, nbr=nbr_keep)
    return nm.checked(np.concatenate([hist, nbr], axis=1), dtype, "guidance embedding")


def encoder_backward(g: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
                     keep: dict) -> dict[str, np.ndarray]:
    """Gradients of every ``hist.*`` and ``nbr.*`` parameter given the
    embedding's gradient ``g`` [N, d_phi + d_psi]."""
    return {**_backward(np.ascontiguousarray(g[:, :cfg.d_phi]), params, "hist", cfg,
                        keep["hist"]),
            **_backward(np.ascontiguousarray(g[:, cfg.d_phi:]), params, "nbr", cfg,
                        keep["nbr"])}
