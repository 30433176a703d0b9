"""History/neighbor encoders: shapes, invariances, gradients."""

from types import SimpleNamespace

import numpy as np
import pytest

from references import (ComputationRecord, add, aggregate_window_neighbors, backward, concat,
                        constant, conv1d, encode_windows_tape, finite_difference_check,
                        matmul, mul, parameters, recorded, reshape, scaled_dot_attention,
                        slice_, sum_, tanh, transpose)
from trajdiff import guidance
from trajdiff import numerics as nm
from trajdiff.model import ModelConfig

CFG = ModelConfig(t_obs=8, conv_channels=4, kernel=3, d_phi=6, d_psi=6)


@pytest.fixture
def params():
    return nm.init_params(guidance.guidance_layout(CFG), np.random.default_rng(0), np.float32)


def _observed(n=4, seed=1):
    return np.random.default_rng(seed).normal(scale=0.2, size=(n, CFG.t_obs, 2))


def _window(obs, mask=None):
    if mask is None:
        mask = np.zeros((len(obs), len(obs)), dtype=bool)
    return SimpleNamespace(observed=obs, neighbor_mask=mask)


def _history(obs, params):
    """The history context [N, d_phi] that ``encode_windows`` computes."""
    return guidance.encode_windows([_window(obs)], params, CFG)[:, :CFG.d_phi]


def _neighbors(obs, mask, params):
    """The neighbor context [N, d_psi] that ``encode_windows`` computes."""
    return guidance.encode_windows([_window(obs, mask)], params, CFG)[:, CFG.d_phi:]


def test_history_shape(params):
    out = _history(_observed(), params)
    assert out.shape == (4, CFG.d_phi)


def test_identical_pedestrians_identical_rows(params):
    obs = _observed(2)
    obs[1] = obs[0]
    out = _history(obs, params)
    np.testing.assert_array_equal(out[0], out[1])


def test_pedestrian_permutation_equivariance(params):
    obs = _observed(5)
    mask = np.random.default_rng(2).random((5, 5)) < 0.5
    mask = np.triu(mask, 1) | np.triu(mask, 1).T
    perm = np.array([3, 0, 4, 1, 2])

    hist = _history(obs, params)
    nbr = _neighbors(obs, mask, params)
    hist_p = _history(obs[perm], params)
    nbr_p = _neighbors(obs[perm], mask[np.ix_(perm, perm)], params)
    np.testing.assert_allclose(hist_p, hist[perm], atol=1e-6)
    np.testing.assert_allclose(nbr_p, nbr[perm], atol=1e-6)


def test_no_neighbors_equals_zero_sequence(params):
    obs = _observed(3)
    mask = np.zeros((3, 3), dtype=bool)
    out = _neighbors(obs, mask, params)
    zero_out = _neighbors(np.zeros_like(obs), np.zeros((3, 3), dtype=bool), params)
    np.testing.assert_array_equal(out, zero_out)
    # every pedestrian collapses to the same zero-pipeline constant
    np.testing.assert_array_equal(out[0], out[1])


def test_neighbor_label_permutation_invariance(params):
    obs = _observed(4)
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 1] = mask[0, 2] = mask[0, 3] = True
    base = _neighbors(obs, mask, params)[0]
    # relabel pedestrian 0's neighbors by swapping their rows
    perm = np.array([0, 3, 1, 2])
    out = _neighbors(obs[perm], mask, params)[0]
    np.testing.assert_allclose(out, base, atol=1e-6)


def test_duplicate_neighbor_leaves_mean_unchanged(params):
    obs = _observed(3)
    obs[2] = obs[1]                      # two identical neighbors
    one = np.array([[False, True, False],
                    [False, False, False],
                    [False, False, False]])
    two = np.array([[False, True, True],
                    [False, False, False],
                    [False, False, False]])
    a = _neighbors(obs, one, params)[0]
    b = _neighbors(obs, two, params)[0]
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_aggregate_neighbors_masked_mean():
    obs = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
    obs = np.concatenate([obs, obs * 10], axis=0)[:3]
    mask = np.array([[False, True, True],
                     [False, False, False],
                     [True, False, False]])
    agg = guidance.aggregate_neighbors([_window(obs, mask)])
    np.testing.assert_allclose(agg[0], (obs[1] + obs[2]) / 2)
    np.testing.assert_array_equal(agg[1], np.zeros((3, 2)))
    np.testing.assert_allclose(agg[2], obs[0])


def test_aggregate_neighbors_is_the_per_window_mean():
    # the padded batched einsum against one einsum per window, windows of
    # 1-16 pedestrians; the last pedestrian of every window has no neighbors
    rng = np.random.default_rng(3)
    for _ in range(20):
        windows = []
        for n in rng.permutation(np.arange(1, 17))[:rng.integers(1, 9)]:
            mask = np.triu(rng.random((n, n)) < 0.5, 1)
            mask = mask | mask.T
            mask[-1, :] = mask[:, -1] = False
            windows.append(_window(rng.normal(scale=0.3, size=(n, CFG.t_obs, 2)), mask))
        want = np.concatenate([aggregate_window_neighbors(w.observed, w.neighbor_mask)
                               for w in windows])
        got = guidance.aggregate_neighbors(windows)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mask", [np.eye(3, dtype=bool), np.zeros((3, 2), dtype=bool)],
                         ids=["true-diagonal", "not-square"])
def test_aggregate_neighbors_rejects_bad_mask(mask):
    with pytest.raises(ValueError, match="false diagonal"):
        guidance.aggregate_neighbors([_window(_observed(2)), _window(_observed(3), mask)])


def test_encode_windows_concat_and_slicing(params):
    obs = _observed(3)
    mask = np.array([[False, True, False], [True, False, False], [False] * 3])
    emb = guidance.encode_windows([_window(obs, mask)], params, CFG)
    assert emb.shape == (3, CFG.d_phi + CFG.d_psi)
    np.testing.assert_array_equal(emb[:, :CFG.d_phi], _history(obs, params))
    np.testing.assert_array_equal(emb[:, CFG.d_phi:], _neighbors(obs, mask, params))


def test_encoders_keep_no_activation_their_backward_recomputes(params):
    # the query, key and value sequences and the attention output are
    # recomputed by the backward from the kept sequence and weights
    obs = _observed(3)
    mask = np.array([[False, True, False], [True, False, False], [False] * 3])
    keep = {}
    guidance.encode_windows([_window(obs, mask)], params, CFG, keep)
    assert sorted(keep) == ["hist", "nbr"]
    for kept in keep.values():
        assert sorted(kept) == ["att_w", "last", "scale", "seq", "taps"]


def test_history_rejects_bad_shape(params):
    with pytest.raises(nm.NumericsError):
        guidance.encode_windows([_window(np.zeros((2, 5, 2)))], params, CFG)


def test_encoder_gradients_pass_finite_differences():
    cfg = ModelConfig(t_obs=8, conv_channels=2, kernel=3, d_phi=3, d_psi=3)
    obs = np.random.default_rng(5).normal(scale=0.3, size=(2, 8, 2))
    mask = np.array([[False, True], [True, False]])
    params = nm.init_params(guidance.guidance_layout(cfg), np.random.default_rng(1),
                            np.float64)
    proj = np.random.default_rng(2).normal(size=(2, 6))

    def f(p):
        keep = {}
        emb = guidance.encode_windows(
            [SimpleNamespace(observed=obs, neighbor_mask=mask)], p, cfg, keep)
        return (emb * proj).sum(), lambda g: guidance.encoder_backward(g * proj, p, cfg, keep)

    report = finite_difference_check(f, params, step=1e-4, tolerance=1e-2)
    assert report["pass"], report


def _eight_convolutions(x, params, prefix, cfg):
    """The encoder as T full-length causal convolutions, each cut to its
    last timestep: the reference for the collapsed single-matmul encoder.
    With (k - 1) // 2 zero columns in front, the centered convolution's
    output t reads inputs t - k + 1 .. t."""
    n, t = x.shape[0], cfg.t_obs
    xc = transpose(x, (0, 2, 1))                         # [N, 2, T]
    xc = concat([constant(np.zeros((n, 2, (cfg.kernel - 1) // 2)), x.dtype), xc], axis=2)
    tokens = []
    for j in range(t):
        h = conv1d(xc, params[f"{prefix}.conv{j}.w"])
        h = transpose(h, (0, 2, 1))                      # [N, T, C]
        h = tanh(add(h, params[f"{prefix}.conv{j}.b"]))
        tokens.append(slice_(h, (slice(None), slice(t - 1, t), slice(None))))
    seq = concat(tokens, axis=1)                         # [N, T, C]
    q = matmul(seq, params[f"{prefix}.attn.wq"])
    k = matmul(seq, params[f"{prefix}.attn.wk"])
    v = matmul(seq, params[f"{prefix}.attn.wv"])
    att = scaled_dot_attention(q, k, v)                  # [N, T, C]
    flat = reshape(att, (n, t * cfg.conv_channels))
    return add(matmul(flat, params[f"{prefix}.proj.w"]), params[f"{prefix}.proj.b"])


def _convolution_pipeline(windows, params, cfg):
    """``encode_windows`` with each encoder as ``_eight_convolutions``."""
    dtype = params["hist.proj.w"].dtype
    obs = np.concatenate([w.observed for w in windows])
    agg = guidance.aggregate_neighbors(windows)
    return concat([_eight_convolutions(constant(obs, dtype), params, "hist", cfg),
                   _eight_convolutions(constant(agg, dtype), params, "nbr", cfg)], axis=1)


def _encode_op(windows, params, cfg):
    """``encode_windows`` and ``encoder_backward`` as one recorded operation
    over the ``hist.*`` and ``nbr.*`` parameters."""
    keep, arrays = {}, {k: p.data for k, p in params.items()}
    out = guidance.encode_windows(windows, arrays, cfg, keep)
    return recorded(out, params, lambda g: guidance.encoder_backward(g, arrays, cfg, keep))


class TestCollapsedEncoder:
    """The encoders' forward and backward (``_encode_op``) against the
    T-convolution pipeline and against the primitive tape of their own
    body."""

    @staticmethod
    def _values_and_grads(encode, rows, cfg, dtype=np.float32):
        rng = np.random.default_rng(rows)
        obs = rng.normal(scale=0.3, size=(rows, cfg.t_obs, 2))
        mask = np.triu(rng.random((rows, rows)) < 0.5, 1)
        windows = [_window(obs, mask | mask.T)]
        params = parameters(nm.init_params(guidance.guidance_layout(cfg),
                                           np.random.default_rng(rows), dtype))
        proj = np.random.default_rng(rows + 1).normal(size=(rows, cfg.d_phi + cfg.d_psi))
        with ComputationRecord():
            out = encode(windows, params, cfg)
            loss = sum_(mul(out, constant(proj, dtype)))
        grads = backward(loss, params)
        return [out.data] + [grads[name] for name in sorted(params)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel,rows", [(3, 1), (3, 7), (3, 16), (3, 136),
                                             (3, 384), (9, 1), (9, 16), (9, 384)])
    def test_matches_convolution_pipeline(self, kernel, rows, dtype):
        # kernel 9 > t_obs: the reference's last output reads causal padding
        cfg = ModelConfig(kernel=kernel)
        ref = self._values_and_grads(_convolution_pipeline, rows, cfg, dtype)
        new = self._values_and_grads(_encode_op, rows, cfg, dtype)
        assert len(new) == len(ref) == 1 + 2 * (2 * cfg.t_obs + 5)
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype
            if dtype == np.float32:
                np.testing.assert_array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("kernel", [3, 9])
    def test_matches_convolution_pipeline_at_1000_rows(self, kernel):
        # At 1,000 rows OpenBLAS takes another sgemm path for the collapsed
        # conv weight gradient, [2k, N] @ [N, T*C], than for the pipeline's
        # per-position [C, N] @ [N, 2k] contractions, so the two sum in
        # different orders: both encoders' float32 conv weight gradients
        # differ in their last bits (up to 2e-6 of the array's largest
        # value), everything else is equal.  1e-5 of the largest value
        # leaves room for a few float32 roundings of a 1,000-row sum.
        cfg = ModelConfig(kernel=kernel)
        ref = self._values_and_grads(_convolution_pipeline, 1000, cfg)
        new = self._values_and_grads(_encode_op, 1000, cfg)
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype == np.float32
            assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))

    @pytest.mark.parametrize("kernel,rows", [(3, 1), (3, 7), (3, 16), (3, 136),
                                             (3, 384), (3, 1000), (9, 16), (9, 384)])
    def test_matches_tape(self, kernel, rows):
        # the hand-written backward rounds as the primitive tape of the
        # same body does, at every row count
        cfg = ModelConfig(kernel=kernel)
        ref = self._values_and_grads(encode_windows_tape, rows, cfg)
        new = self._values_and_grads(_encode_op, rows, cfg)
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()
