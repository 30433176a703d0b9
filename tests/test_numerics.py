"""The reference tape (its primitives, `_make` and `backward`), which
package modules may name a pass's `_make` and `backward`, gradient
correctness, and the settings ranges."""

import ast
import gc
import math
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from references import (ComputationRecord, Tensor, _make, add, backward, concat, constant,
                        conv1d, exp, finite_difference_check, log, matmul, mean, mul,
                        parameter, reciprocal_positive, reshape, scaled_dot_attention,
                        slice_, softplus, sum_, tanh, transpose)
from trajdiff import numerics as nm


def test_add_direct():
    out = add(constant([1.0, 2.0]), constant([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [4.0, 6.0])


def test_matmul_identity():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    out = matmul(constant(np.eye(2)), constant(a))
    np.testing.assert_allclose(out.data, a, rtol=1e-6)


def test_backward_sum_of_squares():
    x = parameter([1.0, 2.0])
    with ComputationRecord():
        loss = sum_(mul(x, x))
    grads = backward(loss, {"x": x})
    np.testing.assert_allclose(grads["x"], [2.0, 4.0], rtol=1e-6)


def test_backward_constant_loss_gives_zeros():
    x = parameter([1.0, 2.0])
    loss = constant(5.0)
    grads = backward(loss, {"x": x})
    np.testing.assert_array_equal(grads["x"], [0.0, 0.0])


def test_backward_unreferenced_param_is_zero():
    x = parameter([1.0, 2.0])
    unused = parameter([[3.0]])
    with ComputationRecord():
        loss = mean(mul(x, x))
    grads = backward(loss, {"x": x, "unused": unused})
    assert grads["unused"].shape == (1, 1)
    np.testing.assert_array_equal(grads["unused"], [[0.0]])


def test_backward_twice_on_same_record_errors():
    x = parameter([1.0])
    with ComputationRecord():
        loss = sum_(mul(x, x))
    backward(loss, {"x": x})
    with pytest.raises(nm.NumericsError, match="twice"):
        backward(loss, {"x": x})


def test_backward_releases_the_record():
    x = parameter(np.random.default_rng(0).normal(size=(4, 3)))
    w = parameter(np.random.default_rng(1).normal(size=(3, 2)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with ComputationRecord() as rec:
            h = tanh(matmul(x, w))
            loss = sum_(mul(h, h))
        alive = weakref.ref(h.data)
        del h
        backward(loss, {"x": x, "w": w})
        # freed by reference counting, with the cyclic collector off
        assert rec.entries == []
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()
    with pytest.raises(nm.NumericsError, match="twice"):
        backward(loss, {"x": x, "w": w})


def test_backward_requires_scalar():
    x = parameter([1.0, 2.0])
    with ComputationRecord():
        y = mul(x, x)
    with pytest.raises(nm.NumericsError, match="scalar"):
        backward(y, {"x": x})


def test_no_recording_outside_a_record():
    x = parameter([1.0, 2.0])
    y = mul(x, x)
    assert y._rec is None


def test_non_finite_surfaces_as_error():
    with pytest.raises(nm.NumericsError):
        log(constant([-1.0]))
    with pytest.raises(nm.NumericsError):
        Tensor([np.nan])


def test_broadcast_trailing_only():
    a = constant(np.ones((2, 3, 4)))
    b = constant(np.ones(4))
    assert add(a, b).shape == (2, 3, 4)
    with pytest.raises(nm.NumericsError):
        add(a, constant(np.ones(3)))
    with pytest.raises(nm.NumericsError):
        add(a, constant(np.ones((3, 1))))


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(0)
    x = constant(rng.normal(size=(2, 3, 7)))
    w = np.zeros((3, 3, 1))
    for c in range(3):
        w[c, c, 0] = 1.0
    out = conv1d(x, constant(w))
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


def test_forward_bit_reproducible():
    def run():
        rng = np.random.default_rng(42)
        x = constant(rng.normal(size=(4, 6)))
        w = constant(rng.normal(size=(6, 3)))
        return softplus(tanh(matmul(x, w))).data.tobytes()

    assert run() == run()


def test_reciprocal_positive():
    x = constant([0.5, 2.0, 10.0])
    np.testing.assert_allclose(reciprocal_positive(x).data, [2.0, 0.5, 0.1],
                               rtol=1e-5)


# ---------------------------------------------------------------------------
# Per-primitive gradients against central differences


def _scalarize(out, rng):
    # project to a scalar with a fixed random weighting so every output
    # element influences the loss
    w = constant(rng.normal(size=out.shape), out.dtype)
    return sum_(mul(out, w))


def _primitive_cases():
    rng = np.random.default_rng(7)

    def r(*shape):
        return rng.normal(size=shape)

    cases = {
        "add": (lambda p: add(p["a"], p["b"]), {"a": r(3, 4), "b": r(3, 4)}),
        "add_broadcast": (lambda p: add(p["a"], p["b"]), {"a": r(2, 3, 4), "b": r(4)}),
        "mul": (lambda p: mul(p["a"], p["b"]), {"a": r(3, 4), "b": r(3, 4)}),
        "mul_broadcast": (lambda p: mul(p["a"], p["b"]), {"a": r(2, 3, 4), "b": r(4)}),
        "matmul": (lambda p: matmul(p["a"], p["b"]), {"a": r(3, 4), "b": r(4, 2)}),
        "matmul_batched": (lambda p: matmul(p["a"], p["b"]),
                           {"a": r(2, 3, 4), "b": r(4, 2)}),
        "conv1d_same": (lambda p: conv1d(p["x"], p["w"]),
                        {"x": r(2, 3, 6), "w": r(4, 3, 3)}),
        "transpose": (lambda p: transpose(p["x"], (2, 0, 1)), {"x": r(2, 3, 4)}),
        "reshape": (lambda p: reshape(p["x"], (3, 4)), {"x": r(2, 6)}),
        "concat": (lambda p: concat([p["a"], p["b"]], axis=1),
                   {"a": r(2, 3), "b": r(2, 2)}),
        "slice": (lambda p: slice_(p["x"], (slice(0, 2), slice(1, 3))),
                  {"x": r(3, 4)}),
        "slice_int": (lambda p: slice_(p["x"], (slice(None), 2)), {"x": r(3, 4)}),
        "mean_all": (lambda p: mean(p["x"]), {"x": r(3, 4)}),
        "mean_axis": (lambda p: mean(p["x"], axis=1, keepdims=True), {"x": r(3, 4)}),
        "sum_axes": (lambda p: sum_(p["x"], axis=(0, 2)), {"x": r(2, 3, 4)}),
        "exp": (lambda p: exp(p["x"]), {"x": r(3, 4)}),
        "log": (lambda p: log(p["x"]), {"x": np.abs(r(3, 4)) + 0.5}),
        "tanh": (lambda p: tanh(p["x"]), {"x": r(3, 4)}),
        "softplus": (lambda p: softplus(p["x"]), {"x": r(3, 4)}),
        "attention": (lambda p: scaled_dot_attention(p["q"], p["k"], p["v"]),
                      {"q": r(2, 3, 4), "k": r(2, 3, 4), "v": r(2, 3, 4)}),
        "reciprocal_positive": (lambda p: reciprocal_positive(p["x"]),
                                {"x": np.abs(r(3, 4)) + 0.5}),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_backward_matches_finite_differences(name):
    build, raw_params = _primitive_cases()[name]
    assert sum(np.size(v) for v in raw_params.values()) <= 3 * 64
    params = {k: parameter(v, np.float64) for k, v in raw_params.items()}
    report = finite_difference_check(
        lambda p: _scalarize(build(p), np.random.default_rng(5)),
        params, step=1e-4, tolerance=1e-2)
    assert report["pass"], f"{name}: {report}"


def test_fd_check_quadratic_exactness():
    w = parameter([0.5, -1.5, 2.0])
    report = finite_difference_check(
        lambda p: sum_(mul(p["w"], p["w"])), {"w": w},
        step=1e-3, tolerance=1e-4)
    assert report["pass"], report


def test_fd_check_flags_corrupted_backward():
    def wrong_double(x):
        # forward x * 2 but backward pretends the factor was 3
        return _make(x.data * 2.0, (x,), lambda g: (3.0 * g,))

    w = parameter([1.0, -0.5])
    report = finite_difference_check(
        lambda p: sum_(wrong_double(p["w"])), {"w": w},
        step=1e-3, tolerance=1e-2)
    assert not report["pass"]


def test_fd_check_rejects_nondeterministic_f():
    rng = np.random.default_rng(0)
    w = parameter([1.0])

    def noisy(p):
        return sum_(mul(p["w"], float(rng.normal())))

    with pytest.raises(nm.NumericsError, match="deterministic"):
        finite_difference_check(noisy, {"w": w})


def test_a_pass_is_its_checked_loss_and_one_backward():
    seeds = []

    def grads(g):
        seeds.append(g)
        return {"w": np.array([3.0]) * g}       # float64, cast on the way out

    out = nm.backward(nm._make(np.float32(2.0), grads))
    assert seeds == [1.0]
    assert out["w"].dtype == np.float32 and out["w"].tolist() == [3.0]
    with pytest.raises(nm.NumericsError, match="non-finite loss"):
        nm._make(np.float32(np.nan), grads)


def test_only_numerics_and_training_know_the_tape():
    # the tape lives in the tests; every module is a forward and a backward
    # on plain arrays, and only numerics and training name a training
    # pass's ``_make`` and ``backward``; no module names a process-wide
    # dtype, since a model's dtype is its parameters'
    tape = {"Tensor", "ComputationRecord", "constant", "parameter", "requires_grad"}
    training_pass = {"_make", "backward"}
    process_dtype = {"precision", "default_dtype", "_DTYPE"}
    found = []
    for path in sorted(Path(nm.__file__).parent.glob("*.py")):
        banned = tape | process_dtype | (set() if path.name in ("numerics.py", "training.py")
                                         else training_pass)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            found += [(path.name, node.lineno, name) for name in sorted(banned & names)]
    assert found == []


def test_tensor_values_are_row_major():
    t = transpose(constant(np.arange(6.0).reshape(2, 3)), (1, 0))
    assert t.data.flags["C_CONTIGUOUS"]


# ---------------------------------------------------------------------------
# Dtypes: every primitive keeps its operands' dtype, forward and backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_keeps_dtype(name, dtype):
    build, raw_params = _primitive_cases()[name]
    params = {k: parameter(v, dtype) for k, v in raw_params.items()}
    with ComputationRecord() as rec:
        out = build(params)
    assert out.data.dtype == dtype
    assert rec.entries
    for entry in rec.entries:
        grads = entry.grad_fn(np.ones_like(entry.out.data))
        for t, g in zip(entry.inputs, grads):
            if t.requires_grad:
                assert g.dtype == dtype, f"{name}: gradient is {g.dtype}"


def test_make_rejects_a_promoted_output():
    # a float64 operand in a float32 operation, a float64 result of float32
    # operands, and a float64 array where a float32 pass expects its own
    narrow, wide = constant(np.ones(2, np.float32)), constant([1.0, 2.0])
    assert mul(wide, 2.0).dtype == np.float64 and mul(narrow, 2.0).dtype == np.float32
    with pytest.raises(nm.NumericsError, match="mix float32 and float64"):
        mul(narrow, wide)
    with pytest.raises(nm.NumericsError, match="float64"):
        _make(np.zeros(3), (narrow,), None)
    with pytest.raises(nm.NumericsError, match="loss is float64, not float32"):
        nm.checked(np.float64(1.0), np.float32, "loss")


# ---------------------------------------------------------------------------
# Fast paths against their references


def _einsum_attention(q, k, v, g):
    """Attention forward and backward as einsums: the reference for the
    batched-matmul primitive."""
    scale = 1.0 / np.sqrt(q.shape[2])
    scores = np.einsum("ntd,nsd->nts", q, k) * scale
    scores -= scores.max(axis=2, keepdims=True)
    e = np.exp(scores)
    w = e / e.sum(axis=2, keepdims=True)
    out = np.einsum("nts,nsd->ntd", w, v)
    gw = np.einsum("ntd,nsd->nts", g, v)
    gv = np.einsum("nts,ntd->nsd", w, g)
    gs = w * (gw - (gw * w).sum(axis=2, keepdims=True))
    gq = np.einsum("nts,nsd->ntd", gs, k) * scale
    gk = np.einsum("nts,ntd->nsd", gs, q) * scale
    return out, gq, gk, gv


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 4), (384, 8, 32)])
def test_attention_matches_einsum_reference(shape, dtype, tol):
    rng = np.random.default_rng(shape[0])
    q, k, v, g = (rng.normal(size=shape).astype(dtype) for _ in range(4))
    params = {"q": parameter(q), "k": parameter(k), "v": parameter(v)}
    with ComputationRecord():
        out = scaled_dot_attention(params["q"], params["k"], params["v"])
        loss = sum_(mul(out, constant(g)))
    grads = backward(loss, params)
    got = [out.data, grads["q"], grads["k"], grads["v"]]
    for a, b in zip(got, _einsum_attention(q, k, v, g)):
        assert a.dtype == dtype
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


@dataclass
class _Settings:
    count: int = nm.setting(2, 1)
    rate: float = nm.setting(0.5, 0.0, 1.0, above=True)
    seed: int = nm.setting(0, 0, math.inf)
    steps: int | None = nm.setting(None, 1)
    name: str = "x"


@pytest.mark.parametrize("change,message", [
    ({"count": 0}, "demo count must be in 1..1000000, got 0"),
    ({"count": 10 ** 6 + 1}, "demo count must be in 1..1000000, got 1000001"),
    ({"rate": 0.0}, "demo rate must be in 0..1, above 0, got 0.0"),
    ({"rate": float("nan")}, "demo rate must be in 0..1, above 0, got nan"),
    ({"seed": -1}, "demo seed must be in 0..inf, got -1"),
    ({"steps": 0}, "demo steps must be in 1..1000000, got 0"),
    ({"count": 0, "seed": -1}, "demo count must be"),
])
def test_check_settings_names_the_first_field_outside_its_range(change, message):
    cfg = _Settings()
    nm.check_settings(cfg, "demo")        # None passes, and undeclared fields
    cfg.__dict__.update(change)
    with pytest.raises(ValueError, match=f"^{message}"):
        nm.check_settings(cfg, "demo")


def test_check_settings_takes_the_bounds():
    cfg = _Settings(count=10 ** 6, rate=1.0, seed=10 ** 30, steps=1)
    nm.check_settings(cfg, "demo")
