import numpy as np
import pytest

from rclstm.cell import (LstmLayerParams, backward_factors, cell_backward,
                         cell_forward, generate_mask, init_layer)
from rclstm.errors import ShapeError

from reference_lstm import (DenseLstmReference, numeric_gradient,
                            relative_gradient_error)
from route_mixes import MIXES, product, route_mix


def make_layer(input_dim, hidden, density, seed):
    return init_layer(input_dim, hidden, density=density, seed=seed)


def on_mix(layer, mix):
    """A layer sharing ``layer``'s weights and biases whose blocks take the
    routes of ``mix``."""
    twin = LstmLayerParams(layer.input_dim, layer.hidden_dim, layer.values, layer.b,
                           layer.mask)
    with route_mix(mix):
        twin.products()
    return twin


def run_step(layer, x, h0=None, c0=None):
    """One timestep through the cell API.  ``x`` is (B, D) and the states
    (B, H), batch-major; returns (h, c) batch-major plus the feature-major
    gate activations that ``backward_factors`` takes."""
    ops = layer.products()
    a = product(ops.x, False, np.asarray(x, dtype=np.float64).T.copy()) + layer.b[:, None]
    shape = (layer.hidden_dim, a.shape[1])
    c, tanh_c, h = np.empty(shape), np.empty(shape), np.empty(shape)
    if h0 is None:
        cell_forward(None, None, a, None, c, tanh_c, h)
    else:
        # one-step buffers for the recurrent product: h0 in, a (as a view) out
        cell_forward(ops.h.bind(False, h0.T.copy()[None], a[None])[0], (0, 0), a,
                     c0.T.copy(), c, tanh_c, h)
    return h.T, c.T, a


def step_grads(layer, x, h0, c0, grad_h, grad_c):
    """Gradients of one timestep wrt (w, b, x, h0, c0), batch-major, given
    the loss gradients wrt its outputs h and c; the one wrt w is a value
    vector of the live weights in ``np.flatnonzero(mask.bits)`` order.

    The step is the second of a two-step cache whose first step holds
    only c0, the memory cell the step reads."""
    _, c, a = run_step(layer, x, h0, c0)
    gates, cs, p_c = np.stack([a, a]), np.stack([c0.T, c.T]), np.empty((1, *c.T.shape))
    backward_factors(gates, cs, 1, p_c)
    ops = layer.products()
    grad_c_prev = grad_c.T.copy()
    grad_hs = np.stack([np.zeros(h0.T.shape), grad_h.T])  # the two steps' grad_h
    cell_backward(ops.h.bind(True, gates, grad_hs)[0], (1, 0), gates[1], cs[1], p_c[0],
                  grad_hs[1], grad_c_prev, np.empty_like(grad_c_prev))
    grad_h_prev = grad_hs[0]
    da = gates[1]
    grad_w = np.empty(int(layer.mask.bits.sum()))
    grad_w[ops.x_at] = ops.x.masked_outer(da, x.T)
    grad_w[ops.h_at] = ops.h.masked_outer(da, h0.T)
    return grad_w, da.sum(axis=1), product(ops.x, True, da).T, grad_h_prev.T, grad_c_prev.T


class TestGenerateMask:
    def test_full_density(self):
        m = generate_mask(8, 5, 1.0, seed=0)
        assert m.bits.all() and m.density == 1.0

    def test_zero_density(self):
        m = generate_mask(8, 5, 0.0, seed=0)
        assert not m.bits.any() and m.density == 0.0

    def test_probabilistic_binomial_bound(self):
        m = generate_mask(200, 200, 0.01, seed=11)
        n = 200 * 200
        expect = n * 0.01
        sd = np.sqrt(n * 0.01 * 0.99)
        assert abs(m.bits.sum() - expect) <= 4 * sd

    def test_seed_determinism(self):
        a = generate_mask(20, 30, 0.3, seed=42)
        b = generate_mask(20, 30, 0.3, seed=42)
        assert np.array_equal(a.bits, b.bits)

    def test_density_out_of_range(self):
        with pytest.raises(ValueError):
            generate_mask(4, 4, 1.5, seed=0)


class TestCellForward:
    def test_zero_weights_zero_state(self):
        layer = make_layer(3, 4, 1.0, seed=0)
        layer.values[:] = 0.0
        layer.b[:] = 0.0
        h, c, gates = run_step(layer, np.ones((1, 3)))
        f, i, z, o = gates.reshape(4, 4)
        assert np.allclose(f, 0.5) and np.allclose(i, 0.5)
        assert np.allclose(o, 0.5) and np.allclose(z, 0.0)
        assert np.array_equal(c, np.zeros((1, 4)))
        assert np.array_equal(h, np.zeros((1, 4)))

    def test_zero_weights_carries_half_cell(self):
        layer = make_layer(2, 5, 1.0, seed=1)
        layer.values[:] = 0.0
        layer.b[:] = 0.0
        c_prev = np.linspace(-1.0, 1.0, 5)[None]
        h, c, _ = run_step(layer, np.zeros((1, 2)), np.zeros((1, 5)), c_prev.copy())
        assert np.max(np.abs(c - 0.5 * c_prev)) < 1e-15
        assert np.max(np.abs(h - 0.5 * np.tanh(0.5 * c_prev))) < 1e-15

    def test_full_density_matches_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d, hidden = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            layer = make_layer(d, hidden, 1.0, seed=int(rng.integers(1_000_000)))
            x = rng.normal(size=d)
            h0 = rng.normal(size=hidden) * 0.5
            c0 = rng.normal(size=hidden)
            ref = DenseLstmReference.from_stacked(layer.w, layer.b)
            hs, cs, _ = ref.forward([x], h0=h0, c0=c0)
            for mix in MIXES:
                h, c, _ = run_step(on_mix(layer, mix), x[None], h0[None], c0[None])
                assert np.max(np.abs(h[0] - hs[0])) < 1e-12
                assert np.max(np.abs(c[0] - cs[0])) < 1e-12

    def test_sparse_and_dense_paths_agree(self):
        rng = np.random.default_rng(5)
        layer = make_layer(3, 32, 0.03, seed=9)
        x = rng.normal(size=(4, 3))
        h0, c0 = rng.normal(size=(4, 32)) * 0.3, rng.normal(size=(4, 32))
        gh, gc = rng.normal(size=(4, 32)), rng.normal(size=(4, 32))
        (csr, csr_grads), *others = [
            (run_step(twin, x, h0, c0), step_grads(twin, x, h0, c0, gh, gc))
            for twin in (on_mix(layer, mix) for mix in MIXES)]
        for outs, grads in others:
            for got, want in zip(outs + grads, csr + csr_grads):
                assert np.max(np.abs(got - want)) < 1e-12

    def test_batched_matches_single(self):
        rng = np.random.default_rng(31)
        layer = make_layer(2, 6, 0.5, seed=2)
        xs = rng.normal(size=(4, 2))
        h0 = rng.normal(size=(4, 6)) * 0.2
        c0 = rng.normal(size=(4, 6))
        bh, bc, _ = run_step(layer, xs, h0, c0)
        for j in range(4):
            h, c, _ = run_step(layer, xs[j : j + 1], h0[j : j + 1], c0[j : j + 1])
            assert np.max(np.abs(bh[j] - h[0])) < 1e-12
            assert np.max(np.abs(bc[j] - c[0])) < 1e-12

    def test_gate_ranges(self):
        rng = np.random.default_rng(8)
        layer = make_layer(3, 16, 0.6, seed=12)
        h, c = np.zeros((1, 16)), np.zeros((1, 16))
        for _ in range(10):
            h, c, gates = run_step(layer, rng.normal(size=(1, 3)) * 5.0, h, c)
            f, i, z, o = gates.reshape(4, 16)
            for gate in (f, i, o):
                assert np.all((gate > 0.0) & (gate < 1.0))
            assert np.all(np.abs(z) <= 1.0)
            assert np.all(np.abs(h) < 1.0)

    def test_dimension_mismatch(self):
        layer = make_layer(3, 4, 1.0, seed=0)
        with pytest.raises(ShapeError):
            run_step(layer, np.zeros((1, 5)))


class TestCellBackward:
    def test_zero_upstream_grads(self):
        layer = make_layer(2, 4, 1.0, seed=4)
        zeros = np.zeros((1, 4))
        grads = step_grads(layer, np.ones((1, 2)), zeros, zeros, zeros, zeros)
        assert not any(g.any() for g in grads)

    def test_masked_positions_zero(self):
        rng = np.random.default_rng(13)
        for density in (0.3, 0.02):
            layer = make_layer(3, 40, density, seed=6)
            grad_w = step_grads(layer, rng.normal(size=(2, 3)),
                                rng.normal(size=(2, 40)) * 0.1, rng.normal(size=(2, 40)),
                                rng.normal(size=(2, 40)), rng.normal(size=(2, 40)))[0]
            assert grad_w.shape == (int(layer.mask.bits.sum()),)
            assert np.any(grad_w != 0.0)

    def test_matches_reference_backward(self):
        rng = np.random.default_rng(23)
        layer = make_layer(3, 5, 1.0, seed=14)
        x = rng.normal(size=3)
        h0 = rng.normal(size=5) * 0.4
        c0 = rng.normal(size=5)
        dh = rng.normal(size=5)
        dc = rng.normal(size=5)
        ref = DenseLstmReference.from_stacked(layer.w, layer.b)
        _, _, trace = ref.forward([x], h0=h0, c0=c0)
        dw, db, dxs, dh0, dc0 = ref.backward([x], trace, dh, dc, h0=h0, c0=c0)
        for mix in MIXES:
            got = step_grads(on_mix(layer, mix), x[None], h0[None], c0[None], dh[None],
                             dc[None])
            for g, want in zip(got, (dw, db, dxs[0], dh0, dc0)):
                assert np.max(np.abs(g.reshape(want.shape) - want)) < 1e-12

    def test_finite_difference_check(self):
        # H=4, D=3 with a partial mask; loss = sum(gh*h) + sum(gc*c)
        rng = np.random.default_rng(77)
        layer = make_layer(3, 4, 0.7, seed=15)
        x = rng.normal(size=(1, 3))
        h0 = rng.normal(size=(1, 4)) * 0.3
        c0 = rng.normal(size=(1, 4))
        gh = rng.normal(size=(1, 4))
        gc = rng.normal(size=(1, 4))
        for mix in MIXES:
            twin = on_mix(layer, mix)

            def loss():
                twin.sync()
                h, c, _ = run_step(twin, x, h0, c0)
                return float(np.sum(gh * h) + np.sum(gc * c))

            grad_w, grad_b, grad_x, grad_h0, grad_c0 = step_grads(twin, x, h0, c0, gh, gc)
            num_w = numeric_gradient(loss, twin.values)
            assert relative_gradient_error(grad_w, num_w) < 1e-5
            assert relative_gradient_error(grad_b, numeric_gradient(loss, twin.b)) < 1e-5
            assert relative_gradient_error(grad_x, numeric_gradient(loss, x)) < 1e-5
            assert relative_gradient_error(grad_h0, numeric_gradient(loss, h0)) < 1e-5
            assert relative_gradient_error(grad_c0, numeric_gradient(loss, c0)) < 1e-5


def test_layer_nnz_tracks_density():
    layer = make_layer(10, 20, 0.03, seed=3)
    ops = layer.products()
    assert ops.x.nnz + ops.h.nnz == int(layer.mask.bits.sum())


def test_layer_determinism():
    a = init_layer(4, 8, density=0.4, seed=123)
    b = init_layer(4, 8, density=0.4, seed=123)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.mask.bits, b.mask.bits)


@pytest.mark.parametrize("input_dim, hidden", [(1, 1), (4, 8), (64, 150), (300, 300)])
@pytest.mark.parametrize("density", [0.0, 0.01, 0.3, 1.0])
def test_layer_values_are_the_uniform_draws_at_the_mask(input_dim, hidden, density):
    # the layer's values are those of the full uniform draw gathered at
    # the mask, bit for bit
    for seed in (0, 7, 2**40 + 3):
        layer = init_layer(input_dim, hidden, density=density, seed=seed)
        _, w_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        scale = 1.0 / np.sqrt(input_dim + hidden)
        draws = np.random.default_rng(w_seed).uniform(
            -scale, scale, size=(4 * hidden, input_dim + hidden))
        assert np.array_equal(layer.values, draws[layer.mask.bits])
