import numpy as np
import pytest

from rclstm.errors import ShapeError
from rclstm.kernels import lstm_pointwise_numpy, sigmoid_stable
from rclstm.linalg import MaskedMatrix


def dense(a):
    """``a`` behind an all-true mask, on the dense BLAS route."""
    a = np.asarray(a, dtype=np.float64)
    mask = np.ones(a.shape, dtype=bool)
    return MaskedMatrix(mask, False).load(a[mask])


def test_matvec_identity():
    x = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(dense(np.eye(3)).dot(x), x)


def test_matvec_zero_matrix():
    assert np.array_equal(dense(np.zeros((2, 4))).dot(np.ones((4, 1))), np.zeros((2, 1)))


def test_matvec_small_case():
    # oracle: [1*1+2*1, 3*1+4*1] = [3, 7]
    a = dense([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(a.dot(np.ones((2, 1))), [[3.0], [7.0]])


def test_matvec_shape_error():
    with pytest.raises(ShapeError):
        dense(np.zeros((2, 3))).dot(np.zeros((4, 1)))


def masked(w, mask, sparse=True):
    return MaskedMatrix(mask, sparse).load(np.asarray(w, dtype=np.float64)[mask])


def as_dense(m):
    return m.dot(np.eye(m.shape[1]))


def test_csr_all_true_mask():
    w = np.arange(6.0).reshape(2, 3)
    a = masked(w, np.ones((2, 3), dtype=bool))
    assert a.nnz == 6
    assert np.array_equal(as_dense(a), w)


def test_csr_all_false_mask():
    a = masked(np.ones((3, 2)), np.zeros((3, 2), dtype=bool))
    assert a.nnz == 0
    assert np.array_equal(as_dense(a), np.zeros((3, 2)))


def test_csr_two_entries():
    # mask keeps (1,0) and (0,2) on a 2x3 matrix: per-row counts 1,1
    w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    m = np.zeros((2, 3), dtype=bool)
    m[1, 0] = True
    m[0, 2] = True
    a = masked(w, m)
    assert a.nnz == 2
    assert np.array_equal(as_dense(a), [[0.0, 0.0, 3.0], [4.0, 0.0, 0.0]])
    for sparse in (True, False):  # values arrive in row-major order: (0,2), (1,0)
        a = MaskedMatrix(m, sparse).load(np.array([3.0, 4.0]))
        assert np.array_equal(as_dense(a), [[0.0, 0.0, 3.0], [4.0, 0.0, 0.0]])


def test_csr_shape_mismatch():
    with pytest.raises(ShapeError):
        MaskedMatrix(np.zeros((2, 3), dtype=bool), True).load(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        MaskedMatrix(np.zeros(3, dtype=bool), True)


def test_csr_densify_round_trip():
    rng = np.random.default_rng(5)
    m = rng.random((6, 7)) < 0.4
    w = rng.normal(size=(6, 7)) * m  # already masked
    a = masked(w, m)
    b = masked(as_dense(a), m)
    assert np.array_equal(as_dense(b), w)


def test_spmv_empty_matrix():
    a = masked(np.ones((3, 3)), np.zeros((3, 3), dtype=bool))
    assert np.array_equal(a.dot(np.ones((3, 1))), np.zeros((3, 1)))


def test_spmv_identity():
    a = masked(np.eye(4), np.eye(4, dtype=bool))
    x = np.array([[4.0], [-1.0], [0.5], [2.0]])
    assert np.array_equal(a.dot(x), x)
    assert np.array_equal(a.tdot(x), x)


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(50, 50))
    m = rng.random((50, 50)) < 0.1
    x = rng.normal(size=(50, 3))
    a = masked(w, m)
    assert np.max(np.abs(a.dot(x) - (w * m) @ x)) < 1e-12
    assert np.max(np.abs(a.tdot(x) - (w * m).T @ x)) < 1e-12
    a.load(2.0 * w[m])  # products follow the values of each load
    assert np.max(np.abs(a.dot(x) - 2.0 * (w * m) @ x)) < 1e-12
    assert np.max(np.abs(a.tdot(x) - 2.0 * (w * m).T @ x)) < 1e-12


def test_spmv_shape_error():
    a = masked(np.eye(3), np.eye(3, dtype=bool))
    with pytest.raises(ShapeError):
        a.dot(np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        a.tdot(np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        a.masked_outer(np.zeros((3, 2)), np.zeros((3, 5)))


def test_spmv_matvec_agreement_many():
    # invariant: 1000 random (matrix, mask, vector) triples agree to 1e-12
    rng = np.random.default_rng(123)
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        w = rng.normal(size=(rows, cols))
        m = rng.random((rows, cols)) < rng.random()
        x = rng.normal(size=cols)
        got = masked(w, m).dot(x[:, None])[:, 0]
        want = (w * m) @ x
        assert np.max(np.abs(got - want)) < 1e-12


def test_kernel_backends_agree():
    # scipy CSR vs dense BLAS on the same masked matrix, every product
    rng = np.random.default_rng(21)
    w = rng.normal(size=(40, 30))
    m = rng.random((40, 30)) < 0.15
    sparse, dense = masked(w, m, sparse=True), masked(w, m, sparse=False)
    x, y = rng.normal(size=(30, 5)), rng.normal(size=(40, 5))
    assert np.max(np.abs(sparse.dot(x) - dense.dot(x))) < 1e-12
    assert np.max(np.abs(sparse.tdot(y) - dense.tdot(y))) < 1e-12
    seq = rng.normal(size=(3, 30, 5))  # one product per leading index, into out
    for route in (sparse, dense):
        out = np.full((3, 40, 5), np.nan)
        assert route.dot(seq, out=out) is out
        assert np.max(np.abs(out - (w * m) @ seq)) < 1e-12
    got, want = sparse.masked_outer(y, x), dense.masked_outer(y, x)
    assert got.shape == want.shape == (int(m.sum()),)
    assert np.max(np.abs(got - (y @ x.T)[m])) < 1e-12
    assert np.max(np.abs(got - want)) < 1e-12


def test_sigmoid_symmetry_points():
    assert sigmoid_stable(np.array([0.0]))[0] == 0.5


def test_tanh_at_one():
    # the candidate gate: high-precision value of (e^2 - 1) / (e^2 + 1)
    a = np.zeros((4, 1))
    a[2] = 1.0
    c, tanh_c, h = np.empty((1, 1)), np.empty((1, 1)), np.empty((1, 1))
    lstm_pointwise_numpy(a, None, c, tanh_c, h)
    assert abs(a[2, 0] - 0.7615941559557649) < 1e-12


def test_activation_properties():
    # 10^4 random inputs including hard saturation at +/-30
    rng = np.random.default_rng(99)
    x = rng.uniform(-30.0, 30.0, size=10_000)
    x[:2] = (-30.0, 30.0)
    s = sigmoid_stable(x)
    assert np.all((s > 0.0) & (s < 1.0))
    assert np.all(np.isfinite(s))
    # sigma(x) + sigma(-x) = 1
    assert np.max(np.abs(s + sigmoid_stable(-x) - 1.0)) < 1e-12
    # tanh(x) = 2*sigma(2x) - 1
    assert np.max(np.abs(np.tanh(x) - (2.0 * sigmoid_stable(2.0 * x) - 1.0))) < 1e-12


@pytest.mark.parametrize("batch", [1, 2, 33])
def test_sparse_route_equals_scipy_bit_for_bit(batch):
    # the sparse route calls the kernels behind scipy's own ``@``
    import scipy.sparse

    rng = np.random.default_rng(batch)
    m = rng.random((60, 45)) < 0.1
    w = rng.normal(size=m.shape) * m
    a = masked(w, m)
    csr = scipy.sparse.csr_matrix(w)
    x, y = rng.normal(size=(45, batch)), rng.normal(size=(60, batch))
    assert np.array_equal(a.dot(x), csr @ x)
    assert np.array_equal(a.tdot(y), csr.T @ y)  # the CSC form
    for product, operand, want in ((a.dot, x, csr @ x), (a.tdot, y, csr.T @ y)):
        zeroed = np.zeros(want.shape)
        assert product(operand, out=zeroed, add=True) is zeroed
        assert np.array_equal(zeroed, want)
        stale = np.full(want.shape, np.nan)  # the plain form overwrites its output
        assert np.array_equal(product(operand, out=stale), want)
    seq, out = rng.normal(size=(3, 45, batch)), np.zeros((3, 60, batch))
    a.dot(seq, out=out)
    assert all(np.array_equal(out[t], csr @ seq[t]) for t in range(3))


@pytest.mark.parametrize("sparse", [True, False], ids=["csr", "dense"])
@pytest.mark.parametrize("batch", [1, 2, 33])
def test_add_form_adds_the_product(sparse, batch):
    rng = np.random.default_rng(40 + batch)
    m = rng.random((60, 45)) < 0.1
    w = rng.normal(size=m.shape) * m
    a = masked(w, m, sparse)
    x, y = rng.normal(size=(45, batch)), rng.normal(size=(60, batch))
    out = rng.normal(size=(60, batch))
    before = out.copy()
    a.dot(x, out=out, add=True)
    assert np.max(np.abs(out - (before + w @ x))) < 1e-12
    out = rng.normal(size=(45, batch))
    before = out.copy()
    a.tdot(y, out=out, add=True)
    assert np.max(np.abs(out - (before + w.T @ y))) < 1e-12
    with pytest.raises(ValueError):
        a.dot(x, add=True)


def test_sparse_route_rejects_layouts_it_would_copy():
    rng = np.random.default_rng(3)
    m = rng.random((6, 5)) < 0.5
    a = masked(rng.normal(size=m.shape), m)
    x = rng.normal(size=(5, 4))
    with pytest.raises(ShapeError, match="operand must be C-contiguous"):
        a.dot(np.asfortranarray(x))
    with pytest.raises(ShapeError, match="operand must be C-contiguous"):
        a.tdot(rng.normal(size=(4, 6)).T)
    with pytest.raises(ShapeError, match="output must be C-contiguous"):
        a.dot(x, out=np.zeros((4, 6)).T)
    with pytest.raises(ShapeError, match="output must be C-contiguous"):
        a.dot(x, out=np.zeros((6, 4), dtype=np.float32), add=True)
    with pytest.raises(ShapeError, match="does not fit"):
        a.dot(x, out=np.zeros((6, 3)))
    with pytest.raises(ShapeError, match="does not fit"):
        a.dot(x[None], out=np.zeros((2, 6, 4)))
    with pytest.raises(ShapeError, match="2-D or 3-D"):
        a.dot(x[None, None])
