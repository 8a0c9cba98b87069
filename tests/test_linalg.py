import sys
import threading
from functools import partial

import numpy as np
import pytest

from rclstm import linalg
from rclstm.errors import ShapeError
from rclstm.kernels import lstm_pointwise_numpy, sigmoid_stable
from rclstm.linalg import MaskedMatrix

from route_mixes import MIXES, product, route_mix


def dense(a):
    """``a`` behind an all-true mask, on the dense BLAS routes."""
    return masked(a, np.ones(np.shape(a), dtype=bool), "dense")


def test_matvec_identity():
    x = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(product(dense(np.eye(3)), False, x), x)


def test_matvec_zero_matrix():
    assert np.array_equal(product(dense(np.zeros((2, 4))), False, np.ones((4, 1))),
                          np.zeros((2, 1)))


def test_matvec_small_case():
    # oracle: [1*1+2*1, 3*1+4*1] = [3, 7]
    a = dense([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(product(a, False, np.ones((2, 1))), [[3.0], [7.0]])


def test_matvec_shape_error():
    with pytest.raises(ShapeError):
        dense(np.zeros((2, 3))).bind(False, np.zeros((1, 4, 1)), np.zeros((1, 2, 1)))


def mask_density(mask):
    return np.count_nonzero(mask) / mask.size


def masked(w, mask, mix="csr"):
    """``w`` behind ``mask``, on the routes of ``mix``."""
    with route_mix(mix):
        return MaskedMatrix(mask, mask_density(mask)).load(np.asarray(w, dtype=np.float64)[mask])


def as_dense(m):
    return product(m, False, np.eye(m.shape[1]))


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
    for mix in MIXES:  # values arrive in row-major order: (0,2), (1,0)
        with route_mix(mix):
            a = MaskedMatrix(m, mask_density(m)).load(np.array([3.0, 4.0]))
        assert np.array_equal(as_dense(a), [[0.0, 0.0, 3.0], [4.0, 0.0, 0.0]])


def test_csr_shape_mismatch():
    with pytest.raises(ShapeError):
        MaskedMatrix(np.zeros((2, 3), dtype=bool), 0.0).load(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        MaskedMatrix(np.zeros(3, dtype=bool), 0.0)


def test_csr_densify_round_trip():
    rng = np.random.default_rng(5)
    m = rng.random((6, 7)) < 0.4
    w = rng.normal(size=(6, 7)) * m  # already masked
    a = masked(w, m)
    b = masked(as_dense(a), m)
    assert np.array_equal(as_dense(b), w)


def test_spmv_empty_matrix():
    a = masked(np.ones((3, 3)), np.zeros((3, 3), dtype=bool))
    assert np.array_equal(product(a, False, np.ones((3, 1))), np.zeros((3, 1)))


def test_spmv_identity():
    a = masked(np.eye(4), np.eye(4, dtype=bool))
    x = np.array([[4.0], [-1.0], [0.5], [2.0]])
    assert np.array_equal(product(a, False, x), x)
    assert np.array_equal(product(a, True, x), x)


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(50, 50))
    m = rng.random((50, 50)) < 0.1
    x = rng.normal(size=(50, 3))
    a = masked(w, m)
    assert np.max(np.abs(product(a, False, x) - (w * m) @ x)) < 1e-12
    assert np.max(np.abs(product(a, True, x) - (w * m).T @ x)) < 1e-12
    a.load(2.0 * w[m])  # products follow the values of each load
    assert np.max(np.abs(product(a, False, x) - 2.0 * (w * m) @ x)) < 1e-12
    assert np.max(np.abs(product(a, True, x) - 2.0 * (w * m).T @ x)) < 1e-12


def test_spmv_shape_error():
    a = masked(np.eye(3), np.eye(3, dtype=bool))
    for transpose in (False, True):
        with pytest.raises(ShapeError):
            a.bind(transpose, np.zeros((1, 4, 1)), np.zeros((1, 3, 1)))
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
        got = product(masked(w, m), False, x[:, None])[:, 0]
        want = (w * m) @ x
        assert np.max(np.abs(got - want)) < 1e-12


def test_kernel_backends_agree():
    # every mix of routes on the same masked matrix, every product
    rng = np.random.default_rng(21)
    w = rng.normal(size=(40, 30))
    m = rng.random((40, 30)) < 0.15
    x, y = rng.normal(size=(30, 5)), rng.normal(size=(40, 5))
    seq = rng.normal(size=(3, 30, 5))  # one product per leading index, into out
    for mix in MIXES:
        a = masked(w, m, mix)
        assert np.max(np.abs(product(a, False, x) - (w * m) @ x)) < 1e-12
        assert np.max(np.abs(product(a, True, y) - (w * m).T @ y)) < 1e-12
        out = np.full((3, 40, 5), np.nan)
        a.bind(False, seq, out)[1](0, 0, 3)
        assert np.max(np.abs(out - (w * m) @ seq)) < 1e-12
        got = a.masked_outer(y, x)
        assert got.shape == (int(m.sum()),)
        assert np.max(np.abs(got - (y @ x.T)[m])) < 1e-12


@pytest.mark.parametrize("mix", ["mixed", "dense"])
def test_dense_masked_outer_gathers_the_masks_entries_bit_for_bit(mix):
    # the dense route gathers at flat indices: the boolean-mask gather's
    # elements in its order.  The sparse route ("csr") sums each entry
    # as its own product, which need not round as one BLAS product does.
    rng = np.random.default_rng(22)
    for shape, density in (((600, 150), 0.1), ((600, 64), 0.1), ((1200, 1), 0.01),
                           ((7, 5), 0.0), ((7, 5), 1.0)):
        m = rng.random(shape) < density
        a = masked(np.zeros(shape), m, mix)
        assert not a.sparse_outer and a.csr_products == (mix == "mixed")
        y, x = rng.normal(size=(shape[0], 40)), rng.normal(size=(shape[1], 40))
        assert np.array_equal(a.masked_outer(y, x), (y @ x.T)[m])


@pytest.mark.parametrize("density, products, outer", [
    (0.01, True, True), (0.1, True, False), (0.5, False, False)])
def test_density_alone_picks_the_routes(density, products, outer):
    # each route builds only what it uses: the CSR arrays or the dense
    # array, and the per-column index only for the sparse masked outer
    rng = np.random.default_rng(4)
    m = rng.random((400, 300)) < density
    a = MaskedMatrix(m, mask_density(m))
    assert (a.csr_products, a.sparse_outer) == (products, outer)
    assert hasattr(a, "_data") == products and hasattr(a, "_w") != products
    assert hasattr(a, "_col_rows") == outer
    # the flat indices the dense routes scatter and gather at
    assert hasattr(a, "_at") == (not products or not outer)


def test_run_tasks_from_many_threads_and_background_jobs():
    # more callers than CPUs, switching threads as often as the
    # interpreter allows: every call gets its own results, and background
    # jobs that call run_tasks finish beside callers that fill the pool
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def call(i):
            return linalg.run_tasks([partial(lambda j: (i, j), j) for j in range(2 + i % 3)])

        jobs = [linalg.in_background(partial(call, i)) for i in range(8)]
        results = {}
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, call(i)))
                   for i in range(8, 16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        results.update((i, job.result(timeout=60)) for i, job in enumerate(jobs))
    finally:
        sys.setswitchinterval(interval)
    assert results == {i: [(i, j) for j in range(2 + i % 3)] for i in range(16)}


def hold_the_pool():
    """Occupy the pool's one thread until the returned event is set; the
    job has started when this returns."""
    started, release = threading.Event(), threading.Event()

    def job():
        started.set()
        release.wait(timeout=60)

    held = linalg.in_background(job)
    assert started.wait(timeout=60)
    return release, held


def test_the_caller_runs_the_tasks_the_pool_has_not_started(one_thread_pool):
    # a caller never queues behind a background job
    release, held = hold_the_pool()
    try:
        ran_on = linalg.run_tasks([threading.current_thread] * 3)
    finally:
        release.set()
        held.result(timeout=60)
    assert ran_on == [threading.current_thread()] * 3


def test_pool_tasks_and_background_jobs_may_call_run_tasks(one_thread_pool):
    started = threading.Event()

    def nested(i):
        started.set()
        return linalg.run_tasks([partial(pow, i, 1), partial(pow, i, 2)])

    def first():
        assert started.wait(timeout=60)  # the pool's thread runs nested(3)
        return "first"

    done = []
    thread = threading.Thread(
        target=lambda: done.append(linalg.run_tasks([first, partial(nested, 3)])), daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and done == [["first", [3, 9]]]
    assert linalg.in_background(partial(nested, 4)).result(timeout=60) == [4, 16]


def test_a_taken_back_tasks_error_waits_for_every_task(one_thread_pool):
    # the pool runs the second task; the caller takes back the third and
    # fourth, last first, and both fail; the first in task order is raised
    # once the pool's task is done too
    started, third_ran, finished = threading.Event(), threading.Event(), []

    def first():
        assert started.wait(timeout=60)

    def slow():
        started.set()
        assert third_ran.wait(timeout=60)
        finished.append(("slow", threading.current_thread()))

    def fail(name):
        finished.append((name, threading.current_thread()))
        if name == "third":
            third_ran.set()
        raise ValueError(name)

    with pytest.raises(ValueError, match="third"):
        linalg.run_tasks([first, slow, partial(fail, "third"), partial(fail, "fourth")])
    me = threading.current_thread()
    assert finished[:2] == [("fourth", me), ("third", me)]
    assert [name for name, thread in finished[2:]] == ["slow"] and finished[2][1] is not me


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
    assert np.array_equal(product(a, False, x), csr @ x)
    assert np.array_equal(product(a, True, y), csr.T @ y)  # the CSC form
    for transpose, operand, want in ((False, x, csr @ x), (True, y, csr.T @ y)):
        zeroed = np.zeros(want.shape)
        a.bind(transpose, operand[None], zeroed[None])[0](0, 0)  # adds onto zeros
        assert np.array_equal(zeroed, want)
        stale = np.full(want.shape, np.nan)  # write overwrites its output
        a.bind(transpose, operand[None], stale[None])[1](0, 0, 1)
        assert np.array_equal(stale, want)
    seq, out = rng.normal(size=(3, 45, batch)), np.full((3, 60, batch), np.nan)
    a.bind(False, seq, out)[1](0, 0, 3)
    assert all(np.array_equal(out[t], csr @ seq[t]) for t in range(3))


@pytest.mark.parametrize("mix", ["csr", "dense"])
@pytest.mark.parametrize("batch", [1, 2, 33])
def test_add_form_adds_the_product(mix, batch):
    # a bound step is the one form of product that adds to its output
    rng = np.random.default_rng(40 + batch)
    m = rng.random((60, 45)) < 0.1
    w = rng.normal(size=m.shape) * m
    a = masked(w, m, mix)
    x, y = rng.normal(size=(45, batch)), rng.normal(size=(60, batch))
    out = rng.normal(size=(60, batch))
    before = out.copy()
    a.bind(False, x[None], out[None])[0](0, 0)
    assert np.max(np.abs(out - (before + w @ x))) < 1e-12
    out = rng.normal(size=(45, batch))
    before = out.copy()
    a.bind(True, y[None], out[None])[0](0, 0)
    assert np.max(np.abs(out - (before + w.T @ y))) < 1e-12


def test_sparse_route_rejects_layouts_it_would_copy():
    # the one-column span writes through a transposed copy of its operand,
    # and still refuses the layouts the per-step kernel call would copy
    rng = np.random.default_rng(3)
    m = rng.random((6, 5)) < 0.5
    a = masked(rng.normal(size=m.shape), m)
    for batch in (1, 4):
        x, out = rng.normal(size=(2, 5, batch)), np.zeros((2, 6, batch))
        with pytest.raises(ShapeError, match="operand must be C-contiguous"):
            a.bind(False, np.asfortranarray(x), out)
        with pytest.raises(ShapeError, match="operand must be C-contiguous"):
            a.bind(True, rng.normal(size=(2, 6, batch + 1))[:, :, :batch], x)
        with pytest.raises(ShapeError, match="output must be C-contiguous"):
            a.bind(False, x, np.zeros((2, 6, batch + 1))[:, :, :batch])
        with pytest.raises(ShapeError, match="output must be C-contiguous float64"):
            a.bind(False, x, out.astype(np.float32))
        with pytest.raises(ShapeError, match="does not fit"):
            a.bind(False, x, np.zeros((2, 6, batch + 1)))
        with pytest.raises(ShapeError, match="does not fit"):
            a.bind(False, x[None], out)


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("form", ["new", "out", "chunks"])
def test_one_column_sequence_equals_its_steps(steps, form):
    # a (T, cols, 1) span written in one kernel call over the (cols, T)
    # transpose has the bits of T single-column products, each added onto
    # zeros by ``add``: written whole into a new or a stale output, or a
    # chunk of steps at a time into slices of one, as the backward writes
    # a layer's input gradient
    rng = np.random.default_rng(50 + steps)
    m = rng.random((60, 45)) < 0.1
    a = masked(rng.normal(size=m.shape), m)
    for transpose, cols, rows in ((False, 45, 60), (True, 60, 45)):
        seq = rng.normal(size=(steps, cols, 1))
        want = np.zeros((steps, rows, 1))
        add, _ = a.bind(transpose, seq, want)
        for t in range(steps):
            add(t, t)
        got = np.empty((steps, rows, 1)) if form == "new" else np.full((steps, rows, 1), np.nan)
        _, write = a.bind(transpose, seq, got)
        if form == "chunks":
            for lo in range(0, steps, 2):  # chunks of two steps, the last of one
                write(lo, lo, min(2, steps - lo))
        else:
            write(0, 0, steps)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mix", ["csr", "dense"])
@pytest.mark.parametrize("batch", [1, 3])
def test_bound_step_adds_one_product(mix, batch):
    rng = np.random.default_rng(60 + batch)
    m = rng.random((60, 45)) < 0.1
    a = masked(rng.normal(size=m.shape), m, mix)
    for transpose, cols, rows in ((False, 45, 60), (True, 60, 45)):
        x, out = rng.normal(size=(4, cols, batch)), rng.normal(size=(2, rows, batch))
        out[1] = 0.0  # add adds onto zeros the bits write writes
        want = out.copy()
        a.bind(transpose, x, want)[1](3, 1, 1)
        add, _ = a.bind(transpose, x, out)
        add(3, 1)
        assert np.array_equal(out, want)
        with pytest.raises(IndexError):
            add(4, 0)


@pytest.mark.parametrize("mix", ["csr", "dense"])
@pytest.mark.parametrize("batch", [1, 3])
def test_write_puts_each_step_of_a_span_at_its_offset(mix, batch):
    # write(i, j, n) sets out[j + s] to M @ x[i + s] for s < n, leaves the
    # other output steps alone, and raises on a span that overruns either
    rng = np.random.default_rng(70 + batch)
    m = rng.random((60, 45)) < 0.1
    w = rng.normal(size=m.shape) * m
    a = masked(w, m, mix)
    x, out = rng.normal(size=(5, 45, batch)), rng.normal(size=(4, 60, batch))
    before = out.copy()
    _, write = a.bind(False, x, out)
    write(2, 1, 3)
    assert np.array_equal(out[0], before[0])
    for s in range(3):
        assert np.max(np.abs(out[1 + s] - w @ x[2 + s])) < 1e-12
    for i, j, n in ((3, 0, 3), (0, 2, 3), (-1, 0, 2)):
        with pytest.raises(IndexError):
            write(i, j, n)


@pytest.mark.parametrize("transpose", [False, True])
def test_bind_refuses_buffers_a_product_would_refuse(monkeypatch, transpose):
    def no_kernel(*args):
        raise AssertionError("a kernel ran")

    for name in ("csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs"):
        monkeypatch.setattr(linalg, name, no_kernel)
    rng = np.random.default_rng(4)
    m = rng.random((6, 5)) < 0.5
    a = masked(rng.normal(size=m.shape), m)
    rows, cols = (5, 6) if transpose else (6, 5)
    x, out = np.zeros((3, cols, 2)), np.zeros((3, rows, 2))
    for bad_x, bad_out, message in [
            (np.zeros((3, 2, cols)).transpose(0, 2, 1), out, "operand must be C-contiguous"),
            (x.astype(np.float32), out, "operand must be C-contiguous float64"),
            (x, np.zeros((3, 2, rows)).transpose(0, 2, 1), "output must be C-contiguous"),
            (x, out.astype(np.float32), "output must be C-contiguous float64"),
            (np.zeros((3, cols + 1, 2)), out, "does not fit"),
            (x, np.zeros((3, rows + 1, 2)), "does not fit"),
            (x, np.zeros((3, rows, 3)), "does not fit"),
            (x[0], out, "does not fit"),
            (x, out[0], "does not fit")]:
        with pytest.raises(ShapeError, match=message):
            a.bind(transpose, bad_x, bad_out)


@pytest.mark.parametrize("mix", ["csr", "dense"])
@pytest.mark.parametrize("transpose", [False, True])
def test_bind_refuses_an_output_that_overlaps_its_operand(monkeypatch, mix, transpose):
    # a kernel writing over its own operand would read its results back
    # without any error, so no buffers that may share memory are bound
    def no_kernel(*args):
        raise AssertionError("a kernel ran")

    for name in ("csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs"):
        monkeypatch.setattr(linalg, name, no_kernel)
    rng = np.random.default_rng(6)
    m = rng.random((6, 6)) < 0.5
    a = masked(rng.normal(size=m.shape), m, mix)
    buf = np.zeros((4, 6, 2))
    for x, out in ((buf, buf), (buf[:3], buf[1:]), (buf[::2], buf[1::2]), (buf[:2], buf[1:3])):
        with pytest.raises(ShapeError, match="overlap"):
            a.bind(transpose, x, out)
    a.bind(transpose, buf[:2], buf[2:])  # disjoint steps of one buffer may be bound
