import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgcl import autodiff as ad
from acgcl.augment import quantile
from acgcl.config import TrainConfig
from acgcl.encoder import init_gcn_params
from acgcl.errors import ContractError, ShapeError
from acgcl.graph import SbmConfig, generate_sbm
from acgcl.trainer import curriculum_inputs, init_optimizer, run_inner_step
from oracles import (dense_scatter_sum, directional_grad_check, matmul, pairwise_euclidean_diff,
                     prelu, prelu_where, row_sq_norm, take_rows_dense)


def test_sum_of_parameter_gives_ones():
    w = ad.parameter(np.arange(6.0).reshape(2, 3))
    grad = ad.gradients(ad.sum_all(w), [w])[0]
    assert np.array_equal(grad, np.ones((2, 3)))


def test_analytic_quadratic():
    # loss = |x|^2 -> grad 2x
    x = ad.parameter(np.array([1.0, -2.0, 0.5]))
    loss = ad.sum_all(ad.mul(x, x))
    assert np.allclose(ad.gradients(loss, [x])[0], [2.0, -4.0, 1.0])


def test_backward_requires_scalar_root():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ContractError):
        ad.backward(ad.mul(x, x))


def test_unreachable_parameter_gets_zero_gradient():
    x = ad.parameter(np.ones(2))
    y = ad.parameter(np.ones(2))
    loss = ad.sum_all(ad.mul(x, x))
    gx, gy = ad.gradients(loss, [x, y])
    assert np.array_equal(gy, np.zeros(2))
    assert np.array_equal(gx, 2 * np.ones(2))


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
    for x, w, slope in ((np.ones((2, 3)), np.ones((2, 3)), 0.25),
                        (np.ones(3), np.ones((3, 2)), 0.25),
                        (np.ones((2, 3)), np.ones((3, 2)), np.ones(1))):
        with pytest.raises(ShapeError):
            ad.linear_prelu(ad.Tensor(x), ad.parameter(w), ad.parameter(slope))


def test_reused_node_accumulates():
    x = ad.parameter(np.array(3.0))
    y = ad.add(ad.mul(x, x), x)   # x^2 + x -> 2x + 1
    assert ad.gradients(y, [x])[0] == pytest.approx(7.0)


def test_two_paths_through_add_double_the_single_path_gradient(rng):
    """``add`` hands both parents the same contribution array, and each
    parent keeps its first contribution as its gradient; a leaf reached
    through both must still get exactly twice the gradient of one path."""
    x = ad.parameter(rng.standard_normal((4, 3)))
    w, c = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))

    def path():
        return ad.sigmoid(ad.mul(matmul(x, w), c))

    single = ad.gradients(ad.sum_all(path()), [x])[0]
    two_nodes = ad.gradients(ad.sum_all(ad.add(path(), path())), [x])[0]
    shared = path()
    one_node = ad.gradients(ad.sum_all(ad.add(shared, shared)), [x])[0]
    assert np.array_equal(two_nodes, 2 * single)
    assert np.array_equal(one_node, 2 * single)


def test_backward_drops_interior_gradients_and_keeps_leaf_gradients(rng):
    # Small integers keep every sum exact, whatever the accumulation order.
    x, y, c = (rng.integers(-9, 10, size=(3, 2)).astype(float) for _ in range(3))
    x, y = ad.parameter(x), ad.parameter(y)
    total = ad.add(x, y)
    weighted = ad.mul(total, c)
    squared = ad.mul(x, x)
    root = ad.add(ad.sum_all(weighted), ad.sum_all(squared))
    ad.backward(root)
    for interior in (total, weighted, squared, root):
        assert interior.grad is None
    assert np.array_equal(y.grad, c)
    assert np.array_equal(x.grad, c + 2.0 * x.value)


def test_take_rows_rejects_repeated_indices():
    x = ad.parameter(np.array([[1.0], [2.0]]))
    with pytest.raises(ContractError, match="^take_rows: repeated row indices$"):
        ad.take_rows(x, np.array([0, 0, 1]))


def test_take_rows_unique_unsorted_ids_match_scatter_add(rng):
    x = ad.parameter(rng.standard_normal((7, 3)))
    ids = np.array([5, 0, 3, 6, 1])
    g = rng.standard_normal((5, 3))
    grad = ad.gradients(ad.sum_all(ad.mul(ad.take_rows(x, ids), ad.Tensor(g))), [x])[0]
    want = np.zeros((7, 3))
    np.add.at(want, ids, g)
    assert np.array_equal(grad, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=12))
def test_take_rows_passes_rows_exactly_when_numpy_finds_them_distinct(ids):
    """Ids numpy finds distinct come back as ``Rows``; any others fail
    before a tape node exists."""
    x = ad.parameter(np.ones((10, 2)))
    if np.unique(ids).size < len(ids):
        with pytest.raises(ContractError):
            ad.take_rows(x, ids)
        return
    (contribution,) = ad.take_rows(x, ids)._backward_fn(np.ones((len(ids), 2)))
    assert isinstance(contribution, ad.Rows)


ROW_IDS = {"rows": [4, 0, 6], "more-rows": [6, 1]}


def arriving_terms(take, x, y, kinds, weights, arrived):
    """One scalar term per kind, each reaching x through one node that logs
    its kind in ``arrived`` when the sweep reaches it: a gather (``take``)
    of ROW_IDS[kind], a dense product ("dense"), the read-only ones of a
    ``sum_all`` ("ones"), or one array handed to both x and y ("shared")."""
    terms = []
    for kind in kinds:
        if kind == "ones":
            node = ad.sum_all(x)
        elif kind == "shared":
            node = ad.add(x, y)
        elif kind == "dense":
            node = ad.mul(x, ad.Tensor(weights[kind]))
        else:
            node = take(x, ROW_IDS[kind])
        first = node._backward_fn
        node._backward_fn = lambda g, first=first, kind=kind: (arrived.append(kind), first(g))[1]
        terms.append(node if kind == "ones" else ad.sum_all(ad.mul(node, ad.Tensor(weights[kind]))))
    return terms


@pytest.mark.parametrize("kinds", [
    ("rows",), ("rows", "dense"), ("dense", "rows"), ("dense", "rows", "dense"),
    ("rows", "more-rows"), ("ones", "rows"), ("shared", "rows"),
], ids="-then-".join)
def test_row_contributions_match_the_dense_scatter(kinds, rng):
    """Contributions reach leaf x in the order of ``kinds``. The gradients
    of x and y are byte-equal to those of the same tape with gathers that
    scatter into full arrays."""
    x0, y0 = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
    weights = {kind: rng.standard_normal((len(ROW_IDS.get(kind, x0)), 3)) for kind in kinds}
    results = []
    for take in (ad.take_rows, take_rows_dense):
        x, y = ad.parameter(x0), ad.parameter(y0)
        arrived = []
        terms = arriving_terms(take, x, y, kinds, weights, arrived)
        root = terms[0]
        for term in terms[1:]:
            root = ad.add(root, term)
        results.append(ad.gradients(root, [x, y]))
        assert arrived == list(kinds)
    for got, want in zip(*results):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_row_contribution_leaves_other_rows_untouched():
    """Rows outside the gather keep their bits, a -0.0 among them, where a
    dense zero array would have turned it into +0.0."""
    x = ad.parameter(np.ones((3, 2)))
    signs = ad.Tensor(np.array([[-0.0, 1.0], [2.0, 3.0], [-0.0, -0.0]]))
    root = ad.add(ad.sum_all(ad.mul(x, signs)), ad.sum_all(ad.take_rows(x, [1])))
    grad = ad.gradients(root, [x])[0]
    assert np.array_equal(grad.view(np.int64),
                          np.array([[-0.0, 1.0], [3.0, 4.0], [-0.0, -0.0]]).view(np.int64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True),
                min_size=2, max_size=3),
       st.integers(0, 3), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_row_gradients_stay_sparse_and_keep_the_dense_scatter_bits(ids, dense_at, order, seed):
    """A leaf reached by two or three gathers, with overlapping or disjoint
    ids, and one dense product, the terms summed in a drawn order. Its
    gradient has the bits of the dense-scatter oracle fed the contributions
    in the order they arrived, -0.0 entries among them."""
    rng = np.random.default_rng(seed)
    n, d = 10, 3
    x = ad.parameter(rng.standard_normal((n, d)))
    dense = rng.standard_normal((n, d))
    weights = [rng.standard_normal((len(i), d)) for i in ids]
    for w in (dense, *weights):             # -0.0 + -0.0 alone keeps the sign of a zero
        w[rng.random(w.shape) < 0.3] = -0.0
    arrived = []

    def logged(node, contribution):
        first = node._backward_fn
        node._backward_fn = lambda g: (arrived.append(contribution), first(g))[1]
        return node

    terms = [ad.sum_all(ad.mul(logged(ad.take_rows(x, i), (np.asarray(i), w)), ad.Tensor(w)))
             for i, w in zip(ids, weights)]
    terms.insert(min(dense_at, len(terms)),
                 ad.sum_all(logged(ad.mul(x, ad.Tensor(dense)), dense)))
    order.shuffle(terms)
    root = terms[0]
    for term in terms[1:]:
        root = ad.add(root, term)
    (grad,) = ad.gradients(root, [x])
    assert len(arrived) == len(terms)
    assert_same_bits(grad, dense_scatter_sum(arrived, (n, d)))


@pytest.mark.parametrize("slope", [0.25, 1.5])
def test_linear_prelu_reads_a_row_gradient_as_its_dense_form(slope, rng):
    """A layer reads a ``Rows`` upstream as it is: one gather's, in the
    gather's order, or two overlapping gathers' merged into one. Its weight,
    slope and input gradients have the bits of the same layer fed the dense
    form of that upstream, whether called directly or swept with gathers
    that scatter densely."""
    x0, w0 = rng.standard_normal((40, 16)), rng.standard_normal((16, 8))
    first, second = (ad.Rows(rng.permutation(40)[:30], rng.standard_normal((30, 8)))
                     for _ in range(2))
    first.rows[3] = 0.0                     # a dead row of the first, maybe live through the second
    merged = ad._merge_rows(first, second)
    assert np.array_equal(merged.indices, np.sort(np.unique(np.r_[first.indices, second.indices])))
    for parts, upstream in (((first,), first), ((first, second), merged)):
        dense = dense_scatter_sum([tuple(part) for part in parts], (40, 8))
        node = ad.linear_prelu(ad.parameter(x0), ad.parameter(w0), ad.parameter(np.asarray(slope)))
        (dx, dw, ds), (want_dx, want_dw, want_ds) = (node._backward_fn(g) for g in (upstream, dense))
        assert np.array_equal(dx.indices, want_dx.indices)
        for got, want in ((dx.rows, want_dx.rows), (dw, want_dw), (ds, want_ds)):
            assert_same_bits(got, want)

        swept = []
        for take in (ad.take_rows, take_rows_dense):
            x, w, s = ad.parameter(x0), ad.parameter(w0), ad.parameter(np.asarray(slope))
            h = ad.linear_prelu(x, w, s)
            terms = [ad.sum_all(ad.mul(take(h, part.indices), ad.Tensor(part.rows)))
                     for part in parts]
            swept.append(ad.gradients(terms[0] if len(terms) == 1 else ad.add(*terms), [x, w, s]))
        for got, want in zip(*swept):
            assert_same_bits(got, want)


def test_sweep_never_writes_into_a_shared_contribution(rng):
    """``add`` hands both its parents one array. A leaf that keeps it as its
    first contribution, then gets a second and a third, must get the right
    sum while the other parent's gradient, the same array, stays as it was.
    A sweep frees the graph it passes, so each sweep gets a graph of its own."""
    x, y = ad.parameter(rng.standard_normal((4, 3))), ad.parameter(rng.standard_normal((4, 3)))
    c1, c2, c3 = (rng.integers(-9, 10, size=(4, 3)).astype(float) for _ in range(3))

    def graph():
        shared = ad.mul(ad.add(x, y), ad.Tensor(c1))
        return ad.add(ad.add(ad.sum_all(shared), ad.sum_all(ad.mul(x, ad.Tensor(c2)))),
                      ad.sum_all(ad.mul(x, ad.Tensor(c3))))

    ad.backward(graph())
    assert np.array_equal(y.grad, c1)
    assert np.array_equal(x.grad, c1 + c2 + c3)
    gx, gy = ad.gradients(graph(), [x, y])
    assert np.array_equal(gy, c1) and np.array_equal(gx, c1 + c2 + c3)
    assert gx.flags.writeable and gy.flags.writeable


def test_a_second_sweep_of_a_swept_graph_fails(rng):
    """The sweep frees what it passes, so a second sweep from the same root,
    or from a new root built on a swept node, fails with a ContractError
    instead of giving zeros, and leaves the first sweep's leaf gradient as
    it was."""
    x = ad.Tensor([[3.0, 5.0, 7.0]])
    w = ad.parameter(rng.uniform(0.5, 1.0, size=(3, 2)))
    s = ad.parameter(0.25)
    h = ad.linear_prelu(x, w, s)
    loss = ad.sum_all(h)
    ad.backward(loss)
    want = np.array([[3.0, 3.0], [5.0, 5.0], [7.0, 7.0]])
    assert np.array_equal(w.grad, want)
    with pytest.raises(ContractError, match="earlier sweep"):
        ad.backward(loss)
    assert np.array_equal(w.grad, want)
    for root in (loss, ad.sum_all(ad.mul(h, ad.Tensor(2.0)))):
        with pytest.raises(ContractError, match="earlier sweep"):
            ad.gradients(root, [w])
    (fresh,) = ad.gradients(ad.sum_all(ad.linear_prelu(x, w, s)), [w])
    assert np.array_equal(fresh, want)


def test_row_sq_dist_is_bit_identical_to_the_sub_mul_sum_chain(rng):
    a, b = rng.standard_normal((50, 16)), rng.standard_normal((50, 16))
    a[3] = b[3]                             # one coincident row
    g = rng.standard_normal(50)
    results = []
    for fn in (ad.row_sq_dist, lambda p, q: row_sq_norm(ad.sub(p, q))):
        ta, tb = ad.parameter(a), ad.parameter(b)
        out = fn(ta, tb)
        results.append((out.value, *ad.gradients(ad.sum_all(ad.mul(out, ad.Tensor(g))),
                                                  [ta, tb])))
    for got, want in zip(*results):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def dense_form(contribution, shape):
    """A closure's contribution as a full array: ``Rows`` written into zeros
    of ``shape``, which fails unless the rows fit it; others as they are."""
    if not isinstance(contribution, ad.Rows):
        return contribution
    out = np.zeros(shape)
    out[contribution.indices] = contribution.rows
    return out


def zero_upstream_rows(g, rows, neg_rows):
    """``g`` with ``rows`` set to +0.0 and ``neg_rows`` to -0.0."""
    g = g.copy()
    g[rows] = 0.0
    g[neg_rows] = -0.0
    return g


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_row_sq_dist_contributes_the_rows_with_a_nonzero_upstream(rng):
    """Rows with an upstream gradient of +-0 get no contribution; the others
    get the bits of the sub -> mul -> sum chain, and made dense the
    contributions equal that chain's gradients."""
    a, b = rng.standard_normal((50, 16)), rng.standard_normal((50, 16))
    a[3] = b[3]                             # one coincident row
    dead, neg = [0, 7, 8, 49], [12, 30]
    g = zero_upstream_rows(rng.standard_normal(50), dead, neg)
    live = np.setdiff1d(np.arange(50), dead + neg)
    contributions = ad.row_sq_dist(ad.parameter(a), ad.parameter(b))._backward_fn(g)
    ta, tb = ad.parameter(a), ad.parameter(b)
    chain = row_sq_norm(ad.sub(ta, tb))
    want = ad.gradients(ad.sum_all(ad.mul(chain, ad.Tensor(g))), [ta, tb])
    for got, chain_grad in zip(contributions, want):
        assert isinstance(got, ad.Rows)
        assert np.array_equal(got.indices, live)
        assert_same_bits(got.rows, chain_grad[live])
        assert np.array_equal(dense_form(got, a.shape), chain_grad)


def test_row_sq_dist_keeps_no_row_array_after_the_forward_pass(rng):
    n, d = 4096, 32
    a, b = ad.parameter(rng.standard_normal((n, d))), ad.parameter(rng.standard_normal((n, d)))
    tracemalloc.start()
    try:
        out = ad.row_sq_dist(a, b)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n,)
    assert held < n * d * 8 // 4        # the (n,) value and the closure, no (n, d) array


@pytest.mark.parametrize("x_grad", [False, True], ids=["x-constant", "x-requires-grad"])
@pytest.mark.parametrize("slope", [0.25, 1.0, 1.5, -0.5])
def test_linear_prelu_is_bit_identical_to_prelu_of_matmul(slope, x_grad, rng):
    """Value and gradients byte-equal to the two-node layer, with exact
    zeros in x @ w from a zero row of x and a zero column of w."""
    x0, w0 = rng.standard_normal((40, 16)), rng.standard_normal((16, 8))
    x0[3] = 0.0
    w0[:, 5] = 0.0
    g = rng.standard_normal((40, 8))
    results = []
    for fn in (ad.linear_prelu, lambda x, w, s: prelu(matmul(x, w), s)):
        x = ad.parameter(x0) if x_grad else ad.Tensor(x0)
        w, s = ad.parameter(w0), ad.parameter(np.asarray(slope))
        out = fn(x, w, s)
        grads = ad.gradients(ad.sum_all(ad.mul(out, ad.Tensor(g))), [w, s, x][:2 + x_grad])
        results.append((out.value, *grads))
    assert np.count_nonzero(x0 @ w0 == 0.0) == 40 + 8 - 1     # row 3 and column 5
    for got, want in zip(*results):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def linear_prelu_gradients(fn, x0, w0, slope, g, x_grad):
    """Value and the (w, slope[, x]) gradients of sum(fn(x, w, slope) * g)."""
    x = ad.parameter(x0) if x_grad else ad.Tensor(x0)
    w, s = ad.parameter(w0), ad.parameter(np.asarray(slope))
    out = fn(x, w, s)
    return out.value, *ad.gradients(ad.sum_all(ad.mul(out, ad.Tensor(g))), [w, s, x][:2 + x_grad])


def two_node_layer(x, w, s):
    return prelu(matmul(x, w), s)


@pytest.mark.parametrize("x_grad", [False, True], ids=["x-constant", "x-requires-grad"])
@pytest.mark.parametrize("slope", [0.25, 1.0, 1.5, -0.5])
def test_linear_prelu_forms_gradients_on_live_rows_only(slope, x_grad, rng):
    """Upstream rows of +-0 are dead: they reach neither sum nor dx. The
    value keeps its bits; dW and the slope gradient are the two-node layer's
    on the live rows alone, byte for byte, and within 1e-14 of its sums over
    all rows; dx has the two-node layer's bits on the live rows, and the dead
    rows get no contribution."""
    x0, w0 = rng.standard_normal((40, 16)), rng.standard_normal((16, 8))
    x0[3] = 0.0                             # exact zeros in the product of a live row
    g = zero_upstream_rows(rng.standard_normal((40, 8)), [0, 5, 6, 17, 39], [10, 11])
    g[20, :4] = -0.0                        # live: a row with some nonzero entries
    live = np.flatnonzero(g.any(axis=1))
    assert live.size == 40 - 7

    got = linear_prelu_gradients(ad.linear_prelu, x0, w0, slope, g, x_grad)
    dense = linear_prelu_gradients(two_node_layer, x0, w0, slope, g, x_grad)
    on_live = linear_prelu_gradients(two_node_layer, x0[live], w0, slope, g[live], x_grad)
    assert_same_bits(got[0], dense[0])
    for got_sum, dense_sum, live_sum in zip(got[1:3], dense[1:3], on_live[1:3]):
        assert_same_bits(got_sum, live_sum)
        assert np.abs(got_sum - dense_sum).max() <= 1e-14 * np.abs(dense_sum).max()
    if x_grad:
        assert_same_bits(got[3][live], dense[3][live])
        assert_same_bits(got[3][live], on_live[3])
        assert not got[3][np.setdiff1d(np.arange(40), live)].view(np.int64).any()   # +0.0 only
        node = ad.linear_prelu(ad.parameter(x0), ad.parameter(w0), ad.parameter(np.asarray(slope)))
        dx = node._backward_fn(g)[0]
        assert isinstance(dx, ad.Rows) and np.array_equal(dx.indices, live)


@pytest.mark.parametrize("x_grad", [False, True], ids=["x-constant", "x-requires-grad"])
def test_linear_prelu_all_zero_upstream_gives_zero_gradients(x_grad, rng):
    x0, w0 = rng.standard_normal((12, 5)), rng.standard_normal((5, 3))
    g = zero_upstream_rows(np.zeros((12, 3)), [], [2, 7])
    _, *grads = linear_prelu_gradients(ad.linear_prelu, x0, w0, 0.25, g, x_grad)
    assert len(grads) == 2 + x_grad
    for grad in grads:
        assert not np.asarray(grad).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_prelu_dead_row_with_a_non_finite_product_reaches_no_gradient(bad, rng):
    """A dead row's product is never formed again, so a nan or inf in it
    leaves dW and the slope gradient as they are without it."""
    x0, w0 = rng.standard_normal((20, 6)), rng.standard_normal((6, 4))
    g = zero_upstream_rows(rng.standard_normal((20, 4)), [4, 9], [])
    clean = linear_prelu_gradients(ad.linear_prelu, x0, w0, 0.25, g, True)
    x0[9, 2] = bad
    with np.errstate(invalid="ignore"):
        value, *grads = linear_prelu_gradients(ad.linear_prelu, x0, w0, 0.25, g, True)
    assert not np.isfinite(value[9]).any()
    for got, want in zip(grads, clean[1:]):
        assert_same_bits(got, want)


def test_linear_prelu_keeps_no_product_after_the_forward_pass(rng):
    """The node holds its (rows, d_out) value and no second such array, where
    prelu of a matmul holds the product too."""
    rows, d_in, d_out = 4096, 16, 64
    x = ad.Tensor(rng.standard_normal((rows, d_in)))
    w, slope = ad.parameter(rng.standard_normal((d_in, d_out))), ad.parameter(np.asarray(0.25))
    held = {}
    for name, fn in (("node", ad.linear_prelu), ("pair", lambda *t: prelu(matmul(*t[:2]), t[2]))):
        tracemalloc.start()
        try:
            out = fn(x, w, slope)
            held[name], _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, d_out)
        del out
    array = rows * d_out * 8
    assert held["pair"] > 2 * array
    assert held["node"] < array + array // 4


@pytest.mark.parametrize("rows", [40, ad.ROW_BLOCK + 1], ids=["one-block", "one-row-tail"])
@pytest.mark.parametrize("slope", [0.25, 1.0, 1.5, -0.5])
def test_a_dropped_linear_prelu_value_comes_back_with_the_forward_bytes(slope, rows, rng):
    """A sweep drops the layer's value; a later read of ``.value`` forms it
    again with the bits of the forward pass, which are the two-node layer's,
    and so does a form of any rows, a single row among them. The zero row
    of x and zero column of w put exact zeros in the product."""
    x0, w0 = rng.standard_normal((rows, 16)), rng.standard_normal((16, 8))
    x0[3] = 0.0
    w0[:, 5] = 0.0
    w, s = ad.parameter(w0), ad.parameter(np.asarray(slope))
    out = ad.linear_prelu(ad.Tensor(x0), w, s)
    forward = out.value.copy()
    assert_same_bits(forward, two_node_layer(ad.Tensor(x0), w, s).value)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(rng.standard_normal((rows, 8))))))
    assert out._value is None and out.shape == (rows, 8)
    for picked in ([rows - 1], [3], [0, 3, rows - 1], np.arange(0, rows, 3)):
        assert_same_bits(out._form(np.asarray(picked)), forward[picked])
    assert_same_bits(out.value, forward)
    assert out._value is not None           # formed once, then kept


def test_row_sq_dist_reads_dropped_layer_rows_with_the_bits_of_constant_copies(rng):
    """The two triplet distances of three layer outputs read their live rows
    through the layers' forms, since the sweep dropped the values, and their
    contributions have the bytes that row_sq_dist gives over parameter
    copies of those values. Upstream rows of +-0 stay dead."""
    n = ad.ROW_BLOCK + 300
    w, s = ad.parameter(rng.standard_normal((16, 8))), ad.parameter(np.asarray(0.25))
    views = [ad.linear_prelu(ad.Tensor(rng.standard_normal((n, 16))), w, s) for _ in range(3)]
    copies = [ad.parameter(view.value.copy()) for view in views]
    g = zero_upstream_rows(rng.standard_normal(n), [0, 5, n - 1], [7])
    contributions = {}

    def recorded(name, node):
        backward_fn = node._backward_fn

        def record(up):
            contributions[name] = backward_fn(up)
            return contributions[name]

        node._backward_fn = record
        return node

    h, h_pos, h_neg = views
    pos = recorded("pos", ad.row_sq_dist(h, h_pos))
    neg = recorded("neg", ad.row_sq_dist(h, h_neg))
    ad.backward(ad.sum_all(ad.mul(ad.sub(pos, neg), ad.Tensor(g))))
    assert all(view._value is None for view in views)
    # the sweep hands pos the upstream g and neg -g
    want = {"pos": ad.row_sq_dist(copies[0], copies[1])._backward_fn(g),
            "neg": ad.row_sq_dist(copies[0], copies[2])._backward_fn(-g)}
    live = np.setdiff1d(np.arange(n), [0, 5, 7, n - 1])
    for name in ("pos", "neg"):
        for got, expected in zip(contributions[name], want[name]):
            assert np.array_equal(got.indices, live) and np.array_equal(expected.indices, live)
            assert_same_bits(got.rows, expected.rows)


@pytest.mark.parametrize("layers", [1, 2])
def test_a_training_step_forms_no_full_layer_value_in_its_sweep(layers, monkeypatch):
    """Every GCN layer of a step's three views drops its value when the
    sweep starts, and no reader of it forms all of its rows again: the
    triplet distances form their live rows, and nothing reads ``.value``."""
    g = generate_sbm(SbmConfig(block_sizes=(20, 20), p_intra=0.3, p_inter=0.02, feature_dim=4,
                               feature_noise=0.5), seed=0)
    cfg = TrainConfig(seed=0, subgraph_size=5, embedding_dim=8, gcn_layers=layers, batch_size=20,
                      balance_max_points=16, sinkhorn_iters=20)
    subs, search = curriculum_inputs(g, cfg)
    mirrors = search.adjacencies(quantile(search.distances, cfg.theta0))
    params = init_gcn_params(g.feature_dim, cfg.embedding_dim, layers, cfg.seed)
    opt = init_optimizer([t.value for t in params.all_parameters()])
    layer_nodes, forms = [], []
    linear_prelu = ad.linear_prelu

    def counting_layer(x, w, s):
        node = linear_prelu(x, w, s)
        form = node._form
        node._form = lambda rows=None: (forms.append("all" if rows is None else rows.size),
                                        form(rows))[1]
        layer_nodes.append(node)
        return node

    monkeypatch.setattr(ad, "linear_prelu", counting_layer)
    run_inner_step(params, opt, subs, mirrors, 0, 0, cfg, None)
    assert len(layer_nodes) == 3 * layers
    assert all(node._value is None for node in layer_nodes)
    assert "all" not in forms
    assert len(forms) == 4                  # h twice, h_pos and h_neg once


def test_sweep_holds_at_most_two_contributions(rng):
    """A chain of gathers and products whose closures each make one large
    array. A gather's rows are copied into a gradient the sweep makes, and
    the sweep drops them then, so at most two arrays of the chain's size are
    alive at once: three when they stayed alive through the next closure."""
    n, d, links = 512, 512, 4
    x = ad.parameter(rng.standard_normal((n, d)))
    h = x
    for _ in range(links):
        h = ad.mul(ad.take_rows(h, rng.permutation(n)), ad.Tensor(2.0))
    root = ad.sum_all(h)
    tracemalloc.start()
    try:
        ad.backward(root)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == (n, d)
    assert peak < 2.5 * n * d * 8


def test_block_matmul_matches_loop(rng):
    blocks = rng.standard_normal((3, 4, 4))
    h = rng.standard_normal((12, 5))
    out = ad.block_matmul(blocks, ad.Tensor(h)).value
    for i in range(3):
        assert np.allclose(out[4 * i:4 * (i + 1)], blocks[i] @ h[4 * i:4 * (i + 1)])


@pytest.mark.parametrize("shape", [(300, 30, 64), (256, 20, 128), (3, 1, 2)])
def test_block_matmul_matches_einsum(rng, shape):
    n_blocks, k, d = shape
    blocks = rng.standard_normal((n_blocks, k, k))
    h = ad.parameter(rng.standard_normal((n_blocks * k, d)))
    g = rng.standard_normal((n_blocks * k, d))
    out = ad.block_matmul(blocks, h)
    grad = ad.gradients(ad.sum_all(ad.mul(out, ad.Tensor(g))), [h])[0]
    want = np.einsum("bij,bjd->bid", blocks, h.value.reshape(n_blocks, k, d))
    want_grad = np.einsum("bji,bjd->bid", blocks, g.reshape(n_blocks, k, d))
    np.testing.assert_allclose(out.value, want.reshape(-1, d), rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad, want_grad.reshape(-1, d), rtol=0, atol=1e-12)


def test_broadcast_add_unbroadcasts(rng):
    a = ad.parameter(rng.standard_normal((4, 3)))
    b = ad.parameter(rng.standard_normal(()))
    loss = ad.sum_all(ad.add(a, b))
    ga, gb = ad.gradients(loss, [a, b])
    assert np.array_equal(ga, np.ones((4, 3)))
    assert gb == pytest.approx(12.0)


PRELU_SLOPES = {"prelu": 0.3, "prelu_above_1": 1.5, "prelu_below_0": -0.5}
LINEAR_PRELU_SLOPES = {"linear_prelu": 0.3, "linear_prelu_above_1": 1.5,
                       "linear_prelu_below_0": -0.5}


@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "matmul", "relu", *PRELU_SLOPES, *LINEAR_PRELU_SLOPES, "sigmoid",
    "sum_axis0", "sum_axis1", "mean_axis", "reshape", "take_rows",
    "block_matmul", "pairwise_euclidean", "row_sq_dist",
])
def test_finite_difference_per_op(op_name, rng):
    def build(values):
        a, b, c = [ad.parameter(v) for v in values] + [None] * (3 - len(values))
        if op_name == "add":
            out = ad.add(a, b)
        elif op_name == "sub":
            out = ad.sub(a, b)
        elif op_name == "mul":
            out = ad.mul(a, b)
        elif op_name == "matmul":
            out = matmul(a, b)
        elif op_name == "relu":
            out = ad.relu(a)
        elif op_name in PRELU_SLOPES:
            out = prelu(a, b)
        elif op_name in LINEAR_PRELU_SLOPES:
            out = ad.linear_prelu(a, b, c)
        elif op_name == "sigmoid":
            out = ad.sigmoid(a)
        elif op_name == "sum_axis0":
            out = ad.sum_axis(a, 0)
        elif op_name == "sum_axis1":
            out = ad.sum_axis(a, 1)
        elif op_name == "mean_axis":
            out = ad.mean_axis(a, 1)
        elif op_name == "reshape":
            out = ad.reshape(a, (6, 2))
        elif op_name == "take_rows":
            out = ad.take_rows(a, np.array([2, 0]))
        elif op_name == "block_matmul":
            out = ad.block_matmul(BLOCKS, a)
        elif op_name == "pairwise_euclidean":
            out = ad.pairwise_euclidean(a, b)
        elif op_name == "row_sq_dist":
            out = ad.row_sq_dist(a, b)
        # fold into a scalar with fixed mixing weights so gradients are generic
        mix = ad.Tensor(MIX[: out.value.size].reshape(out.value.shape))
        loss = ad.sum_all(ad.mul(out, mix))
        return loss, [t for t in (a, b, c) if t is not None]

    global BLOCKS, MIX
    BLOCKS = rng.standard_normal((2, 2, 2))
    MIX = rng.standard_normal(64)
    worst = directional_grad_check(build, operand_values(op_name, rng), rng)
    assert worst < 1e-4


def operand_values(op_name, rng):
    if op_name == "matmul":
        return [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]
    if op_name in PRELU_SLOPES:
        return [rng.standard_normal((3, 4)), np.asarray(PRELU_SLOPES[op_name])]
    if op_name in LINEAR_PRELU_SLOPES:
        return [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                np.asarray(LINEAR_PRELU_SLOPES[op_name])]
    if op_name == "pairwise_euclidean":
        return [rng.standard_normal((4, 3)), rng.standard_normal((5, 3))]
    if op_name == "block_matmul":
        return [rng.standard_normal((4, 3))]
    if op_name in ("add", "sub", "mul", "row_sq_dist"):
        return [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]
    return [rng.standard_normal((3, 4))]


@pytest.mark.parametrize("slope", [-0.5, 0.0, 0.25, 1.0, 1.5])
@pytest.mark.parametrize("with_nan", [False, True], ids=["signed-zeros", "nan"])
def test_prelu_is_bit_identical_to_the_select_form(slope, with_nan, rng):
    a = rng.standard_normal((30, 7))
    special = [0.0, -0.0, np.nan] if with_nan else [0.0, -0.0]
    a.flat[rng.choice(a.size, 12, replace=False)] = special * (12 // len(special))
    g = rng.standard_normal(a.shape)
    results = []
    for fn in (prelu, prelu_where):
        x, s = ad.parameter(a), ad.parameter(np.asarray(slope))
        out = fn(x, s)
        results.append((out.value, *ad.gradients(ad.sum_all(ad.mul(out, ad.Tensor(g))), [x, s])))
    for got, want in zip(*results):
        assert np.array_equal(got, want, equal_nan=True)
        # signed zeros as well: every non-nan entry has the same bits
        number = ~np.isnan(want)
        assert np.array_equal(got[number].view(np.int64), want[number].view(np.int64))


@pytest.mark.parametrize("constant", [0, 1], ids=["constant-left", "constant-right"])
@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "matmul", "prelu",
                                     "pairwise_euclidean", "row_sq_dist"])
def test_constant_operand_gets_no_gradient(op_name, constant, rng):
    """The backward closure returns None for an operand that needs no
    gradient, and the other operand's gradient is still right."""
    op = {"matmul": matmul, "prelu": prelu}.get(op_name) or getattr(ad, op_name)
    values = operand_values(op_name, rng)
    fixed, mix = values[constant], rng.standard_normal(64)

    def operands(param):
        return (ad.Tensor(fixed), param) if constant == 0 else (param, ad.Tensor(fixed))

    def build(vals):
        param = ad.parameter(vals[0])
        out = op(*operands(param))
        return ad.sum_all(ad.mul(out, ad.Tensor(mix[:out.value.size].reshape(out.shape)))), [param]

    param = ad.parameter(values[1 - constant])
    out = op(*operands(param))
    contributions = out._backward_fn(rng.standard_normal(out.shape))
    assert contributions[constant] is None
    assert dense_form(contributions[1 - constant], param.shape).shape == param.shape
    assert directional_grad_check(build, [values[1 - constant]], rng) < 1e-4


class TestPairwiseEuclidean:
    """The Gram form against the (m, n, d) difference form."""

    @staticmethod
    def both(p, q, mix):
        out = []
        for fn in (ad.pairwise_euclidean, pairwise_euclidean_diff):
            tp, tq = ad.parameter(p), ad.parameter(q)
            dist = fn(tp, tq)
            out.append((dist.value, *ad.gradients(ad.sum_all(ad.mul(dist, ad.Tensor(mix))),
                                                   [tp, tq])))
        return out

    @staticmethod
    def assert_close(got, want, rtol):
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= rtol * np.abs(w).max()

    def test_generic_rows(self, rng):
        p, q = rng.standard_normal((40, 16)), rng.standard_normal((30, 16)) + 0.5
        got, want = self.both(p, q, rng.standard_normal((40, 30)))
        self.assert_close(got, want, 1e-12)

    def test_coincident_and_near_rows(self, rng):
        # rows 0-19 of q repeat p's, rows 20-29 are 1e-9 away, the rest are generic
        p = rng.standard_normal((40, 16))
        q = np.concatenate([p[:20], p[20:30] + 1e-9 * rng.standard_normal((10, 16)),
                            rng.standard_normal((10, 16))])
        got, want = self.both(p, q, rng.standard_normal((40, 40)))
        self.assert_close(got, want, 1e-12)
        near = np.arange(20, 30)
        assert np.allclose(got[0][near, near], want[0][near, near], rtol=1e-12, atol=0)
        assert np.all(got[0][near, near] > 0)
        same = np.arange(20)
        assert np.all(got[0][same, same] == 0.0)

    def test_coincident_rows_give_zero_distance_and_gradient(self, rng):
        p = rng.standard_normal((6, 5)) * 1e3
        q = p[::-1].copy()
        mix = np.zeros((6, 6))
        mix[np.arange(6), np.arange(6)[::-1]] = 1.0     # only the coincident pairs
        (dist, gp, gq), _ = self.both(p, q, mix)
        assert np.all(dist[np.arange(6), np.arange(6)[::-1]] == 0.0)
        assert np.all(gp == 0.0) and np.all(gq == 0.0)

    def test_zero_rows(self):
        (dist, gp, gq), _ = self.both(np.zeros((2, 3)), np.zeros((3, 3)), np.ones((2, 3)))
        assert np.all(dist == 0.0) and np.all(gp == 0.0) and np.all(gq == 0.0)
