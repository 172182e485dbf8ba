import math

import numpy as np
from hypothesis import given, settings, strategies as st

from finslercut import dual

finite = st.floats(-3.0, 3.0, allow_nan=False)


def test_gradient_of_quadratic():
    f = lambda z: z[0] * z[0] + 3.0 * z[0] * z[1] - z[1]
    g = dual.gradient(f, [1.5, -2.0])
    assert np.allclose(g, [2 * 1.5 + 3 * (-2.0), 3 * 1.5 - 1.0])


def test_hessian_symmetric_and_exact():
    f = lambda z: z[0] ** 3 + z[0] * z[1] * z[1]
    h = np.array(dual.hessian(f, [0.7, 0.3]))
    expect = np.array([[6 * 0.7, 2 * 0.3], [2 * 0.3, 2 * 0.7]])
    assert np.allclose(h, expect)
    assert np.allclose(h, h.T)


def test_third_tensor_fully_symmetric():
    f = lambda z: z[0] ** 2 * z[1] + z[1] ** 3
    t = np.array(dual.third_tensor(f, [0.4, 1.1]))
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(t, np.transpose(t, perm))
    assert math.isclose(t[0][0][1], 2.0)
    assert math.isclose(t[1][1][1], 6.0)


def test_sqrt_chain_rule():
    f = lambda z: dual.sqrt(z[0] * z[0] + z[1] * z[1])
    g = dual.gradient(f, [3.0, 4.0])
    assert np.allclose(g, [3.0 / 5.0, 4.0 / 5.0])


def test_division_and_power():
    f = lambda z: (z[0] ** 4) / z[1]
    val = dual.nested_directional(f, [2.0, 5.0], [[1.0, 0.0], [0.0, 1.0]])
    # d2/(dx dy) x^4 / y = -4 x^3 / y^2
    assert math.isclose(val, -4 * 8 / 25.0)


@given(a=finite, b=finite, c=finite, x=finite, y=finite)
@settings(max_examples=60, deadline=None)
def test_gradient_matches_polynomial(a, b, c, x, y):
    f = lambda z: a * z[0] ** 2 + b * z[0] * z[1] + c * z[1] ** 2
    g = dual.gradient(f, [x, y])
    assert math.isclose(g[0], 2 * a * x + b * y, abs_tol=1e-9)
    assert math.isclose(g[1], b * x + 2 * c * y, abs_tol=1e-9)


@given(x=st.floats(0.1, 5.0), k=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_nested_power_derivatives(x, k):
    f = lambda z: z[0] ** k
    d2 = dual.nested_directional(f, [x], [[1.0], [1.0]])
    assert math.isclose(d2, k * (k - 1) * x ** (k - 2),
                        rel_tol=1e-10, abs_tol=1e-10)


def test_sqrt_on_arrays_is_math_sqrt_of_each_entry():
    rng = np.random.default_rng(2)
    z = np.concatenate([10.0 ** rng.uniform(-30, 30, 500), [0.0, 1.0, 2.0]])
    got = dual.sqrt(z)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    assert [float.hex(float(r)) for r in got] == \
        [float.hex(math.sqrt(c)) for c in z.tolist()]


def test_sqrt_still_differentiates_duals():
    r = dual.sqrt(dual.Dual(dual.Dual(4.0, 1.0), 1.0))
    assert dual.real(r) == 2.0
    assert dual.real(dual.dpart(r)) == 0.25
    assert dual.extract(r, 2) == -1.0 / 32.0


def test_array_on_the_left_of_a_dual_gives_a_dual_of_arrays():
    a = np.array([1.0, 2.0])
    d = dual.Dual(np.array([3.0, 4.0]), dual.Dual(1.0, 0.5))
    for got, re, du in ((a * d, [3.0, 8.0], [1.0, 2.0]),
                        (a + d, [4.0, 6.0], [1.0, 1.0]),
                        (a - d, [-2.0, -2.0], [-1.0, -1.0]),
                        (np.float64(2.0) * d, [6.0, 8.0], [2.0, 2.0])):
        assert isinstance(got, dual.Dual)
        assert isinstance(got.re, np.ndarray) and got.re.dtype == float
        assert got.re.tolist() == re
        assert np.broadcast_to(dual.real(got.du), (2,)).tolist() == du
    q = a / dual.Dual(np.array([2.0, 4.0]), 1.0)
    assert isinstance(q, dual.Dual)
    assert q.re.tolist() == [0.5, 0.5] and q.du.tolist() == [-0.25, -0.125]
