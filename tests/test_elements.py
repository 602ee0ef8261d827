import numpy as np
import pytest
import sympy as sp

from fetps.elements import CELL_VOLUMES, make_element_pair, quadrature

ALL_KINDS = ["triangle", "tet", "quad", "hex"]


def random_reference_points(kind, dim, rng, m=25):
    if kind in ("triangle", "tet"):
        return rng.dirichlet(np.ones(dim + 1), size=m)[:, :dim]
    return rng.uniform(-1.0, 1.0, (m, dim))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kronecker_at_nodes(kind):
    pair = make_element_pair(kind)
    vals = pair.nodal_eval(pair.nodes)
    assert np.allclose(vals, np.eye(pair.n_loc), atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partitions_of_unity(kind, rng):
    pair = make_element_pair(kind)
    pts = random_reference_points(kind, pair.dim, rng)
    assert np.abs(pair.nodal_eval(pts).sum(axis=1) - 1.0).max() < 1e-13
    assert np.abs(pair.dual_eval(pts).sum(axis=1) - 1.0).max() < 1e-13


def test_dual_values_at_triangle_corners():
    # affine duals peak at their own corner with value d + 1
    pair = make_element_pair("triangle")
    mu = pair.dual_eval(pair.nodes)
    assert np.allclose(np.diag(mu), [3.0, 3.0, 3.0], atol=1e-14)
    assert mu[0, 0] == pytest.approx(3.0)


def test_dual_values_at_tet_corners():
    pair = make_element_pair("tet")
    mu = pair.dual_eval(pair.nodes)
    assert mu[0, 0] == pytest.approx(4.0)
    assert np.allclose(np.diag(mu), 4.0, atol=1e-14)


def test_triangle_biorthogonality_exact_symbolic():
    # oracle: exact symbolic integration over the reference triangle
    x, y = sp.symbols("x y")
    phi = [1 - x - y, x, y]
    mu = [3 - 4 * x - 4 * y, 4 * x - 1, 4 * y - 1]
    for i in range(3):
        for j in range(3):
            val = sp.integrate(sp.integrate(mu[i] * phi[j], (y, 0, 1 - x)), (x, 0, 1))
            expected = sp.Rational(1, 6) if i == j else 0
            assert val == expected
    pair = make_element_pair("triangle")
    assert pair.c_hat == pytest.approx(1.0 / 6.0)


def test_tet_biorthogonality_exact_symbolic():
    x, y, z = sp.symbols("x y z")
    phi = [1 - x - y - z, x, y, z]
    mu = [4 - 5 * x - 5 * y - 5 * z, 5 * x - 1, 5 * y - 1, 5 * z - 1]
    for i in range(4):
        for j in range(4):
            val = sp.integrate(
                sp.integrate(sp.integrate(mu[i] * phi[j], (z, 0, 1 - x - y)), (y, 0, 1 - x)),
                (x, 0, 1),
            )
            expected = sp.Rational(1, 24) if i == j else 0
            assert val == expected
    assert make_element_pair("tet").c_hat == pytest.approx(1.0 / 24.0)


def test_1d_dual_solves_local_mass_system():
    # oracle: solve the 2x2 mass system symbolically and compare the duals
    from fetps.elements import _dual_1d

    t = sp.symbols("t")
    hats = [(1 - t) / 2, (1 + t) / 2]
    mass = sp.Matrix(2, 2, lambda i, j: sp.integrate(hats[i] * hats[j], (t, -1, 1)))
    targets = sp.diag(*[sp.integrate(h, (t, -1, 1)) for h in hats])
    coeffs = (mass.inv() @ targets).T  # rows: dual i in the hat basis
    ts = np.linspace(-1.0, 1.0, 7)
    got = _dual_1d(ts)
    for i in range(2):
        mu_i = sum(coeffs[i, j] * hats[j] for j in range(2))
        want = np.array([float(mu_i.subs(t, v)) for v in ts])
        assert np.abs(got[:, i] - want).max() < 1e-14
        # and the derived duals are affine with the expected biorthogonality
        for j, hat in enumerate(hats):
            val = sp.integrate(mu_i * hat, (t, -1, 1))
            assert val == (1 if i == j else 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_biorthogonality_under_quadrature(kind):
    pair = make_element_pair(kind)
    rule = quadrature(kind, 2)
    gram = np.einsum("q,qi,qj->ij", rule.weights, pair.dual_eval(rule.points),
                     pair.nodal_eval(rule.points))
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-13
    assert np.allclose(np.diag(gram), pair.c_hat, atol=1e-13)
    assert pair.c_hat > 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_nodal_gradients_match_finite_differences(kind, rng):
    pair = make_element_pair(kind)
    pts = random_reference_points(kind, pair.dim, rng, m=15) * 0.9
    grad = pair.nodal_grad(pts)
    step = 1e-4
    for k in range(pair.dim):
        e = np.zeros(pair.dim)
        e[k] = step
        fd = (pair.nodal_eval(pts + e) - pair.nodal_eval(pts - e)) / (2 * step)
        assert np.abs(fd - grad[:, :, k]).max() < 1e-6


def test_make_element_pair_rejects_unknown():
    with pytest.raises(ValueError):
        make_element_pair("pentagon")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_quadrature_weights(kind):
    for degree in (1, 2, 3, 5):
        rule = quadrature(kind, degree)
        assert (rule.weights > 0).all()
        assert rule.weights.sum() == pytest.approx(CELL_VOLUMES[kind], abs=1e-13)


def simplex_monomial_integral(powers):
    # int over unit simplex of prod x_i^{a_i} = prod a_i! * d! / (sum a_i + d)!
    from math import factorial

    d = len(powers)
    num = 1
    for a in powers:
        num *= factorial(a)
    return num / factorial(sum(powers) + d)


def box_monomial_integral(powers):
    out = 1.0
    for a in powers:
        out *= 0.0 if a % 2 else 2.0 / (a + 1)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("degree", [2, 3, 5])
def test_quadrature_monomial_exactness(kind, degree):
    rule = quadrature(kind, degree)
    dim = rule.points.shape[1]
    simplex = kind in ("triangle", "tet")
    powers = [()]
    from itertools import product

    for combo in product(range(degree + 1), repeat=dim):
        if sum(combo) > degree:
            continue
        vals = np.prod(rule.points ** np.asarray(combo), axis=1)
        got = float(rule.weights @ vals)
        want = (simplex_monomial_integral(combo) if simplex
                else box_monomial_integral(combo))
        assert got == pytest.approx(want, abs=1e-13)


def test_quadrature_triangle_first_moment():
    rule = quadrature("triangle", 2)
    assert float(rule.weights @ rule.points[:, 0]) == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_quadrature_rejects_bad_degree():
    with pytest.raises(ValueError):
        quadrature("triangle", 0)
    with pytest.raises(ValueError):
        quadrature("circle", 2)
