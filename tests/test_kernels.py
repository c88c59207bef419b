import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stargraph.errors import MIN_TIME, DomainError
from stargraph.extension import reflect
from stargraph.geometry import GridSpec, StarFunction, StarGraph, StarPoint, simpson_weights
from stargraph.kernels import (
    HARMONIC,
    OU,
    KernelSpec,
    gaussian_form,
    line_kernel,
    star_kernel,
)
from stargraph.semigroup import apply

times = st.floats(min_value=0.05, max_value=5.0)
radii = st.floats(min_value=0.0, max_value=4.0)
signed = st.floats(min_value=-4.0, max_value=4.0)


def test_ou_kernel_frozen_value():
    # Gaussian density in y with mean e^{-t} x and variance (1 - e^{-2t})/2;
    # frozen from the normal pdf at t=1, x=1, y=0.5
    assert float(line_kernel(OU, 1.0, 1.0, 0.5)) == pytest.approx(
        0.5946119902955649, rel=1e-13
    )


def test_ho_kernel_frozen_values():
    # frozen from the eigenfunction expansion sum_k e^{-kt} h_k(x) h_k(y)
    # with normalized Hermite functions, truncated at k = 60
    assert float(line_kernel(HARMONIC, 1.0, 0.7, -0.3)) == pytest.approx(
        0.34675692330453356, rel=1e-12
    )
    assert float(line_kernel(HARMONIC, 0.5, 1.2, 0.4)) == pytest.approx(
        0.3156714187114617, rel=1e-12
    )


def test_ou_kernel_is_a_probability_density():
    # integrate over the whole line at several (t, x)
    for t in (0.1, 1.0, 4.0):
        for x in (0.0, 1.5, 3.0):
            y = np.linspace(-14.0, 14.0, 4097)
            w = simpson_weights(y.size, y[1] - y[0])
            mass = float(np.dot(w, line_kernel(OU, t, x, y)))
            assert abs(mass - 1.0) < 1e-12


@given(t=times, x=radii, y=radii)
def test_ou_detailed_balance(t, x, y):
    # k(t, x, y) e^{y^2} is symmetric in (x, y)
    lhs = float(line_kernel(OU, t, x, y)) * math.exp(y * y)
    rhs = float(line_kernel(OU, t, y, x)) * math.exp(x * x)
    assert lhs == pytest.approx(rhs, rel=1e-11)


@given(t=times, x=signed, y=signed)
def test_ho_kernel_symmetric(t, x, y):
    assert float(line_kernel(HARMONIC, t, x, y)) == float(line_kernel(HARMONIC, t, y, x))


def test_ho_kernel_underflows_at_huge_radii():
    # the exponent is minus a sum of two squares: squares that overflow make
    # it -inf and the kernel 0, never inf - inf and NaN
    with np.errstate(over="ignore"):
        for x, y in ((1e200, 1e200), (1e200, -1e200), (1e154, 1e154), (0.0, 1e200)):
            assert float(line_kernel(HARMONIC, 1.0, x, y)) == 0.0, (x, y)
        value = star_kernel(HARMONIC, 3, 1.0, StarPoint(1, 1e200), StarPoint(1, 1e200))
    assert value == 0.0


@pytest.mark.parametrize("t", [1e-8, 1e-3, 0.5, 30.0])
@pytest.mark.parametrize("spec", [OU, HARMONIC], ids=["ou", "ho"])
def test_block_writer_matches_public_kernels(spec, t):
    # row(x) times the Gaussian of gaussian_form in (x - y) - μx, for both
    # kernels: the explicit form that apply's factored blocks must equal
    # (test_semigroup.py::test_block_differences_are_the_explicit_form).
    # Against the closed forms the gap is a few ulps of the row's peak row(x)
    # for OU.  HO's closed form rounds an exponent of size up to about
    # (x^2 + y^2)/2, 72 at x = 12, and carries up to that many ulps itself
    lam, mu, q, row = gaussian_form(spec, t)
    b = math.sqrt(40 / q)

    def block(x, y):
        d = (x - y) - mu * x
        return row(x) * np.exp(-q * d * d)

    x = np.linspace(0.0, 12.0, 97)[:, None]
    y = lam * x + np.linspace(-b, b, 201)
    gap = np.abs(block(x, y) - line_kernel(spec, t, x, y)) / row(x)
    assert gap.max() <= (4e-16 if spec is OU else 4e-14)
    # the OU kernel is written from gaussian_form alone, in that explicit form
    if spec is OU:
        d = (x - y) - mu * x
        assert np.array_equal(line_kernel(OU, t, x, y), row(x) * np.exp((d * d) * -q))
    # past radii of about 1.3e154 the squares overflow: exactly 0, never NaN
    if spec is HARMONIC:
        with np.errstate(over="ignore"):
            x = np.array([[1e200]])
            for y in (np.array([0.0, 1e200]), lam * x[0] + np.array([-b, 0.0, b])):
                assert np.array_equal(block(x, y), np.zeros((1, y.size)))


@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.5, 30.0])
def test_ou_kernel_matches_a_40_digit_reference(t):
    # line_kernel(OU) takes the Gaussian's difference as (x - y) - μx, free of
    # the rounding of λ = e^{-t}; the form λx - y read 5.9e-13 of the row peak
    # at t = 1e-6.  The reference is exact in the float inputs x, y and t
    lam, _, q, _ = gaussian_form(OU, t)
    b = math.sqrt(40 / q)
    x = np.linspace(0.0, 12.0, 25)[:, None]
    y = lam * x + np.linspace(-b, b, 41)
    got = line_kernel(OU, t, x, y)
    with localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal("3.141592653589793238462643383279502884197")
        e = (-Decimal(t)).exp()
        s = 1 - e * e
        peak = 1 / (pi * s).sqrt()
        worst = max(
            abs(Decimal(k) - peak * (-(d * d) / s).exp())
            for xi, row_y, row_k in zip(x[:, 0].tolist(), y.tolist(), got.tolist())
            for yj, k in zip(row_y, row_k)
            for d in [e * Decimal(xi) - Decimal(yj)]
        ) / peak
    assert float(worst) <= 4e-15


def test_public_kernels_return_scalars_for_scalar_input():
    for spec in (OU, HARMONIC):
        value = line_kernel(spec, 0.5, 0.3, -0.2)
        assert np.ndim(value) == 0 and isinstance(value, float)
        assert value == line_kernel(spec, 0.5, np.array([0.3]), np.array([-0.2]))[0]
    assert isinstance(line_kernel(HARMONIC, 1.0, 0.0, 1e-3), float)


@given(t=times, x=signed, y=signed)
def test_kernels_conjugate(t, x, y):
    # the two line kernels differ by the factor e^{(y^2 - x^2)/2}
    lhs = float(line_kernel(HARMONIC, t, x, y))
    rhs = float(line_kernel(OU, t, x, y)) * math.exp(0.5 * (y * y - x * x))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_time_domain():
    with pytest.raises(DomainError):
        line_kernel(OU, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        line_kernel(HARMONIC, MIN_TIME / 2, 1.0, 1.0)
    with pytest.raises(DomainError, match="finite"):
        line_kernel(OU, math.nan, 1.0, 1.0)
    assert float(line_kernel(OU, MIN_TIME, 0.0, 0.0)) > 0


def test_scattering_frozen():
    # the reflection weights of star_kernel: (2 - m)/m on the same edge and
    # 2/m across edges, i.e. -1/2 and 1/2 at m = 4, 0 at m = 2, 1 at m = 1
    t, x, y = 1.0, 1.0, 0.5
    k_direct = line_kernel(OU, t, x, y)
    k_refl = line_kernel(OU, t, x, -y)
    assert star_kernel(OU, 4, t, StarPoint(1, x), StarPoint(1, y)) == float(
        k_direct + (-0.5) * k_refl
    )
    assert star_kernel(OU, 4, t, StarPoint(1, x), StarPoint(3, y)) == float(0.5 * k_refl)
    assert star_kernel(OU, 2, t, StarPoint(1, x), StarPoint(1, y)) == float(k_direct)
    assert star_kernel(OU, 1, t, StarPoint(1, x), StarPoint(1, y)) == float(
        k_direct + k_refl
    )


@given(m=st.integers(min_value=1, max_value=12), t=times, x=radii, y=radii)
def test_scattering_structure(m, t, x, y):
    # the vertex weights (2 - m)/m and 2/m sum to one over a row, so the
    # kernels from edge 1 to every edge add up to direct + reflected; they
    # form an involution, so same-edge minus cross-edge is direct - reflected
    k_direct = float(line_kernel(OU, t, x, y))
    k_refl = float(line_kernel(OU, t, x, -y))
    row = [star_kernel(OU, m, t, StarPoint(1, x), StarPoint(j, y)) for j in range(1, m + 1)]
    assert sum(row) == pytest.approx(k_direct + k_refl, rel=1e-13)
    for cross in row[1:]:
        assert abs(row[0] - cross - (k_direct - k_refl)) <= 1e-12 * (k_direct + k_refl)
    # the scalar weights are row 1 of the reflection that apply and the oracle use
    weights = reflect(np.eye(m))[0]
    for j, value in enumerate(row):
        want = (j == 0) * k_direct + weights[j] * k_refl
        assert abs(value - want) <= 1e-14 * abs(want)


def test_two_edges_reduce_to_the_line():
    # with two edges the diagonal weight vanishes: same-edge kernels equal
    # the direct line kernel and cross-edge kernels the reflected one
    for spec in (OU, HARMONIC):
        for t in (0.1, 1.0):
            for x in (0.0, 0.7, 2.0):
                for y in (0.3, 1.5):
                    same = star_kernel(spec, 2, t, StarPoint(1, x), StarPoint(1, y))
                    cross = star_kernel(spec, 2, t, StarPoint(1, x), StarPoint(2, y))
                    assert same == float(line_kernel(spec, t, x, y))
                    assert cross == float(line_kernel(spec, t, x, -y))


def test_star_kernel_vertex_identification():
    # the vertex is one point: which edge names it must not matter
    for m in (2, 3, 5):
        vals = {
            star_kernel(OU, m, 0.5, StarPoint(i, 0.0), StarPoint(j, 1.0))
            for i in range(1, m + 1)
            for j in range(1, m + 1)
        }
        assert len(vals) == 1


def test_star_kernel_validation():
    with pytest.raises(DomainError, match="point uses edge beyond the 2-edge star"):
        star_kernel(OU, 2, 1.0, StarPoint(3, 1.0), StarPoint(1, 1.0))
    with pytest.raises(DomainError, match="x and y must be StarPoint instances"):
        star_kernel(OU, 2, 1.0, 1.0, StarPoint(1, 1.0))
    span = "edge count must be an integer in 1..1099511627776"
    with pytest.raises(DomainError, match=span + ", got 0"):
        star_kernel(OU, 0, 1.0, StarPoint(1, 1.0), StarPoint(1, 1.0))
    with pytest.raises(DomainError, match=span + ", got 2.5"):
        star_kernel(OU, 2.5, 1.0, StarPoint(1, 0.5), StarPoint(2, 0.5))


def test_kernel_spec_validation():
    # only the two closed forms are kernels; a table is not one
    for tag in ("brownian", "tabulated"):
        with pytest.raises(DomainError, match=f"unknown kernel tag '{tag}'"):
            KernelSpec(tag=tag)


_CONSTANT = StarFunction.constant(StarGraph(3), GridSpec(cutoff=3.0, points_per_edge=17), 1.0)


@pytest.mark.parametrize("call", [
    lambda spec: apply(spec, 3, 0.5, _CONSTANT, _CONSTANT.grid),
    lambda spec: star_kernel(spec, 3, 0.5, StarPoint(1, 0.5), StarPoint(2, 0.5)),
    lambda spec: line_kernel(spec, 0.5, 0.5, 0.5),
    lambda spec: gaussian_form(spec, 0.5),
], ids=["apply", "star_kernel", "line_kernel", "gaussian_form"])
def test_a_string_tag_is_not_a_kernel_spec(call):
    with pytest.raises(DomainError, match="pass OU or HARMONIC"):
        call("ou")
