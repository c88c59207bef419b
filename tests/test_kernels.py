import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stargraph.errors import DomainError, InvalidPointError, NumericalInputError, ShapeError
from stargraph.extension import reflect
from stargraph.geometry import GridSpec, StarFunction, StarGraph, StarPoint, simpson_weights
from stargraph.kernels import (
    HARMONIC,
    MIN_TIME,
    OU,
    KernelSpec,
    ho_line_kernel,
    kernel_band,
    kernel_writer,
    line_kernel,
    ou_line_kernel,
    star_kernel,
)
from stargraph.semigroup import apply

times = st.floats(min_value=0.05, max_value=5.0)
radii = st.floats(min_value=0.0, max_value=4.0)
signed = st.floats(min_value=-4.0, max_value=4.0)


def test_ou_kernel_frozen_value():
    # Gaussian density in y with mean e^{-t} x and variance (1 - e^{-2t})/2;
    # frozen from the normal pdf at t=1, x=1, y=0.5
    assert float(ou_line_kernel(1.0, 1.0, 0.5)) == pytest.approx(
        0.5946119902955649, rel=1e-13
    )


def test_ho_kernel_frozen_values():
    # frozen from the eigenfunction expansion sum_k e^{-kt} h_k(x) h_k(y)
    # with normalized Hermite functions, truncated at k = 60
    assert float(ho_line_kernel(1.0, 0.7, -0.3)) == pytest.approx(
        0.34675692330453356, rel=1e-12
    )
    assert float(ho_line_kernel(0.5, 1.2, 0.4)) == pytest.approx(
        0.3156714187114617, rel=1e-12
    )


def test_ou_kernel_is_a_probability_density():
    # integrate over the whole line at several (t, x)
    for t in (0.1, 1.0, 4.0):
        for x in (0.0, 1.5, 3.0):
            y = np.linspace(-14.0, 14.0, 4097)
            w = simpson_weights(y.size, y[1] - y[0])
            mass = float(np.dot(w, ou_line_kernel(t, x, y)))
            assert abs(mass - 1.0) < 1e-12


@given(t=times, x=radii, y=radii)
def test_ou_detailed_balance(t, x, y):
    # k(t, x, y) e^{y^2} is symmetric in (x, y)
    lhs = float(ou_line_kernel(t, x, y)) * math.exp(y * y)
    rhs = float(ou_line_kernel(t, y, x)) * math.exp(x * x)
    assert lhs == pytest.approx(rhs, rel=1e-11)


@given(t=times, x=signed, y=signed)
def test_ho_kernel_symmetric(t, x, y):
    assert float(ho_line_kernel(t, x, y)) == float(ho_line_kernel(t, y, x))


def test_ho_kernel_underflows_at_huge_radii():
    # the exponent is minus a sum of two squares: squares that overflow make
    # it -inf and the kernel 0, never inf - inf and NaN
    with np.errstate(over="ignore"):
        for x, y in ((1e200, 1e200), (1e200, -1e200), (1e154, 1e154), (0.0, 1e200)):
            assert float(ho_line_kernel(1.0, x, y)) == 0.0, (x, y)
        value = star_kernel(HARMONIC, 3, 1.0, StarPoint(1, 1e200), StarPoint(1, 1e200))
    assert value == 0.0


@pytest.mark.parametrize("t", [1e-8, 1e-3, 0.5])
@pytest.mark.parametrize("spec, public", [(OU, ou_line_kernel), (HARMONIC, ho_line_kernel)],
                         ids=["ou", "ho"])
def test_block_writer_matches_public_kernels(spec, public, t):
    # apply writes each block's kernel into reused buffers; the values must be
    # the public kernel's to the last bit, also where HO underflows at huge radii
    write = kernel_writer(spec)
    cases = [(np.linspace(0.0, 6.0, 7)[:, None], np.linspace(-6.5, 6.5, 53)),
             (np.array([[0.0], [1e200]]), np.array([0.0, 1e200]))]
    with np.errstate(over="ignore"):
        for x, y in cases:
            shape = (x.shape[0], y.size)
            buf, spare = np.full(x.size * y.size + 5, np.nan), np.empty(shape)
            out = buf[: x.size * y.size].reshape(shape)
            got = write(t, x, y, out, spare)
            assert got is out
            assert np.array_equal(got, public(t, x, y))
            assert np.isnan(buf[out.size:]).all()  # nothing past the block's prefix


def test_public_kernels_return_scalars_for_scalar_input():
    for kernel in (ou_line_kernel, ho_line_kernel):
        value = kernel(0.5, 0.3, -0.2)
        assert np.ndim(value) == 0 and isinstance(value, float)
        assert value == kernel(0.5, np.array([0.3]), np.array([-0.2]))[0]
    assert isinstance(line_kernel(HARMONIC, 1.0, 0.0, 1e-3), float)


@given(t=times, x=signed, y=signed)
def test_kernels_conjugate(t, x, y):
    # the two line kernels differ by the factor e^{(y^2 - x^2)/2}
    lhs = float(ho_line_kernel(t, x, y))
    rhs = float(ou_line_kernel(t, x, y)) * math.exp(0.5 * (y * y - x * x))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_time_domain():
    with pytest.raises(DomainError):
        ou_line_kernel(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ho_line_kernel(MIN_TIME / 2, 1.0, 1.0)
    with pytest.raises(NumericalInputError, match="finite"):
        ou_line_kernel(math.nan, 1.0, 1.0)
    assert float(ou_line_kernel(MIN_TIME, 0.0, 0.0)) > 0


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
    with pytest.raises(InvalidPointError):
        star_kernel(OU, 2, 1.0, StarPoint(3, 1.0), StarPoint(1, 1.0))
    with pytest.raises(InvalidPointError):
        star_kernel(OU, 2, 1.0, 1.0, StarPoint(1, 1.0))
    with pytest.raises(ShapeError):
        star_kernel(OU, 0, 1.0, StarPoint(1, 1.0), StarPoint(1, 1.0))
    with pytest.raises(ShapeError):
        star_kernel(OU, 2.5, 1.0, StarPoint(1, 0.5), StarPoint(2, 0.5))


def test_kernel_spec_validation():
    # only the two closed forms are kernels; a table is not one
    for tag in ("brownian", "tabulated"):
        with pytest.raises(ShapeError):
            KernelSpec(tag=tag)


_CONSTANT = StarFunction.constant(StarGraph(3), GridSpec(cutoff=3.0, points_per_edge=17), 1.0)


@pytest.mark.parametrize("call", [
    lambda spec: apply(spec, 3, 0.5, _CONSTANT),
    lambda spec: star_kernel(spec, 3, 0.5, StarPoint(1, 0.5), StarPoint(2, 0.5)),
    lambda spec: line_kernel(spec, 0.5, 0.5, 0.5),
    lambda spec: kernel_band(spec, 0.5),
], ids=["apply", "star_kernel", "line_kernel", "kernel_band"])
def test_a_string_tag_is_not_a_kernel_spec(call):
    with pytest.raises(DomainError, match="pass OU or HARMONIC"):
        call("ou")
