import inspect
import math

import numpy as np
import pytest

import stargraph
from stargraph import errors
from stargraph.errors import DomainError, ShapeError, StabilityError, StarGraphError
from stargraph.extension import CoefficientTriple, extend_coefficients
from stargraph.geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    StarPoint,
    mu_density,
    simpson_weights,
    vertex_flux,
)
from stargraph.kernels import HARMONIC, OU, line_kernel, star_kernel
from stargraph.oracle import OracleConfig, solve_line_dirichlet
from stargraph.semigroup import apply, evolve_sequence
from stargraph.spectral import (
    eigenbasis,
    form_spectrum,
    multiplicity,
    trace_closed_form,
    trace_partial,
)
from stargraph.transform import flat_factor, ground_state, similarity_defect

GRID = GridSpec(cutoff=3.0, points_per_edge=17)
ONE = StarFunction.constant(StarGraph(3), GRID, 1.0)
P = StarPoint(1, 0.5)

# every public entry point that takes an edge count, called with edge count m
TAKES_M = {
    "StarGraph": lambda m: StarGraph(m),
    "mu_density": lambda m: mu_density(1.0, m),
    "multiplicity": lambda m: multiplicity(1, m),
    "eigenbasis": lambda m: eigenbasis(m, 1, GRID),
    "form_spectrum": lambda m: form_spectrum(m, GRID),
    "trace_closed_form": lambda m: trace_closed_form(1.0, m),
    "trace_partial": lambda m: trace_partial(1.0, m, 10),
    "flat_factor": lambda m: flat_factor(m),
    "ground_state": lambda m: ground_state(m, GRID),
    "star_kernel": lambda m: star_kernel(OU, m, 1.0, P, P),
    "apply": lambda m: apply(OU, m, 0.5, ONE, GRID),
    "evolve_sequence": lambda m: evolve_sequence(OU, m, [0.5], ONE, GRID),
    "similarity_defect": lambda m: similarity_defect(m, 0.5, ONE, GRID),
}

# every public entry point that takes a semigroup time, called with time t
TAKES_TIME = {
    "line_kernel": lambda spec, t: line_kernel(spec, t, 0.5, 0.5),
    "star_kernel": lambda spec, t: star_kernel(spec, 3, t, P, P),
    "apply": lambda spec, t: apply(spec, 3, t, ONE, GRID),
    "evolve_sequence": lambda spec, t: evolve_sequence(spec, 3, [0.5, t], ONE, GRID),
    "similarity_defect": lambda spec, t: similarity_defect(3, t, ONE, GRID),
}

# the trace at time t and the oracle's tabulation times have domains of their
# own (t > 0, t >= 0.05, stored levels), which their DomainError messages
# state; test_spectral and test_oracle feed them NaN and inf
OWN_TIME_DOMAIN = {"trace_closed_form", "trace_partial", "tabulate_kernel"}


def _public_functions_taking(*params: str) -> set[str]:
    return {
        name for name in stargraph.__all__
        if inspect.isfunction(getattr(stargraph, name))
        and set(params) & set(inspect.signature(getattr(stargraph, name)).parameters)
    }


def test_errors_module_defines_five_types():
    defined = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert defined == {"StarGraphError", "DomainError", "ShapeError", "VertexContinuityError",
                       "StabilityError"}
    for name in defined - {"StarGraphError", "StabilityError"}:
        assert getattr(errors, name).__bases__ == (StarGraphError,), name
    # a numerical failure is not a refused input
    assert not issubclass(StabilityError, StarGraphError)


def test_the_lists_cover_every_public_entry_point():
    # StarGraph is the one public class that takes an edge count; the other
    # classes with a t or times field are result records
    assert set(TAKES_M) == _public_functions_taking("m") | {"StarGraph"}
    assert set(TAKES_TIME) | OWN_TIME_DOMAIN == _public_functions_taking("t", "times")


@pytest.mark.parametrize("m", [0, -1, 2.5, True], ids=repr)
@pytest.mark.parametrize("entry", sorted(TAKES_M))
def test_a_bad_edge_count_is_one_refusal_everywhere(entry, m):
    with pytest.raises(DomainError) as caught:
        TAKES_M[entry](m)
    assert type(caught.value) is DomainError
    assert str(caught.value) == f"edge count must be a positive integer, got {m!r}"


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("spec", [OU, HARMONIC], ids=["ou", "ho"])
@pytest.mark.parametrize("entry", sorted(TAKES_TIME))
def test_a_non_finite_time_is_one_refusal_everywhere(entry, spec, t):
    with pytest.raises(DomainError) as caught:
        TAKES_TIME[entry](spec, t)
    assert type(caught.value) is DomainError
    assert str(caught.value) == f"time must be finite, got {t}"


def test_too_few_points_is_a_shape_error():
    two = GridSpec(cutoff=1.0, points_per_edge=2)
    for call, why in ((lambda: vertex_flux(np.zeros((3, 2)), 0.5), "vertex stencil"),
                      (lambda: form_spectrum(3, two), "form assembly"),
                      (lambda: simpson_weights(1, 0.5), "quadrature")):
        with pytest.raises(ShapeError, match=f"{why} needs >= "):
            call()


def test_a_diffusion_coefficient_that_is_not_positive_is_a_domain_error():
    flat = np.zeros_like
    coeffs = CoefficientTriple(q=lambda x: flat(np.asarray(x, dtype=float)),
                               b=flat, c=flat, c_sup_bound=0.0)
    with pytest.raises(DomainError, match="diffusion coefficient must be strictly positive"):
        extend_coefficients(coeffs)
    cfg = OracleConfig(n=1.0, h=0.25, dt=0.1, t_final=0.1)
    with pytest.raises(DomainError, match="diffusion coefficient must be positive on the grid"):
        solve_line_dirichlet(coeffs, np.zeros(9), cfg)
