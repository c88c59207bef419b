import inspect
import math

import numpy as np
import pytest

import stargraph
from stargraph import errors
from stargraph.errors import (
    MAX_NODES,
    MIN_TIME,
    DomainError,
    ShapeError,
    StabilityError,
    StarGraphError,
)
from stargraph.extension import CoefficientTriple, extend_coefficients, ou_coefficients
from stargraph.geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    StarPoint,
    mu_density,
    simpson_weights,
    sup_distance,
    vertex_flux,
)
from stargraph.kernels import HARMONIC, OU, line_kernel, star_kernel
from stargraph.oracle import (
    OracleConfig,
    solve_line_dirichlet,
    solve_star,
    tabulate_kernel,
    truncation_study,
)
from stargraph.semigroup import apply, evolve_sequence
from stargraph.spectral import (
    eigenbasis,
    form_spectrum,
    hermite_coefficients,
    multiplicity,
    trace_closed_form,
    trace_partial,
)
from stargraph.transform import flat_factor, ground_state, similarity_defect

GRID = GridSpec(cutoff=3.0, points_per_edge=17)
ONE = StarFunction.constant(StarGraph(3), GRID, 1.0)
P = StarPoint(1, 0.5)
CFG = OracleConfig(n=1.0, h=0.25, dt=0.1, t_final=0.2)  # levels at t = 0.1 and 0.2
LINE = extend_coefficients(ou_coefficients())

# the public classes that only hold results; the package never checks their fields
RECORDS = {"StarEvolution", "TabulatedLineKernel", "TracePair", "TruncationRow", "SpectralDatum"}

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

# every public entry point that takes another model integer: what its
# refusal calls the integer, the range in the refusal, and a call with it
TAKES_INTEGER = {
    "StarPoint": ("edge index", "a positive integer", lambda n: StarPoint(n, 0.5)),
    "hermite_coefficients": ("level", "a nonnegative integer", lambda k: hermite_coefficients(k)),
    "multiplicity": ("level", "a nonnegative integer", lambda k: multiplicity(k, 3)),
    "eigenbasis": ("level", "a nonnegative integer", lambda k: eigenbasis(3, k, GRID)),
    "trace_partial": ("term count", "a nonnegative integer", lambda n: trace_partial(1.0, 3, n)),
    # GRID gives 1 + 3 * 16 eigenvalues
    "form_spectrum": ("count", "an integer in 1..49", lambda n: form_spectrum(3, GRID, count=n)),
}
INTEGER_CASES = [
    (entry, n) for entry, (_, span, _) in TAKES_INTEGER.items()
    for n in [-1, 2.5, True, math.nan]
    + ([0] if span != "a nonnegative integer" else []) + ([50] if "49" in span else [])
]

# every public entry point that takes a time, called with model spec and time t
TAKES_TIME = {
    "line_kernel": lambda spec, t: line_kernel(spec, t, 0.5, 0.5),
    "star_kernel": lambda spec, t: star_kernel(spec, 3, t, P, P),
    "apply": lambda spec, t: apply(spec, 3, t, ONE, GRID),
    "evolve_sequence": lambda spec, t: evolve_sequence(spec, 3, [0.5, t], ONE, GRID),
    "similarity_defect": lambda spec, t: similarity_defect(3, t, ONE, GRID),
    # the trace and the oracle know one model each
    "trace_closed_form": lambda spec, t: trace_closed_form(t, 3),
    "trace_partial": lambda spec, t: trace_partial(t, 3, 10),
    "tabulate_kernel": lambda spec, t: tabulate_kernel(LINE, CFG, [t]),
}

# every public size that must be positive and finite, as entry.parameter
TAKES_SIZE = {
    "GridSpec.cutoff": lambda v: GridSpec(cutoff=v, points_per_edge=17),
    "simpson_weights.h": lambda v: simpson_weights(17, v),
    "OracleConfig.n": lambda v: OracleConfig(n=v, h=0.25, dt=0.1, t_final=0.2),
    "OracleConfig.h": lambda v: OracleConfig(n=1.0, h=v, dt=0.1, t_final=0.2),
    "OracleConfig.dt": lambda v: OracleConfig(n=1.0, h=0.25, dt=v, t_final=0.2),
    "OracleConfig.t_final": lambda v: OracleConfig(n=1.0, h=0.25, dt=0.1, t_final=v),
}

# every public entry point that takes a radius
TAKES_RADIUS = {
    "StarPoint": lambda r: StarPoint(1, r),
    "mu_density": lambda r: mu_density(np.array([0.5, r]), 3),
    "sup_distance": lambda r: sup_distance(ONE, ONE, radius_max=r),
}

# every entry point that needs a least number of points per edge: that
# number, and a call with n points per edge
TAKES_POINTS = {
    "GridSpec": (2, lambda n: GridSpec(cutoff=3.0, points_per_edge=n)),
    "simpson_weights": (2, lambda n: simpson_weights(n, 0.5)),
    # the form and the vertex stencil need 3 points of a grid or an array
    "form_spectrum": (3, lambda n: form_spectrum(3, GridSpec(cutoff=3.0, points_per_edge=n))),
    "vertex_flux": (3, lambda n: vertex_flux(np.zeros((3, n)), 0.5)),
}
POINTS_CASES = [
    (entry, n) for entry, (least, _) in TAKES_POINTS.items()
    for n in ([1, 0, -1, 2.5, True, math.nan] if least == 2 else [2, 1, 0])
    if entry != "form_spectrum" or n == 2  # a GridSpec has at least 2 points
]


def _profiles_on(cutoff: float) -> StarFunction:
    return StarFunction.constant(StarGraph(3), GridSpec(cutoff=cutoff, points_per_edge=9), 1.0)


# every entry point that builds a grid of its own, with one node more than
# the budget (the quadrature grid of profiles 1.25e-13 apart reaches radius
# 3.5 in about 6e13 steps)
OVER_BUDGET = {
    "GridSpec": lambda: GridSpec(cutoff=6.0, points_per_edge=MAX_NODES + 1),
    "OracleConfig.n": lambda: OracleConfig(n=MAX_NODES * 0.25, h=0.25, dt=0.1, t_final=0.2),
    "OracleConfig.t_final": lambda: OracleConfig(n=1.0, h=0.25, dt=1.0, t_final=MAX_NODES),
    "apply": lambda: apply(OU, 3, 0.5, _profiles_on(1e-12), GRID),
    "evolve_sequence": lambda: evolve_sequence(OU, 3, [0.5], _profiles_on(1e-12), GRID),
    "similarity_defect": lambda: similarity_defect(3, 0.5, _profiles_on(1e-12), GRID),
}

# every public entry point that takes a list of times
TAKES_TIMES = {
    "evolve_sequence": lambda times: evolve_sequence(OU, 3, times, ONE, GRID),
    "tabulate_kernel": lambda times: tabulate_kernel(LINE, CFG, times),
}


def _line(q, c=0.0) -> CoefficientTriple:
    return CoefficientTriple(q=lambda x: np.full_like(np.asarray(x, dtype=float), q),
                             b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                             c=lambda x: np.full_like(np.asarray(x, dtype=float), c),
                             c_sup_bound=max(c, 0.0))


# every public entry point that takes line coefficients
TAKES_COEFFS = {
    "extend_coefficients": lambda co: extend_coefficients(co),
    "solve_line_dirichlet": lambda co: solve_line_dirichlet(co, np.zeros(9), CFG),
    "solve_star": lambda co: solve_star(co, ONE, CFG),
    "truncation_study": lambda co: truncation_study(co, ONE, CFG, [1.0, 2.0]),
    "tabulate_kernel": lambda co: tabulate_kernel(co, CFG, [0.1]),
}


# data stored on [0, 0.5], short of every quadrature and solver grid below
SHORT = GridSpec(cutoff=0.5, points_per_edge=3)


def _data(profile) -> StarFunction:
    return StarFunction.from_callables(StarGraph(3), SHORT, (profile,) * 3)


# every public entry point that takes data, called with a profile; the line
# solver takes the profile's samples on its own grid
TAKES_DATA = {
    "StarFunction": _data,
    "apply": lambda p: apply(OU, 3, 0.5, _data(p), GRID),
    "evolve_sequence": lambda p: evolve_sequence(OU, 3, [0.5], _data(p), GRID),
    "similarity_defect": lambda p: similarity_defect(3, 0.5, _data(p), GRID),
    "solve_star": lambda p: solve_star(ou_coefficients(), _data(p), CFG),
    "solve_line_dirichlet": lambda p: solve_line_dirichlet(LINE, p(np.abs(CFG.grid())), CFG),
    "truncation_study": lambda p: truncation_study(ou_coefficients(), _data(p), CFG, [1.0, 2.0]),
}
# a profile non-finite past radius 0.2 gives non-finite samples; one
# non-finite past 0.6 is finite on the stored grid, which the constructor
# alone does not look beyond
DATA_CASES = [(entry, past) for entry in sorted(TAKES_DATA) for past in (0.2, 0.6)
              if entry != "StarFunction" or past < SHORT.cutoff]


def _public_taking(*params: str) -> set[str]:
    """The public functions and checked classes with a parameter among ``params``."""

    found = set()
    for name in stargraph.__all__:
        obj = getattr(stargraph, name)
        checked_class = (inspect.isclass(obj) and not issubclass(obj, BaseException)
                         and name not in RECORDS)
        if (inspect.isfunction(obj) or checked_class) and set(params) & set(
                inspect.signature(obj).parameters):
            found.add(name)
    return found


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
    assert set(TAKES_M) == _public_taking("m")
    assert set(TAKES_INTEGER) == _public_taking("edge", "k", "terms", "count")
    assert set(TAKES_TIME) == _public_taking("t", "times")
    sizes = {"cutoff", "h", "n", "dt", "t_final"}
    assert set(TAKES_SIZE) == {
        f"{name}.{p}" for name in _public_taking(*sizes)
        for p in inspect.signature(getattr(stargraph, name)).parameters if p in sizes
    }
    assert set(TAKES_RADIUS) == _public_taking("radius", "radius_max", "p")
    assert set(TAKES_POINTS) == _public_taking("points_per_edge", "n_points") | {
        "form_spectrum", "vertex_flux"}
    assert set(TAKES_TIMES) == _public_taking("times")
    # PolyGauss's coeffs are those of a polynomial, not of a line problem
    assert set(TAKES_COEFFS) == _public_taking("coeffs") - {"PolyGauss"}


def _refusal(kind, call, *args) -> str:
    """The message of the refusal, which must be of type ``kind`` exactly."""

    with pytest.raises(kind) as caught:
        call(*args)
    assert type(caught.value) is kind
    return str(caught.value)


@pytest.mark.parametrize("m", [0, -1, 2.5, True, math.nan, MAX_NODES + 1], ids=repr)
@pytest.mark.parametrize("entry", sorted(TAKES_M))
def test_a_bad_edge_count_is_one_refusal_everywhere(entry, m):
    # an edge count beyond the node budget is refused before any per-edge
    # work; a huge one once ended in an OverflowError traceback
    assert _refusal(DomainError, TAKES_M[entry], m) == (
        f"edge count must be an integer in 1..{MAX_NODES}, got {m!r}")


@pytest.mark.parametrize("entry, n", INTEGER_CASES, ids=repr)
def test_a_bad_model_integer_is_one_refusal_everywhere(entry, n):
    name, span, call = TAKES_INTEGER[entry]
    assert _refusal(DomainError, call, n) == f"{name} must be {span}, got {n!r}"


def test_numpy_integers_are_model_integers():
    three = np.int64(3)
    assert StarGraph(three).m == 3
    assert StarPoint(three, 0.5).edge == 3 and type(StarPoint(three, 0.5).edge) is int
    assert multiplicity(np.int64(1), three) == 2
    assert GridSpec(cutoff=1.0, points_per_edge=np.int64(9)).nodes().size == 9
    assert form_spectrum(three, GRID, count=three).size == 3


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("spec", [OU, HARMONIC], ids=["ou", "ho"])
@pytest.mark.parametrize("entry", sorted(TAKES_TIME))
def test_a_non_finite_time_is_one_refusal_everywhere(entry, spec, t):
    assert _refusal(DomainError, TAKES_TIME[entry], spec, t) == f"time must be finite, got {t}"


@pytest.mark.parametrize("t", [0, -1, MIN_TIME / 2], ids=repr)
@pytest.mark.parametrize("entry", sorted(TAKES_TIME))
def test_a_time_below_min_time_is_one_refusal_everywhere(entry, t):
    # trace_closed_form once returned 1.5e9 at t = 1e-9
    assert _refusal(DomainError, TAKES_TIME[entry], OU, t) == (
        f"time must be >= {MIN_TIME}, got {float(t)}")


def test_the_trace_answers_down_to_min_time():
    # the kernel side is a closed form, with no quadrature floor above
    # MIN_TIME; a 513-node quadrature once refused t < 0.05
    for t in (MIN_TIME, 0.01):
        closed = trace_closed_form(t, 3)
        assert closed > 0
        assert trace_partial(t, 3, 10).kernel_trace == pytest.approx(closed, rel=2e-15)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(TAKES_SIZE))
def test_a_size_that_is_not_positive_and_finite_is_one_refusal_everywhere(entry, value):
    name = entry.split(".")[1]
    assert _refusal(DomainError, TAKES_SIZE[entry], value) == (
        f"{name} must be positive and finite, got {value}")


@pytest.mark.parametrize("r", [math.nan, -math.inf, -1.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(TAKES_RADIUS))
def test_a_bad_radius_is_one_refusal_everywhere(entry, r):
    assert _refusal(DomainError, TAKES_RADIUS[entry], r) == (
        f"radius must be finite and >= 0, got {r}")


def test_an_infinite_radius_is_a_point_nowhere_but_a_window_everywhere():
    for entry in ("StarPoint", "mu_density"):
        assert _refusal(DomainError, TAKES_RADIUS[entry], math.inf) == (
            "radius must be finite and >= 0, got inf")
    assert sup_distance(ONE, ONE, radius_max=math.inf) == 0.0


def test_too_few_points_is_a_shape_error():
    for entry, n in POINTS_CASES:
        least, call = TAKES_POINTS[entry]
        assert _refusal(ShapeError, call, n) == (
            f"points per edge must be an integer >= {least}, got {n!r}"), (entry, n)


@pytest.mark.parametrize("entry", sorted(OVER_BUDGET))
def test_the_node_budget_is_one_refusal_everywhere(entry):
    message = _refusal(ShapeError, OVER_BUDGET[entry])
    assert " must be at most 1.1e+12 (the node budget), got " in message, message


def test_the_node_budget_itself_is_allowed():
    assert GridSpec(cutoff=6.0, points_per_edge=MAX_NODES).points_per_edge == MAX_NODES
    assert OracleConfig(n=(MAX_NODES - 1) * 0.25, h=0.25, dt=0.1, t_final=0.2).steps == 2
    assert OracleConfig(n=1.0, h=0.25, dt=1.0, t_final=MAX_NODES - 1).steps == MAX_NODES - 1


@pytest.mark.parametrize("times", [[0.2, 0.1], [0.1, 0.1]], ids=repr)
@pytest.mark.parametrize("entry", sorted(TAKES_TIMES))
def test_times_out_of_order_are_one_refusal_everywhere(entry, times):
    assert _refusal(DomainError, TAKES_TIMES[entry], times) == (
        f"times must be strictly increasing, got {times[0]} then {times[1]}")


def test_tabulation_times_that_share_a_level_are_out_of_order():
    assert _refusal(DomainError, tabulate_kernel, LINE, CFG, [0.1, 0.1 + 1e-12]) == (
        "times must be strictly increasing, got 0.1 then 0.1")


def test_a_diffusion_coefficient_that_is_not_positive_is_a_domain_error():
    for q, shown in ((0.0, "0"), (-1.0, "-1"), (math.nan, "nan")):
        for entry, call in TAKES_COEFFS.items():
            assert _refusal(DomainError, call, _line(q)) == (
                f"diffusion coefficient must be positive, got q = {shown}"), (entry, q)


@pytest.mark.parametrize("entry", sorted(TAKES_COEFFS))
def test_non_finite_coefficients_are_one_refusal_everywhere(entry):
    assert _refusal(DomainError, TAKES_COEFFS[entry], _line(0.5, c=-math.inf)) == (
        "coefficients and c_sup_bound must be finite")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("entry, past", DATA_CASES, ids=repr)
def test_non_finite_data_are_one_refusal_everywhere(entry, past, bad):
    def profile(r):
        return np.where(np.asarray(r, dtype=float) > past, bad, 1.0)

    assert _refusal(DomainError, TAKES_DATA[entry], profile) == f"data must be finite, got {bad}"
