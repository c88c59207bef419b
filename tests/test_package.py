import inspect

import stargraph
import stargraph.oracle

# The public API, frozen: a name added to or dropped from the package must be
# added to or dropped from this list in the same change.
PUBLIC = """
AssemblyError CoefficientTriple DomainError ExtensionError FoldError GridSpec
HARMONIC InvalidGraphError InvalidPointError KernelSpec LineEvolution LineFunction
MIN_TIME MeasureKind NumericalInputError OU OracleConfig PolyGauss RotationOperator
ShapeError SpectralDatum StabilityError StarEvolution StarFunction StarGraph
StarGraphError StarPoint StencilError TRUST_RADIUS TabulatedLineKernel TracePair
TruncationRow VertexContinuityError VertexDefect apply apply_generator eigenbasis
even_odd_split evolve_sequence extend_coefficients flat_factor fold_to_star
form_spectrum from_flat ground_state hermite hermite_coefficients
ho_coefficients ho_line_kernel integrate_star line_kernel mu_density multiplicity
ou_coefficients ou_line_kernel reflect_extend similarity_defect
simpson_weights solve_line_dirichlet solve_star star_kernel sup_distance
symmetric_line_grid tabulate_kernel to_flat trace_closed_form trace_partial
truncation_study vertex_defect
""".split()

# The public options, frozen: every parameter with a default, and every
# **kwargs, of the public callables and of the public classes' constructors
# and public methods.  Each one doubles the configurations that tests and
# benchmarks must cover, so adding one must show up here.
KNOBS = """
GridSpec.cutoff GridSpec.points_per_edge KernelSpec.table LineFunction.profile
LineFunction.is_symmetric_grid.tol OracleConfig.dt OracleConfig.h OracleConfig.n
OracleConfig.t_final OracleConfig.theta PolyGauss.gauss
StarFunction.continuous_at_vertex StarFunction.from_callables.continuous_at_vertex
StarFunction.from_samples.continuous_at_vertex StarFunction.profiles
StarFunction.trusted_cutoff apply.grid eigenbasis.grid evolve_sequence.grid
fold_to_star.continuity_tol fold_to_star.grid fold_to_star.kirchhoff_tol
form_spectrum.count ground_state.grid integrate_star.measure reflect_extend.x
similarity_defect.grid sup_distance.radius_max tabulate_kernel.stride
""".split()


def _knobs(qualname: str, fn) -> list[str]:
    params = inspect.signature(fn).parameters.values()
    return [
        f"{qualname}.{p.name}"
        for p in params
        if p.kind is p.VAR_KEYWORD or p.default is not p.empty
    ]


def public_knobs() -> list[str]:
    knobs = []
    for name in stargraph.__all__:
        obj = getattr(stargraph, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    qualname = name if attr == "__init__" else f"{name}.{attr}"
                    knobs += _knobs(qualname, member)
        elif inspect.isfunction(obj):
            knobs += _knobs(name, obj)
    return knobs


def test_public_names_resolve_once_and_match_the_frozen_list():
    names = stargraph.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(stargraph, name) is not None, name
    assert sorted(names) == sorted(PUBLIC)


def test_bench_tracer_hook_names_resolve():
    # bench/tracing.py rebinds this module attribute to count its calls
    assert callable(stargraph.oracle.solve_banded)


def test_public_options_match_the_frozen_list():
    knobs = public_knobs()
    assert len(knobs) == len(set(knobs))
    assert sorted(knobs) == sorted(KNOBS)
    assert len(KNOBS) == 29
