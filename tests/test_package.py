import stargraph

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
form_matrix form_spectrum from_flat ground_state hermite hermite_coefficients
ho_coefficients ho_line_kernel integrate_star line_kernel mu_density multiplicity
ou_coefficients ou_line_kernel reflect_extend scattering_matrix similarity_defect
simpson_weights solve_line_dirichlet solve_star star_kernel sup_distance
symmetric_line_grid tabulate_kernel to_flat trace_closed_form trace_partial
truncation_study vertex_defect
""".split()


def test_public_names_resolve_once_and_match_the_frozen_list():
    names = stargraph.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(stargraph, name) is not None, name
    assert sorted(names) == sorted(PUBLIC)
