"""bvkit: exact Batalin-Vilkovisky data for polynomial actions on affine space.

Submodules:
  polynomial_engine  rationals, Groebner bases, certificates, syzygies
  graded_algebra     the free graded-commutative algebra, filtration, truncation
  antibracket        the odd Poisson bracket, d_S, exp(ad_u)
  tate               depth-bounded Koszul-Tate resolutions and stabilization
  bv_solver          master-equation solver, gauge words, closed-form solutions
  brst               BRST cohomology in low degrees and E2-page slices
  cli                problem files, JSON persistence, example registry
"""

from .antibracket import antifield_lift, bracket, d_S, exp_ad
from .graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    grading_data,
    graded_to_str,
    gr_project,
    multiply,
    parse_graded,
    truncate,
)
from .tate import (
    AcyclicityReport,
    ResolutionMorphism,
    TateGenerator,
    TateResolution,
    build_resolution,
    check_acyclic,
    extend_morphism,
    negative_monomials,
    stabilize,
)
from .polynomial_engine import (
    BasePolynomial,
    GroebnerBasis,
    MembershipCertificate,
    ModuleBasis,
    ModuleVector,
    Rational,
    groebner_basis,
    lift_membership,
    normal_form,
    syzygy_basis,
)
from .brst import (
    CohomologyReport,
    SymmetryPresentation,
    apply_vector_field,
    e2_page,
    h0,
    h0_bracket,
    h1,
    jacobian_ring,
    koszul_syzygies,
    standard_monomials,
    symmetry_presentation,
)
from .cli import ProblemError, ProblemSpec, parse_problem, run_command
from .bv_solver import (
    GaugeWord,
    MasterSolution,
    VerifyReport,
    add_square,
    bundle_solution,
    faddeev_popov,
    gauge_relate,
    master_residual,
    product_solution,
    s_lin,
    solve_master,
    trivial_solution,
    verify_master,
)

__all__ = [
    "ProblemError",
    "ProblemSpec",
    "parse_problem",
    "run_command",
    "CohomologyReport",
    "SymmetryPresentation",
    "apply_vector_field",
    "e2_page",
    "h0",
    "h0_bracket",
    "h1",
    "jacobian_ring",
    "koszul_syzygies",
    "standard_monomials",
    "symmetry_presentation",
    "GaugeWord",
    "MasterSolution",
    "VerifyReport",
    "add_square",
    "bundle_solution",
    "faddeev_popov",
    "gauge_relate",
    "master_residual",
    "product_solution",
    "s_lin",
    "solve_master",
    "trivial_solution",
    "verify_master",
    "stabilize",
    "negative_monomials",
    "extend_morphism",
    "check_acyclic",
    "build_resolution",
    "TateResolution",
    "TateGenerator",
    "ResolutionMorphism",
    "AcyclicityReport",
    "BasePolynomial",
    "GeneratorTable",
    "GradedPolynomial",
    "GroebnerBasis",
    "MembershipCertificate",
    "ModuleBasis",
    "ModuleVector",
    "Rational",
    "antifield_lift",
    "bracket",
    "d_S",
    "exp_ad",
    "gr_project",
    "graded_to_str",
    "grading_data",
    "groebner_basis",
    "lift_membership",
    "multiply",
    "normal_form",
    "parse_graded",
    "syzygy_basis",
    "truncate",
]

__version__ = "0.1.0"
