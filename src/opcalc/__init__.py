"""Exact operator calculus on the univariate polynomial ring.

Expand arbitrary linear polynomial operators with multiplications on the
left (XD form, over any degree-reducing basis), decide and construct the
dual form with derivatives on the left (DX form), normal-order words in
D and X, and run the umbral apparatus of delta operators: divided-power,
basic, and conjugate sequences, umbral operators and shifts.

All arithmetic is exact over the rationals.
"""

__version__ = "0.1.0"

from .errors import (
    InvertError,
    MissingVanishingCertificate,
    NegativePowerViolation,
    NoCertificate,
    NotDegreeReducing,
    NotDelta,
    NotDX,
    NotDXEligible,
    OpcalcError,
    ParseError,
    ReverseError,
    TruncationError,
    WindowTooSmall,
)
from .poly import NEG_INF, Poly, Rat, falling_factorial, falling_factorial_at, rat
from .series import POS_INF, SSeries, pseries_exp
from .operators import (
    Add,
    Compose,
    D,
    Delta,
    Eval0,
    Identity,
    J,
    OpExpr,
    OpTable,
    PolyInX,
    Scale,
    SeriesInD,
    Shift,
    Substitute,
    X,
    d_expand,
    op_equal_upto,
    shift_invariance_check,
)
from .expansions import (
    DividedPowerBasis,
    XDExpansion,
    basis_change,
    degree_reducing_check,
    divided_power_basis,
    render_expansion,
    xb_expand,
    xd_apply,
    xd_expand,
)
from .normal_order import (
    MixedForm,
    normal_order_DjXi,
    normal_order_XiDj,
    reorder_product,
    word_apply,
)
from .dx import (
    ConvergenceCertificate,
    ConvergenceVerdict,
    DiagonalFit,
    DXExpansion,
    all_polynomial,
    binomial_poly,
    compose_via_diagonals,
    counterexample_S,
    dx_apply,
    dx_check,
    dx_construct,
    dx_convergence_check,
    dx_transpose,
    fit_diagonal,
    gf_consistency_check,
    observed_tail_bound,
    polynomial_diagonals,
)
from .umbral import (
    DeltaOp,
    PolySequence,
    basic_sequence,
    conjugate_polys,
    delta_from_series,
    delta_inverse,
    endomorphism_xd,
    pincherle_derivative,
    rodrigues_xd,
    sequences,
    umbral_op_apply,
    umbral_op_dx,
    umbral_op_xd,
    umbral_shift_apply,
    umbral_shift_as_op,
    umbral_shift_dx,
)
from .dsl import parse_operator, render_operator
