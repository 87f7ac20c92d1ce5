"""orecalc: exact Ore-algebra computer algebra.

Left ideals of linear operators over rational-function fields: Groebner
bases, Hilbert dimension, closure properties, polynomial growth, and
creative telescoping, with a numeric oracle for identity verification.
"""

from .arith import MPoly, PolyRing, RatFunc, nullspace, poly_gcd, poly_lcm, squarefree_part
from .closure import ClosureResult, closure_apply, closure_product, closure_sum
from .dimension import UNIT_IDEAL, free_generator_subset, hilbert_dimension, hilbert_function
from .groebner import (
    GREVLEX,
    GRLEX,
    GroebnerBasis,
    LeftIdeal,
    MonomialOrder,
    buchberger,
    is_member,
    same_ideal,
)
from .growth import GrowthCertificate, UniformReduction, growth_probe, growth_zero_dimensional, uniform_reduction_data
from .ore import (
    OreAlgebra,
    OreGenerator,
    OreKind,
    OrePoly,
    difference_to_shift,
    shift_to_difference,
    telescopable_witness,
)
from .telescoping import (
    CoupledSystem,
    SearchOutcome,
    TelescopingResult,
    extract_telescoper,
    fasenmyer_search,
    restrict_to_x,
    telescoping_bound,
    x_subalgebra,
    zeilberger_search,
)
from .verify import (
    Add,
    Builtin,
    Const,
    DefiniteSum,
    Lin,
    LinExpr,
    Pow,
    Product,
    apply_operator_numeric,
    bernoulli,
    binomial,
    box_points,
    check_identity,
    eulerian1,
    factorial,
    stirling2,
)

__version__ = "0.1.0"
