"""Exact invariant exterior calculus on hypercomplex Lie algebras.

The package computes the split differentials, canonical 1-forms, Ricci data
and scalar curvatures of invariant hyperhermitian metrics, and classifies
them against the hierarchy of special metrics, in exact arithmetic over the
rationals or a real quadratic extension.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    ComplexScalar,
    Scalar,
    ScalarField,
    parse_scalar,
    rational,
    root,
    sign_of,
)
from .forms import (  # noqa: F401
    DegreeOverflowError,
    Form,
    SkewMatrix,
    bidegree_split,
    endo_action,
    pfaffian,
    wedge,
)
from .liealg import (  # noqa: F401
    AlgebraProfile,
    JacobiError,
    LieAlgebraData,
    algebra_invariants,
)
from .hypercomplex import (  # noqa: F401
    ComplexFrame,
    Geometry,
    HypercomplexStructure,
    IntegrabilityError,
    SpherePoint,
    is_abelian,
    validate_hypercomplex,
)
from .hermitian import (  # noqa: F401
    CanonicalForms,
    ConsistencyError,
    CurvatureData,
    Metric,
    MetricError,
    is_qpositive,
    phi,
    phi_inverse,
    qpositivity_verdict,
)
from .classify import (  # noqa: F401
    Certificate,
    ClassificationReport,
    classify_metric,
    conformal_class_obstruction,
    einstein_factor,
    equivalence_audit,
    qbal_nonexistence_certificate,
    search_metrics,
    sl_and_class_check,
    solve_exactness,
)
from .constructions import (  # noqa: F401
    JoyceBlock,
    JoyceData,
    QuaternionicRep,
    arroyo_nicolini,
    barberis_fino,
    direct_sum,
    indecomposability_hint,
    joyce_build,
    joyce_su2_tori,
    joyce_su3_data,
    sp1_spin_rep,
)
from .catalog import entry_names, get_example, run_report  # noqa: F401
