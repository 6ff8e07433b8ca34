"""jetcalc: exact jet-space differential algebra for the Camassa-Holm and
Qiao hierarchies, their reciprocal transformations to the (modified) CBS
systems, and the composite Miura-reciprocal link between the two."""

from .diffalg import (
    Cofactor,
    DiffAlgError,
    DiffPoly,
    FieldSymbol,
    JetVar,
    Monomial,
    RatExpr,
    SpaceMismatchError,
    TermCapError,
    VarSpace,
    ZeroDivisionExprError,
    combine,
    equivalent,
    is_zero,
    limits,
    proportional,
    substitute_jet,
    total_derivative,
)
from .exprio import ParseError, SourceSpan, from_json, parse, print_expr, to_json
from .hierarchies import (
    Equation,
    ch_space,
    gen_cbs_family,
    gen_ch,
    gen_mcbs_family,
    gen_miura_relations,
    gen_qiao,
    mr_space,
    q_space,
    r_space,
)
from .transform import (
    BelowDesignatedJetError,
    DerivationMap,
    TransportError,
    UndefinedDerivationError,
    build_map,
    check_commutation,
    transport,
)
from .reduction import (
    JetRanking,
    ReductionError,
    RewriteRule,
    RewriteSystem,
    StepCapError,
    orient,
    reduce,
    standard_systems,
)
from .numoracle import TestFunction, fd_check, numeric_proportionality
from .claims import CLAIM_IDS, VerificationReport, run_all, run_claim

__version__ = "0.1.0"
