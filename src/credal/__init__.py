"""Workbench for probabilistic inference procedures on finite spaces."""

from .spaces import (
    Event,
    Space,
    Vocabulary,
    World,
    atoms_over,
    enumerate_worlds,
    event_of,
    product_decomposition,
    product_space,
)
from .measures import (
    Measure,
    condition,
    corresponds,
    couple,
    entropy,
    is_product_measure,
    kl_chain_identity_residual,
    kl_divergence,
    product_measure,
    pushforward,
)
from .constraints import (
    ConstraintExpr,
    LinearAtom,
    ProductAtom,
    parse_constraint,
    satisfies,
    to_dnf,
    translate,
)
from .entail import (
    FeasibilityReport,
    conservative_check,
    entails,
    equivalent,
    is_interesting,
    objective_normal_form,
    satisfiable,
)
from .optimize import (
    ProjectionResult,
    kl_project,
    maxent,
    update_set,
)
from .embeddings import (
    Embedding,
    from_interpretation,
    from_surjection,
    is_faithful,
    permutation_embedding,
    product_embedding,
    random_faithful_embedding,
)
from .procedures import (
    InferenceProcedure,
    PriorFunction,
    Verdict,
    i0_select,
    i1_select,
    infers,
    klm_properties_check,
    minimal_default_independence_check,
    product_prior_infer,
)
from .errors import ConvergenceError, CredalError, DomainError, ParseError

__version__ = "0.1.0"
