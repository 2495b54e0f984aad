"""hadcert: complex Hadamard (biunitary) matrices as commuting-square data.

Certify isolation through the commutator-span rank test, find the algebraic
witnesses that break it, generate the corresponding one-parameter families,
and search numerically for new family seeds.
"""

from .cmatrix import (
    DEFAULT_POLICY,
    NumericPolicy,
    frobenius_norm,
    mask_from_indices,
    mask_indices,
    numerical_rank,
    projection_matrix,
)
from .families import (
    BlockPairSpec,
    CommutingPairSpec,
    block_pair_spec,
    commuting_pair_spec,
    constr1_family,
    constr2_family,
    find_block_pairs,
    find_commuting_pairs,
    verify_unitarity_identity,
)
from .hadamard import (
    BiunitaryVerdict,
    bjorck7,
    circulant,
    dephase,
    equivalent,
    fourier,
    petrescu,
    qr_circulant,
    verify_biunitary,
)
from .search import SearchConfig, SearchResult, gradient, local_search, objective, promote
from .spancert import (
    INCONCLUSIVE,
    ISOLATED,
    SPAN_FAILS,
    SpanCertificate,
    certify_isolation,
    kernel_dimension,
    reduced_minor,
    span_matrix,
)

__version__ = "0.1.0"
