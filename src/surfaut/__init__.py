"""surfaut: exact computation with free-group automorphisms that stabilize a
surface relator, including recognition, peak reduction, canonical
normalization, certification, and factorization into mapping-class
generators."""

from .core import (
    GroupRingElement,
    Letter,
    Signature,
    Word,
    commutator,
    conjugate,
    fox_derivative,
    free_reduce,
    invert,
    multiply,
    parse_word,
    relator,
)
from .endo import (
    Automorphism,
    Endomorphism,
    Membership,
    TPermutation,
    apply,
    classify_letters,
    compose,
    format_endomorphism,
    membership,
    outer_equal,
    parse_endomorphism,
    restrict_drop_tp,
    restrict_relabel_K,
)
from .errors import (
    CosetViolation,
    HypothesisViolated,
    ImageEscapes,
    IndexOutOfRange,
    NotACandidate,
    NotInA,
    NotInStabilizer,
    NotZieschang,
    ParseError,
    ReductionStuck,
    SurfautError,
    TargetTooLong,
)
from .factorize import (
    BaseLoop,
    EdgeScript,
    factorize_adl,
    factorize_adlh,
    factorize_audit,
    nielsen_to_base_loops,
    peel_special,
)
from .gens import (
    GenName,
    GenWord,
    eta,
    eval_gen_word,
    gen_set,
    generator,
    humphries_rewrite,
    parse_gen_word,
    zeta_lift,
)
from .groupoid import (
    GroupoidEdge,
    NielsenKind,
    StepRecord,
    canonical_edge,
    certify_automorphism,
    classify_nielsen,
    enumerate_nielsen_from,
    mu_key,
    nielsen_reduce,
)
from .whitehead import (
    ExtendedWhiteheadGraph,
    build_graph,
    is_zieschang,
    to_dot,
)

__version__ = "0.1.0"
