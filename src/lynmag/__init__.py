"""Lyndon words, the Magnus embedding, and duality in the lower p-central
filtration of a free group.

The package is organized bottom-up:

- words: alphabets, word orders, Lyndon words, necklace counts
- freegrp: free-group words, iterated commutators, filtration generators
- series: truncated noncommutative power series and the Magnus embedding
- matgrp: unipotent matrix groups, their filtration, brute-force subgroups
- pairing: the duality pairing between generators and coefficient functionals
- shufalg: shuffle and infiltration products, shuffle-span reductions
- verify: named consistency checks backing the command-line ``verify``
- cli: the ``lynmag`` command-line entry point
"""

from .errors import ConsistencyError
from .freegrp import (
    GroupWord,
    commutator,
    format_group_word,
    gr_generators,
    parse_group_word,
    tau,
)
from .matgrp import (
    FiniteGroupTable,
    UnipotentMatrix,
    generate_group,
    iota,
    lower_p_central,
    rho,
)
from .pairing import (
    PairingMatrix,
    dual_change_of_basis,
    h2_dimension,
    pairing,
    pairing_matrix,
    vanishing_checks,
)
from .series import (
    TruncatedSeries,
    balanced,
    eps,
    inner_product,
    koch_test,
    lower_central_test,
    magnus,
    p_poly,
)
from .shufalg import (
    ShuffleSpanBasis,
    cfl_check,
    infiltration,
    palindrome_identity,
    reduce_mod_shuffles,
    shuffle,
    shuffle_congruence_check,
    shuffle_span_basis,
)
from .verify import VerifyConfig, run_check, run_checks
from .words import (
    Alphabet,
    Word,
    all_words,
    is_lyndon,
    lyndon_words,
    mobius,
    necklace,
    standard_factorization,
)

__all__ = [
    "Alphabet",
    "Word",
    "all_words",
    "is_lyndon",
    "lyndon_words",
    "mobius",
    "necklace",
    "standard_factorization",
    "GroupWord",
    "commutator",
    "format_group_word",
    "parse_group_word",
    "gr_generators",
    "tau",
    "TruncatedSeries",
    "balanced",
    "magnus",
    "eps",
    "inner_product",
    "koch_test",
    "lower_central_test",
    "p_poly",
    "UnipotentMatrix",
    "FiniteGroupTable",
    "generate_group",
    "lower_p_central",
    "rho",
    "iota",
    "PairingMatrix",
    "pairing",
    "pairing_matrix",
    "dual_change_of_basis",
    "h2_dimension",
    "vanishing_checks",
    "shuffle",
    "infiltration",
    "cfl_check",
    "shuffle_congruence_check",
    "palindrome_identity",
    "ShuffleSpanBasis",
    "shuffle_span_basis",
    "reduce_mod_shuffles",
    "VerifyConfig",
    "run_check",
    "run_checks",
    "ConsistencyError",
]

__version__ = "0.1.0"
