"""Exact-arithmetic toolkit for common basis complexes, Tits buildings,
integral simplicial homology, and the Koszul dual of the Steinberg monoid.

Everything computes over the integers or a prime field with exact
arithmetic; no floating point is used anywhere.  The package is organized
as a library:

* :mod:`commonbasis.exactlin` -- canonical forms, splitness, sums,
  intersections and basis extension over Z and F_p;
* :mod:`commonbasis.cbp` -- two independent decision procedures for the
  common basis property plus the corank machinery;
* :mod:`commonbasis.complexes` -- flag complexes, splitting complexes,
  common basis complexes, higher buildings, joins, links and the
  combinatorial Morse decomposition;
* :mod:`commonbasis.homology` -- reduced integral simplicial homology via
  sparse Smith normal form;
* :mod:`commonbasis.simpmodel` -- based simplicial-set models, the
  chain-level shuffle product, suspension and bar-model comparisons;
* :mod:`commonbasis.steinberg` -- the Steinberg monoid, its graded bar
  complex, Tor, and Koszulness verification;
* :mod:`commonbasis.cli` -- the batch driver (``python -m commonbasis``).
"""

__version__ = "0.1.0"

from .cbp import (
    CbpError,
    Collection,
    CommonBasis,
    CorankTable,
    NonSplitMember,
    SubsetCapExceeded,
    closure,
    collection,
    common_basis_greedy,
    corank_table,
    has_cbp_ie,
    ie_violations,
    mobius_boolean,
)
from .complexes import (
    CapExceeded,
    MorseHypothesisViolated,
    SimplicialComplex,
    common_basis_complex,
    dump_complex,
    higher_tits,
    is_simplex_over_Z,
    join,
    load_complex,
    morse_certificate,
    morse_check,
    split_tits,
    splitting_to_st_simplex,
    st_simplex_to_splitting,
    tits,
)
from .exactlin import (
    GF,
    ZZ,
    AmbientMismatch,
    ExactLinError,
    Matrix,
    NotSplit,
    Ring,
    Submodule,
    all_subspaces,
    ambient_module,
    canonicalize,
    contains,
    extend_to_ambient_basis,
    intersect,
    is_split,
    snf,
    span,
    span_sum,
    zero_module,
)
from .homology import (
    ChainComplex,
    HomologyProfile,
    chains,
    homology,
    is_c_connected_homologically,
    relative_homology,
)
from .simpmodel import (
    SemiSimplicialModel,
    check_bar_model,
    check_suspension,
    d_model,
    mu_chain,
    ordered_decompositions,
)
from .steinberg import (
    SteinbergError,
    SteinbergModule,
    bar_complex,
    bar_euler,
    decomposition_count,
    gl_order,
    st_module,
    st_multiply,
    st_rank_classical,
    tor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
