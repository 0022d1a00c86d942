"""Exact machine verification of plane-free hypergraph extremal facts.

Everything is driven by dense bitmask encodings: 3-uniform hypergraphs as
colex-rank edge masks, layer multigraphs as per-pair layer masks.  The
library provides named constructions, three independent plane detectors,
canonical forms, exhaustive boundary searches with exact state accounting,
and a registry of verifiable claims that emit JSON certificates.
"""

# Defined before the submodule imports: certificate.py reads it at import.
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .canonical import (
    CANONICAL_CAP,
    automorphism_count,
    canonical_form,
    is_canonical,
    relabel,
)
from .certificate import Certificate, CheckpointWriter, read_checkpoint
from .errors import (
    CapabilityError,
    FanoturanError,
    FormatError,
    ParameterError,
    VerificationError,
)
from .fano import (
    DetectionMethod,
    contains_fano,
    contains_fano_cover,
    contains_fano_crossing,
    contains_fano_embedding,
    contains_fano_pasch,
    find_clique,
    find_fano_crossing,
    find_fano_embedding,
    find_fano_pasch,
    triple_cover_masks,
)
from .hypergraph import (
    FANO_LINES,
    MAX_VERTICES,
    PASCH_QUADS,
    Hypergraph,
    b_formula,
    complement,
    construct,
    format_text,
    from_json_dict,
    pair_rank,
    parse_text,
    random_hypergraph,
    recognize_balanced_bipartite,
    to_json_dict,
    triple_rank,
)
from .multigraph import (
    CrossingWitness,
    PMultigraph,
    extremal_4multigraph,
    f4_formula,
    f5_lower_constructions,
    has_three_crossing_pairs,
    max_edges_no_crossing,
    verify_corollary_inequalities,
    verify_lemma_4vertex,
    verify_section4_arithmetic,
)
from .search import (
    CLAIM_ORDER,
    LONG_RUN_CLAIMS,
    max_fano_free_edges,
    run_claim,
    verify_ex7,
    verify_ex8,
    verify_fact_2_4,
    verify_fact_tetra,
    verify_lemma_2_3,
    verify_lemma_n7,
    verify_matching_facts,
)

# Every public name imported above; the submodules themselves are not API.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
