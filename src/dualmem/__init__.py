"""Dual membership structures at desk scale.

One finite domain, two membership relations: check the finite-surrogate
axioms for each, build the definable matching between them, verify the
construction's properties as executable checks, and cross-examine everything
against an independent canonical-collapse oracle.
"""

from .axioms import SchemaBudget, check_schema_battery, full_report, render_report
from .errors import (
    CycleError,
    DualMemError,
    EvalError,
    FormulaError,
    LevelExtensionError,
    NonExtensionalError,
    StructureFormatError,
)
from .formulas import (
    evaluate,
    evaluate_table,
    free_vars,
    instantiate_replacement,
    instantiate_separation,
    parse_formula,
    render,
)
from .hf import collapse, collapse_domain, render_hf
from .iso import (
    FailureDiagnostic,
    IsoCertificate,
    build_witness,
    extend_to_level,
    global_isomorphism,
    internal_level,
    is_ordinal,
    verify_certificate,
)
from .lemmas import CorpusConfig, counterexample_gallery, run_corpus, run_suite
from .structure import (
    DualStructure,
    MembershipRelation,
    Permutation,
    build_v_universe,
    dual_structure,
    parse_structure,
    random_extensional_relation,
    scramble,
    serialize_structure,
    tamper,
    transitive_closure,
)

__version__ = "0.1.0"
