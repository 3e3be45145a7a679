"""tilinglab: a desk-scale laboratory for perfect graph tilings.

Graphs and digraphs with bitset adjacency, degree-sequence conditions in
exact rational arithmetic, an exact perfect/maximum packing solver used as
the verification oracle throughout, extremal counterexample constructions
with uncoverability certificates, exchange-based packing improvement, and
pattern-path/absorbing-set machinery with an absorb-then-pack pipeline.
"""

from .graphs import (
    Digraph,
    Graph,
    GraphFormatError,
    PatternGraph,
    blow_up,
    degree_sequence,
    dominant_rows,
    graph_from_json,
    graph_to_json,
    load_graph,
    parse_edge_list,
    symmetrize,
)
from .constructions import (
    ExtremalInstance,
    ExtremalParamError,
    ExtremalParams,
    UncoverableResult,
    blowup_tournament_packing,
    certify_uncoverable,
    clique_pattern,
    complete_graph,
    complete_multipartite,
    extremal_instance,
    hs_tight_instance,
    pattern_from_name,
    pattern_power,
    preset_star_sizes,
    transitive_pattern,
    transitive_tournament,
)
from .packing import (
    BudgetExhausted,
    MaxPackingResult,
    Packing,
    SearchBudget,
    VerifyResult,
    enumerate_copies,
    find_perfect_packing,
    greedy_packing,
    is_perfect_packing,
    max_packing,
    spans_pattern,
    transitive_order,
    verify_parts,
)
from .degseq import (
    ConditionReport,
    DegreeCondition,
    check_baseline,
    check_baselines,
    check_dominant_margin,
    check_exact_sequence,
    check_margin_sequence,
    evaluate,
)
from .exchange import (
    BlowupResult,
    ConsistentCopy,
    IndexBijection,
    TraceRow,
    blowup_iterate,
    convert_to_blowup_packing,
    extend_mixed,
    greedy_transitive,
    index_bijection,
    swap_improve,
    swap_to_fixpoint,
    trace_to_csv,
)
from .absorbing import (
    AbsorbingFamily,
    AbsorbingGadget,
    FamilyConstructionError,
    HPath,
    PipelineResult,
    StarBlowup,
    absorb,
    auxiliary_graph,
    build_absorbing_family,
    clique_path,
    concat_paths,
    find_connecting_path,
    is_absorbing_for,
    is_h_path,
    length1_connectors,
    pipeline,
    q_prime,
    star_blowup,
    truncate_path,
    truncated_star_blowup,
    verify_star_blowup,
)

__version__ = "0.1.0"
