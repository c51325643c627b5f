"""The paper's contribution: the DB2RDF entity-oriented store."""

from . import sqlfunctions  # noqa: F401  (registers RDF_* SQL functions)
from .coloring import (
    ColoringResult,
    InterferenceGraph,
    build_interference_graph,
    color_graph_for_store,
    coloring_report,
    direct_interference_graph,
    greedy_color,
    reverse_interference_graph,
)
from .errors import LoadError, StoreError, UnsupportedQueryError
from .loader import Loader, LoadReport, SideMetadata, pack_entity
from .mapping import (
    ColoringMapper,
    CompositeMapper,
    ExplicitMapper,
    HashMapper,
    PredicateMapper,
    columns_required,
    composed_hashes,
    stable_hash,
)
from .observe import Span, Tracer, render_profile, summarize_operators
from .querycache import (
    CachedPlan,
    CacheInfo,
    QueryCache,
    canonicalize_sparql,
)
from .resilience import (
    Budget,
    BudgetExceededError,
    GuardrailError,
    QueryTimeoutError,
)
from .schema import DB2RDFSchema
from .stats import DatasetStatistics
from .store import RdfStore, StoreReport

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CacheInfo",
    "CachedPlan",
    "ColoringMapper",
    "ColoringResult",
    "CompositeMapper",
    "DB2RDFSchema",
    "DatasetStatistics",
    "QueryCache",
    "ExplicitMapper",
    "GuardrailError",
    "HashMapper",
    "InterferenceGraph",
    "LoadError",
    "LoadReport",
    "Loader",
    "PredicateMapper",
    "QueryTimeoutError",
    "RdfStore",
    "SideMetadata",
    "Span",
    "StoreError",
    "StoreReport",
    "Tracer",
    "UnsupportedQueryError",
    "build_interference_graph",
    "canonicalize_sparql",
    "color_graph_for_store",
    "coloring_report",
    "columns_required",
    "composed_hashes",
    "direct_interference_graph",
    "greedy_color",
    "pack_entity",
    "render_profile",
    "reverse_interference_graph",
    "stable_hash",
    "summarize_operators",
]
