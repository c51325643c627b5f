"""repro: a from-scratch reproduction of "Building an Efficient RDF Store
Over a Relational Database" (Bornea et al., SIGMOD 2013 — the DB2RDF
system).

Public surface::

    from repro import Graph, RdfStore, Triple, URI, Literal
    from repro.sparql import query_graph          # reference evaluator
    from repro.backends import SqliteBackend      # alternate backend
    from repro.workloads import lubm              # benchmark generators
"""

from .backends import Backend, MiniRelBackend, SqliteBackend
from .core import (
    Budget,
    BudgetExceededError,
    DatasetStatistics,
    GuardrailError,
    QueryTimeoutError,
    RdfStore,
    StoreReport,
    UnsupportedQueryError,
)
from .rdf import BNode, Graph, Literal, Namespace, Triple, URI
from .sparql import EngineConfig, SelectResult, parse_sparql, query_graph
from .update import UpdateResult, UpdateSyntaxError, parse_update

__version__ = "1.0.0"

__all__ = [
    "BNode",
    "Backend",
    "Budget",
    "BudgetExceededError",
    "DatasetStatistics",
    "EngineConfig",
    "Graph",
    "GuardrailError",
    "Literal",
    "MiniRelBackend",
    "Namespace",
    "QueryTimeoutError",
    "RdfStore",
    "SelectResult",
    "SqliteBackend",
    "StoreReport",
    "Triple",
    "URI",
    "UnsupportedQueryError",
    "UpdateResult",
    "UpdateSyntaxError",
    "parse_sparql",
    "parse_update",
    "query_graph",
]
