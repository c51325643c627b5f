"""The PRBench scenario: RDF as the integration layer across software tools.

The paper's private benchmark came from exactly this use case — bug
trackers, requirement managers, and test tools each emit artifacts with
their own vocabulary; RDF's schema-freedom lets one store integrate them
all, and SPARQL joins across tool boundaries. This example runs the
cross-tool traceability queries a release manager would ask.

Run with:  python examples/tool_integration.py
"""

from repro import RdfStore, SqliteBackend
from repro.workloads import prbench


def main() -> None:
    data = prbench.generate(target_triples=25_000)
    # sqlite3 backend this time — same SQL, different engine.
    store = RdfStore.from_graph(data.graph, backend=SqliteBackend())
    print(f"integrated {len(data.graph)} triples from 5 tools\n")

    prefix = (
        "PREFIX pr: <http://example.org/pr/> "
        "PREFIX dc: <http://purl.org/dc/elements/1.1/> "
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>"
    )

    # Traceability: bugs that have BOTH a validating test and a fixing
    # change set (three entities from three different tools).
    traced = store.query(
        f"""{prefix} SELECT ?bug ?test ?change WHERE {{
            ?bug rdf:type pr:BugReport .
            ?test pr:validates ?bug .
            ?change pr:implements ?bug
        }} LIMIT 5"""
    )
    print("fully traced bugs (bug / test / change):")
    for bug, test, change in traced:
        print(f"  {str(bug).split('/')[-1]:>8} <- {str(test).split('/')[-1]:>8}"
              f" / {str(change).split('/')[-1]}")

    # Open blockers: open bugs blocked by other open bugs.
    blockers = store.query(
        f"""{prefix} SELECT ?bug ?blocker WHERE {{
            ?bug pr:blockedBy ?blocker .
            ?bug pr:state "open" .
            ?blocker pr:state "open"
        }}"""
    )
    print(f"\nopen bugs blocked by open bugs: {len(blockers)}")

    # Per-creator triage load, with optional severity.
    triage = store.query(
        f"""{prefix} SELECT ?who ?bug ?sev WHERE {{
            ?bug rdf:type pr:BugReport .
            ?bug dc:creator ?who .
            ?bug pr:state "open" .
            OPTIONAL {{ ?bug pr:severity ?sev }}
        }} ORDER BY ?who LIMIT 8"""
    )
    print("\nopen-bug triage sample (creator / bug / severity):")
    for who, bug, severity in triage:
        print(
            f"  {str(who).split('/')[-1]:<8} "
            f"{str(bug).split('/')[-1]:<10} {severity or '-'}"
        )

    # The paper's wide-UNION query: one conjunctive branch per
    # (tool, state) pair — PRBench had unions of 100 conjunctive queries.
    wide = prbench.queries(wide_union_branches=25)["PQ5"]
    result = store.query(wide, timeout=30.0)
    print(f"\nwide union (25 branches): {len(result)} artifact/creator rows")

    # Timeouts classify runaway queries instead of hanging the harness.
    from repro.core.resilience import QueryTimeoutError

    try:
        store.query(
            f"""{prefix} SELECT ?a ?b ?c ?d WHERE {{
                ?a pr:relatesTo ?x . ?b pr:relatesTo ?x .
                ?c pr:relatesTo ?x . ?d pr:relatesTo ?x
            }}""",
            timeout=0.05,
        )
        print("\nrunaway query finished within its budget")
    except QueryTimeoutError:
        print("\nrunaway 4-way self-join was cancelled by the 50 ms deadline")


if __name__ == "__main__":
    main()
