"""The plan-quality battery: a deterministic dataset plus query shapes that
punish bad join orders.

The dataset is a small social/academic graph with deliberately *skewed*
cardinalities — a handful of huge predicates (``type``, ``knows``), a few
tiny ones (``leads``, ``basedIn``), heavy-hitter constants (half the
population lives in city0) and rare ones (one person lives in the last
city) — so that join orders differ by orders of magnitude in intermediate
work and a cost-blind planner has real regret to measure.

The queries cover the shapes SP2Bench identifies as order-sensitive: long
chains (≥ 5 triples), bushy stars, selective-constant anchors, and
OPTIONAL mixes. The test battery (``tests/sparql/battery``) consumes this
module, so the regret gate and the correctness harness see the same
workload.

Everything is seeded: same inputs, same graph, same queries, same plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..rdf.graph import Graph
from ..rdf.namespaces import Namespace
from ..rdf.terms import Literal, Triple, URI

PB = Namespace("http://example.org/planbattery/")
RDF_TYPE = URI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


@dataclass
class BatteryData:
    graph: Graph
    persons: int
    cities: int
    companies: int
    papers: int


def generate(persons: int = 220, seed: int = 13) -> BatteryData:
    """Generate the battery graph (~20 triples per person at the default
    size, a few thousand total — small enough for per-test loads, skewed
    enough that join orders matter)."""
    rng = random.Random(seed)
    graph = Graph()
    cities = max(6, persons // 40)
    companies = max(5, persons // 30)
    papers = persons * 2

    def add(s, p, o):
        graph.add(Triple(s, p, o))

    person_uris = [URI(f"{PB.base}person{i}") for i in range(persons)]
    city_uris = [URI(f"{PB.base}city{i}") for i in range(cities)]
    company_uris = [URI(f"{PB.base}company{i}") for i in range(companies)]
    paper_uris = [URI(f"{PB.base}paper{i}") for i in range(papers)]

    for j, city in enumerate(city_uris):
        add(city, RDF_TYPE, PB.City)
        add(city, PB.cityName, Literal(f"City {j}"))
    for k, company in enumerate(company_uris):
        add(company, RDF_TYPE, PB.Company)
        # Heavily skewed: most companies sit in city0.
        city = city_uris[0] if rng.random() < 0.6 else rng.choice(city_uris)
        add(company, PB.basedIn, city)

    for i, person in enumerate(person_uris):
        add(person, RDF_TYPE, PB.Person)
        add(person, PB.name, Literal(f"Person {i}"))
        # livesIn: city0 hoards half the population; the last city gets
        # exactly one inhabitant (the rare selective constant).
        if i == persons - 1:
            add(person, PB.livesIn, city_uris[-1])
        elif rng.random() < 0.5:
            add(person, PB.livesIn, city_uris[0])
        else:
            add(person, PB.livesIn, rng.choice(city_uris[1:-1]))
        add(person, PB.worksAt, rng.choice(company_uris))
        if i % 37 == 0:
            add(person, PB.leads, rng.choice(company_uris))
        # knows: a dense, chain-friendly web (~4 edges per person).
        for _ in range(4):
            other = rng.choice(person_uris)
            if other is not person:
                add(person, PB.knows, other)
        if rng.random() < 0.35:
            add(person, PB.age, Literal(str(rng.randint(18, 90))))

    for n, paper in enumerate(paper_uris):
        add(paper, RDF_TYPE, PB.Paper)
        add(paper, PB.title, Literal(f"Paper {n}"))
        add(paper, PB.about, URI(f"{PB.base}topic{n % 7}"))
        for author in rng.sample(person_uris, rng.randint(1, 2)):
            add(paper, PB.authored_by, author)
        if rng.random() < 0.4:
            add(paper, PB.cites, rng.choice(paper_uris))

    return BatteryData(
        graph,
        persons=persons,
        cities=cities,
        companies=companies,
        papers=papers,
    )


def queries(persons: int = 220) -> dict[str, str]:
    """Named battery queries, ≥ 20 shapes; values are plain SPARQL text.

    Names are tagged by family: ``chain*`` (length ≥ 5), ``star*``
    (bushy stars), ``sel*`` (selective constants), ``opt*`` (OPTIONAL
    mixes), ``mix*`` (hybrids).
    """
    b = PB.base
    rare_city = f"{b}city{max(6, persons // 40) - 1}"
    qs = {
        # ---------------------------------------------------- chains (≥ 5)
        "chain5_knows": f"""SELECT ?a ?e WHERE {{
            ?a <{b}knows> ?b . ?b <{b}knows> ?c . ?c <{b}knows> ?d .
            ?d <{b}knows> ?e . ?e <{b}livesIn> <{b}city0> }}""",
        "chain5_rare_anchor": f"""SELECT ?a ?d WHERE {{
            ?a <{b}livesIn> <{rare_city}> . ?a <{b}knows> ?b .
            ?b <{b}knows> ?c . ?c <{b}knows> ?d . ?d <{b}worksAt> ?co }}""",
        "chain6_papers": f"""SELECT ?p1 ?author WHERE {{
            ?p1 <{b}cites> ?p2 . ?p2 <{b}cites> ?p3 .
            ?p3 <{b}authored_by> ?author . ?author <{b}knows> ?friend .
            ?friend <{b}livesIn> <{b}city0> }}""",
        "chain5_company": f"""SELECT ?a ?city WHERE {{
            ?a <{b}knows> ?c . ?c <{b}knows> ?d . ?d <{b}leads> ?co .
            ?co <{b}basedIn> ?city . ?city <{b}cityName> ?nm }}""",
        "chain5_authors": f"""SELECT ?paper ?city WHERE {{
            ?paper <{b}authored_by> ?a . ?a <{b}knows> ?f .
            ?f <{b}livesIn> ?city . ?city <{b}cityName> ?nm .
            ?f <{b}worksAt> ?co }}""",
        # ------------------------------------------------------ bushy stars
        "star_person": f"""SELECT ?p ?n ?city ?co WHERE {{
            ?p <{b}name> ?n . ?p <{b}livesIn> ?city .
            ?p <{b}worksAt> ?co . ?p <{RDF_TYPE.value}> <{b}Person> }}""",
        "star_leader": f"""SELECT ?p ?n ?co WHERE {{
            ?p <{b}leads> ?co . ?p <{b}name> ?n .
            ?p <{b}livesIn> ?city . ?p <{b}worksAt> ?employer }}""",
        "star_paper": f"""SELECT ?paper ?t ?topic ?a WHERE {{
            ?paper <{b}title> ?t . ?paper <{b}about> ?topic .
            ?paper <{b}authored_by> ?a . ?paper <{RDF_TYPE.value}> <{b}Paper> }}""",
        "star_bushy_two_centers": f"""SELECT ?p ?paper WHERE {{
            ?p <{b}name> ?n . ?p <{b}livesIn> ?city .
            ?paper <{b}authored_by> ?p . ?paper <{b}about> ?topic .
            ?paper <{b}title> ?t }}""",
        "star_aged": f"""SELECT ?p ?age ?co WHERE {{
            ?p <{b}age> ?age . ?p <{b}worksAt> ?co .
            ?p <{b}livesIn> ?city . ?p <{b}name> ?n }}""",
        # ----------------------------------------------- selective constants
        "sel_rare_city": f"""SELECT ?p ?n WHERE {{
            ?p <{b}livesIn> <{rare_city}> . ?p <{b}name> ?n }}""",
        "sel_rare_vs_huge": f"""SELECT ?p ?f WHERE {{
            ?p <{b}livesIn> <{rare_city}> . ?p <{b}knows> ?f .
            ?f <{b}livesIn> <{b}city0> }}""",
        "sel_person0_star": f"""SELECT ?n ?city ?co WHERE {{
            <{b}person0> <{b}name> ?n . <{b}person0> <{b}livesIn> ?city .
            <{b}person0> <{b}worksAt> ?co }}""",
        "sel_topic_funnel": f"""SELECT ?paper ?a WHERE {{
            ?paper <{b}about> <{b}topic3> . ?paper <{b}authored_by> ?a .
            ?a <{b}livesIn> <{b}city0> }}""",
        "sel_leader_city": f"""SELECT ?p ?co WHERE {{
            ?p <{b}leads> ?co . ?co <{b}basedIn> <{b}city0> .
            ?p <{b}livesIn> ?city }}""",
        # --------------------------------------------------- OPTIONAL mixes
        "opt_age": f"""SELECT ?p ?n ?age WHERE {{
            ?p <{b}name> ?n . ?p <{b}livesIn> <{rare_city}> .
            OPTIONAL {{ ?p <{b}age> ?age }} }}""",
        "opt_leads": f"""SELECT ?p ?co ?led WHERE {{
            ?p <{b}worksAt> ?co . ?p <{b}livesIn> <{rare_city}> .
            OPTIONAL {{ ?p <{b}leads> ?led }} }}""",
        "opt_chain": f"""SELECT ?a ?b ?age WHERE {{
            ?a <{b}livesIn> <{rare_city}> . ?a <{b}knows> ?b .
            ?b <{b}worksAt> ?co . OPTIONAL {{ ?b <{b}age> ?age }} }}""",
        "opt_star_cites": f"""SELECT ?paper ?t ?cited WHERE {{
            ?paper <{b}title> ?t . ?paper <{b}about> <{b}topic1> .
            OPTIONAL {{ ?paper <{b}cites> ?cited }} }}""",
        "opt_double": f"""SELECT ?p ?age ?led WHERE {{
            ?p <{b}livesIn> <{rare_city}> .
            OPTIONAL {{ ?p <{b}age> ?age }}
            OPTIONAL {{ ?p <{b}leads> ?led }} }}""",
        # ------------------------------------------------------ mixed shapes
        "mix_star_chain": f"""SELECT ?p ?f ?co WHERE {{
            ?p <{b}name> ?n . ?p <{b}livesIn> <{rare_city}> .
            ?p <{b}knows> ?f . ?f <{b}worksAt> ?co .
            ?co <{b}basedIn> ?city }}""",
        "mix_paper_social": f"""SELECT ?paper ?f WHERE {{
            ?paper <{b}about> <{b}topic5> . ?paper <{b}authored_by> ?a .
            ?a <{b}knows> ?f . ?f <{b}leads> ?co }}""",
        "mix_filter_chain": f"""SELECT ?p ?f ?age WHERE {{
            ?p <{b}leads> ?co . ?p <{b}knows> ?f . ?f <{b}age> ?age
            FILTER (?age > 40) }}""",
    }
    fixed = {}
    for name, text in qs.items():
        fixed[name] = " ".join(text.split())
    return fixed
