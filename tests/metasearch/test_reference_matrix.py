"""Every ``Metasearcher`` configuration equals the reference metasearcher.

Hypothesis builds a healthy federation — vendors, how a document pool is
partitioned over the sources and how much they overlap, which resource
lists each source and whether it exports a content summary — and one
query over it: filter and ranking terms with weights,
``MinDocumentScore``, ``MaxNumberDocuments``, answer fields, selector,
merge strategy and ``k_sources``.  Every configuration of the production
client — {serial, async} executor × {``search``, ``search_stream``
drained} × {cache off, cold, warm} × {simulated, socket} wire ×
{grouped by resource, not} — must then answer exactly what
``tests/oracles/reference_metasearcher.py`` answers: the same documents
(linkage, score, sources, order), ``selected_sources``,
``per_source_results`` keys and outcome statuses.  A mismatch is
reported at the first stage that differs: select, route/translate,
answer, merge.

Faults, retries, hedges, deadlines and early termination stay in their
own suites: the reference has no policy to compare them against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CachePolicy, QueryResultCache
from repro.corpus import CollectionSpec, generate_collection, vocabulary as V
from repro.federation import AsyncExecutor, SerialExecutor
from repro.metasearch import Metasearcher
from repro.metasearch.merging import (
    MERGE_STRATEGIES,
    CalibratedMerge,
    TfIdfRecomputeMerge,
)
from repro.metasearch.selection import SELECTOR_REGISTRY, VGlossMax
from repro.resource import Resource
from repro.source.sample import SampleResults
from repro.starts import SQuery
from repro.starts.ast import SAnd, SList, SOr, STerm
from repro.starts.attributes import FieldRef, ModifierRef
from repro.starts.lstring import LString
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.starts.soif import parse_soif
from repro.transport import HttpTransport, SimulatedInternet, StartsHttpServer
from repro.transport.server import resource_endpoints, source_endpoints
from repro.vendors import VENDORS, build_vendor_source

from tests.oracles.reference_metasearcher import Stages, reference_search

# -- the reference's sources: what each endpoint exports, decoded ---------


def _decoded(protocol_object, cls):
    return cls.from_soif(parse_soif(protocol_object.to_soif().dump()))


@dataclass
class ExportedSource:
    """A source as its endpoints export it, decoded in process.

    A query goes through the resource, as a published source's query
    endpoint sends it, so a grouped ``Sources`` list reaches it."""

    resource: Resource
    source_id: str
    exports_summary: bool
    exports_sample: bool

    @property
    def resource_id(self) -> str:
        return self.resource.name

    @property
    def _source(self):
        return self.resource.source(self.source_id)

    def metadata(self) -> SMetaAttributes:
        return _decoded(self._source.metadata(), SMetaAttributes)

    def summary(self) -> SContentSummary | None:
        if not self.exports_summary:
            return None
        return _decoded(self._source.content_summary(), SContentSummary)

    @cached_property
    def sample(self) -> SampleResults | None:
        if not self.exports_sample:
            return None
        return _decoded(self._source.sample_results(), SampleResults)

    def search(self, query):
        return self.resource.search(self.source_id, query)


# -- generated worlds --------------------------------------------------------

TOPICS = ("databases", "retrieval", "networking", "medicine")


class Placement(NamedTuple):
    resource: int
    exports_summary: bool
    exports_sample: bool


@dataclass
class World:
    resources: list[Resource]
    placement: dict[str, Placement]
    #: words its documents are likely to hold: query material
    words: tuple[str, ...]

    def exported(self) -> list[ExportedSource]:
        return [
            ExportedSource(self.resources[at.resource], source_id, *at[1:])
            for source_id, at in self.placement.items()
        ]

    def tables(self, base_of):
        """``{base url: endpoint table}`` for every resource and source;
        ``base_of(resource index, source id or None)`` places them.  A
        source that exports no summary serves no ``cont_sum.txt``, one
        that exports no sample results no ``sample``."""
        tables = {}
        for index, resource in enumerate(self.resources):
            tables[base_of(index, None)] = resource_endpoints(
                resource, lambda source_id, index=index: base_of(index, source_id)
            )
            for source_id in resource.source_ids():
                base = base_of(index, source_id)
                table = source_endpoints(resource.source(source_id), base, resource)
                at = self.placement[source_id]
                if not at.exports_summary:
                    del table["GET", "cont_sum.txt"]
                if not at.exports_sample:
                    del table["GET", "sample"]
                tables[base] = table
        return tables


@st.composite
def worlds(draw, samples: bool) -> World:
    """A healthy federation.  Sample results are exported only where
    ``samples`` says a merge reads them (computing them costs a source
    an index over the sample collection)."""
    topics = draw(
        st.lists(st.sampled_from(TOPICS), min_size=1, max_size=2, unique=True)
    )
    pool = generate_collection(
        CollectionSpec(
            name="Pool",
            topics={topic: 1.0 for topic in topics},
            size=draw(st.integers(8, 20)),
            seed=draw(st.integers(0, 2**16)),
        )
    )
    n_sources = draw(st.integers(1, 4))
    n_resources = draw(st.integers(1, min(2, n_sources)))
    # Which sources export a summary: with none, selection falls back.
    summaries = draw(st.sampled_from(["all", "all", "some", "none"]))
    resources = [Resource(f"R{index}") for index in range(n_resources)]
    placement = {}
    for position in range(n_sources):
        source_id = f"S{position}"
        # Subsets of one pool: disjoint, overlapping or identical.
        members = draw(
            st.lists(st.sampled_from(range(len(pool))), min_size=1, unique=True)
        )
        index = draw(st.integers(0, n_resources - 1))
        vendor = draw(st.sampled_from(sorted(VENDORS)))
        documents = [pool[member] for member in sorted(members)]
        resources[index].add_source(build_vendor_source(vendor, source_id, documents))
        placement[source_id] = Placement(
            index,
            summaries == "all" or (summaries == "some" and draw(st.booleans())),
            samples and draw(st.booleans() | st.just(True)),
        )
    words = tuple(word for topic in topics for word in V.TOPICS[topic][:5])
    return World(resources, placement, (*words, "system", "analysis"))


@st.composite
def queries(draw, words: tuple[str, ...]) -> SQuery:
    terms = st.builds(
        STerm,
        st.builds(LString, st.sampled_from(words)),
        st.sampled_from([None, None, "body-of-text", "title"]).map(
            lambda name: name and FieldRef(name, "basic-1")
        ),
        st.sampled_from([(), (), (ModifierRef("stem", "basic-1"),)]),
        st.sampled_from([1.0, 0.7, 0.3]),
    )
    # Filter terms always weigh 1.
    filter_terms = terms.map(
        lambda term: STerm(term.lstring, term.field, term.modifiers)
    )
    filters = filter_terms | st.builds(
        lambda kind, children: kind(tuple(children)),
        st.sampled_from([SOr, SOr, SAnd]),
        st.lists(filter_terms, min_size=2, max_size=3),
    )
    rankings = st.lists(terms, min_size=1, max_size=3).map(
        lambda children: SList(tuple(children))
    )
    filter_expression = draw(st.none() | filters)
    # A query needs one of the two expressions.
    ranking_expression = draw(
        rankings if filter_expression is None else st.none() | rankings
    )
    return SQuery(
        filter_expression=filter_expression,
        ranking_expression=ranking_expression,
        min_document_score=draw(st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.2])),
        max_number_documents=draw(st.sampled_from([2, 3, 5, 20])),
        answer_fields=draw(
            st.lists(
                st.sampled_from(["title", "author", "date-last-modified"]), unique=True
            ).map(tuple)
        ),
    )


def source_counts(n_sources: int):
    """``k_sources``: any count up to one past the federation, zero too."""
    return st.sampled_from(range(n_sources + 2))


# -- the production configurations -------------------------------------------

CALLS = ("search", "search_stream")

#: Every example is 48 searches and a reference run: tier-1 holds a
#: few worlds to the whole matrix, the CI step's ``ci`` profile its 500.
MATRIX_EXAMPLES = (
    500
    if settings.default.max_examples == settings.get_profile("ci").max_examples
    else 40
)


_WORLDS_SERVED = itertools.count()


def served(world: World, server: StartsHttpServer) -> dict[str, tuple]:
    """``{wire: (transport, resource urls)}``: ``world`` on a simulated
    internet of its own, and on the socket ``server`` under a fresh
    ``/w<n>`` prefix (a server per world would pay its shutdown poll)."""
    internet = SimulatedInternet(seed=1)
    prefix = f"{server.base_url}/w{next(_WORLDS_SERVED)}"

    def simulated(index, source_id):  # each source at its own base_url
        return f"http://{(source_id or f'r{index}').lower()}.example.org"

    def socket(index, source_id):  # each source's metadata rewritten
        return f"{prefix}/r{index}" + (f"/{source_id}" if source_id else "")

    wires = {}
    for wire, transport, mount, base_of in (
        ("simulated", internet, internet.mount, simulated),
        ("socket", HttpTransport(), server.mount, socket),
    ):
        for base, table in world.tables(base_of).items():
            mount(base, table)
        wires[wire] = (
            transport,
            [f"{base_of(index, None)}/resource" for index in range(len(world.resources))],
        )
    return wires


def _run(searcher, call, query, **options):
    if call == "search":
        return searcher.search(query, **options)
    *_, final = searcher.search_stream(query, early_stop=False, **options)
    return final.result


def _documents(documents):
    return [
        (merged.linkage, merged.score, merged.source_id, merged.document.sources)
        for merged in documents
    ]


def first_difference(expected: Stages, result) -> str | None:
    """The first pipeline stage at which ``result`` is not the
    reference's, with both sides; ``None`` when every stage agrees."""
    outcomes = result.outcomes.items()
    stages = (
        ("select", expected.selected, result.selected_sources),
        (
            "route/translate",
            (dict(expected.routed), expected.reports, expected.statuses),
            (
                {source_id: outcome.sibling_ids for source_id, outcome in outcomes},
                result.translation_reports,
                {source_id: outcome.status.value for source_id, outcome in outcomes},
            ),
        ),
        ("answer", expected.answered, result.per_source_results),
        ("merge", _documents(expected.documents), _documents(result.documents)),
    )
    for stage, want, got in stages:
        if want != got:
            return (
                f"first stage that differs: {stage}\n"
                f"  reference:  {want!r}\n  production: {got!r}"
            )
    return None


def assert_matches(expected: Stages, result, configuration: str) -> None:
    difference = first_difference(expected, result)
    assert difference is None, f"{configuration}: {difference}"


def assert_every_configuration_matches(
    server, world, query, selector, merger, k_sources
):
    expected = {
        grouped: reference_search(
            world.exported(), query, selector, merger, k_sources, grouped
        )
        for grouped in (False, True)
    }
    for wire, (transport, resource_urls) in served(world, server).items():
        uncached = Metasearcher(
            transport, resource_urls, cache_policy=CachePolicy.disabled()
        )
        cached = Metasearcher(transport, resource_urls)
        uncached.refresh()
        cached.refresh()
        if wire == "simulated":
            # Every merge strategy too, in the cheapest cells: each reads
            # a different part of the answered sources' context.
            for strategy, grouped in itertools.product(
                MERGE_STRATEGIES.values(), (False, True)
            ):
                options = dict(k_sources=k_sources, group_by_resource=grouped)
                assert_matches(
                    reference_search(
                        world.exported(), query, selector, strategy(), **options
                    ),
                    uncached.search(query, selector=selector, merger=strategy(), **options),
                    f"simulated/serial/search/grouped={grouped}/off/{strategy.name}",
                )
        executors = {"serial": SerialExecutor(), "async": AsyncExecutor(4)}
        for (name, executor), call, grouped in itertools.product(
            executors.items(), CALLS, (False, True)
        ):
            options = dict(
                k_sources=k_sources,
                selector=selector,
                merger=merger,
                group_by_resource=grouped,
                executor=executor,
            )
            configuration = f"{wire}/{name}/{call}/grouped={grouped}"
            result = _run(uncached, call, query, **options)
            assert_matches(expected[grouped], result, f"{configuration}/off")
            cached.result_cache = QueryResultCache()
            for mode, status in (("cold", None), ("warm", "hit")):
                result = _run(cached, call, query, **options)
                assert result.cache_status == status, f"{configuration}/{mode}"
                assert_matches(expected[grouped], result, f"{configuration}/{mode}")


@pytest.fixture(scope="module")
def server():
    """One socket mount for every world (see :func:`served`)."""
    with StartsHttpServer(Resource("unused")) as server:
        yield server


@settings(deadline=None, max_examples=MATRIX_EXAMPLES)
@given(
    selector_name=st.sampled_from(sorted(SELECTOR_REGISTRY)),
    merger=st.sampled_from(sorted(MERGE_STRATEGIES)).map(MERGE_STRATEGIES.get),
    data=st.data(),
)
def test_every_configuration_answers_what_the_reference_answers(
    server, selector_name, merger, data
):
    world = data.draw(worlds(samples=merger is CalibratedMerge), label="world")
    query = data.draw(queries(world.words), label="query")
    k_sources = data.draw(source_counts(len(world.placement)), label="k_sources")
    assert_every_configuration_matches(
        server, world, query, SELECTOR_REGISTRY[selector_name](), merger(), k_sources
    )


def test_a_wrong_selection_is_reported_at_the_select_stage(server, monkeypatch):
    """The failure report names the first stage that differs."""
    select = Metasearcher._select

    def drop_the_last_pick(self, search, k_sources, selector):
        select(self, search, k_sources, selector)
        search.selected_ids = search.selected_ids[:-1]

    monkeypatch.setattr(Metasearcher, "_select", drop_the_last_pick)
    pool = generate_collection(
        CollectionSpec(name="Pool", topics={"databases": 1.0}, size=6, seed=3)
    )
    resource = Resource("R0")
    for position, vendor in enumerate(["AcmeSearch", "OkapiWorks"]):
        resource.add_source(build_vendor_source(vendor, f"S{position}", pool))
    placement = {f"S{n}": Placement(0, True, False) for n in range(2)}
    world = World([resource], placement, ())
    query = SQuery(ranking_expression=SList((STerm(LString("databases")),)))
    with pytest.raises(AssertionError, match="first stage that differs: select\n"):
        assert_every_configuration_matches(
            server, world, query, VGlossMax(), TfIdfRecomputeMerge(), 2
        )


def test_the_reference_rejects_a_negative_source_count():
    query = SQuery(ranking_expression=SList((STerm(LString("databases")),)))
    with pytest.raises(ValueError, match="k_sources must be >= 0"):
        reference_search([], query, VGlossMax(), TfIdfRecomputeMerge(), -1)
