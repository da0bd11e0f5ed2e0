"""The six named workloads.  Names are stable: later issues cite them."""

from __future__ import annotations

from dataclasses import dataclass, replace

from benchmarks.suite.worlds import ALL_ANSWER_FIELDS, WorldSpec

__all__ = ["Workload", "WORKLOADS", "workload_named"]


@dataclass(frozen=True)
class Workload:
    """One fixed, seeded sequence of operations against one Metasearcher.

    Attributes:
        why: the one-line reason the workload exists (BENCHMARK.json).
        n_queries / terms_per_query: the distinct flat ranking queries.
        k_sources / max_documents / answer_fields: the search call and
            the answer specification.
        cache: default ``CachePolicy`` (result cache on) instead of
            ``CachePolicy.disabled()``.
        replay_requests: when set, a pass is a Zipf replay of that many
            requests over the queries (skew :attr:`replay_skew`).
        stream: drive ``search_stream`` through ``AsyncExecutor`` with
            the network in realtime for the measured phase.
    """

    name: str
    why: str
    world: WorldSpec
    n_queries: int
    terms_per_query: tuple[int, int]
    k_sources: int
    max_documents: int
    answer_fields: tuple[str, ...] = ("title",)
    cache: bool = False
    replay_requests: int | None = None
    replay_skew: float = 1.1
    stream: bool = False

    def smoke(self) -> "Workload":
        """The same shape at a size the smoke test finishes in seconds."""
        # A harvest costs ~40 ms per source unless samples are static.
        most_sources = 40 if self.world.static_sample_blobs else 6
        world = replace(
            self.world,
            n_sources=min(self.world.n_sources, most_sources),
            docs_per_source=min(self.world.docs_per_source, 16),
            segments_flush_every=(
                None if self.world.segments_flush_every is None else 8
            ),
        )
        return replace(
            self,
            world=world,
            n_queries=12,
            k_sources=min(self.k_sources, world.n_sources),
            replay_requests=None if self.replay_requests is None else 40,
        )

    def parameters(self) -> dict:
        """World and call parameters, stamped into every output."""
        return {
            "n_sources": self.world.n_sources,
            "docs_per_source": self.world.docs_per_source,
            "body_words": list(self.world.body_words),
            "vendors": list(self.world.vendors),
            "segments_flush_every": self.world.segments_flush_every,
            "host_latency_ms": self.world.host_latency_ms,
            "static_sample_blobs": self.world.static_sample_blobs,
            "n_queries": self.n_queries,
            "terms_per_query": list(self.terms_per_query),
            "k_sources": self.k_sources,
            "max_documents": self.max_documents,
            "answer_fields": list(self.answer_fields),
            "cache": self.cache,
            "replay_requests": self.replay_requests,
            "replay_skew": self.replay_skew if self.replay_requests else None,
            "stream": self.stream,
        }


#: Sixteen heterogeneous vendor sources: the world four workloads share.
_FANOUT_WORLD = WorldSpec(n_sources=16, docs_per_source=100, body_words=(30, 90))

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="topk_fanout",
        why="Typical STARTS query, 8 of 16 vendor sources, top-10, cache off: "
        "no layer dominates, so translation and client overhead show here.",
        world=_FANOUT_WORLD,
        n_queries=200,
        terms_per_query=(1, 3),
        k_sources=8,
        max_documents=10,
    ),
    Workload(
        name="large_answers",
        why="Top-25 with every answer field and TermStats from 4 sources: "
        "SOIF encode/decode and the merger do the work, the engine little.",
        world=_FANOUT_WORLD,
        n_queries=200,
        terms_per_query=(1, 3),
        k_sources=4,
        max_documents=25,
        answer_fields=ALL_ANSWER_FIELDS,
    ),
    Workload(
        name="deep_segments",
        why="4 warm-reopened segment stores, 4-6-term queries, top-10: the "
        "source engine and segment readers do the work, the codec little.",
        world=WorldSpec(
            n_sources=4,
            docs_per_source=800,
            body_words=(24, 48),
            # Four prunable rankers without index-time stemming: set-up
            # goes to the segment store, evaluation to the pruned driver.
            vendors=("AcmeSearch", "OkapiWorks", "SaltonSoft", "MundoDocs"),
            segments_flush_every=160,
        ),
        n_queries=200,
        terms_per_query=(4, 6),
        k_sources=4,
        max_documents=10,
    ),
    Workload(
        name="many_sources",
        why="2000 tiny sources, 2 queried, top-5: selection over the "
        "SummaryIndex is the largest single share and refresh is long.",
        world=WorldSpec(
            n_sources=2000,
            docs_per_source=2,
            body_words=(20, 40),
            static_sample_blobs=True,
        ),
        n_queries=200,
        terms_per_query=(1, 3),
        k_sources=2,
        max_documents=5,
    ),
    Workload(
        name="zipf_cached",
        why="topk_fanout with the result cache on, Zipf replay (skew 1.1) of "
        "1000 requests over 200 queries: hit path against miss path.",
        world=_FANOUT_WORLD,
        n_queries=200,
        terms_per_query=(1, 3),
        k_sources=8,
        max_documents=10,
        cache=True,
        replay_requests=1000,
    ),
    Workload(
        name="stream_realtime",
        why="search_stream via AsyncExecutor over hosts that really wait "
        "(8+-2 ms, every fourth 30 ms): overlap and time to first result.",
        world=replace(_FANOUT_WORLD, host_latency_ms=(8.0, 2.0, 30.0)),
        n_queries=120,
        terms_per_query=(1, 3),
        k_sources=8,
        max_documents=10,
        stream=True,
    ),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; expected one of "
        + ", ".join(workload.name for workload in WORKLOADS)
    )
