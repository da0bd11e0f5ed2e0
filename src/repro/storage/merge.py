"""Tiered background-merge policy for immutable segments.

Every flush appends one small segment, so an engine that only ever
flushed would degrade reads to an O(segments) concatenation per term.
Merging fixes that the way log-structured stores do: group segments of
similar size into **tiers** (powers of ``merge_factor`` by document
count) and, whenever a tier accumulates ``merge_factor`` *adjacent*
members, rewrite them as one segment of the next tier up.  Restricting
groups to adjacent runs (by ``doc_base``) keeps every segment's doc-id
range disjoint and ascending, which is what lets readers concatenate
per-segment posting lists without a sort.

The policy is pure planning — it never touches disk — so it can be
unit-tested exhaustively and swapped per store.  Execution (decode,
rewrite, atomic manifest swap) lives in
:class:`repro.storage.store.SegmentStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.manifest import SegmentMeta

__all__ = ["TieredMergePolicy"]


@dataclass(frozen=True)
class TieredMergePolicy:
    """Plans merges of adjacent same-tier segment runs.

    Attributes:
        merge_factor: how many same-tier neighbours trigger a merge
            (and the growth ratio between tiers).
        max_merge_docs: never plan a merge whose output would exceed
            this many documents (caps merge cost; 0 disables the cap).
    """

    merge_factor: int = 4
    max_merge_docs: int = 0

    def __post_init__(self) -> None:
        if self.merge_factor < 2:
            raise ValueError("merge_factor must be >= 2")

    def tier_of(self, meta: SegmentMeta) -> int:
        """The size tier of a segment: floor(log_factor(doc_count))."""
        tier = 0
        count = max(1, meta.doc_count)
        while count >= self.merge_factor:
            count //= self.merge_factor
            tier += 1
        return tier

    def plan(self, segments: list[SegmentMeta]) -> list[SegmentMeta] | None:
        """The next group to merge, or None when the store is compact.

        ``segments`` must ascend by ``doc_base`` (the manifest order).
        The lowest-tier run wins so small flush segments are folded up
        before large rewrites are considered.
        """
        best: list[SegmentMeta] | None = None
        best_tier: int | None = None
        run: list[SegmentMeta] = []
        run_tier: int | None = None
        for meta in segments:
            tier = self.tier_of(meta)
            if tier != run_tier:
                run, run_tier = [], tier
            run.append(meta)
            if len(run) >= self.merge_factor:
                group = run[: self.merge_factor]
                total = sum(member.doc_count for member in group)
                if self.max_merge_docs and total > self.max_merge_docs:
                    run, run_tier = [], None
                    continue
                if best_tier is None or tier < best_tier:
                    best, best_tier = group, tier
                run, run_tier = [], None
        return best
