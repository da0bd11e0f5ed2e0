"""The committed tables of EXPERIMENTS.md are what the code produces.

For every id in ``repro.experiments.ARTIFACTS``: the regenerated text
equals the file under ``benchmarks/results/`` byte for byte, and the rows
the text was rendered from keep the shape EXPERIMENTS.md claims — so a
change that moves a number fails here, and re-committing the file cannot
bless a table whose claim no longer holds.  Nothing is written; a stale
file's failure message carries the command that regenerates it.
"""

import functools
import pathlib
import re

import pytest

from repro.experiments import ARTIFACTS, FEATURE_QUERIES, least_common_denominator
from repro.experiments.artifacts import standard_federation
from repro.starts import BASIC1, parse_soif
from repro.starts.metadata import MBASIC1_ATTRIBUTES, SMetaAttributes

REPO = pathlib.Path(__file__).parents[2]
RESULTS = REPO / "benchmarks" / "results"


@functools.cache
def built(key):
    """``(lines, rows)`` of one artifact, built once for both checks."""
    return ARTIFACTS[key]()


@pytest.fixture(scope="module", autouse=True)
def release_what_was_built():
    """The tables and their federation do not outlive this module."""
    yield
    built.cache_clear()
    standard_federation.cache_clear()


@pytest.mark.parametrize("key", ARTIFACTS)
def test_regenerated_table_is_the_committed_file(key):
    lines, _ = built(key)
    (path,) = RESULTS.glob(f"{key}_*.txt")
    assert "\n".join(lines) + "\n" == path.read_text(), (
        f"{path.name} is not what the code produces; if the change is meant, run\n"
        f"  PYTHONPATH=src python -m repro experiment {key} "
        f"> benchmarks/results/{path.name}"
    )


def test_every_result_file_has_a_registry_entry_and_every_entry_a_file():
    files = sorted(path.name for path in RESULTS.iterdir())
    assert [name.split("_")[0] for name in files] == sorted(ARTIFACTS)
    assert all(name.endswith(".txt") for name in files)


# -- the shape each table must keep ------------------------------------------
#
# One function per id, holding the assertions its benchmark file made.


def shape_F1(results):
    assert set(results.sources) == {"Source-1", "Source-2"}
    ullman = [d for d in results.documents if "ullman" in d.linkage]
    assert len(ullman) == 1  # duplicate eliminated
    assert set(ullman[0].sources) == {"Source-1", "Source-2"}


def shape_T1(metadata):
    for name, spec in BASIC1.fields.items():
        for source_id, exported in metadata.items():
            if spec.required:
                assert exported.supports_field(name), (
                    f"{source_id} must support required field {name}"
                )


def shape_T2(metadata):
    for spec in BASIC1.modifiers.values():
        assert spec.default  # every row documents its default behaviour


def shape_T3(wire):
    # The two required attributes the wire spells in kebab-case (Example 10).
    kebab = {"Linkage": "linkage", "ContentSummaryLinkage": "content-summary-linkage"}
    required = [spec.name for spec in MBASIC1_ATTRIBUTES if spec.required]
    for source_id, exported in wire.items():
        for name in required:
            assert kebab.get(name, name) in exported, (
                f"{source_id} must export required attribute {name}"
            )
        reparsed = SMetaAttributes.from_soif(parse_soif(exported.dump()))
        assert reparsed.source_id == source_id


def shape_E1(results):
    by_name = {row.selector: row for row in results}
    # The headline shape: every summary-based selector beats both
    # baselines at k=1 and k=2.
    for informed in ("bGlOSS", "vGlOSS-Sum", "vGlOSS-Max", "CORI"):
        for baseline in ("by-size", "random"):
            for k in (1, 2):
                assert (
                    by_name[informed].recall_at_k[k]
                    > by_name[baseline].recall_at_k[k]
                ), f"{informed} should beat {baseline} at k={k}"


def shape_E1b(by_name):
    # Figure shape: informed selectors dominate baselines pointwise
    # until saturation, and all curves are monotone non-decreasing.
    for row in by_name.values():
        series = [row.recall_at_k[k] for k in range(1, 11)]
        assert series == sorted(series)
    for k in (1, 2, 3):
        assert by_name["vGlOSS-Max"].recall_at_k[k] >= by_name["by-size"].recall_at_k[k]
        assert by_name["bGlOSS"].recall_at_k[k] > by_name["random"].recall_at_k[k]


def shape_E2(results):
    by_name = {row.strategy: row for row in results}
    # Headline shape: statistics-based merging beats raw scores on both
    # metrics, and the Example 9 TF re-rank already beats raw on rho.
    assert (
        by_name["tfidf-recompute"].spearman_vs_reference
        > by_name["raw-score"].spearman_vs_reference
    )
    assert (
        by_name["tfidf-recompute"].precision_at_10
        >= by_name["raw-score"].precision_at_10
    )
    assert (
        by_name["term-frequency"].spearman_vs_reference
        > by_name["raw-score"].spearman_vs_reference
    )


def shape_E3(cells):
    # The protocol's value: strictly more features than the LCD are
    # usable somewhere, and predictions are near-perfect (the only
    # allowed gap is prox degradation, which MBasic-1 cannot express).
    assert len(least_common_denominator(cells)) < len(FEATURE_QUERIES)
    mismatches = [cell for cell in cells if not cell.prediction_matches_actual]
    assert all(cell.feature == "prox" for cell in mismatches)


def shape_E4(rows):
    # Summaries always much smaller, and the ratio grows with N.
    for row in rows:
        assert row.full_ratio > 3.0
        assert row.truncated_ratio > row.full_ratio
    ratios = [row.full_ratio for row in rows]
    assert ratios == sorted(ratios), "compression should improve with size"


def shape_E5(results):
    starts, baseline = results
    # Headline shape: selection halves the traffic without losing quality.
    assert starts.requests_per_query < baseline.requests_per_query
    assert starts.cost_per_query <= baseline.cost_per_query
    assert starts.precision_at_10 >= baseline.precision_at_10 - 0.05


def shape_E6(results):
    by_name = {row.strategy: row for row in results}
    # Calibration must improve on raw scores when stats are unavailable.
    assert (
        by_name["sample-calibrated"].spearman_vs_reference
        >= by_name["raw-score"].spearman_vs_reference
    )


def shape_E7(rows_by_k):
    for k, (starts, baseline) in rows_by_k.items():
        # The savings: selection needs k requests vs 20.
        assert starts.requests_per_query == pytest.approx(k)
        assert baseline.requests_per_query == pytest.approx(20)
        assert starts.cost_per_query <= baseline.cost_per_query
    # The trade-off: even at k=3/20, quality stays within ~0.15 of the
    # query-everything ceiling; P@10 is *not* monotone in k — querying
    # marginal sources adds merge noise along with coverage.
    ceiling = rows_by_k[3][1].precision_at_10
    for starts, _ in rows_by_k.values():
        assert starts.precision_at_10 >= ceiling - 0.15


def shape_A1a(recalls):
    # Severe truncation must not beat full summaries.
    assert recalls["top-5"][1] <= recalls["full"][1] + 1e-9


def shape_A1b(rows):
    by_name = {row.strategy: row for row in rows}
    assert (
        by_name["tfidf-recompute"].spearman_vs_reference
        >= by_name["term-frequency"].spearman_vs_reference
    )


def shape_A2(comparisons):
    (flat, brokered), *scalability = comparisons
    # Brokered selection is exact, not merely close: on every workload
    # query, and at every synthetic federation size.
    assert len(flat) == 30 and brokered == flat
    for flat, brokered in scalability:
        assert brokered == flat


def shape_A3(fractions):
    dropped, rewritten = fractions
    assert rewritten > dropped
    assert rewritten > 0.9  # near-exact emulation


#: Every id but A1c, which records two rows and claims no order between them.
SHAPES = {
    "F1": shape_F1,
    "T1": shape_T1,
    "T2": shape_T2,
    "T3": shape_T3,
    "E1": shape_E1,
    "E1b": shape_E1b,
    "E2": shape_E2,
    "E3": shape_E3,
    "E4": shape_E4,
    "E5": shape_E5,
    "E6": shape_E6,
    "E7": shape_E7,
    "A1a": shape_A1a,
    "A1b": shape_A1b,
    "A2": shape_A2,
    "A3": shape_A3,
}


def test_every_table_but_a1c_has_a_shape_check():
    assert set(SHAPES) == set(ARTIFACTS) - {"A1c"}


@pytest.mark.parametrize("key", SHAPES)
def test_table_keeps_the_shape_experiments_md_claims(key):
    _, rows = built(key)
    SHAPES[key](rows)


# -- EXPERIMENTS.md quotes the committed tables ------------------------------


def _quoted_blocks():
    """``(file name, fenced lines)`` for every fenced block that follows a
    "**Measured** (`<file>.txt`" paragraph within the same section."""
    named, fence = None, None
    for line in (REPO / "EXPERIMENTS.md").read_text().splitlines():
        if fence is not None:
            if line.startswith("```"):
                yield named, fence
                named, fence = None, None
            else:
                fence.append(line)
        elif line.startswith("```") and named:
            fence = []
        elif line.startswith("#"):
            named = None
        elif match := re.match(r"\*\*Measured\*\* \(`(\w+\.txt)`", line):
            named = match.group(1)


def test_experiments_md_blocks_quote_the_committed_tables():
    def squeezed(line):
        return " ".join(line.split())

    blocks = list(_quoted_blocks())
    for name, quoted in blocks:
        committed = {squeezed(line) for line in (RESULTS / name).read_text().splitlines()}
        strays = [line for line in quoted if squeezed(line) not in committed]
        assert not strays, f"EXPERIMENTS.md quotes lines {name} does not hold: {strays}"
    assert len(blocks) >= 10, "EXPERIMENTS.md lost its quoted tables, or their markers"
