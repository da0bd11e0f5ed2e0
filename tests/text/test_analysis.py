"""Analyzer pipelines: stop words, stemming, position preservation."""

from repro.text.analysis import Analyzer
from repro.text.langtags import parse_language_tag
from repro.text.stopwords import ENGLISH_STOP_WORDS, SPANISH_STOP_WORDS
from repro.text.tokenize import SimpleTokenizer


def test_stop_words_removed_but_positions_preserved():
    analyzer = Analyzer()
    tokens = analyzer.analyze("the distributed and the databases")
    assert [t.term for t in tokens] == ["distributed", "databases"]
    # Positions reflect the original word offsets so prox still works.
    assert [t.position for t in tokens] == [1, 4]


def test_stop_word_dropping_can_be_disabled():
    analyzer = Analyzer()
    tokens = analyzer.analyze("the who", drop_stop_words=False)
    assert [t.term for t in tokens] == ["the", "who"]


def test_forced_stop_words_when_cannot_disable():
    analyzer = Analyzer(can_disable_stop_words=False)
    tokens = analyzer.analyze("the who", drop_stop_words=False)
    assert tokens == []


def test_index_time_stemming():
    analyzer = Analyzer(stem=True)
    tokens = analyzer.analyze("distributed databases")
    assert [t.term for t in tokens] == ["distribut", "databas"]
    # Surface forms survive for content summaries.
    assert [t.surface for t in tokens] == ["distributed", "databases"]


def test_per_language_stemming():
    analyzer = Analyzer(stem=True)
    spanish = analyzer.analyze("consultas distribuidas", language="es")
    english = analyzer.analyze("consultas distribuidas", language="en")
    assert [t.term for t in spanish] != [t.term for t in english]


def test_spanish_stop_words_apply_to_spanish_text():
    analyzer = Analyzer()
    tokens = analyzer.analyze("el algoritmo y los datos", language="es")
    assert [t.term for t in tokens] == ["algoritmo", "datos"]


def test_normalize_stem_override():
    """The query-side stem modifier works even on a non-stemming index."""
    analyzer = Analyzer(stem=False)
    assert analyzer.normalize("databases") == "databases"
    assert analyzer.normalize("databases", stem=True) == "databas"


def test_case_sensitive_pipeline():
    analyzer = Analyzer(case_sensitive=True, tokenizer=CaseKeepingTokenizer())
    tokens = analyzer.analyze("Ullman databases")
    assert tokens[0].term == "Ullman"


class CaseKeepingTokenizer(SimpleTokenizer):
    tokenizer_id = "Case-1"
    lowercase = False


def test_vocabulary_helper():
    analyzed = Analyzer().analyze("databases and databases")
    assert {token.term for token in analyzed} == {"databases"}


def test_stemmer_for_unknown_language_is_identity():
    analyzer = Analyzer()
    stemmer = analyzer.stemmer_for(parse_language_tag("fr"))
    assert stemmer("mangent") == "mangent"


def test_stop_list_lookup_by_language():
    analyzer = Analyzer()
    assert analyzer.stop_list_for(parse_language_tag("en-US")) is ENGLISH_STOP_WORDS
    assert analyzer.stop_list_for(parse_language_tag("es")) is SPANISH_STOP_WORDS
    assert analyzer.stop_list_for(parse_language_tag("fr")) is None
