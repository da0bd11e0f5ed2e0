"""The source's ``SourceLanguages`` as it stood before it was kept per store.

``StartsSource._source_languages`` is moved here verbatim from
``repro/source/source.py``; only the ``self`` receiver became an
argument and the function got an ``oracle_`` prefix.  It walks every
stored document on every call.  ``tests/source/test_answer_assembly.py``
holds ``StartsSource.metadata().source_languages`` to it.
"""

from __future__ import annotations

from repro.engine import fields as F
from repro.source.source import StartsSource

__all__ = ["oracle_source_languages"]


def oracle_source_languages(source: StartsSource) -> tuple[str, ...]:
    seen: list[str] = []
    for document in source.engine.store:
        tag = document.get(F.LANGUAGES) or document.language
        for language in tag.split():
            if language not in seen:
                seen.append(language)
    return tuple(seen) if seen else ("en-US",)
