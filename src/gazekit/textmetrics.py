"""Caption quality metrics: BLEU, ROUGE-L, and corpus TF-IDF (CIDEr-style).

Conventions, pinned here because every one of them changes scores:

* Tokenization lowercases, splits on whitespace, and strips leading and
  trailing ASCII punctuation from each token (interior punctuation such
  as hyphens survives). Empty tokens are dropped.
* BLEU uses clipped n-gram precisions with no smoothing: a zero
  precision at any order zeroes the score. Orders run from 1 to
  min(max_n, candidate length), so a short candidate is never punished
  for orders it cannot have. The length penalty is two-sided,
  exp(-|r - c| / c) with c the candidate length and r the
  closest-length reference, which equals the classic exp(1 - r/c)
  penalty for short candidates and mirrors it for long ones.
* ROUGE-L is the longest-common-subsequence F-score with beta = 1.2.
* The CIDEr-style score is the base TF-IDF form: per-order cosine
  between candidate and reference TF-IDF vectors, averaged over
  references and orders, times 10. Document frequency counts each
  reference set once, IDF is ln(corpus size / df) with df clamped to at
  least 1, and no length penalty of any kind is applied.
* ``max_n``, the largest n-gram order, must be at least 1.

Cost: ``score_captions`` has one scoring loop. Each caption splits into
units, the whole string in whole-string mode or its four fields in
per-field mode, and every unit is scored the same way against document
frequencies built once per unit corpus (one corpus, or one per field).
So each candidate costs only its own and its references' n-grams.
``cider`` on its own builds the frequencies for its one call.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass

from .captions import FIELD_LABELS, parse_caption
from .errors import CaptionError, EmptyCorpus

__all__ = [
    "CaptionScore",
    "ScoredCaption",
    "CaptionSetReport",
    "tokenize",
    "bleu",
    "rouge_l",
    "cider",
    "score_captions",
]

_STRIP = string.punctuation
_BETA = 1.2  # ROUGE-L's recall weight


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and trim ASCII punctuation per token."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_STRIP)
        if token:
            tokens.append(token)
    return tokens


def _check_max_n(max_n: int) -> None:
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate, references, max_n: int = 4) -> float:
    """Corpus-free BLEU of one candidate against one or more references.

    Arguments are token lists. An empty candidate scores 0 by
    convention. Equality with any reference scores exactly 1.
    """
    _check_max_n(max_n)
    if not references:
        raise ValueError("bleu needs at least one reference")
    cand = list(candidate)
    refs = [list(r) for r in references]
    c = len(cand)
    if c == 0:
        return 0.0
    log_sum = 0.0
    orders = min(max_n, c)
    for n in range(1, orders + 1):
        counts = _ngrams(cand, n)
        ref_counts = [_ngrams(r, n) for r in refs]
        total = c - n + 1
        clipped = sum(
            min(count, max(rc[gram] for rc in ref_counts)) for gram, count in counts.items()
        )
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    geo_mean = math.exp(log_sum / orders)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    penalty = math.exp(-abs(r - c) / c)
    return geo_mean * penalty


def _lcs_length(a, b) -> int:
    # Classic O(len(a) * len(b)) dynamic program, one rolling row.
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate, reference) -> float:
    """LCS-based F-score of a candidate against a single reference."""
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    b2 = _BETA * _BETA
    return (1.0 + b2) * precision * recall / (recall + b2 * precision)


def _doc_frequencies(corpus, max_n: int) -> tuple[Counter, int]:
    # Document frequencies and the corpus size: what ``_cider`` scores against.
    df = Counter()
    for ref_set in corpus:
        seen = set()
        for ref in ref_set:
            for n in range(1, max_n + 1):
                seen.update(_ngrams(ref, n))
        df.update(seen)
    return df, len(corpus)


def _tfidf(tokens, n: int, df: Counter, n_docs: int) -> dict:
    return {
        gram: count * math.log(n_docs / max(1, df[gram]))
        for gram, count in _ngrams(tokens, n).items()
    }


def _cosine(a: dict, b: dict) -> float:
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(v * b[g] for g, v in a.items() if g in b)
    return dot / (na * nb)


def _cider(cand, refs, stats, max_n: int) -> float:
    # The one CIDEr implementation; ``stats`` comes from ``_doc_frequencies``,
    # which the caller runs once per corpus.
    df, n_docs = stats
    if not n_docs:
        raise EmptyCorpus("document frequencies need a non-empty corpus")
    if not refs:
        raise ValueError("cider needs at least one reference")
    total = 0.0
    for n in range(1, max_n + 1):
        cand_vec = _tfidf(cand, n, df, n_docs)
        total += sum(_cosine(cand_vec, _tfidf(r, n, df, n_docs)) for r in refs) / len(refs)
    return 10.0 * total / max_n


def cider(candidate, references, corpus, max_n: int = 4) -> float:
    """Base TF-IDF consensus score of a candidate against its references.

    ``corpus`` is the list of reference sets that defines document
    frequencies; it normally contains every reference set in the
    evaluation split. When the corpus has a single document, every IDF
    is zero and so is the score. Token lists throughout. To score many
    candidates against one corpus, use ``score_captions``, which builds
    the document frequencies once.
    """
    _check_max_n(max_n)
    refs = [list(r) for r in references]
    return _cider(list(candidate), refs, _doc_frequencies(corpus, max_n), max_n)


@dataclass(frozen=True)
class CaptionScore:
    """The three text metrics for one scored unit."""

    bleu: float
    rouge_l: float
    cider: float


@dataclass(frozen=True)
class ScoredCaption:
    """Scores (or the failure reason) for one candidate/reference pair."""

    index: int
    score: CaptionScore | None
    error: str | None = None


@dataclass(frozen=True)
class CaptionSetReport:
    """Per-pair scores plus arithmetic-mean aggregates over scored rows."""

    rows: tuple[ScoredCaption, ...]
    means: CaptionScore | None


def _mean(scores) -> CaptionScore:
    return CaptionScore(
        bleu=sum(s.bleu for s in scores) / len(scores),
        rouge_l=sum(s.rouge_l for s in scores) / len(scores),
        cider=sum(s.cider for s in scores) / len(scores),
    )


def _fields(text: str) -> list[str]:
    caption = parse_caption(text)
    return [getattr(caption, label) for label in FIELD_LABELS]


def _field_corpora(corpus) -> list[list]:
    # One tokenized corpus per field, from the reference sets that parse.
    corpora = [[] for _ in FIELD_LABELS]
    for ref_set in corpus:
        parsed = []
        for ref in ref_set:
            try:
                parsed.append(_fields(ref))
            except CaptionError:
                continue
        if not parsed:
            continue
        for field, field_corpus in enumerate(corpora):
            field_corpus.append([tokenize(fields[field]) for fields in parsed])
    if not corpora[0]:
        raise EmptyCorpus("no corpus rows parse as structured captions")
    return corpora


def score_captions(pairs, corpus, max_n: int = 4, per_field: bool = False) -> CaptionSetReport:
    """Score (candidate, references) string pairs against a shared corpus.

    ``pairs`` is a sequence of (candidate, list-of-references) strings
    and ``corpus`` a list of reference-set string lists for document
    frequencies. Every caption splits into units that are scored alike:
    in whole-string mode the one unit is the whole string, in per-field
    mode the units are the four fields, and both sides must parse as
    structured captions. A row's score is the mean over its units (the
    per-field macro average), and rows that fail to parse are reported
    as data with their error. Means are arithmetic over successfully
    scored rows. Document frequencies are built once per unit corpus:
    once in whole-string mode, once per field in per-field mode.
    """
    _check_max_n(max_n)
    if per_field:
        split, corpora = _fields, _field_corpora(corpus)
    else:
        split, corpora = (lambda text: [text]), [[[tokenize(r) for r in ref_set] for ref_set in corpus]]
    stats = [_doc_frequencies(unit_corpus, max_n) for unit_corpus in corpora]

    rows: list[ScoredCaption] = []
    for index, (cand, refs) in enumerate(pairs):
        try:
            cand_units = split(cand)
            refs_units = [split(r) for r in refs]
        except CaptionError as exc:
            rows.append(ScoredCaption(index, None, f"{type(exc).__name__}: {exc}"))
            continue
        unit_scores = []
        for unit, unit_stats in enumerate(stats):
            cand_tokens = tokenize(cand_units[unit])
            ref_tokens = [tokenize(r[unit]) for r in refs_units]
            # bleu runs first, so an empty reference list raises its
            # ValueError before an empty corpus raises EmptyCorpus.
            unit_scores.append(
                CaptionScore(
                    bleu=bleu(cand_tokens, ref_tokens, max_n),
                    rouge_l=max(rouge_l(cand_tokens, r) for r in ref_tokens),
                    cider=_cider(cand_tokens, ref_tokens, unit_stats, max_n),
                )
            )
        rows.append(ScoredCaption(index, _mean(unit_scores)))
    scored = [r.score for r in rows if r.score is not None]
    return CaptionSetReport(rows=tuple(rows), means=_mean(scored) if scored else None)
