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
per-field mode, and every unit is scored the same way. Each distinct
unit text is prepared once per call into a record: its tokens and one
n-gram Counter per order, which the document frequencies, BLEU's
clipped counts and the TF-IDF vectors all read. The IDF of every corpus
gram is computed once per unit corpus (one corpus, or one per field),
and each pair builds its TF-IDF vectors once, each with its norm.
ROUGE-L finds the LCS length bit-parallel, with one integer mask per
distinct reference token and a few integer operations per candidate
token. The public ``bleu`` and ``cider`` prepare their token lists the
same way for their one call.
"""

from __future__ import annotations

import math
import operator
import string
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce

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
    # zip over n shifted slices yields each window as a tuple, left to right.
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def _record(tokens, max_n: int) -> tuple[list[str], list[Counter]]:
    # A text prepared for scoring: its tokens and one n-gram Counter per
    # order from 1 to max_n. Every metric reads these; none mutates them.
    return tokens, [_ngrams(tokens, n) for n in range(1, max_n + 1)]


def _bleu(cand, refs, max_n: int) -> float:
    # The one BLEU implementation, over records.
    if not refs:
        raise ValueError("bleu needs at least one reference")
    cand_tokens, cand_grams = cand
    c = len(cand_tokens)
    if c == 0:
        return 0.0
    log_sum = 0.0
    orders = min(max_n, c)
    for n in range(1, orders + 1):
        # Counter union keeps each gram's largest reference count.
        best = reduce(operator.or_, [grams[n - 1] for _, grams in refs])
        total = c - n + 1
        clipped = sum(min(count, best.get(gram, 0)) for gram, count in cand_grams[n - 1].items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    geo_mean = math.exp(log_sum / orders)
    r = min((abs(len(tokens) - c), len(tokens)) for tokens, _ in refs)[1]
    penalty = math.exp(-abs(r - c) / c)
    return geo_mean * penalty


def bleu(candidate, references, max_n: int = 4) -> float:
    """Corpus-free BLEU of one candidate against one or more references.

    Arguments are token lists. An empty candidate scores 0 by
    convention. Equality with any reference scores exactly 1.
    """
    _check_max_n(max_n)
    # Checked here too, so that an empty reference list is reported before
    # the candidate is read.
    if not references:
        raise ValueError("bleu needs at least one reference")
    cand = _record(list(candidate), max_n)
    return _bleu(cand, [_record(list(r), max_n) for r in references], max_n)


def _lcs_length(a, b) -> int:
    # Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004). One
    # Python-int mask per distinct token of ``b`` marks where it occurs.
    # ``v`` is the dynamic program's row for the prefix of ``a`` read so
    # far, in difference form: each zero bit is a step up, so the zero
    # bits count the LCS length.
    masks: dict = {}
    for i, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


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


def _doc_frequencies(corpus, max_n: int) -> tuple[dict, int]:
    # The IDF of every gram in a corpus of reference-set records, and the
    # corpus size: what ``_cider`` scores against. Document frequency counts
    # each reference set once, so df >= 1 here and the clamp is moot.
    df = Counter()
    for ref_set in corpus:
        seen = set()
        for _, grams in ref_set:
            for n in range(max_n):
                seen.update(grams[n])
        df.update(seen)
    n_docs = len(corpus)
    return {gram: math.log(n_docs / count) for gram, count in df.items()}, n_docs


def _tfidf(grams: Counter, idf: dict, unseen: float) -> tuple[dict, float]:
    # A TF-IDF vector in the Counter's order, with its norm.
    vec = {gram: count * idf.get(gram, unseen) for gram, count in grams.items()}
    return vec, math.sqrt(sum(map(operator.mul, vec.values(), vec.values())))


def _cosine(a, b) -> float:
    (va, na), (vb, nb) = a, b
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(v * vb[g] for g, v in va.items() if g in vb)
    return dot / (na * nb)


def _cider(cand, refs, stats, max_n: int) -> float:
    # The one CIDEr implementation, over records; ``stats`` comes from
    # ``_doc_frequencies``, which the caller runs once per corpus.
    idf, n_docs = stats
    if not n_docs:
        raise EmptyCorpus("document frequencies need a non-empty corpus")
    if not refs:
        raise ValueError("cider needs at least one reference")
    # A gram absent from the corpus has df 0, clamped to 1: log(n_docs / 1).
    unseen = math.log(n_docs)
    _, cand_grams = cand
    total = 0.0
    for n in range(max_n):
        cand_vec = _tfidf(cand_grams[n], idf, unseen)
        total += sum(_cosine(cand_vec, _tfidf(grams[n], idf, unseen)) for _, grams in refs) / len(refs)
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
    refs = [_record(list(r), max_n) for r in references]
    stats = _doc_frequencies([[_record(r, max_n) for r in ref_set] for ref_set in corpus], max_n)
    return _cider(_record(list(candidate), max_n), refs, stats, max_n)


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


def _fields(text: str) -> tuple[str, ...]:
    caption = parse_caption(text)
    return tuple(getattr(caption, label) for label in FIELD_LABELS)


def _field_corpora(corpus, fields_of, prepare) -> list[list]:
    # One corpus of records per field, from the reference sets that parse.
    corpora = [[] for _ in FIELD_LABELS]
    for ref_set in corpus:
        parsed = []
        for ref in ref_set:
            try:
                parsed.append(fields_of(ref))
            except CaptionError:
                continue
        if not parsed:
            continue
        for field, field_corpus in enumerate(corpora):
            field_corpus.append([prepare(fields[field]) for fields in parsed])
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
    scored rows. Each distinct unit text is tokenized once per call and
    its n-grams counted once per order, in a record that lives for the
    call; in per-field mode each distinct caption that parses is parsed
    once per call. The IDF of each corpus gram is computed once per unit
    corpus: once in whole-string mode, once per field in per-field mode.
    ROUGE-L's LCS is found bit-parallel.
    """
    _check_max_n(max_n)
    # One record per distinct unit text, shared by the corpus statistics and
    # the pair loop, which never mutate it; the cache lives for this call.
    # The field tuples of per-field mode are cached the same way.
    prepare = lru_cache(maxsize=None)(lambda text: _record(tokenize(text), max_n))
    if per_field:
        split = lru_cache(maxsize=None)(_fields)
        corpora = _field_corpora(corpus, split, prepare)
    else:
        split, corpora = (lambda text: [text]), [[[prepare(r) for r in ref_set] for ref_set in corpus]]
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
            cand_record = prepare(cand_units[unit])
            ref_records = [prepare(r[unit]) for r in refs_units]
            # bleu runs first, so an empty reference list raises its
            # ValueError before an empty corpus raises EmptyCorpus.
            unit_scores.append(
                CaptionScore(
                    bleu=_bleu(cand_record, ref_records, max_n),
                    rouge_l=max(rouge_l(cand_record[0], tokens) for tokens, _ in ref_records),
                    cider=_cider(cand_record, ref_records, unit_stats, max_n),
                )
            )
        rows.append(ScoredCaption(index, _mean(unit_scores)))
    scored = [r.score for r in rows if r.score is not None]
    return CaptionSetReport(rows=tuple(rows), means=_mean(scored) if scored else None)
