"""Text metric conventions, pinned by hand-computable fixtures.

The TF-IDF consensus score additionally gets a from-scratch vector
reimplementation to check against, since its value depends on several
interlocking conventions (per-set document frequency, clamped IDF, raw
counts, per-order cosine).
"""

from __future__ import annotations

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gazekit import (
    FIELD_LABELS,
    CaptionError,
    EmptyCorpus,
    bleu,
    cider,
    parse_caption,
    rouge_l,
    score_captions,
    tokenize,
)
from gazekit import textmetrics
from gazekit.textmetrics import CaptionScore, CaptionSetReport, ScoredCaption, _check_max_n

words = st.lists(st.sampled_from("a b c d e f g".split()), min_size=1, max_size=8)


def tfidf_reference(cand, refs, corpus, max_n=4):
    """Flat reimplementation over explicit vocabulary vectors."""
    docs = len(corpus)
    df = {}
    for ref_set in corpus:
        grams_here = set()
        for ref in ref_set:
            for n in range(1, max_n + 1):
                for i in range(len(ref) - n + 1):
                    grams_here.add(tuple(ref[i : i + n]))
        for g in grams_here:
            df[g] = df.get(g, 0) + 1

    def vector(tokens, n, vocab):
        counts = {}
        for i in range(len(tokens) - n + 1):
            g = tuple(tokens[i : i + n])
            counts[g] = counts.get(g, 0) + 1
        return np.array(
            [counts.get(g, 0) * math.log(docs / max(1, df.get(g, 0))) for g in vocab]
        )

    total = 0.0
    for n in range(1, max_n + 1):
        per_ref = []
        for ref in refs:
            vocab = sorted(
                {tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)}
                | {tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)}
            )
            a = vector(cand, n, vocab)
            b = vector(ref, n, vocab)
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            per_ref.append(0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb)))
        total += sum(per_ref) / len(per_ref)
    return 10.0 * total / max_n


class TestTokenize:
    def test_lowercases_and_strips_trailing_punctuation(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat"]

    def test_interior_punctuation_survives(self):
        assert tokenize("STOP-sign ahead,") == ["stop-sign", "ahead"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("-- ... !?") == []

    def test_whitespace_normalization(self):
        assert tokenize("  one\t two \n three ") == ["one", "two", "three"]


class TestBleu:
    def test_repeated_token_fixture(self):
        cand = ["the", "the", "the"]
        score = bleu(cand, [["the", "cat"]], max_n=1)
        assert abs(score - (1.0 / 3.0) * math.exp(-1.0 / 3.0)) < 1e-12
        assert abs(score - 0.238844) < 1e-6

    def test_identity_is_one(self):
        cand = "a small dog runs fast".split()
        assert bleu(cand, [cand]) == 1.0

    def test_no_overlap_is_zero(self):
        assert bleu(["a", "b"], [["c", "d"]]) == 0.0

    def test_empty_candidate(self):
        assert bleu([], [["a"]]) == 0.0

    def test_orders_cap_at_candidate_length(self):
        # A 2-token candidate can have no trigrams; the order cap keeps
        # the identity score at 1 instead of zeroing on order 3.
        assert bleu(["a", "b"], [["a", "b"]], max_n=4) == 1.0

    def test_zero_higher_order_precision_zeroes_the_score(self):
        # All unigrams match but no bigram does; without smoothing the
        # whole score collapses.
        assert bleu(["a", "b", "c"], [["a", "c", "b"]], max_n=2) == 0.0

    def test_clipping_takes_the_best_reference(self):
        cand = ["a", "a", "b"]
        # One reference supplies the double "a", the other the "b".
        assert bleu(cand, [["a", "a", "c"], ["b", "d", "e"]], max_n=1) == 1.0

    def test_length_penalty_uses_the_closest_reference(self):
        cand = ["a", "b", "c", "d"]
        lone = bleu(cand, [cand + ["e", "f"]], max_n=1)
        with_exact_length = bleu(cand, [cand + ["e", "f"], ["a", "b", "c", "x"]], max_n=1)
        assert lone == pytest.approx(math.exp(-2.0 / 4.0))
        assert with_exact_length == 1.0

    def test_needs_a_reference(self):
        with pytest.raises(ValueError):
            bleu(["a"], [])

    @given(cand=words, ref=words)
    def test_bounded_and_one_only_at_match(self, cand, ref):
        score = bleu(cand, [ref])
        assert 0.0 <= score <= 1.0
        if cand != ref:
            assert score < 1.0


class TestRougeL:
    def test_three_quarter_fixture(self):
        # LCS 3 with both lengths 4 makes precision equal recall, so the
        # F-score is 0.75 whatever beta weighs recall by.
        cand = ["a", "b", "c", "d"]
        ref = ["a", "c", "d", "e"]
        assert abs(rouge_l(cand, ref) - 0.75) < 1e-12

    def test_identity_and_disjoint(self):
        cand = ["x", "y", "z"]
        assert rouge_l(cand, cand) == 1.0
        assert rouge_l(cand, ["p", "q"]) == 0.0
        assert rouge_l([], cand) == 0.0

    def test_beta_weighs_recall_when_asymmetric(self):
        cand = ["a", "b", "c", "d"]
        ref = ["a", "b"]
        b = 1.2
        expect = (1 + b * b) * 0.5 * 1.0 / (1.0 + b * b * 0.5)
        assert rouge_l(cand, ref) == pytest.approx(expect)
        # Recall is perfect here, so weighing it above precision scores
        # higher than the plain F1 harmonic mean of 0.5 and 1.
        assert rouge_l(cand, ref) > 2 * 0.5 * 1.0 / (0.5 + 1.0)

    def test_longer_common_subsequence_scores_higher(self):
        ref = ["a", "b", "c", "d"]
        assert rouge_l(["a", "x", "c", "y"], ref) < rouge_l(["a", "b", "c", "y"], ref)


class TestCider:
    def test_single_document_corpus_is_degenerate(self):
        tokens = "a red car stops".split()
        assert cider(tokens, [tokens], [[tokens]]) == 0.0

    def test_disjoint_candidate_scores_zero(self):
        corpus = [[["a", "b", "c"]], [["d", "e", "f"]], [["g", "h", "i"]]]
        assert cider(["x", "y", "z"], [["a", "b", "c"]], corpus) == 0.0

    def test_unique_sentences_score_ten_on_identity(self):
        docs = [
            "alpha beta gamma delta".split(),
            "eps zeta eta theta".split(),
            "iota kappa lam mu".split(),
        ]
        corpus = [[d] for d in docs]
        assert cider(docs[0], [docs[0]], corpus) == pytest.approx(10.0)

    def test_matches_flat_reimplementation(self):
        corpus = [
            [["the", "red", "car", "stops"], ["a", "red", "car", "is", "stopping"]],
            [["the", "blue", "truck", "passes", "by"]],
            [["the", "red", "light", "turns", "green"]],
            [["a", "dog", "crosses", "the", "road"]],
        ]
        cases = [
            (["the", "red", "car", "stops"], corpus[0]),
            (["the", "red", "truck", "stops"], corpus[1]),
            (["a", "dog", "stops"], corpus[3]),
            (["the", "the", "the", "red"], corpus[2]),
        ]
        for cand, refs in cases:
            assert cider(cand, refs, corpus) == pytest.approx(
                tfidf_reference(cand, refs, corpus), abs=1e-9
            )

    def test_token_relabeling_invariance(self):
        mapping = {"a": "z1", "b": "z2", "c": "z3", "d": "z4", "e": "z5"}
        corpus = [[["a", "b", "c"]], [["b", "c", "d"]], [["d", "e", "a"]]]
        cand, refs = ["a", "b", "d"], [["a", "b", "c"], ["b", "c", "d"]]
        renamed = lambda seq: [mapping[t] for t in seq]
        before = cider(cand, refs, corpus)
        after = cider(
            renamed(cand),
            [renamed(r) for r in refs],
            [[renamed(r) for r in rs] for rs in corpus],
        )
        assert before == pytest.approx(after, abs=1e-12)
        assert before > 0.0

    def test_requires_corpus_and_references(self):
        with pytest.raises(EmptyCorpus):
            cider(["a"], [["a"]], [])
        with pytest.raises(ValueError):
            cider(["a"], [], [[["a"]]])


class TestScoreCaptions:
    def test_identity_pairs(self):
        sentences = [
            "alpha beta gamma delta",
            "eps zeta eta theta",
            "iota kappa lam mu",
        ]
        corpus = [[s] for s in sentences]
        report = score_captions([(s, [s]) for s in sentences], corpus)
        assert report.means is not None
        assert report.means.bleu == pytest.approx(1.0)
        assert report.means.rouge_l == pytest.approx(1.0)
        assert report.means.cider == pytest.approx(10.0)
        assert [r.index for r in report.rows] == [0, 1, 2]

    def test_means_are_arithmetic(self):
        corpus = [["a b c d"], ["e f g h"]]
        report = score_captions([("a b c d", ["a b c d"]), ("x y", ["a b c d"])], corpus)
        scores = [r.score for r in report.rows]
        assert report.means.bleu == pytest.approx((scores[0].bleu + scores[1].bleu) / 2)
        assert report.means.rouge_l == pytest.approx((scores[0].rouge_l + scores[1].rouge_l) / 2)

    def test_no_pairs_means_nothing(self):
        report = score_captions([], [["a b"]])
        assert report.rows == () and report.means is None

    def test_per_field_macro_average(self):
        cand = "Scene: alpha beta gamma delta | Current: eps zeta eta theta | Next: iota kappa lam mu | Why: nu xi omi pi"
        ref = "Scene: alpha beta gamma delta | Current: eps zeta eta theta | Next: iota kappa lam mu | Why: rho sig tau ups"
        other = "Scene: one two three four | Current: five six seven eight | Next: nine ten eleven twelve | Why: year month week day"
        report = score_captions([(cand, [ref])], [[ref], [other]], per_field=True)
        assert report.rows[0].error is None
        # Three fields match exactly, one shares nothing.
        assert report.means.bleu == pytest.approx(0.75)
        assert report.means.rouge_l == pytest.approx(0.75)
        assert report.means.cider == pytest.approx(7.5)

    def test_per_field_reports_parse_failures_as_rows(self):
        good = "Scene: a1 | Current: b1 | Next: c1 | Why: d1"
        other = "Scene: a2 | Current: b2 | Next: c2 | Why: d2"
        report = score_captions(
            [(good, [good]), ("no labels at all", [good])],
            [[good], [other]],
            per_field=True,
        )
        assert report.rows[0].error is None
        assert report.rows[1].score is None
        assert report.rows[1].error.startswith("MissingField")
        # Means cover only the scored row.
        assert report.means.bleu == pytest.approx(1.0)

    def test_per_field_needs_a_parsable_corpus(self):
        with pytest.raises(EmptyCorpus):
            score_captions([], [["not a caption"]], per_field=True)


# --- Metric oracles ----------------------------------------------------------
#
# The metrics as they were before each text was prepared once per call:
# BLEU and ROUGE-L with its O(mn) dynamic program, kept verbatim except for
# the oracle names, and the per-candidate CIDEr that rebuilt the document
# frequencies on every call, with its helpers. ``score_captions`` and the
# public metrics are held to exact equality with them.


def _oracle_ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _oracle_bleu(candidate, references, max_n=4):
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
        counts = _oracle_ngrams(cand, n)
        ref_counts = [_oracle_ngrams(r, n) for r in refs]
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


def _oracle_lcs_length(a, b):
    # Classic O(len(a) * len(b)) dynamic program, one rolling row.
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def _oracle_rouge_l(candidate, reference):
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        return 0.0
    lcs = _oracle_lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    b2 = 1.2 * 1.2
    return (1.0 + b2) * precision * recall / (recall + b2 * precision)


def _oracle_doc_frequencies(corpus, max_n):
    df = Counter()
    for ref_set in corpus:
        seen = set()
        for ref in ref_set:
            for n in range(1, max_n + 1):
                seen.update(_oracle_ngrams(ref, n))
        df.update(seen)
    return df


def _oracle_corpus_stats(corpus_tokens, max_n):
    return _oracle_doc_frequencies(corpus_tokens, max_n), len(corpus_tokens)


def _oracle_tfidf(tokens, n, df, n_docs):
    return {
        gram: count * math.log(n_docs / max(1, df[gram]))
        for gram, count in _oracle_ngrams(tokens, n).items()
    }


def _oracle_cosine(a, b):
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(v * b[g] for g, v in a.items() if g in b)
    return dot / (na * nb)


def _oracle_cider(cand, refs, stats, max_n):
    df, n_docs = stats
    if not n_docs:
        raise EmptyCorpus("document frequencies need a non-empty corpus")
    if not refs:
        raise ValueError("cider needs at least one reference")
    total = 0.0
    for n in range(1, max_n + 1):
        cand_vec = _oracle_tfidf(cand, n, df, n_docs)
        total += sum(
            _oracle_cosine(cand_vec, _oracle_tfidf(r, n, df, n_docs)) for r in refs
        ) / len(refs)
    return 10.0 * total / max_n


def cider_oracle(candidate, references, corpus, max_n=4):
    refs = [list(r) for r in references]
    return _oracle_cider(list(candidate), refs, _oracle_corpus_stats(corpus, max_n), max_n)


def oracle_cider_column(pairs, corpus, max_n, per_field):
    """The cider value ``score_captions`` must give each row (None if unscored)."""
    if not per_field:
        corpus_tokens = [[tokenize(r) for r in ref_set] for ref_set in corpus]
        return [
            cider_oracle(tokenize(cand), [tokenize(r) for r in refs], corpus_tokens, max_n)
            for cand, refs in pairs
        ]
    corpora = {label: [] for label in FIELD_LABELS}
    for ref_set in corpus:
        parsed = []
        for ref in ref_set:
            try:
                parsed.append(parse_caption(ref))
            except CaptionError:
                pass
        if parsed:
            for label in FIELD_LABELS:
                corpora[label].append([tokenize(getattr(c, label)) for c in parsed])
    column = []
    for cand, refs in pairs:
        try:
            cand_parsed = parse_caption(cand)
            refs_parsed = [parse_caption(r) for r in refs]
        except CaptionError:
            column.append(None)
            continue
        values = [
            cider_oracle(
                tokenize(getattr(cand_parsed, label)),
                [tokenize(getattr(r, label)) for r in refs_parsed],
                corpora[label],
                max_n,
            )
            for label in FIELD_LABELS
        ]
        column.append(sum(values) / len(values))
    return column


# Few distinct words, so n-grams repeat within and across captions.
# "--" and "..." tokenize to nothing, which gives empty token lists.
VOCAB = ["a", "b", "c", "the", "car.", "Car", "--", "..."]
token_lists = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=7)
texts = st.lists(st.sampled_from(VOCAB), max_size=6).map(" ".join)
field_texts = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).map(" ".join)


@st.composite
def caption_lines(draw):
    """A four-field caption line, valid or broken in one of several ways."""
    values = [draw(field_texts) for _ in FIELD_LABELS]
    labels = ["Scene", "Current", "Next", "Why"]
    kind = draw(st.sampled_from(["valid"] * 8 + ["missing", "swapped", "empty", "free"]))
    if kind == "missing":
        del labels[1], values[1]
    elif kind == "swapped":
        labels[0], labels[1] = labels[1], labels[0]
    elif kind == "empty":
        values[2] = " "
    elif kind == "free":
        return draw(texts)
    return " | ".join(f"{label}: {value}" for label, value in zip(labels, values))


def _parses(line):
    try:
        parse_caption(line)
    except CaptionError:
        return False
    return True


@st.composite
def caption_cases(draw, per_field):
    lines = caption_lines() if per_field else texts
    ref_sets = st.lists(lines, min_size=1, max_size=3)
    if per_field:
        # At least one corpus row parses, or the corpus is rejected up front.
        corpus = draw(st.lists(ref_sets, max_size=5))
        corpus.append([draw(caption_lines().filter(_parses))])
    else:
        corpus = draw(st.lists(ref_sets, min_size=1, max_size=6))
    corpus_lines = [line for ref_set in corpus for line in ref_set]
    # References are drawn from the corpus or made up, so some are absent from it.
    refs = st.lists(st.one_of(lines, st.sampled_from(corpus_lines)), min_size=1, max_size=3)
    pairs = draw(st.lists(st.tuples(lines, refs), max_size=8))
    return pairs, corpus, draw(st.integers(1, 5))


class TestCiderOracle:
    @given(case=caption_cases(per_field=False))
    def test_score_captions_whole_string_equals_oracle(self, case):
        pairs, corpus, max_n = case
        report = score_captions(pairs, corpus, max_n=max_n)
        got = [row.score.cider for row in report.rows]
        assert got == oracle_cider_column(pairs, corpus, max_n, per_field=False)

    @given(case=caption_cases(per_field=True))
    def test_score_captions_per_field_equals_oracle(self, case):
        pairs, corpus, max_n = case
        report = score_captions(pairs, corpus, max_n=max_n, per_field=True)
        got = [None if row.score is None else row.score.cider for row in report.rows]
        assert got == oracle_cider_column(pairs, corpus, max_n, per_field=True)

    @given(
        cand=token_lists,
        refs=st.lists(token_lists, min_size=1, max_size=3),
        corpus=st.lists(st.lists(token_lists, min_size=1, max_size=3), min_size=1, max_size=5),
        max_n=st.integers(1, 5),
    )
    def test_public_cider_equals_oracle(self, cand, refs, corpus, max_n):
        assert cider(cand, refs, corpus, max_n) == cider_oracle(cand, refs, corpus, max_n)

    def test_fixed_edge_cases_equal_oracle(self):
        # Repeated tokens, an empty candidate and reference, a single-document
        # corpus, and references that appear nowhere in the corpus.
        corpus = [[["a", "a", "a", "b"]], [["b", "c"], []], [["c", "c", "d", "a"]]]
        cases = [
            (["a", "a", "a", "a"], [["a", "a", "b"]], corpus),
            ([], [["a", "b"]], corpus),
            (["a", "b"], [[]], corpus),
            (["x", "y", "x"], [["x", "y"], ["y", "x", "y"]], corpus),
            (["a", "b"], [["a", "b"]], [[["a", "b"]]]),
        ]
        for max_n in range(1, 6):
            for cand, refs, corp in cases:
                assert cider(cand, refs, corp, max_n) == cider_oracle(cand, refs, corp, max_n)


# --- score_captions oracle ---------------------------------------------------
#
# ``score_captions`` as it was with one pair loop per mode, kept verbatim
# with its helpers except for the oracle names. The metrics and the
# statistics are the oracles above, so none of the code under test scores
# the expected report. The one-loop version must return an equal report:
# every score, error and mean.


def _oracle_score_one(cand_tokens, ref_token_lists, stats, max_n) -> CaptionScore:
    # bleu runs first, so an empty reference list raises its ValueError
    # before an empty corpus raises EmptyCorpus.
    return CaptionScore(
        bleu=_oracle_bleu(cand_tokens, ref_token_lists, max_n),
        rouge_l=max(_oracle_rouge_l(cand_tokens, r) for r in ref_token_lists),
        cider=_oracle_cider(cand_tokens, ref_token_lists, stats, max_n),
    )


def _oracle_field_corpora(corpus):
    corpora = {label: [] for label in FIELD_LABELS}
    for ref_set in corpus:
        parsed = []
        for ref in ref_set:
            try:
                parsed.append(parse_caption(ref))
            except CaptionError:
                continue
        if not parsed:
            continue
        for label in FIELD_LABELS:
            corpora[label].append([tokenize(getattr(c, label)) for c in parsed])
    if not corpora[FIELD_LABELS[0]]:
        raise EmptyCorpus("no corpus rows parse as structured captions")
    return corpora


def score_captions_oracle(pairs, corpus, max_n: int = 4, per_field: bool = False) -> CaptionSetReport:
    """Score (candidate, references) string pairs against a shared corpus.

    ``pairs`` is a sequence of (candidate, list-of-references) strings
    and ``corpus`` a list of reference-set string lists for document
    frequencies. In whole-string mode each pair is tokenized and scored
    directly. In per-field mode both sides must parse as structured
    captions; the metrics are computed per field and macro-averaged, and
    rows that fail to parse are reported as data with their error. Means
    are arithmetic over successfully scored rows. Document frequencies
    are built once per corpus, and once per field corpus in per-field
    mode.
    """
    _check_max_n(max_n)
    rows: list[ScoredCaption] = []
    if per_field:
        corpora = _oracle_field_corpora(corpus)
        stats = {label: _oracle_corpus_stats(corpora[label], max_n) for label in FIELD_LABELS}
        for index, (cand, refs) in enumerate(pairs):
            try:
                cand_parsed = parse_caption(cand)
                refs_parsed = [parse_caption(r) for r in refs]
            except CaptionError as exc:
                rows.append(ScoredCaption(index, None, f"{type(exc).__name__}: {exc}"))
                continue
            field_scores = []
            for label in FIELD_LABELS:
                field_scores.append(
                    _oracle_score_one(
                        tokenize(getattr(cand_parsed, label)),
                        [tokenize(getattr(r, label)) for r in refs_parsed],
                        stats[label],
                        max_n,
                    )
                )
            rows.append(
                ScoredCaption(
                    index,
                    CaptionScore(
                        bleu=sum(s.bleu for s in field_scores) / len(field_scores),
                        rouge_l=sum(s.rouge_l for s in field_scores) / len(field_scores),
                        cider=sum(s.cider for s in field_scores) / len(field_scores),
                    ),
                )
            )
    else:
        stats = _oracle_corpus_stats([[tokenize(r) for r in ref_set] for ref_set in corpus], max_n)
        for index, (cand, refs) in enumerate(pairs):
            rows.append(
                ScoredCaption(
                    index,
                    _oracle_score_one(tokenize(cand), [tokenize(r) for r in refs], stats, max_n),
                )
            )
    scored = [r.score for r in rows if r.score is not None]
    means = None
    if scored:
        means = CaptionScore(
            bleu=sum(s.bleu for s in scored) / len(scored),
            rouge_l=sum(s.rouge_l for s in scored) / len(scored),
            cider=sum(s.cider for s in scored) / len(scored),
        )
    return CaptionSetReport(rows=tuple(rows), means=means)


class TestScoreCaptionsOracle:
    @given(case=caption_cases(per_field=False))
    def test_whole_string_report_equals_oracle(self, case):
        pairs, corpus, max_n = case
        assert score_captions(pairs, corpus, max_n=max_n) == score_captions_oracle(
            pairs, corpus, max_n=max_n
        )

    @given(case=caption_cases(per_field=True))
    def test_per_field_report_equals_oracle(self, case):
        pairs, corpus, max_n = case
        assert score_captions(pairs, corpus, max_n=max_n, per_field=True) == score_captions_oracle(
            pairs, corpus, max_n=max_n, per_field=True
        )


class TestCorpusStatisticsAreBuiltOnce:
    @pytest.fixture
    def df_calls(self, monkeypatch):
        calls = []
        real = textmetrics._doc_frequencies

        def counting(corpus, max_n):
            calls.append(len(corpus))
            return real(corpus, max_n)

        monkeypatch.setattr(textmetrics, "_doc_frequencies", counting)
        return calls

    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_whole_string_builds_once(self, df_calls, n):
        lines = [f"w{i} w{i % 7} shared words" for i in range(n)]
        score_captions([(line, [line]) for line in lines], [[line] for line in lines])
        assert df_calls == [n]

    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_per_field_builds_once_per_field(self, df_calls, n):
        lines = [f"Scene: s{i} | Current: c{i % 3} | Next: n{i} | Why: w{i % 5}" for i in range(n)]
        score_captions(
            [(line, [line]) for line in lines], [[line] for line in lines], per_field=True
        )
        assert df_calls == [n] * len(FIELD_LABELS)


def tokenized_texts(score, *args, **kwargs) -> list[str]:
    """Every text ``tokenize`` is called with while ``score`` runs."""
    texts = []
    real = textmetrics.tokenize

    def counting(text):
        texts.append(text)
        return real(text)

    with mock.patch.object(textmetrics, "tokenize", counting):
        score(*args, **kwargs)
    return texts


class TestTokenizeOncePerCall:
    @given(case=caption_cases(per_field=False))
    def test_whole_string_tokenizes_each_text_once(self, case):
        pairs, corpus, max_n = case
        needed = {line for ref_set in corpus for line in ref_set}
        needed.update(text for cand, refs in pairs for text in (cand, *refs))
        assert sorted(tokenized_texts(score_captions, pairs, corpus, max_n=max_n)) == sorted(needed)

    @given(case=caption_cases(per_field=True))
    def test_per_field_tokenizes_each_field_text_once(self, case):
        pairs, corpus, max_n = case
        texts = tokenized_texts(score_captions, pairs, corpus, max_n=max_n, per_field=True)
        assert len(texts) == len(set(texts))

    def test_nothing_is_kept_between_calls(self):
        pairs = [("a red car", ["a red car"]), ("a dog", ["a red car"])]
        corpus = [["a red car"], ["a dog"]]
        for _ in range(2):
            assert sorted(tokenized_texts(score_captions, pairs, corpus)) == ["a dog", "a red car"]


def ngram_calls(*args, **kwargs) -> tuple[list[tuple[int, int]], set[str]]:
    """Each ``_ngrams`` call, as (id of its tokens, order), and each text tokenized."""
    calls, texts = [], set()
    real_ngrams, real_tokenize = textmetrics._ngrams, textmetrics.tokenize

    def counting_ngrams(tokens, n):
        calls.append((id(tokens), n))
        return real_ngrams(tokens, n)

    def counting_tokenize(text):
        texts.add(text)
        return real_tokenize(text)

    with mock.patch.object(textmetrics, "_ngrams", counting_ngrams), mock.patch.object(
        textmetrics, "tokenize", counting_tokenize
    ):
        score_captions(*args, **kwargs)
    return calls, texts


class TestNgramsOncePerText:
    """Each distinct unit text's n-grams are built once per order per call."""

    @pytest.mark.parametrize("per_field", [False, True])
    @given(data=st.data())
    def test_at_most_max_n_calls_per_distinct_text(self, per_field, data):
        pairs, corpus, max_n = data.draw(caption_cases(per_field=per_field))
        calls, texts = ngram_calls(pairs, corpus, max_n=max_n, per_field=per_field)
        assert len(calls) <= max_n * len(texts)
        assert len(calls) == len(set(calls))

    def test_nothing_is_kept_between_calls(self):
        pairs = [("a red car", ["a red car"]), ("a dog", ["a red car"])]
        corpus = [["a red car"], ["a dog"]]
        for _ in range(2):
            calls, texts = ngram_calls(pairs, corpus, max_n=3)
            assert len(calls) == 3 * len(texts) == 6


#: Token lists over a one- to four-symbol alphabet, so tokens repeat, and
#: long enough that the LCS bit masks cross a 64-bit machine word.
@st.composite
def symbol_pairs(draw):
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    side = st.lists(st.sampled_from(alphabet), max_size=90)
    return draw(side), draw(side)


class TestBitParallelLcs:
    @given(pair=symbol_pairs())
    def test_equals_the_dynamic_program(self, pair):
        a, b = pair
        assert textmetrics._lcs_length(a, b) == _oracle_lcs_length(a, b)

    @pytest.mark.parametrize("m", [63, 64, 65, 128, 129])
    def test_word_boundaries(self, m):
        a = ["x"] * m
        assert textmetrics._lcs_length(a, a) == m
        assert textmetrics._lcs_length(a, ["y"] + a[1:]) == m - 1
        assert textmetrics._lcs_length(["x", "y"] * m, a) == m

    @given(pair=symbol_pairs())
    def test_rouge_l_equals_oracle(self, pair):
        cand, ref = pair
        assert rouge_l(cand, ref) == _oracle_rouge_l(cand, ref)


class TestPublicMetricsEqualOracles:
    @given(cand=token_lists, refs=st.lists(token_lists, min_size=1, max_size=3), max_n=st.integers(1, 5))
    def test_bleu_equals_oracle(self, cand, refs, max_n):
        assert bleu(cand, refs, max_n) == _oracle_bleu(cand, refs, max_n)

    def test_bleu_checks_max_n_then_references_before_the_candidate(self):
        with pytest.raises(ValueError, match="max_n"):
            bleu(None, [], 0)
        with pytest.raises(ValueError, match="bleu needs at least one reference"):
            bleu(None, [])


def parsed_texts(*args, **kwargs) -> list[str]:
    """Every text ``parse_caption`` is called with while score_captions runs."""
    texts = []
    real = textmetrics.parse_caption

    def counting(text):
        texts.append(text)
        return real(text)

    with mock.patch.object(textmetrics, "parse_caption", counting):
        score_captions(*args, **kwargs)
    return texts


def parses(text: str) -> bool:
    try:
        parse_caption(text)
    except CaptionError:
        return False
    return True


class TestParseOncePerCall:
    @given(case=caption_cases(per_field=True))
    def test_each_caption_that_parses_is_parsed_once(self, case):
        # A caption that fails raises again each time it is asked for.
        pairs, corpus, max_n = case
        counts = Counter(parsed_texts(pairs, corpus, max_n=max_n, per_field=True))
        assert all(n == 1 for text, n in counts.items() if parses(text))

    @given(case=caption_cases(per_field=False))
    def test_whole_string_mode_parses_nothing(self, case):
        pairs, corpus, max_n = case
        assert parsed_texts(pairs, corpus, max_n=max_n) == []

    def test_nothing_is_kept_between_calls(self):
        good = "Scene: a | Current: b | Next: c | Why: d"
        for _ in range(2):
            assert parsed_texts([(good, [good])], [[good]], per_field=True) == [good]


class TestExceptionPrecedence:
    GOOD = "Scene: a1 | Current: b1 | Next: c1 | Why: d1"

    def test_no_pairs_and_an_empty_corpus_raise_nothing(self):
        report = score_captions([], [])
        assert report.rows == () and report.means is None

    @pytest.mark.parametrize("corpus", [[], [["a b"]]])
    def test_empty_references_raise_the_bleu_error_first(self, corpus):
        with pytest.raises(ValueError, match="bleu needs at least one reference"):
            score_captions([("a b", [])], corpus)

    def test_per_field_empty_references_raise_the_bleu_error(self):
        with pytest.raises(ValueError, match="bleu needs at least one reference"):
            score_captions([(self.GOOD, [])], [[self.GOOD]], per_field=True)

    def test_pairs_with_an_empty_corpus_raise_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            score_captions([("a b", ["a b"])], [])

    @pytest.mark.parametrize("pairs", [[], [(GOOD, [GOOD])]])
    @pytest.mark.parametrize("corpus", [[], [["not a caption"]]])
    def test_per_field_unparsable_corpus_raises_up_front(self, pairs, corpus):
        with pytest.raises(EmptyCorpus):
            score_captions(pairs, corpus, per_field=True)

    def test_public_cider_checks_the_corpus_before_the_references(self):
        with pytest.raises(EmptyCorpus):
            cider(["a"], [], [])


class TestMaxN:
    @pytest.mark.parametrize("max_n", [0, -1])
    def test_orders_below_one_are_rejected(self, max_n):
        with pytest.raises(ValueError, match="max_n must be at least 1"):
            bleu(["a"], [["a"]], max_n)
        with pytest.raises(ValueError, match="max_n must be at least 1"):
            cider(["a"], [["a"]], [[["a"]], [["b"]]], max_n)
        for per_field in (False, True):
            with pytest.raises(ValueError, match="max_n must be at least 1"):
                score_captions([], [["a"]], max_n=max_n, per_field=per_field)
