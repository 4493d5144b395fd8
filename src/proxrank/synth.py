"""Synthetic corpora with controllable ranking signal.

Every query gets its own reserved term vocabulary and its own good/bad
entity sets, so queries cannot contaminate each other.  Each entity is
supported by a number of mention blocks: 2*window+1 tokens of filler
with the mention at the center and the sampled query terms planted at
controlled distances on alternating sides.  Blocks are dealt round-robin
across the content documents with a filler gap between neighbors that
keeps one block's terms outside the next block's window.

Three independent dials, each in [0, 1], shape where the good/bad
signal lives:

    count_skew      good entities get extra supporting blocks
    rarity_skew     good blocks prefer the rare (high-IDF) terms,
                    bad blocks the common ones
    proximity_skew  good blocks place terms near the mention,
                    bad blocks push them far away

At 0 the corresponding channel carries no signal.  Term rarity itself is
established by planting the terms in mention-free filler documents on a
geometric document-frequency ladder (the later a term, the rarer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from proxrank.corpus import Document, Judgments, Mention, Query, QueryTerm
from proxrank.seeding import substream

__all__ = ["SynthError", "SynthParams", "generate_synthetic"]

# Document-frequency fractions for the first and last term of a query.
_DF_FRAC_HI = 0.5
_DF_FRAC_LO = 0.05
# Base inclusion probability of a term in a block, and the boost that
# rarity_skew redistributes toward rare (good) / common (bad) terms.
_TERM_PROB_BASE = 0.35
_TERM_PROB_BOOST = 0.45
# proximity_skew=1 compresses good distances to [1, 3] and pushes bad
# distances to [15, max_distance].
_GOOD_NEAR_LIMIT = 3
_BAD_FAR_START = 15


class SynthError(ValueError):
    """Synthetic-corpus parameters are degenerate."""


@dataclass(frozen=True)
class SynthParams:
    num_queries: int = 16
    num_docs: int = 12
    num_filler_docs: int = 40
    filler_len: int = 80
    vocab_size: int = 200
    terms_per_query: int = 3
    num_good: int = 4
    num_bad: int = 4
    base_contexts: int = 2
    context_spread: int = 2
    count_boost: int = 5
    count_skew: float = 0.0
    rarity_skew: float = 0.0
    proximity_skew: float = 0.0
    window: int = 30
    max_distance: int = 25
    doc_pad: int = 12

    def __post_init__(self) -> None:
        if self.num_queries < 1 or self.num_docs < 1:
            raise SynthError("need at least one query and one document")
        if self.num_good < 1 or self.num_bad < 1:
            raise SynthError("need at least one good and one bad entity per query")
        if self.terms_per_query < 2:
            raise SynthError("need at least two terms per query for a rarity ladder")
        if self.base_contexts < 1 or self.context_spread < 0 or self.count_boost < 0:
            raise SynthError("context counts must stay positive")
        if not (2 <= self.window):
            raise SynthError(f"window must be >= 2, got {self.window}")
        if not (1 <= self.max_distance < self.window):
            raise SynthError(
                f"max_distance must be in [1, window), got {self.max_distance}"
            )
        if self.vocab_size < 10:
            raise SynthError("filler vocabulary is too small")
        if self.filler_len < 8:
            raise SynthError("filler documents are too short")
        if self.num_filler_docs < 0 or self.doc_pad < 0:
            raise SynthError("counts cannot be negative")
        for name in ("count_skew", "rarity_skew", "proximity_skew"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise SynthError(f"{name} must be in [0, 1], got {value}")


def _term_text(qi: int, k: int) -> str:
    return f"q{qi:03d}t{k}"


@dataclass
class _Block:
    tokens: list[str]
    mention: Mention  # offsets local to the block


def _build_block(
    rng: np.random.Generator,
    params: SynthParams,
    entity_id: str,
    terms: list[str],
    is_good: bool,
    vocab: list[str],
) -> _Block:
    length = 2 * params.window + 1
    center = params.window
    tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=length)]
    tokens[center] = entity_id
    occupied = {center}

    probs = _term_probs(params, is_good)
    chosen: list[int] = []
    while not chosen:
        chosen = [k for k in range(len(terms)) if rng.random() < probs[k]]

    lo, hi = _distance_range(params, is_good)
    for j, k in enumerate(chosen):
        distance = int(rng.integers(lo, hi + 1))
        direction = -1 if j % 2 == 0 else 1
        pos = _place(occupied, length, center, distance, direction)
        tokens[pos] = terms[k]
        occupied.add(pos)
    return _Block(tokens=tokens, mention=Mention(entity_id, center, center + 1))


def _place(occupied: set[int], length: int, center: int, distance: int, direction: int) -> int:
    """Free slot at the target distance, shifting outward past collisions;
    falls back to the other side, then to the nearest free slot anywhere."""
    for side in (direction, -direction):
        pos = center + side * distance
        while 0 <= pos < length:
            if pos not in occupied:
                return pos
            pos += side
    for delta in range(1, length):
        for side in (direction, -direction):
            pos = center + side * delta
            if 0 <= pos < length and pos not in occupied:
                return pos
    raise SynthError("mention block has no free slot left")


def _term_probs(params: SynthParams, is_good: bool) -> list[float]:
    k_max = params.terms_per_query - 1
    probs = []
    for k in range(params.terms_per_query):
        grade = k / k_max if is_good else (k_max - k) / k_max
        probs.append(_TERM_PROB_BASE + _TERM_PROB_BOOST * params.rarity_skew * grade)
    return probs


def _distance_range(params: SynthParams, is_good: bool) -> tuple[int, int]:
    s = params.proximity_skew
    if is_good:
        hi = round(params.max_distance - s * (params.max_distance - _GOOD_NEAR_LIMIT))
        return 1, max(1, hi)
    lo = round(1 + s * (_BAD_FAR_START - 1))
    return min(params.max_distance, max(1, lo)), params.max_distance


def generate_synthetic(
    params: SynthParams, seed: int = 0
) -> tuple[list[Document], list[Query], Judgments]:
    """Build (documents, queries, judgments) from one seeded substream."""
    rng = substream(seed, "synth")
    vocab = [f"w{i:03d}" for i in range(params.vocab_size)]

    filler_docs = [
        [vocab[i] for i in rng.integers(0, len(vocab), size=params.filler_len)]
        for _ in range(params.num_filler_docs)
    ]
    filler_planted: list[set[int]] = [set() for _ in range(params.num_filler_docs)]

    queries: list[Query] = []
    good: dict[str, frozenset[str]] = {}
    bad: dict[str, frozenset[str]] = {}
    blocks: list[_Block] = []

    for qi in range(params.num_queries):
        qid = f"q{qi:03d}"
        terms = [_term_text(qi, k) for k in range(params.terms_per_query)]
        queries.append(Query(query_id=qid, terms=[QueryTerm(t) for t in terms]))

        # Rarity ladder: plant each term in a geometrically shrinking
        # share of the filler documents.
        k_max = params.terms_per_query - 1
        for k, term in enumerate(terms):
            if params.num_filler_docs == 0:
                break
            frac = _DF_FRAC_HI * (_DF_FRAC_LO / _DF_FRAC_HI) ** (k / k_max)
            n_plant = max(1, round(params.num_filler_docs * frac))
            chosen = rng.choice(params.num_filler_docs, size=n_plant, replace=False)
            for d in sorted(int(x) for x in chosen):
                if len(filler_planted[d]) == params.filler_len:
                    raise SynthError(
                        f"filler document f{d:03d} has no free slot for term {term!r}: "
                        f"all {params.filler_len} tokens already hold planted terms"
                    )
                pos = int(rng.integers(0, params.filler_len))
                while pos in filler_planted[d]:
                    pos = (pos + 1) % params.filler_len
                filler_docs[d][pos] = term
                filler_planted[d].add(pos)

        goods = [f"{qid}g{j}" for j in range(params.num_good)]
        bads = [f"{qid}b{j}" for j in range(params.num_bad)]
        good[qid] = frozenset(goods)
        bad[qid] = frozenset(bads)

        extra = round(params.count_skew * params.count_boost)
        for entity_id in goods + bads:
            is_good = entity_id in good[qid]
            n_blocks = params.base_contexts + int(rng.integers(0, params.context_spread + 1))
            if is_good:
                n_blocks += extra
            for _ in range(n_blocks):
                blocks.append(_build_block(rng, params, entity_id, terms, is_good, vocab))

    # Deal blocks round-robin; pad between neighbors so windows stay disjoint.
    doc_tokens: list[list[str]] = [[] for _ in range(params.num_docs)]
    doc_mentions: list[list[Mention]] = [[] for _ in range(params.num_docs)]
    for m, block in enumerate(blocks):
        d = m % params.num_docs
        if doc_tokens[d]:
            doc_tokens[d].extend(
                vocab[i] for i in rng.integers(0, len(vocab), size=params.doc_pad)
            )
        base = len(doc_tokens[d])
        doc_tokens[d].extend(block.tokens)
        doc_mentions[d].append(
            Mention(
                block.mention.entity_id,
                base + block.mention.start,
                base + block.mention.end,
            )
        )

    documents = [
        Document(doc_id=f"d{d:03d}", tokens=tuple(doc_tokens[d]), mentions=tuple(doc_mentions[d]))
        for d in range(params.num_docs)
        if doc_tokens[d]
    ]
    documents.extend(
        Document(doc_id=f"f{d:03d}", tokens=tuple(filler_docs[d]), mentions=())
        for d in range(params.num_filler_docs)
    )
    judgments = Judgments(good=good, bad=bad)
    return documents, queries, judgments
