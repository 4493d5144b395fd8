"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas with
plain loops, no shared code with the package under test.  Slow is fine;
these run on small instances only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog


# -- rank metrics --------------------------------------------------------------


def average_precision(ranked_ids, good) -> float:
    good = set(good)
    if not good:
        return 0.0
    hits = 0
    total = 0.0
    for r, eid in enumerate(ranked_ids, start=1):
        if eid in good:
            hits += 1
            total += hits / r
    return total / len(good)


def reciprocal_rank(ranked_ids, good) -> float:
    good = set(good)
    for r, eid in enumerate(ranked_ids, start=1):
        if eid in good:
            return 1.0 / r
    return 0.0


def ndcg_at(ranked_ids, good, k: int) -> float:
    good = set(good)
    if not good:
        return 0.0
    dcg = 0.0
    for r, eid in enumerate(ranked_ids[:k], start=1):
        if eid in good:
            dcg += 1.0 / math.log2(1.0 + r)
    ideal = 0.0
    for r in range(1, min(k, len(good)) + 1):
        ideal += 1.0 / math.log2(1.0 + r)
    return dcg / ideal


def pair_swap_rate(ranked_ids, good, bad) -> float:
    """Fraction of (good, bad) pairs in the wrong order.  A missing good
    counts as below any present bad, a missing bad as below any present
    good, and two missing entities as half a swap."""
    good = set(good)
    bad = set(bad)
    if not good or not bad:
        return 0.0
    pos = {eid: r for r, eid in enumerate(ranked_ids)}
    swapped = 0.0
    for g in good:
        for b in bad:
            if g in pos and b in pos:
                swapped += 1.0 if pos[b] < pos[g] else 0.0
            elif b in pos:
                swapped += 1.0
            elif g in pos:
                swapped += 0.0
            else:
                swapped += 0.5
    return swapped / (len(good) * len(bad))


def auc(ranked_ids, good, bad) -> float:
    """Fraction of (good, bad) pairs ordered correctly; assumes every
    judged entity is present in the ranking."""
    good = set(good)
    bad = set(bad)
    pos = {eid: r for r, eid in enumerate(ranked_ids)}
    correct = 0
    for g in good:
        for b in bad:
            if pos[g] < pos[b]:
                correct += 1
    return correct / (len(good) * len(bad))


# -- aggregation ---------------------------------------------------------------


def sigmoid(a: float) -> float:
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    return math.exp(a) / (1.0 + math.exp(a))


def transform(name: str, a: float) -> float:
    if name == "identity":
        return a
    if name == "exp":
        return math.exp(min(max(a, -500.0), 500.0))
    if name == "log1p":
        return math.log1p(a)
    if name == "indicator":
        return 1.0 if a > 0 else 0.0
    raise ValueError(name)


def aggregate(operator: str, transform_name: str, scores, decay=None) -> float:
    values = [transform(transform_name, s) for s in scores]
    if operator == "sum":
        return sum(values)
    if operator == "avg":
        return sum(values) / len(values)
    if operator == "softor":
        product = 1.0
        for s in scores:
            product *= 1.0 - sigmoid(s)
        return 1.0 - product
    if operator == "softcutoff":
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        total = 0.0
        for rank, i in enumerate(order):
            decile = min((10 * rank) // len(scores), 9)
            total += decay[decile] * scores[i]
        return total
    raise ValueError(operator)


def voting(scores) -> dict[str, float]:
    n = len(scores)
    return {
        "combsum": sum(scores),
        "combmax": max(scores),
        "combmin": min(scores),
        "combanz": sum(scores) / n,
        "votes": float(n),
        "combmnz": n * sum(scores),
        "expcombmnz": n * sum(math.exp(min(s, 500.0)) for s in scores),
    }


# -- calculus ------------------------------------------------------------------


def fd_gradient(f, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        up = w.copy()
        dn = w.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2.0 * h)
    return grad


# -- projected gradient descent ---------------------------------------------------

# Backtracking line search: first step, shrink factor per backtrack,
# Armijo sufficient-decrease fraction, and backtracks per iteration.
STEP_INIT = 1.0
BACKTRACK = 0.5
ARMIJO = 1e-4
MAX_BACKTRACKS = 40


def projected_gradient_descent(
    fun, w0: np.ndarray, max_iters: int, tol: float
) -> tuple[np.ndarray, float, int]:
    """Minimize ``fun`` (returning value and gradient) over w >= 0 from ``w0``.

    The package's former trainer: a backtracking (Armijo) line search,
    each trial projected onto w >= 0, the best objective seen tracked,
    and a stop on a relative drop below ``tol``, a failed line search, or
    the iteration cap.  Returns (weights, objective, iterations).
    """
    w = np.asarray(w0, dtype=float)
    objective, gradient = fun(w)
    if not math.isfinite(objective):
        raise RuntimeError(f"objective not finite at the initial point: {objective}")
    best_value, best_w = objective, w.copy()
    eta = STEP_INIT
    iterations = 0
    for iteration in range(1, max_iters + 1):
        step = eta
        accepted = False
        stationary = False
        saw_finite_trial = False
        for _ in range(MAX_BACKTRACKS):
            trial = np.maximum(w - step * gradient, 0.0)
            if np.array_equal(trial, w):
                # Projection pins every coordinate; smaller steps stay pinned.
                stationary = True
                break
            trial_value, trial_gradient = fun(trial)
            if math.isfinite(trial_value):
                saw_finite_trial = True
                decrease = float(gradient @ (trial - w))
                if trial_value <= objective + ARMIJO * decrease:
                    accepted = True
                    break
            step *= BACKTRACK
        if not accepted:
            if not stationary and not saw_finite_trial:
                raise RuntimeError(
                    f"objective diverged (non-finite) at iteration {iteration}, step {step:g}"
                )
            break
        relative_drop = (objective - trial_value) / max(abs(objective), 1e-12)
        w, objective, gradient = trial, trial_value, trial_gradient
        iterations = iteration
        if objective < best_value:
            best_value, best_w = objective, w.copy()
        eta = min(step * 2.0, 1e6)
        if relative_drop < tol:
            break
    return best_w, best_value, iterations


# -- cutoff program objective ---------------------------------------------------


def cutoff_objective_direct(decay, per_query, ridge: float) -> float:
    """Direct evaluation of the decile-decay objective.

    ``per_query`` is a list of (profiles, pairs): profiles maps an entity
    index to its 10-vector of per-decile score mass, pairs is the list of
    (good_index, bad_index) comparisons for that query.
    """
    total = decay[0] / ridge
    for profiles, pairs in per_query:
        if not pairs:
            continue
        query_total = 0.0
        for g, b in pairs:
            vg = sum(decay[r] * profiles[g][r] for r in range(10))
            vb = sum(decay[r] * profiles[b][r] for r in range(10))
            query_total += max(0.0, 1.0 + vb - vg)
        total += query_total / len(pairs)
    return total


def decile_profile(scores) -> list[float]:
    """One entity's per-decile score mass: contexts ranked by descending
    score (ties by index), rank p falls in decile min(10 p // n, 9), and
    each decile's scores are added in context order."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    decile = [0] * n
    for rank, i in enumerate(order):
        decile[i] = min((10 * rank) // n, 9)
    profile = [0.0] * 10
    for i in range(n):
        profile[decile[i]] += scores[i]
    return profile


def cutoff_decay_dense(per_query, ridge: float) -> np.ndarray:
    """Decile decay minimizing :func:`cutoff_objective_direct`, from a linear
    program whose constraint matrix is dense and filled row by row.

    Variables are the ten decay values, then one slack per pair (pairs in
    ``per_query`` order); each pair's slack carries the weight 1/|pairs| of
    its query.  The solution is snapped onto the non-negative,
    non-increasing cone.
    """
    pair_rows = []
    pair_weights = []
    for profiles, pairs in per_query:
        for g, b in pairs:
            pair_rows.append([profiles[b][r] - profiles[g][r] for r in range(10)])
            pair_weights.append(1.0 / len(pairs))
    n_pairs = len(pair_rows)
    n_vars = 10 + n_pairs
    cost = np.zeros(n_vars)
    cost[0] = 1.0 / ridge
    cost[10:] = pair_weights
    a_ub = np.zeros((n_pairs + 9, n_vars))
    b_ub = np.zeros(n_pairs + 9)
    for p, row in enumerate(pair_rows):
        a_ub[p, :10] = row
        a_ub[p, 10 + p] = -1.0
        b_ub[p] = -1.0
    for r in range(9):
        a_ub[n_pairs + r, r] = -1.0
        a_ub[n_pairs + r, r + 1] = 1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"dense cutoff program failed: {result.message}")
    decay = np.asarray(result.x[:10], dtype=float)
    return np.minimum.accumulate(np.maximum(decay, 0.0))


# -- Student t tail probability --------------------------------------------------


def t_two_sided_p(t_stat: float, df: int) -> float:
    """Two-sided tail mass of Student's t by numerical quadrature of the
    density, written out from its closed form."""

    def density(x: float) -> float:
        c = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    tail, _ = quad(density, abs(t_stat), math.inf)
    return 2.0 * tail


# -- lexical scoring -----------------------------------------------------------


def bm25(
    tf: float, df: int, num_docs: int, dl: int, avgdl: float, k1: float = 1.2, b: float = 0.75
) -> float:
    """One term's BM25 contribution with the non-negative idf variant."""
    idf = math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))
    return idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def jelinek_mercer(tf: int, dl: int, cf: int, collection_len: int, lam: float) -> float:
    """Smoothed unigram probability (1-lam) tf/dl + lam cf/len."""
    doc_part = tf / dl if dl else 0.0
    col_part = cf / collection_len if collection_len else 0.0
    return (1.0 - lam) * doc_part + lam * col_part


def gaussian_position_lm(tokens, center: int, width: float, terms) -> dict[str, float]:
    """Kernel-weighted term distribution around one position."""
    weights = [math.exp(-((i - center) ** 2) / (2.0 * width * width)) for i in range(len(tokens))]
    total = sum(weights)
    out = {}
    for term in terms:
        out[term] = sum(w for tok, w in zip(tokens, weights) if tok == term) / total
    return out


# -- dict featurizer -----------------------------------------------------------
#
# The per-context sparse featurizer that the dense one replaced: one
# dict of feature index -> value per context, filled family by family,
# with phrases counted by a scan of every position and the IDF looked up
# again for every match.  Only the layout's fields, the query's terms and
# the corpus statistics are read from the package.

_FAMILY_ORDER = ("noprox", "idfupto", "grid", "rectangle", "pad")


def _family_offsets(layout) -> tuple[dict[str, int], int]:
    rows = len(layout.idf_fraction_boundaries)
    cols = len(layout.distance_boundaries)
    sizes = {"noprox": 2, "idfupto": cols, "grid": rows * cols, "rectangle": rows * cols, "pad": 1}
    offsets = {}
    dimension = 0
    for family in _FAMILY_ORDER:
        if family in layout.families:
            offsets[family] = dimension
            dimension += sizes[family]
    return offsets, dimension


def _term_freq(tokens, term_tokens, counts) -> int:
    if len(term_tokens) == 1:
        return counts.get(term_tokens[0], 0)
    hits = 0
    for p in range(len(tokens) - len(term_tokens) + 1):
        if tuple(tokens[p : p + len(term_tokens)]) == term_tokens:
            hits += 1
    return hits


def _doc_frequency(stats, term_tokens) -> int:
    if len(term_tokens) == 1:
        return stats.df.get(term_tokens[0], 0)
    return stats.phrase_df[term_tokens]


def _idf(stats, text: str) -> float:
    return stats.num_docs / max(_doc_frequency(stats, tuple(text.split())), 1)


def _query_idf(stats, query) -> float:
    return float(sum(_idf(stats, t.text) for t in query.distinct_terms()))


def bm25_document(tokens, query, stats, k1: float = 1.2, b: float = 0.75) -> float:
    """BM25 of a token sequence, phrase counts by scanning every position."""
    if stats.num_docs == 0:
        return 0.0
    counts = Counter(tokens)
    n = stats.num_docs
    avg = (stats.collection_len / n) or 1.0
    dl = len(tokens)
    multiplicity = query.multiplicity()
    score = 0.0
    for term in query.distinct_terms():
        tf = _term_freq(tokens, term.tokens, counts)
        if tf == 0:
            continue
        df = _doc_frequency(stats, term.tokens)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        norm = tf + k1 * (1.0 - b + b * dl / avg)
        score += multiplicity[term.text] * idf * tf * (k1 + 1.0) / norm
    return score


def cosine_document(tokens, query, stats) -> float:
    """TF-IDF cosine over the sequence's unigrams plus the query phrases."""
    if stats.num_docs == 0:
        return 0.0
    counts = Counter(tokens)
    doc_weights = {}
    for tok, tf in counts.items():
        doc_weights[(tok,)] = tf * _idf(stats, tok)
    multiplicity = query.multiplicity()
    query_weights = {}
    for term in query.distinct_terms():
        idf = stats.num_docs / max(_doc_frequency(stats, term.tokens), 1)
        query_weights[term.tokens] = multiplicity[term.text] * idf
        if term.is_phrase:
            tf = _term_freq(tokens, term.tokens, counts)
            if tf:
                doc_weights[term.tokens] = tf * idf
    dot = sum(w * doc_weights.get(k, 0.0) for k, w in query_weights.items())
    if dot == 0.0:
        return 0.0
    doc_norm = math.sqrt(sum(w * w for w in doc_weights.values()))
    query_norm = math.sqrt(sum(w * w for w in query_weights.values()))
    return dot / (doc_norm * query_norm)


def _match_cells(context, query, stats, layout) -> list[tuple[int, int]]:
    fracs = layout.idf_fraction_boundaries
    bounds = layout.distance_boundaries
    total_idf = _query_idf(stats, query)
    cells = []
    for text, distance in context.matches.items():
        fraction = _idf(stats, text) / total_idf
        i = min(bisect_left(fracs, min(fraction, 1.0)), len(fracs) - 1)
        j = len(bounds) - 1 - min(bisect_left(bounds, distance), len(bounds) - 1)
        cells.append((i, j))
    return cells


def feature_dict(document, context, query, stats, layout, k1=1.2, b=0.75) -> dict[int, float]:
    """One context's sparse feature vector; ``context`` may be None for a
    layout without proximity families."""
    offsets, _ = _family_offsets(layout)
    cols = len(layout.distance_boundaries)
    out = {}
    if "noprox" in offsets:
        bm25_value = bm25_document(document.tokens, query, stats, k1, b)
        cos = cosine_document(document.tokens, query, stats)
        if bm25_value:
            out[offsets["noprox"]] = bm25_value
        if cos:
            out[offsets["noprox"] + 1] = cos
    if "pad" in offsets:
        out[offsets["pad"]] = 1.0
    if context is None:
        return out
    if "idfupto" in offsets:
        total_idf = _query_idf(stats, query)
        for k, boundary in enumerate(layout.distance_boundaries):
            value = sum(
                _idf(stats, text) / total_idf
                for text, distance in context.matches.items()
                if distance <= boundary
            )
            if value:
                out[offsets["idfupto"] + k] = value
    if "grid" in offsets:
        for i, j in _match_cells(context, query, stats, layout):
            idx = offsets["grid"] + i * cols + j
            out[idx] = out.get(idx, 0.0) + 1.0
    if "rectangle" in offsets:
        for i, j in _match_cells(context, query, stats, layout):
            for ii in range(i + 1):
                for jj in range(j + 1):
                    idx = offsets["rectangle"] + ii * cols + jj
                    out[idx] = out.get(idx, 0.0) + 1.0
    return out


def feature_stack(index, query, contexts, layout, k1=1.2, b=0.75) -> np.ndarray:
    """Rows of :func:`feature_dict`, densified one by one and stacked."""
    _, dimension = _family_offsets(layout)
    rows = []
    for ctx in contexts:
        vector = feature_dict(index.documents[ctx.doc_id], ctx, query, index.stats, layout, k1, b)
        row = np.zeros(dimension)
        for idx, value in vector.items():
            row[idx] = value
        rows.append(row)
    return np.vstack(rows) if rows else np.zeros((0, dimension))


def phrase_starts_brute(tokens, phrase) -> list[int]:
    """Every position where the phrase starts, by comparing each window."""
    n = len(phrase)
    return [p for p in range(len(tokens) - n + 1) if list(tokens[p : p + n]) == list(phrase)]
