"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas with
plain loops, no shared code with the package under test, except five
kept replacements: :func:`objective_per_query`, the query-by-query
training objective on the package's kernel, the reference for the
stacked one; the document scanners that the positional-index reads
replaced (:func:`find_candidates_scan`, :func:`balog2_scan`,
:func:`petkova_scan`); the ingest that the compact index replaced
(:func:`ingest_scan`), on the package's data types; and the per-entity
preparation and ``count`` baseline that one featurizer call per query
replaced (:func:`prepare_per_entity`, :func:`count_per_entity`).  Slow
is fine; these run on small instances only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict

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


def rank_deciles(scores) -> np.ndarray:
    """Decile of each context's rank position under descending raw score:
    position p (0-based, ties broken by original index) maps to
    floor(10 p / n), clamped to [0, 9].  Returned per original index."""
    s = np.asarray(scores, dtype=float)
    n = s.shape[0]
    order = np.lexsort((np.arange(n), -s))
    deciles = np.minimum((10 * np.arange(n)) // n, 9)
    out = np.empty(n, dtype=int)
    out[order] = deciles
    return out


def entity_score(spec, weights, features) -> float:
    """The package's former ranking scorer, one entity at a time.

    Raw scores come from the BLAS product F @ w, whose bits for a row
    depend on where the row sits in F; each operator's terms are then
    summed in sorted order.
    """
    s = np.asarray(features, dtype=float) @ np.asarray(weights, dtype=float)
    if spec.operator == "softor":
        value = -np.expm1(np.sum(np.sort(-np.logaddexp(0.0, s))))
        return float(min(value, np.nextafter(1.0, 0.0)))
    if spec.operator == "softcutoff":
        terms = np.asarray(spec.decay, dtype=float)[rank_deciles(s)] * s
        return float(np.sum(np.sort(terms)))
    if spec.transform == "exp":
        values = np.exp(np.clip(s, -500.0, 500.0))
    elif spec.transform == "log1p":
        values = np.log1p(s)
    elif spec.transform == "indicator":
        values = (s > 0.0).astype(float)
    else:
        values = s
    total = float(np.sum(np.sort(values)))
    return total / s.shape[0] if spec.operator == "avg" else total


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


def _dense_cutoff_program(per_query, ridge: float):
    """Cost, constraint matrix and bounds of the dense cutoff program:
    the ten decay values, then one slack per pair (pairs in ``per_query``
    order), each slack weighted 1/|pairs| of its query."""
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
    return cost, a_ub, b_ub


def cutoff_decay_dense(per_query, ridge: float) -> np.ndarray:
    """Decile decay minimizing :func:`cutoff_objective_direct`, from a linear
    program whose constraint matrix is dense and filled row by row.

    The solution is snapped onto the non-negative, non-increasing cone.
    """
    cost, a_ub, b_ub = _dense_cutoff_program(per_query, ridge)
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"dense cutoff program failed: {result.message}")
    decay = np.asarray(result.x[:10], dtype=float)
    return np.minimum.accumulate(np.maximum(decay, 0.0))


def cutoff_decay_range(per_query, ridge: float, ceiling: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest value of each decay entry over the feasible
    points of the dense program whose objective is at most ``ceiling``.

    With ``ceiling`` a hair above the optimum, a narrow range in every
    entry means the optimal decay is unique; a degenerate optimum (a face
    of tied decays) shows as a wide one.
    """
    cost, a_ub, b_ub = _dense_cutoff_program(per_query, ridge)
    a_ub = np.vstack([a_ub, cost])
    b_ub = np.append(b_ub, ceiling)
    lo, hi = np.zeros(10), np.zeros(10)
    for r in range(10):
        unit = np.zeros(cost.shape[0])
        unit[r] = 1.0
        for sign, out in ((1.0, lo), (-1.0, hi)):
            result = linprog(sign * unit, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
            if not result.success:
                raise RuntimeError(f"decay range program failed: {result.message}")
            out[r] = result.x[r]
    return lo, hi


def cutoff_decay_least(per_query, ridge: float, ceiling: float) -> np.ndarray:
    """Decay with the least total sum(decay) over the feasible points of
    the dense program whose objective is at most ``ceiling``: with
    ``ceiling`` a hair above the optimum, the optimal decay that the
    least-total-decay tie-break selects.  Snapped like
    :func:`cutoff_decay_dense`."""
    cost, a_ub, b_ub = _dense_cutoff_program(per_query, ridge)
    total = np.zeros(cost.shape[0])
    total[:10] = 1.0
    result = linprog(
        total, A_ub=np.vstack([a_ub, cost]), b_ub=np.append(b_ub, ceiling),
        bounds=(0.0, None), method="highs",
    )
    if not result.success:
        raise RuntimeError(f"least-decay program failed: {result.message}")
    return np.minimum.accumulate(np.maximum(result.x[:10], 0.0))


# -- training objective, query by query -------------------------------------------


def regularization_per_block(weights, layout, config) -> tuple[float, np.ndarray]:
    """Ridge on plain features and neighbor smoothness on grid-shaped
    blocks, with the ridge mask and block ranges rebuilt on every call
    and each block's differences taken on its 2-D reshape."""
    w = np.asarray(weights, dtype=float)
    grad = np.zeros_like(w)
    lam2 = config.ridge_width**2
    smooth_ranges = []
    if layout is not None:
        rows, cols = layout.grid_shape
        for family in ("grid", "rectangle"):
            if layout.has(family):
                start = layout.family_offset(family)
                smooth_ranges.append((start, start + rows * cols, rows, cols))
    ridge_mask = np.ones(w.shape[0], dtype=bool)
    for start, stop, _, _ in smooth_ranges:
        ridge_mask[start:stop] = False

    value = float(np.sum(w[ridge_mask] ** 2)) / (2.0 * lam2)
    grad[ridge_mask] += w[ridge_mask] / lam2

    for start, stop, rows, cols in smooth_ranges:
        block = w[start:stop].reshape(rows, cols)
        dv = block[1:, :] - block[:-1, :]
        dh = block[:, 1:] - block[:, :-1]
        value += config.smooth_weight * (float(np.sum(dv**2)) + float(np.sum(dh**2))) / (2.0 * lam2)
        gg = np.zeros_like(block)
        gg[1:, :] += dv
        gg[:-1, :] -= dv
        gg[:, 1:] += dh
        gg[:, :-1] -= dh
        grad[start:stop] += (config.smooth_weight / lam2) * gg.ravel()
    return value, grad


def objective_per_query(weights, prepared, spec, config, layout=None) -> tuple[float, np.ndarray]:
    """The pairwise training objective and its gradient, one query at a
    time: each query's pairs drawn by ``pair_sample``, scored through its
    own kernel call, their soft hinges summed in sorted order and divided
    by the pair count, and the per-query terms added in query-id order."""
    from proxrank.aggregators import context_scores, segment_aggregate
    from proxrank.training import pair_sample, regularization, soft_hinge

    w = np.asarray(weights, dtype=float)
    loss = 0.0
    grad = np.zeros_like(w)
    for pq in sorted(prepared, key=lambda p: p.query_id):
        if not pq.trainable:
            continue
        gi, bi = pair_sample(len(pq.good), len(pq.bad), config.pair_cap, config.seed, pq.query_id)
        good_idx = np.asarray(pq.good, dtype=int)[gi]
        bad_idx = np.asarray(pq.bad, dtype=int)[bi]
        segments = np.repeat(np.arange(pq.n_entities), np.diff(pq.offsets))
        V, build = segment_aggregate(spec, context_scores(w, pq.stack), pq.offsets, segments)
        sh, sig = soft_hinge(1.0 + V[bad_idx] - V[good_idx])
        loss += float(np.sum(np.sort(sh))) / sh.shape[0]
        entity_coef = np.zeros(pq.n_entities)
        np.add.at(entity_coef, bad_idx, sig)
        np.add.at(entity_coef, good_idx, -sig)
        entity_coef /= sh.shape[0]
        grad += pq.stack.T @ build(entity_coef)
    reg_value, reg_grad = regularization(w, layout, config)
    return loss + reg_value, grad + reg_grad


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


# -- document scanners ---------------------------------------------------------
#
# Retrieval and the two language-model baselines as they read documents
# before the positional index served them: every mention of every
# candidate document is visited and every occurrence compared, each
# baseline window is counted token by token, and the positional model
# masks the whole document once per term.


def context_scan(document, mention, occurrences, window):
    """The context of one mention from every occurrence of every term;
    ``occurrences`` maps term text to (token length, start positions)."""
    from proxrank.corpus import Context

    matches = {}
    for text, (length, positions) in occurrences.items():
        best = None
        for p in positions:
            if p + length <= mention.start:
                d = mention.start - (p + length - 1)
            elif p >= mention.end:
                d = p - (mention.end - 1)
            else:
                d = 1
            if d <= window and (best is None or d < best):
                best = d
        if best is not None:
            matches[text] = best
    if not matches:
        return None
    lo = max(0, mention.start - window)
    hi = min(len(document.tokens), mention.end + window)
    offset = (mention.start + mention.end - 1) // 2
    return Context(
        doc_id=document.doc_id,
        entity_id=mention.entity_id,
        mention_offset=offset,
        window=(lo, hi),
        matches=matches,
    )


def find_candidates_scan(index, query, config=None):
    """Candidate entities and contexts from a visit of every mention of
    every document that holds a query term."""
    from proxrank.corpus import (
        BEST_PER_DOCUMENT,
        CandidateSet,
        RetrievalConfig,
        _best_per_entity,
    )

    config = config or RetrievalConfig()
    for term in query.distinct_terms():
        index.phrase_df(term.tokens)
    terms = query.distinct_terms()

    term_docs = {
        t.text: {d for d, doc in index.documents.items() if phrase_starts_brute(doc.tokens, t.tokens)}
        for t in terms
    }
    cand_docs = set()
    for docs in term_docs.values():
        cand_docs |= docs
    for t in terms:
        if t.required:
            cand_docs &= term_docs[t.text]

    check_type = bool(query.target_type) and bool(index.entity_types)
    support = defaultdict(list)
    for doc_id in sorted(cand_docs):
        doc = index.documents[doc_id]
        occurrences = {
            t.text: (len(t.tokens), phrase_starts_brute(doc.tokens, t.tokens)) for t in terms
        }
        here = []
        for mention in doc.mentions:
            if check_type and query.target_type not in index.entity_types.get(
                mention.entity_id, frozenset()
            ):
                continue
            ctx = context_scan(doc, mention, occurrences, config.window)
            if ctx is not None:
                here.append(ctx)
        if config.granularity == BEST_PER_DOCUMENT:
            here = _best_per_entity(index.stats, query, here)
        for ctx in here:
            support[ctx.entity_id].append(ctx)

    for contexts in support.values():
        contexts.sort(key=lambda c: (c.doc_id, c.mention_offset))
    return CandidateSet(query_id=query.query_id, support=dict(sorted(support.items())))


def _query_unigrams(query) -> dict[str, int]:
    counts = {}
    for term in query.terms:
        for tok in term.text.split():
            counts[tok] = counts.get(tok, 0) + 1
    return counts


def balog2_scan(index, query, contexts, smoothing=0.5) -> float:
    """Balog's model 2 with each context window's tokens counted."""
    stats = index.stats
    counts_q = _query_unigrams(query)
    clen = max(stats.collection_len, 1)
    scores = []
    for ctx in contexts:
        lo, hi = ctx.window
        tokens = index.documents[ctx.doc_id].tokens[lo:hi]
        counts = Counter(tokens)
        length = max(len(tokens), 1)
        log_prob = 0.0
        for term, n in counts_q.items():
            p = (1.0 - smoothing) * counts.get(term, 0) / length
            p += smoothing * stats.cf.get(term, 0) / clen
            if p <= 0.0:
                log_prob = -math.inf
                break
            log_prob += n * math.log(p)
        scores.append(math.exp(log_prob) if log_prob > -math.inf else 0.0)
    return float(np.sum(np.sort(np.asarray(scores))))


def positional_distribution_scan(tokens, center, width, terms) -> dict[str, float]:
    """The Gaussian-kernel term distribution, each term's mass taken
    through a mask over the whole token array."""
    positions = np.arange(len(tokens), dtype=float)
    kernel = np.exp(-((positions - float(center)) ** 2) / (2.0 * width * width))
    denom = float(kernel.sum())
    out = {}
    token_arr = np.asarray(tokens, dtype=object)
    for term in terms:
        mask = token_arr == term
        numer = float(kernel[mask].sum()) if mask.any() else 0.0
        out[term] = numer / denom if denom > 0.0 else 0.0
    return out


def petkova_scan(index, query, contexts, kernel_width=25.0, smoothing=0.5) -> float:
    """Petkova and Croft's positional baseline over masked documents."""
    stats = index.stats
    counts_q = _query_unigrams(query)
    terms = sorted(counts_q)
    clen = max(stats.collection_len, 1)
    per_term = {t: [] for t in terms}
    for ctx in contexts:
        tokens = index.documents[ctx.doc_id].tokens
        positional = positional_distribution_scan(tokens, ctx.mention_offset, kernel_width, terms)
        for t in terms:
            p = (1.0 - smoothing) * positional[t] + smoothing * stats.cf.get(t, 0) / clen
            per_term[t].append(p)
    log_prob = 0.0
    for t in terms:
        mean_p = float(np.sum(np.sort(np.asarray(per_term[t])))) / len(contexts)
        if mean_p <= 0.0:
            return 0.0
        log_prob += counts_q[t] * math.log(mean_p)
    return math.exp(log_prob)


# -- ingest --------------------------------------------------------------------


def ingest_scan(records, catalog=None):
    """The index as ingest built it before it was made compact: one
    lowercased string per token occurrence, positions from ``enumerate``,
    list postings grown one token at a time."""
    from itertools import islice

    from proxrank.corpus import (
        CorpusError,
        CorpusIndex,
        CorpusStats,
        _parse_catalog,
        _parse_record,
    )

    documents = {}
    postings = defaultdict(dict)
    doc_len = {}
    cf = defaultdict(int)

    for lineno, rec in enumerate(records, 1):
        rec = _parse_record(rec, lineno)
        if rec is None:
            continue
        try:
            doc = _document_scan(rec)
        except CorpusError as exc:
            raise CorpusError(f"record {lineno}: {exc}") from None
        if doc.doc_id in documents:
            raise CorpusError(f"record {lineno}: duplicate doc_id {doc.doc_id!r}")
        documents[doc.doc_id] = doc
        doc_len[doc.doc_id] = len(doc.tokens)
        known = len(postings)
        for pos, tok in enumerate(doc.tokens):
            postings[tok].setdefault(doc.doc_id, []).append(pos)
            cf[tok] += 1
        bad = [t for t in islice(reversed(postings), len(postings) - known) if t.split() != [t]]
        if bad:
            k = min(doc.tokens.index(t) for t in bad)
            raise CorpusError(
                f"record {lineno}: doc {doc.doc_id!r}: token {k} is empty or contains "
                f"whitespace: {doc.tokens[k]!r}"
            )

    stats = CorpusStats(
        num_docs=len(documents),
        df={t: len(d) for t, d in postings.items()},
        cf=dict(cf),
        collection_len=sum(doc_len.values()),
        doc_len=doc_len,
    )
    entity_types = _parse_catalog(catalog) if catalog is not None else {}
    return CorpusIndex(documents, dict(postings), stats, entity_types)


def _document_scan(rec):
    from collections.abc import Mapping

    from proxrank.corpus import CorpusError, Document, Mention

    doc_id = rec.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError("missing or invalid doc_id")
    tokens = rec.get("tokens")
    if not isinstance(tokens, list) or any(not isinstance(t, str) for t in tokens):
        raise CorpusError(f"doc {doc_id!r}: tokens must be a list of strings")
    mentions = []
    for m in rec.get("mentions", []):
        if not isinstance(m, Mapping):
            raise CorpusError(f"doc {doc_id!r}: mention must be an object")
        try:
            mention = Mention(
                entity_id=str(m["entity_id"]), start=int(m["start"]), end=int(m["end"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"doc {doc_id!r}: bad mention record: {exc}") from None
        mentions.append(mention)
    doc = Document(doc_id=doc_id, tokens=[t.lower() for t in tokens], mentions=mentions)
    doc.validate()
    return doc


def prepare_per_entity(index, queries, judgments, layout, retrieval=None, bm25=None):
    """``prepare_queries`` as it was before one featurizer call covered a
    whole query: one ``context_matrix`` call per candidate entity."""
    from proxrank.corpus import RetrievalConfig, find_candidates
    from proxrank.features import Bm25Params, context_matrix
    from proxrank.training import PreparedQuery

    retrieval = retrieval or RetrievalConfig()
    bm25 = bm25 or Bm25Params()
    out = []
    for query in queries:
        candidates = find_candidates(index, query, retrieval)
        entity_ids = sorted(candidates.support)
        matrices = [
            context_matrix(index, query, candidates.support[eid], layout, bm25)
            for eid in entity_ids
        ]
        out.append(
            PreparedQuery.from_matrices(
                query.query_id,
                entity_ids,
                matrices,
                judgments.good_for(query.query_id),
                judgments.bad_for(query.query_id),
            )
        )
    return out


def count_per_entity(index, qc, bm25=None):
    """The ``count`` baseline's ranking as it was before one featurizer
    call covered a whole query: one ``context_matrix`` and one
    ``aggregate_score`` call per candidate entity."""
    from proxrank.aggregators import aggregate_score
    from proxrank.cli import count_model
    from proxrank.evaluation import rank_entities
    from proxrank.features import Bm25Params, context_matrix

    bm25 = bm25 or Bm25Params()
    count = count_model()
    scores = {
        eid: aggregate_score(
            count.spec,
            count.weights,
            context_matrix(index, qc.query, qc.support[eid], count.layout, bm25),
        )
        for eid in sorted(qc.support)
    }
    return rank_entities(qc.query_id, scores)
