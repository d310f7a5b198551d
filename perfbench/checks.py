"""Reference computations the benchmark checks the program against.

Everything here is written apart from ``longspan``: plain Python and
numpy, no imports from the package.  Each ``check_*`` raises
:class:`CheckFailed` with a reason; the pure helpers return values.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the reference computation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# n-gram overlap, LCS, ROUGE
# ---------------------------------------------------------------------------


def grams(tokens, n):
    return Counter(zip(*(tokens[i:] for i in range(n))))


def overlap(cand, ref, n):
    """(clipped matches, candidate n-grams, reference n-grams)."""
    c, r = grams(cand, n), grams(ref, n)
    return sum((c & r).values()), sum(c.values()), sum(r.values())


def bigram_recall(sentence, reference):
    matched, _, total = overlap(sentence, reference, 2)
    return matched / total if total else 0.0


def lcs_len(a, b):
    """LCS length by the bit-parallel recurrence (Allison-Dix / Hyyro).

    A different algorithm from the row-by-row dynamic program, so the
    two cannot share a mistake.
    """
    if not a or not b:
        return 0
    masks = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")


def f1(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def rouge(cand, ref):
    """{'r1': (f1, recall), 'r2': ..., 'rl': ...} for one pair."""
    out = {}
    for key, n in (("r1", 1), ("r2", 2)):
        m, c, r = overlap(cand, ref, n)
        p, rec = (m / c if c else 0.0), (m / r if r else 0.0)
        out[key] = (f1(p, rec), rec)
    lcs = lcs_len(cand, ref)
    p, rec = (lcs / len(cand) if cand else 0.0), (lcs / len(ref) if ref else 0.0)
    out["rl"] = (f1(p, rec), rec)
    return out


def check_rouge_report(report, pairs, tol=1e-12):
    """Corpus means in an ``evaluate`` report equal the reference ROUGE."""
    require(report["documents"] == len(pairs),
            f"evaluate counted {report['documents']} pairs, expected {len(pairs)}")
    scores = [rouge(c, r) for c, r in pairs]
    for key in ("r1", "r2", "rl"):
        for slot, name in ((0, "f1"), (1, "recall")):
            want = sum(s[key][slot] for s in scores) / len(scores)
            got = report[key][name]
            require(abs(got - want) <= tol,
                    f"evaluate {key} {name} = {got!r}, reference gives {want!r}")


# ---------------------------------------------------------------------------
# ranking and the greedy budget walk
# ---------------------------------------------------------------------------


def descending(values):
    """Indices by descending value, ties to the smaller index."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


def rank_normalize(values):
    """(R - rank) / (R - 1) with rank 1 the best; a single value scores 1."""
    r = len(values)
    if r == 1:
        return [1.0]
    out = [0.0] * r
    for position, idx in enumerate(descending(values)):
        out[idx] = (r - 1 - position) / (r - 1)
    return out


def greedy_walk(order, lengths, budget):
    """Admit ranked sentences until the first overflow; restore order.

    Returns (kept indices, words used, first-sentence cut or None).
    """
    kept, used = [], 0
    for idx in order:
        if used + lengths[idx] > budget:
            break
        kept.append(idx)
        used += lengths[idx]
    if not kept and order:
        return [order[0]], budget, budget
    return sorted(kept), used, None


def check_selection(line, lengths, budget, want=None):
    """A ``select`` output line respects its budget (and equals ``want``)."""
    kept = line["kept_indices"]
    require(kept == sorted(set(kept)), f"{line['id']}: indices not strictly increasing")
    require(all(0 <= i < len(lengths) for i in kept), f"{line['id']}: index out of range")
    cut = line.get("first_sentence_cut")
    used = cut if cut is not None else sum(lengths[i] for i in kept)
    require(line["words_used"] == used,
            f"{line['id']}: words_used {line['words_used']} but kept sentences hold {used}")
    require(used <= budget, f"{line['id']}: {used} words overflow the budget of {budget}")
    if cut is not None:
        require(len(kept) == 1 and lengths[kept[0]] > budget,
                f"{line['id']}: first-sentence cut on a sentence that fits")
    if want is not None:
        got = (kept, line["words_used"], cut)
        require(got == want, f"{line['id']}: selection {got} but the walk gives {want}")


def check_fused(rows):
    """Score-dump rows of one document: fused = rank-normalised z_hat + attn_mass."""
    z = [r["z_hat"] for r in rows]
    a = [r["attn_mass"] for r in rows]
    want = [x + y for x, y in zip(rank_normalize(z), rank_normalize(a))]
    for row, w in zip(rows, want):
        require(abs(row["fused"] - w) <= 1e-12,
                f"{row['id']} sentence {row['sentence_index']}: fused {row['fused']!r}, "
                f"rank normalisation gives {w!r}")


def recall(kept, positive):
    return len(positive.intersection(kept)) / len(positive)


def random_recall(lengths_list, positives, budget, trials, seed):
    """Mean recall of uniformly random rankings under the same walk."""
    rng = np.random.default_rng(seed)
    rates = []
    for _ in range(trials):
        for lengths, positive in zip(lengths_list, positives):
            order = rng.permutation(len(lengths)).tolist()
            kept, _, _ = greedy_walk(order, lengths, budget)
            rates.append(recall(kept, positive))
    return float(np.mean(rates))


# ---------------------------------------------------------------------------
# banded attention
# ---------------------------------------------------------------------------


def check_attention_map(weights, window):
    """Rows sum to 1 within 1e-9; entries outside |i - j| <= W // 2 are exactly 0."""
    w = np.asarray(weights)
    require(w.ndim == 3 and w.shape[1] == w.shape[2], f"attention map has shape {w.shape}")
    worst = float(np.abs(w.sum(axis=-1) - 1.0).max())
    require(worst <= 1e-9, f"attention row sums deviate from 1 by {worst:.3e}")
    if window == "full":
        return
    n, half = w.shape[-1], int(window) // 2
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        require(not w[:, i, :lo].any() and not w[:, i, hi:].any(),
                f"attention row {i} has mass outside the band |i - j| <= {half}")


def positions(base, n):
    """Rows of a positional table tiled copy / flipped copy up to ``n``."""
    length = base.shape[0]
    rows = []
    for p in range(n):
        block, offset = divmod(p, length)
        rows.append(offset if block % 2 == 0 else length - 1 - offset)
    return base[rows]


def attention_rows(params, tokens, n_heads, window, rows):
    """Layer-0 encoder attention rows recomputed from the parameters.

    Returns an array [heads x len(rows) x N].
    """
    x = params["embed"][tokens] + positions(params["pos_enc"], len(tokens))
    n, d = x.shape
    dh = d // n_heads
    q = (x @ params["enc.0.attn.wq"] + params["enc.0.attn.bq"]).reshape(n, n_heads, dh)
    k = (x @ params["enc.0.attn.wk"] + params["enc.0.attn.bk"]).reshape(n, n_heads, dh)
    half = n if window == "full" else int(window) // 2
    out = np.zeros((n_heads, len(rows), n))
    for slot, i in enumerate(rows):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        for h in range(n_heads):
            s = k[lo:hi, h, :] @ q[i, h, :] / math.sqrt(dh)
            e = np.exp(s - s.max())
            out[h, slot, lo:hi] = e / e.sum()
    return out


def check_attention_rows(weights, params, tokens, n_heads, window, rows, tol=1e-12):
    want = attention_rows(params, tokens, n_heads, window, rows)
    got = np.asarray(weights)[:, rows, :]
    worst = float(np.abs(got - want).max())
    require(worst <= tol, f"layer-0 attention rows {rows} differ from the recomputation "
                          f"by {worst:.3e}")
