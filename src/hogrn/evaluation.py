"""Filtered ranking metrics for link prediction.

Every (s, r, t) test triple becomes a tail query, and in the default "both"
mode also a head query phrased through the inverse relation id r + M. Known
true answers from any split (a `FilterIndex`: packed pair keys, CSR starts
and one flat answer array) are removed from the candidate set except the
gold one, and ties share their rank (rank = 1 + #better + #ties / 2) so a
constant scorer cannot look artificially good. `oracle_rank` re-derives a
single rank with plain Python loops and is kept free of any code shared with
the vectorized path; tests compare the two routes. `evaluate_split` scores
and ranks blocks of queries on up to two threads (`parallel`), and every
rank it gives equals `oracle_rank`'s. A TransE score's bits do not depend on
the block. A DistMult GEMM's do, so each rival within an error band of the
gold score (`_distmult_band`) is re-scored with the gold in the oracle's
order (`_ordered_scores`), and the block layout is free.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import parallel
from .kgdata import TripleStore, Vocabulary, group_answers
from .scoring import SCORE_HEADS, score_all_tails

DIRECTIONS = ("both", "tail")

_EMPTY = np.empty(0, dtype=np.int64)

# score cells per evaluation block: 1 << 21 float64 scores are 16 MB. The
# 512-query DistMult pass at FB15K-237-10% shape (N = 11,512, d = 100, two
# workers) took 25.1, 21.3, 21.3 and 25.3 ms (median of 58 alternated passes,
# 2-core Xeon VM, one BLAS thread) at 1 << 19, 20, 21 and 22 cells: blocks of
# 43, 86, 128 and 256 rows in each run of 256 queries
BLOCK_CELLS = 1 << 21
_UNIT = 2.0 ** -53  # unit roundoff of float64


@dataclass
class EvalReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    num_queries: int
    direction: str
    ranks: np.ndarray | None = None

    def as_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits1": self.hits1,
            "hits3": self.hits3,
            "hits10": self.hits10,
            "num_queries": self.num_queries,
            "direction": self.direction,
        }

    def lines(self) -> list[str]:
        # scaled by 100 for display, matching how these numbers are usually quoted
        return [
            f"queries:  {self.num_queries} (direction: {self.direction})",
            f"MRR:      {100.0 * self.mrr:.2f}",
            f"Hits@1:   {100.0 * self.hits1:.2f}",
            f"Hits@3:   {100.0 * self.hits3:.2f}",
            f"Hits@10:  {100.0 * self.hits10:.2f}",
        ]


class FilterIndex(Mapping):
    """Known answers of (source, relation) queries in three flat, read-only arrays.

    `pairs` holds each distinct pair as the packed key src * 2M + rel, in
    ascending order, so relation ids run over [0, 2M) with head queries under
    the inverse id r + M. Pair p's answers are answers[starts[p]:starts[p + 1]],
    sorted and unique (`kgdata.group_answers`), which the ranker's subtraction
    of known rivals relies on. `spans` looks up a column of queries with one
    `searchsorted`; `get` and `[]` return one pair's answers as a read-only
    view, and iteration gives (src, rel) tuples of Python ints, as the keys of
    a dict would. At FB15K-237-10% shape it holds about 87k pairs in 2.4 MB
    (tracemalloc), where a dict of one array per pair held 21.7 MB.
    """

    def __init__(self, src: np.ndarray, rel: np.ndarray, answers: np.ndarray,
                 num_raw_relations: int):
        src, rel, answers = (np.asarray(a, dtype=np.int64) for a in (src, rel, answers))
        if src.ndim != 1 or rel.shape != src.shape or answers.shape != src.shape:
            raise ValueError(f"filter index needs three equal 1-D id arrays, got shapes "
                             f"{src.shape}, {rel.shape} and {answers.shape}")
        width = 2 * num_raw_relations
        if src.size and (min(src.min(), rel.min(), answers.min()) < 0 or rel.max() >= width):
            raise ValueError(f"filter index ids out of range: relations must lie in "
                             f"[0, {width}) and entities must not be negative")
        src, rel, self.starts, self.answers = group_answers(src, rel, answers)
        self.pairs = src * width + rel
        self.num_raw_relations = num_raw_relations
        for array in (self.pairs, self.starts, self.answers):
            array.flags.writeable = False

    def spans(self, src: np.ndarray, rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and end in `answers` of each (src[i], rel[i]) query's answers.

        A pair that is absent, or whose relation lies outside [0, 2M) and so
        would pack into a neighbouring source's key, spans nothing.
        """
        src, rel = np.asarray(src, dtype=np.int64), np.asarray(rel, dtype=np.int64)
        width = 2 * self.num_raw_relations
        key = src * width + rel
        pos = np.searchsorted(self.pairs, key)
        found = (src >= 0) & (rel >= 0) & (rel < width) & (pos < self.pairs.size)
        found[found] = self.pairs[pos[found]] == key[found]
        return self.starts[pos], self.starts[pos + found]

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        src, rel = key
        (first,), (last,) = self.spans(np.array([src]), np.array([rel]))
        if first == last:  # every pair present has at least one answer
            raise KeyError(key)
        return self.answers[first:last]

    def __iter__(self):
        width = 2 * self.num_raw_relations
        return zip((self.pairs // width).tolist(), (self.pairs % width).tolist())

    def __len__(self) -> int:
        return self.pairs.size


def build_filter_index(store: TripleStore, vocab: Vocabulary) -> FilterIndex:
    """Known answers per (source, relation) query over all three splits.

    Head queries are keyed by the inverse relation id, so one index serves
    both directions.
    """
    num_raw = len(vocab.relations)
    facts = np.concatenate(list(store.splits().values()), dtype=np.int64)
    return FilterIndex(np.concatenate([facts[:, 0], facts[:, 2]]),
                       np.concatenate([facts[:, 1], facts[:, 1] + num_raw]),
                       np.concatenate([facts[:, 2], facts[:, 0]]), num_raw)


def _rank_block(scores: np.ndarray, gold: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                answers: np.ndarray, band: np.ndarray | None = None,
                rescore=None) -> np.ndarray:
    """Filtered tie-averaged rank of `gold[i]` in each row `scores[i]`.

    Row i's known answers are answers[starts[i]:ends[i]]. Without `band`,
    `>` and `==` are counted on the scores as given. With it, a rival more
    than band[i] above or below the gold score of row i is counted from the
    scores; the rivals within the band, and the gold, are compared on
    `rescore(rows, ids)`, their values at (row, id) pairs. Each row is
    counted over all N candidates as two 1-D compares, then the same counts
    over the row's known answers other than its gold are subtracted, so each
    span must hold unique ids. The (row, answer) pairs of the whole block are
    gathered from the spans at once.
    """
    if gold.size and (gold.min() < 0 or gold.max() >= scores.shape[1]):
        raise IndexError(f"gold entity out of range: {gold.min()}..{gold.max()}")
    num_rows = gold.shape[0]
    rows = np.arange(num_rows)
    top = bottom = scores[rows, gold]
    if band is not None:
        # a float above fl(g + b) is above g + b, and one below fl(g - b) is below g - b
        top, bottom = top + band, top - band
    above = np.empty(num_rows, dtype=np.int64)
    at_least = np.empty(num_rows, dtype=np.int64)
    for i, row in enumerate(scores):
        above[i] = np.count_nonzero(row > top[i])
        at_least[i] = np.count_nonzero(row >= bottom[i])
    lengths = ends - starts
    known_row = np.repeat(rows, lengths)
    # an entry's place in `answers`: its span's start plus its place in the span
    offset = starts - (np.cumsum(lengths) - lengths)
    known_col = answers[offset[known_row] + np.arange(known_row.shape[0])]
    rival = known_col != gold[known_row]
    known_row, known_col = known_row[rival], known_col[rival]
    known_score = scores[known_row, known_col]
    above -= np.bincount(known_row[known_score > top[known_row]], minlength=num_rows)
    at_least -= np.bincount(known_row[known_score >= bottom[known_row]], minlength=num_rows)
    inside = at_least - above - 1  # unknown rivals within the band; the gold is in it
    if rescore is None:
        return 1.0 + above + 0.5 * inside
    near = np.flatnonzero(inside)
    ids = []
    for i in near:
        row = scores[i]
        cand = np.flatnonzero((row >= bottom[i]) & (row <= top[i]))
        ids.append(cand[(cand != gold[i]) & ~np.isin(cand, answers[starts[i]:ends[i]])])
    sizes = [c.shape[0] for c in ids]
    values = rescore(np.concatenate([near, np.repeat(near, sizes)]),
                     np.concatenate([gold[near], _EMPTY, *ids]))
    pair_row = np.repeat(near, sizes)
    pair_gold = np.repeat(values[:near.shape[0]], sizes)
    pair_value = values[near.shape[0]:]
    greater = np.bincount(pair_row[pair_value > pair_gold], minlength=num_rows)
    ties = np.bincount(pair_row[pair_value == pair_gold], minlength=num_rows)
    return 1.0 + above + greater + 0.5 * ties


def _distmult_band(query: np.ndarray, gold_norm: np.ndarray, max_norm: float) -> np.ndarray:
    """Per query row, a band b: a rival whose GEMM score is more than b above
    (below) the gold's has an ordered re-score above (below) the gold's.

    A d-term dot product summed in any order, with or without FMA, is within
    gamma_d sum_k |q_k h_k| + d eta of the exact value (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §3.1): gamma_d = d u / (1 - d u),
    u = 2^-53, and eta = 2^-1074 covers products that underflow. A GEMM score
    and an ordered re-score are both that close to the exact value, and
    sum_k |q_k h_k| <= ||q|| ||h_j|| (Cauchy-Schwarz), so the gap between a
    rival's score and the gold's moves by at most
    2 gamma_d ||q|| (||h_j|| + ||h_g||) + 4 d eta, with ||h_j|| <= max_j ||h_j||.
    A computed norm n of a d-vector bounds ||x|| <= (n + delta) / ((1 - u)
    sqrt(1 - gamma_d)) with delta = d 2^-537 >= sqrt(d eta), for its rounded
    squares, sum and root, so two computed norms in a product take a factor
    of at most 1 + gamma_{2d+2}, and gamma_d (1 + gamma_{2d+2}) <= gamma_{3d+2}.
    The band's own arithmetic rounds eight times: gamma_{3d+10} >=
    gamma_{3d+2} (1 - u)^-8 covers those, and twice the absolute term covers
    the last addition and a product that underflows.
    """
    dim = query.shape[1]
    m = 3 * dim + 10
    factor = 2.0 * m * _UNIT / (1.0 - m * _UNIT)
    delta = dim * 2.0 ** -537
    query_norm = np.sqrt(np.einsum("ij,ij->i", query, query))
    return (factor * (query_norm + delta) * (max_norm + gold_norm + 2.0 * delta)
            + dim * 2.0 ** -1071)


def _ordered_scores(query: np.ndarray, h: np.ndarray, rows: np.ndarray,
                    ids: np.ndarray) -> np.ndarray:
    """DistMult scores of the (query row, entity) pairs, summed in coordinate order.

    Each product is formed as (h_s * z_r) * h_t and the sum starts from 0.0,
    as `oracle_rank` forms them, so the values do not depend on the block,
    the thread count or the BLAS build.
    """
    products = query[rows] * h[ids]
    total = np.zeros(rows.shape[0])
    for column in products.T:
        total += column
    return total


def filtered_rank(scores: np.ndarray, gold: int, known: np.ndarray) -> float:
    """Tie-averaged rank of the gold entity after masking other known answers."""
    scores = np.asarray(scores, dtype=np.float64)
    known = np.unique(np.asarray(known, dtype=np.int64))
    return float(_rank_block(scores[None, :], np.array([gold]), np.array([0]),
                             np.array([known.shape[0]]), known)[0])


def num_candidates(num_entities: int, gold: int, known: np.ndarray) -> int:
    allowed = np.ones(num_entities, dtype=bool)
    allowed[known] = False
    allowed[gold] = True
    return int(np.count_nonzero(allowed))


def evaluate_split(
    head: str,
    h: np.ndarray,
    z: np.ndarray,
    triples: np.ndarray,
    filter_index: FilterIndex,
    num_raw_relations: int,
    direction: str = "both",
    keep_ranks: bool = False,
) -> EvalReport:
    """Filtered MRR and Hits@k over a split, scored and ranked in blocks.

    Queries are taken in order, a triple's tail query before its head query,
    and cut into parallel.WORKERS runs of equal query count. Each run scores
    its queries in equal blocks of at most BLOCK_CELLS // N rows, into one
    (rows, N) buffer that this thread allocates, and ranks each block into its
    own slice of the ranks. TransE ranks are plain counts on the `cdist`
    scores, whose bits do not depend on the block. A DistMult GEMM's bits do,
    so its near-ties are decided on ordered re-scores (`_distmult_band`,
    `_ordered_scores`); the band reads the largest entity norm, whose squares
    are summed in entity runs on the workers. Every rank thus equals
    `oracle_rank`'s, whatever the block layout or worker count. Every
    query's answer span is looked up in `filter_index` at once
    (`FilterIndex.spans`), and the index must be built for
    `num_raw_relations` raw relations.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if head not in SCORE_HEADS:
        raise ValueError(f"unknown score head: {head!r}")
    if not isinstance(filter_index, FilterIndex):
        raise TypeError(f"filter_index must be a FilterIndex (see build_filter_index), "
                        f"got {type(filter_index).__name__}")
    if filter_index.num_raw_relations != num_raw_relations:
        raise ValueError(f"filter index built for {filter_index.num_raw_relations} raw "
                         f"relations, split ranked with {num_raw_relations}")
    triples = np.asarray(triples, dtype=np.int64)
    if triples.shape[0] == 0:
        raise ValueError("cannot evaluate an empty split")
    src, rel, gold = triples[:, 0], triples[:, 1], triples[:, 2]
    if direction == "both":
        # interleave each tail query with its head query
        src, rel, gold = (np.column_stack(pair).ravel()
                          for pair in ((src, gold), (rel, rel + num_raw_relations), (gold, src)))
    num_queries, num_entities = src.shape[0], h.shape[0]
    # before the band reads a gold norm
    if gold.min() < 0 or gold.max() >= num_entities:
        raise IndexError(f"gold entity out of range: {gold.min()}..{gold.max()}")
    starts, ends = filter_index.spans(src, rel)
    answers = filter_index.answers
    if head == "distmult":
        # sqrt is monotone, so the largest norm is the root of the largest square
        squares = np.empty(num_entities)

        def square_part(lo, hi):
            np.einsum("ij,ij->i", h[lo:hi], h[lo:hi], out=squares[lo:hi])

        parallel.run(square_part, parallel.cuts(num_entities, 1, h.shape[1]))
        max_norm = np.sqrt(squares.max())
    ranks = np.empty(num_queries, dtype=np.float64)
    max_rows = max(1, BLOCK_CELLS // num_entities)
    bounds = parallel.cuts(num_queries, 1, h.size)
    # one score buffer per run, as many rows as its equal blocks, allocated on
    # this thread so that the pool thread allocates no (rows, N) block
    buffers = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            blocks = -(-(hi - lo) // max_rows)
            buffers[lo] = np.empty((-(-(hi - lo) // blocks), num_entities))

    def part(lo, hi):
        buffer = buffers[lo]
        step = buffer.shape[0]
        for start in range(lo, hi, step):
            block = slice(start, min(start + step, hi))
            scores = score_all_tails(head, h, z, src[block], rel[block],
                                     out=buffer[:block.stop - start])
            known = starts[block], ends[block], answers
            if head == "transe":
                ranks[block] = _rank_block(scores, gold[block], *known)
                continue
            query = h[src[block]] * z[rel[block]]
            band = _distmult_band(query, np.sqrt(squares[gold[block]]), max_norm)
            ranks[block] = _rank_block(scores, gold[block], *known, band,
                                       partial(_ordered_scores, query, h))

    parallel.run(part, bounds)
    return EvalReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits1=float(np.mean(ranks <= 1.0)),
        hits3=float(np.mean(ranks <= 3.0)),
        hits10=float(np.mean(ranks <= 10.0)),
        num_queries=num_queries,
        direction=direction,
        ranks=ranks if keep_ranks else None,
    )


def constant_baseline_mrr(
    triples: np.ndarray,
    filter_index: FilterIndex,
    num_entities: int,
    num_raw_relations: int,
    direction: str = "both",
) -> float:
    """MRR of a scorer that ties every candidate: mean of 2 / (C_q + 1).

    With C_q filtered candidates all tied, the shared rank is (C_q + 1) / 2.
    Useful as an analytic chance floor.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    recip = []
    for s, r, t in np.asarray(triples, dtype=np.int64):
        known = filter_index.get((int(s), int(r)), _EMPTY)
        recip.append(2.0 / (num_candidates(num_entities, int(t), known) + 1))
        if direction == "both":
            known = filter_index.get((int(t), int(r) + num_raw_relations), _EMPTY)
            recip.append(2.0 / (num_candidates(num_entities, int(s), known) + 1))
    return float(np.mean(recip))


def oracle_rank(
    head: str,
    h: np.ndarray,
    z: np.ndarray,
    src: int,
    rel: int,
    gold: int,
    known: np.ndarray,
) -> float:
    """Brute-force filtered rank for one query.

    Scores every candidate with per-coordinate Python arithmetic and counts
    comparisons directly. Slow on purpose; shares no scoring or ranking code
    with `evaluate_split`.
    """
    if head not in ("transe", "distmult"):
        raise ValueError(f"unknown score head: {head!r}")
    excluded = {int(k) for k in np.asarray(known).ravel()}
    excluded.discard(int(gold))
    dim = h.shape[1]

    def one(t: int) -> float:
        total = 0.0
        if head == "transe":
            for i in range(dim):
                total -= abs(h[src, i] + z[rel, i] - h[t, i])
        else:
            for i in range(dim):
                total += h[src, i] * z[rel, i] * h[t, i]
        return total

    gold_score = one(int(gold))
    greater = 0
    ties = 0
    for t in range(h.shape[0]):
        if t == gold or t in excluded:
            continue
        s = one(t)
        if s > gold_score:
            greater += 1
        elif s == gold_score:
            ties += 1
    return 1.0 + greater + 0.5 * ties
