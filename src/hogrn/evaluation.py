"""Filtered ranking metrics for link prediction.

Every (s, r, t) test triple becomes a tail query, and in the default "both"
mode also a head query phrased through the inverse relation id r + M. Known
true answers from any split are removed from the candidate set except the
gold one, and ties share their rank (rank = 1 + #better + #ties / 2) so a
constant scorer cannot look artificially good. `oracle_rank` re-derives a
single rank with plain Python loops and is kept free of any code shared with
the vectorized path; tests compare the two routes. `evaluate_split` scores
and ranks whole blocks of queries on up to two threads (`parallel`), with
every score and rank bitwise that of one thread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .kgdata import TripleStore, Vocabulary, group_answers
from .scoring import SCORE_HEADS, score_all_tails

DIRECTIONS = ("both", "tail")

_EMPTY = np.empty(0, dtype=np.int64)

# score cells per evaluation block: 1 << 21 float64 scores are 16 MB
BLOCK_CELLS = 1 << 21


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


def build_filter_index(store: TripleStore, vocab: Vocabulary) -> dict[tuple[int, int], np.ndarray]:
    """Known answers per (source, relation) query over all three splits.

    Head queries are keyed by the inverse relation id, so one index serves
    both directions. Each answer array is sorted and unique, which the
    ranker's subtraction of known rivals relies on.
    """
    num_raw = len(vocab.relations)
    facts = np.concatenate(list(store.splits().values()), dtype=np.int64)
    src, rel, answers = group_answers(
        np.concatenate([facts[:, 0], facts[:, 2]]),
        np.concatenate([facts[:, 1], facts[:, 1] + num_raw]),
        np.concatenate([facts[:, 2], facts[:, 0]]))
    return dict(zip(zip(src.tolist(), rel.tolist()), answers))


def _rank_block(scores: np.ndarray, gold: np.ndarray, known: list[np.ndarray]) -> np.ndarray:
    """Filtered tie-averaged rank of `gold[i]` in each row `scores[i]`.

    Rivals are counted over all N candidates, then the same counts over the
    row's known answers other than its gold are subtracted, so every known
    array must hold unique ids.
    """
    if gold.size and (gold.min() < 0 or gold.max() >= scores.shape[1]):
        raise IndexError(f"gold entity out of range: {gold.min()}..{gold.max()}")
    rows = np.arange(gold.shape[0])
    gold_score = scores[rows, gold]
    greater = np.count_nonzero(scores > gold_score[:, None], axis=1)
    ties = np.count_nonzero(scores == gold_score[:, None], axis=1) - 1
    known_row = np.repeat(rows, [k.shape[0] for k in known])
    known_col = np.concatenate([_EMPTY, *known])
    rival = known_col != gold[known_row]
    known_row, known_col = known_row[rival], known_col[rival]
    known_score, row_gold = scores[known_row, known_col], gold_score[known_row]
    greater -= np.bincount(known_row[known_score > row_gold], minlength=rows.shape[0])
    ties -= np.bincount(known_row[known_score == row_gold], minlength=rows.shape[0])
    return 1.0 + greater + 0.5 * ties


def filtered_rank(scores: np.ndarray, gold: int, known: np.ndarray) -> float:
    """Tie-averaged rank of the gold entity after masking other known answers."""
    scores = np.asarray(scores, dtype=np.float64)
    known = np.unique(np.asarray(known, dtype=np.int64))
    return float(_rank_block(scores[None, :], np.array([gold]), [known])[0])


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
    filter_index: dict[tuple[int, int], np.ndarray],
    num_raw_relations: int,
    direction: str = "both",
    keep_ranks: bool = False,
) -> EvalReport:
    """Filtered MRR and Hits@k over a split, scored and ranked in blocks.

    Queries are taken in order, a triple's tail query before its head query,
    and scored BLOCK_CELLS // N at a time as one (B, N) block. The blocks are
    cut into parallel.WORKERS runs of whole blocks; each run scores its blocks
    in order into one score buffer that this thread allocates, and ranks them
    into its own slice of the ranks. A block has the same rows for any worker
    count, so every score and rank is bitwise that of one thread. The answer
    arrays of `filter_index` must hold unique ids, as `build_filter_index`'s do.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if head not in SCORE_HEADS:
        raise ValueError(f"unknown score head: {head!r}")
    triples = np.asarray(triples, dtype=np.int64)
    if triples.shape[0] == 0:
        raise ValueError("cannot evaluate an empty split")
    src, rel, gold = triples[:, 0], triples[:, 1], triples[:, 2]
    if direction == "both":
        # interleave each tail query with its head query
        src, rel, gold = (np.column_stack(pair).ravel()
                          for pair in ((src, gold), (rel, rel + num_raw_relations), (gold, src)))
    known = [filter_index.get(key, _EMPTY) for key in zip(src.tolist(), rel.tolist())]
    num_queries, num_entities = src.shape[0], h.shape[0]
    ranks = np.empty(num_queries, dtype=np.float64)
    rows = max(1, BLOCK_CELLS // num_entities)
    bounds = parallel.cuts(num_queries, rows, h.size)
    # one score buffer per run, allocated on this thread, so that the pool
    # thread allocates no (rows, N) block and a run faults its buffer in once
    buffers = {lo: np.empty((min(rows, hi - lo), num_entities))
               for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi}

    def part(lo, hi):
        buffer = buffers[lo]
        for start in range(lo, hi, rows):
            block = slice(start, min(start + rows, hi))
            scores = score_all_tails(head, h, z, src[block], rel[block],
                                     out=buffer[:block.stop - start])
            ranks[block] = _rank_block(scores, gold[block], known[block])

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
    filter_index: dict[tuple[int, int], np.ndarray],
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
