"""Knowledge-graph dataset handling: triple files, vocabularies, graph extension.

Triple files are UTF-8 text with one fact per line, three tab-separated
fields ``head<TAB>relation<TAB>tail``. Splits are held as (n, 3) integer
arrays of dense ids. The training graph is extended with one inverse edge
per triple and one self-loop per entity before message passing:

* raw relation r keeps id r,
* its inverse gets id r + M,
* a single shared self-loop relation gets id 2M,

so the extended relation count is M' = 2M + 1 and |T'| = 2|T_train| + N.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array

from .seeding import substream

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")
# edge chunks of each aggregation pass (see `entity_updater`). At NELL23K
# shape (E = 73,815, d = 100, B = 256) a DistMult step's workspace is 22.14M,
# 14.76M, 11.74M and 11.74M cells and its traced backward peak 372, 314, 290
# and 292 MB at 1, 2, 4 and 8 chunks: from 4 on the head's 2 B N sets the
# workspace, and more chunks only add index arrays and calls
AGGREGATION_CHUNKS = 4


class Vocabulary:
    """Deterministic name<->id bijections for entities and relations.

    Ids are dense and assigned by first occurrence, so building from the same
    files in the same order always reproduces the same mapping.
    """

    def __init__(self):
        self.entities: list[str] = []
        self.relations: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self._relation_ids: dict[str, int] = {}

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def add_entity(self, name: str) -> int:
        eid = self._entity_ids.get(name)
        if eid is None:
            eid = len(self.entities)
            self._entity_ids[name] = eid
            self.entities.append(name)
        return eid

    def add_relation(self, name: str) -> int:
        rid = self._relation_ids.get(name)
        if rid is None:
            rid = len(self.relations)
            self._relation_ids[name] = rid
            self.relations.append(name)
        return rid

    def entity_id(self, name: str) -> int:
        if name not in self._entity_ids:
            raise KeyError(f"unknown entity: {name!r}")
        return self._entity_ids[name]

    def extended_relation_name(self, rid: int) -> str:
        """Name for an extended relation id (inverses suffixed, self-loop named)."""
        m = self.num_relations
        if rid < m:
            return self.relations[rid]
        if rid < 2 * m:
            return self.relations[rid - m] + "^-1"
        if rid == 2 * m:
            return "<self>"
        raise IndexError(f"extended relation id out of range: {rid}")

    def digest(self) -> str:
        """Stable hash of the id assignment, for checkpoint/dataset pairing."""
        h = hashlib.sha256()
        for name in self.entities:
            h.update(name.encode("utf-8") + b"\x00")
        h.update(b"\x01")
        for name in self.relations:
            h.update(name.encode("utf-8") + b"\x00")
        return h.hexdigest()


def load_split(path, vocab: Vocabulary) -> np.ndarray:
    """Parse one triple file into an (n, 3) id array, extending `vocab` in place.

    Raises ValueError with the offending line number when a line does not have
    exactly three tab-separated fields or is not UTF-8. An empty file yields an
    empty array.
    """
    path = Path(path)
    rows = []
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
                head, rel, tail = fields
                rows.append((vocab.add_entity(head), vocab.add_relation(rel),
                             vocab.add_entity(tail)))
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}:{_first_line_not_utf8(path)}: not UTF-8 ({err.reason})") from None
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def _first_line_not_utf8(path: Path) -> int | None:
    """The number of the first line of `path`, counted as `load_split` counts
    them, that holds a byte sequence UTF-8 cannot decode."""
    # undecodable bytes come back as lone surrogates, which no line of UTF-8 holds
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if any("\udc80" <= char <= "\udcff" for char in line):
                return lineno
    return None


@dataclass
class TripleStore:
    """The three evaluation splits as id triples (disjoint as fact sets)."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def splits(self):
        return {"train": self.train, "valid": self.valid, "test": self.test}


def load_dataset(directory) -> tuple[TripleStore, Vocabulary]:
    """Load train/valid/test triple files from a directory.

    Vocabulary ids follow first occurrence in train, then valid, then test.
    """
    directory = Path(directory)
    vocab = Vocabulary()
    splits = []
    for fname in SPLIT_FILES:
        path = directory / fname
        if not path.exists():
            raise FileNotFoundError(f"missing split file: {path}")
        splits.append(load_split(path, vocab))
    return TripleStore(*splits), vocab


def export_split(path, triples: np.ndarray, vocab: Vocabulary):
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for h, r, t in triples.tolist():
            fh.write(f"{vocab.entities[h]}\t{vocab.relations[r]}\t{vocab.entities[t]}\n")


def export_dataset(directory, store: TripleStore, vocab: Vocabulary):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, arr in zip(SPLIT_FILES, (store.train, store.valid, store.test)):
        export_split(directory / fname, arr, vocab)


def group_answers(src: np.ndarray, rel: np.ndarray, ans: np.ndarray):
    """Distinct (source, relation) pairs with the sorted, unique answers of each, as CSR.

    Returns the pairs' sources and relations in lexicographic order, P + 1
    starts and one flat answer array: pair p's answers are
    answers[starts[p]:starts[p + 1]], sorted and unique.
    """
    order = np.lexsort((ans, rel, src))
    src, rel, ans = src[order], rel[order], ans[order]
    new_pair = np.ones(src.shape[0], dtype=bool)
    new_pair[1:] = (src[1:] != src[:-1]) | (rel[1:] != rel[:-1])
    distinct = new_pair.copy()
    distinct[1:] |= ans[1:] != ans[:-1]
    src, rel, ans, new_pair = src[distinct], rel[distinct], ans[distinct], new_pair[distinct]
    firsts = np.flatnonzero(new_pair)
    return src[firsts], rel[firsts], np.append(firsts, ans.shape[0]), ans


def _out_edge_order(src: np.ndarray, rel: np.ndarray, tgt: np.ndarray,
                    num_entities: int, num_relations: int):
    """Edge ids sorted by (src, rel, tgt), and a mask of sorted neighbours that are equal.

    One argsort of the packed key (src * M' + rel) * N + tgt, which is exact
    while its largest value fits int64 (checked in Python ints); past that
    bound `np.lexsort` sorts the three columns, about ten times slower.
    """
    if int(num_entities) ** 2 * int(num_relations) <= np.iinfo(np.int64).max:
        key = (src * num_relations + rel) * num_entities + tgt
        order = np.argsort(key)
        key = key[order]
        return order, key[1:] == key[:-1]
    order = np.lexsort((tgt, rel, src))
    s, r, t = src[order], rel[order], tgt[order]
    return order, (s[1:] == s[:-1]) & (r[1:] == r[:-1]) & (t[1:] == t[:-1])


def _reject_duplicates(train: np.ndarray, repeats: np.ndarray):
    """Raise ValueError on the first training row that repeats an earlier one.

    `repeats` marks equal neighbours among the sorted raw and inverse edges; a
    repeated triple repeats its raw edge, so none marked means none repeated.
    """
    if not repeats.any():
        return
    order = np.lexsort((train[:, 2], train[:, 1], train[:, 0]))  # stable: ties keep row order
    ordered = train[order]
    repeat = np.all(ordered[1:] == ordered[:-1], axis=1)
    if repeat.any():
        later, earlier = order[1:][repeat], order[:-1][repeat]
        k = int(np.argmin(later))
        h, r, t = train[later[k]].tolist()
        raise ValueError(
            f"duplicate training triple (head {h}, relation {r}, tail {t}) "
            f"at rows {earlier[k]} and {later[k]}")


def _incidence(rows: np.ndarray, num_rows: int) -> csr_array:
    """CSR matrix with a unit entry at (rows[e], e); each row keeps column order."""
    num_cols = rows.shape[0]
    return csr_array((np.ones(num_cols), (rows, np.arange(num_cols))), shape=(num_rows, num_cols))


class ExtendedGraph:
    """Training triples plus inverses and self-loops, indexed for aggregation.

    Edges are stored as parallel arrays (src, rel, tgt) in a fixed order:
    raw training triples, then their inverses, then one self-loop per entity.
    `in_degree` counts extended edges per target, so it is at least 1
    everywhere; `norm_coeff[e] = 1 / sqrt(in_degree[src] * in_degree[tgt])`
    is the symmetric scaling used during aggregation.

    Aggregation scatters through CSR incidence matrices with unit entries,
    each row listing its edges in edge order. `tgt_incidence` (N x E, entry
    (tgt[e], e)) covers every edge; `in_edges(entity)` reads a row of it.
    The edges are also cut into AGGREGATION_CHUNKS chunks in edge order,
    `chunk_bounds` holding each chunk's (lo, hi) with the bounds at
    E * i // AGGREGATION_CHUNKS and empty chunks dropped; chunk c has
    `src_chunks[c]` (N x (hi - lo), entry (src[e], e - lo)), `tgt_chunks[c]`
    (the same with tgt) and `rel_chunks[c]` (M' x (hi - lo), entry
    (rel[e], e - lo)).

    Path search reads `out_edges(entity)`: the raw and inverse edges (ids
    below 2|T_train|, so no self-loop) grouped by source and sorted by
    (relation, target), from one argsort made here. A duplicated training
    triple would count its edge twice, so it is rejected; the same sort finds it.
    """

    def __init__(self, train: np.ndarray, num_entities: int, num_raw_relations: int):
        if train.shape[0] == 0:
            raise ValueError("cannot extend an empty training split")
        n, m = num_entities, num_raw_relations
        self.num_entities = n
        self.num_raw_relations = m
        self.num_relations = 2 * m + 1
        self.self_loop_id = 2 * m

        heads, rels, tails = train[:, 0], train[:, 1], train[:, 2]
        loop = np.arange(n, dtype=np.int64)
        self.edge_src = np.concatenate([heads, tails, loop])
        self.edge_rel = np.concatenate([rels, rels + m, np.full(n, self.self_loop_id, dtype=np.int64)])
        self.edge_tgt = np.concatenate([tails, heads, loop])
        self.num_edges = self.edge_src.shape[0]

        hop_edges = slice(0, 2 * train.shape[0])  # raw and inverse: the edges a path may take
        order, repeats = _out_edge_order(self.edge_src[hop_edges], self.edge_rel[hop_edges],
                                         self.edge_tgt[hop_edges], n, self.num_relations)
        _reject_duplicates(train, repeats)
        self._out_order = order
        self._out_start = np.searchsorted(self.edge_src[order], np.arange(n + 1))

        self.in_degree = np.bincount(self.edge_tgt, minlength=n).astype(np.float64)
        self.norm_coeff = 1.0 / np.sqrt(self.in_degree[self.edge_src] * self.in_degree[self.edge_tgt])
        self.tgt_incidence = _incidence(self.edge_tgt, n)
        bounds = [self.num_edges * i // AGGREGATION_CHUNKS for i in range(AGGREGATION_CHUNKS + 1)]
        self.chunk_bounds = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
        self.src_chunks = [_incidence(self.edge_src[lo:hi], n) for lo, hi in self.chunk_bounds]
        self.tgt_chunks = [_incidence(self.edge_tgt[lo:hi], n) for lo, hi in self.chunk_bounds]
        self.rel_chunks = [_incidence(self.edge_rel[lo:hi], self.num_relations)
                           for lo, hi in self.chunk_bounds]

    def out_edges(self, entity: int) -> np.ndarray:
        """Ids of the raw and inverse edges out of `entity`, sorted by (relation, target)."""
        return self._out_order[self._out_start[entity]:self._out_start[entity + 1]]

    def in_edges(self, entity: int) -> np.ndarray:
        """Ids of all edges into `entity`, its self-loop included, in edge order."""
        incidence = self.tgt_incidence
        return incidence.indices[incidence.indptr[entity]:incidence.indptr[entity + 1]]


def extend_triples(store: TripleStore, vocab: Vocabulary) -> ExtendedGraph:
    return ExtendedGraph(store.train, vocab.num_entities, vocab.num_relations)


@dataclass
class DegreeReport:
    """Dataset size and sparsity statistics.

    `avg_out_degree`/`median_out_degree` are computed over entities that head
    at least one training triple, which is the convention the sparse-KG
    benchmark tables use. The `*_incl_isolated` variants divide by all N
    entities, counting zero out-degrees.
    """

    num_entities: int
    num_relations: int
    num_train: int
    num_valid: int
    num_test: int
    avg_out_degree: float
    median_out_degree: float
    avg_out_degree_incl_isolated: float
    median_out_degree_incl_isolated: float
    entities_missing_from_train: int
    relations_missing_from_train: int
    valid_triples_with_missing: int
    test_triples_with_missing: int

    @property
    def num_total(self) -> int:
        return self.num_train + self.num_valid + self.num_test

    def as_dict(self) -> dict:
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "train": self.num_train,
            "valid": self.num_valid,
            "test": self.num_test,
            "total": self.num_total,
            "avg_out_degree": round(self.avg_out_degree, 4),
            "median_out_degree": self.median_out_degree,
            "avg_out_degree_incl_isolated": round(self.avg_out_degree_incl_isolated, 4),
            "median_out_degree_incl_isolated": self.median_out_degree_incl_isolated,
            "entities_missing_from_train": self.entities_missing_from_train,
            "relations_missing_from_train": self.relations_missing_from_train,
            "valid_triples_with_missing": self.valid_triples_with_missing,
            "test_triples_with_missing": self.test_triples_with_missing,
        }

    def lines(self) -> list[str]:
        return _aligned_lines(self.as_dict())


def _aligned_lines(items: dict) -> list[str]:
    """One `key  value` line per item, with the values in one column."""
    width = max(len(k) for k in items)
    return [f"{k:<{width}}  {v}" for k, v in items.items()]


def _missing_from_train(train: np.ndarray, store: TripleStore, vocab: Vocabulary):
    """Masks of the entities and relations absent from `train`, and of the
    valid and test triples of `store` that use at least one of them."""
    missing_entities = np.ones(vocab.num_entities, dtype=bool)
    missing_relations = np.ones(vocab.num_relations, dtype=bool)
    if train.size:
        missing_entities[train[:, 0]] = False
        missing_entities[train[:, 2]] = False
        missing_relations[train[:, 1]] = False

    def uses_missing(arr: np.ndarray) -> np.ndarray:
        if not arr.size:
            return np.zeros(0, dtype=bool)
        return missing_entities[arr[:, 0]] | missing_entities[arr[:, 2]] | missing_relations[arr[:, 1]]

    return missing_entities, missing_relations, uses_missing(store.valid), uses_missing(store.test)


def _train_coverage(train: np.ndarray, store: TripleStore, vocab: Vocabulary) -> dict[str, int]:
    """Entities and relations absent from `train`, and the valid and test
    triples of `store` that use at least one of them."""
    counts = [int(mask.sum()) for mask in _missing_from_train(train, store, vocab)]
    return dict(zip(("entities_missing_from_train", "relations_missing_from_train",
                     "valid_triples_with_missing", "test_triples_with_missing"), counts))


def unseen_in_train_warning(store: TripleStore, vocab: Vocabulary) -> str | None:
    """One line on the valid and test triples that use an entity or relation
    absent from training (those `_train_coverage` counts), naming the first by
    split and row; None if none does."""
    _, _, valid_rows, test_rows = _missing_from_train(store.train, store, vocab)
    num_valid, num_test = int(valid_rows.sum()), int(test_rows.sum())
    if not num_valid + num_test:
        return None
    split, rows, triples = ("valid", valid_rows, store.valid) if num_valid else ("test", test_rows, store.test)
    row = int(np.argmax(rows))
    h, r, t = triples[row].tolist()
    return (f"{num_valid} valid and {num_test} test triples use entities or relations absent "
            f"from training; the first is {split} row {row}: "
            f"({vocab.entities[h]}, {vocab.relations[r]}, {vocab.entities[t]})")


def degree_report(store: TripleStore, vocab: Vocabulary) -> DegreeReport:
    """Sparsity statistics of the training split (out-degree based) and the
    valid/test coverage that training lacks."""
    counts = np.bincount(store.train[:, 0], minlength=vocab.num_entities) if store.train.size \
        else np.zeros(vocab.num_entities, dtype=np.int64)
    heads = counts[counts > 0]
    return DegreeReport(
        num_entities=vocab.num_entities,
        num_relations=vocab.num_relations,
        num_train=store.train.shape[0],
        num_valid=store.valid.shape[0],
        num_test=store.test.shape[0],
        avg_out_degree=float(heads.mean()) if heads.size else 0.0,
        median_out_degree=float(np.median(heads)) if heads.size else 0.0,
        avg_out_degree_incl_isolated=float(counts.mean()) if counts.size else 0.0,
        median_out_degree_incl_isolated=float(np.median(counts)) if counts.size else 0.0,
        **_train_coverage(store.train, store, vocab),
    )


@dataclass
class SparsifyReport:
    """Coverage summary after uniform training-triple removal."""

    kept_train: int
    dropped_train: int
    entities_missing_from_train: int
    relations_missing_from_train: int
    valid_triples_with_missing: int
    test_triples_with_missing: int

    def lines(self) -> list[str]:
        return _aligned_lines(asdict(self))


def sparsify_subset(store: TripleStore, keep_fraction: float, seed: int,
                    vocab: Vocabulary) -> tuple[TripleStore, SparsifyReport]:
    """Uniformly keep floor(keep_fraction * |train|) training triples.

    Valid and test pass through unchanged; entities or relations that end up
    absent from the kept training split are only reported, never dropped.
    A fraction that keeps no triple raises ValueError: nothing can train on
    the result. Deterministic for a fixed seed.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    n_train = store.train.shape[0]
    n_keep = int(np.floor(keep_fraction * n_train))
    if n_keep == 0:
        raise ValueError(f"keep_fraction {keep_fraction} keeps no triple of the "
                         f"{n_train} training triples")
    if keep_fraction == 1.0:
        kept = store.train.copy()
    else:
        rng = substream(seed, "sparsify")
        picked = np.sort(rng.choice(n_train, size=n_keep, replace=False))
        kept = store.train[picked]
    report = SparsifyReport(kept_train=n_keep, dropped_train=n_train - n_keep,
                            **_train_coverage(kept, store, vocab))
    return TripleStore(kept, store.valid.copy(), store.test.copy()), report
