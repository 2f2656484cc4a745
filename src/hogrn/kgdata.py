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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array

from .seeding import substream

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


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

    def relation_id(self, name: str) -> int:
        if name not in self._relation_ids:
            raise KeyError(f"unknown relation: {name!r}")
        return self._relation_ids[name]

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
    exactly three tab-separated fields. An empty file yields an empty array.
    """
    path = Path(path)
    rows = []
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
            rows.append((vocab.add_entity(head), vocab.add_relation(rel), vocab.add_entity(tail)))
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


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
    """Distinct (source, relation) pairs with the sorted, unique answers of each.

    Returns the pairs' sources and relations in lexicographic order, and a
    list holding each pair's answers as one int array.
    """
    order = np.lexsort((ans, rel, src))
    src, rel, ans = src[order], rel[order], ans[order]
    new_pair = np.ones(src.shape[0], dtype=bool)
    new_pair[1:] = (src[1:] != src[:-1]) | (rel[1:] != rel[:-1])
    distinct = new_pair.copy()
    distinct[1:] |= ans[1:] != ans[:-1]
    src, rel, ans, new_pair = src[distinct], rel[distinct], ans[distinct], new_pair[distinct]
    starts = np.flatnonzero(new_pair)
    ends = np.append(starts[1:], ans.shape[0])
    # plain slices: np.split costs about four times as much per group
    answers = [ans[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    return src[starts], rel[starts], answers


def _reject_duplicates(train: np.ndarray, num_entities: int, num_relations: int):
    """Raise ValueError on the first training row that repeats an earlier one."""
    # equal triples pack to equal keys (even if the product wraps), so no
    # repeated key means no repeated triple
    key = np.sort((train[:, 0] * num_relations + train[:, 1]) * num_entities + train[:, 2])
    if not np.any(key[1:] == key[:-1]):
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

    Aggregation scatters through three CSR incidence matrices with unit
    entries, each row listing its edges in edge order: `tgt_incidence`
    (N x E, entry (tgt[e], e)), `endpoint_incidence` (N x 2E, entries
    (src[e], e) and (tgt[e], E + e)) and `rel_incidence` (M' x E, entry
    (rel[e], e)). A duplicated training triple would count its edge twice,
    so it is rejected.
    """

    def __init__(self, train: np.ndarray, num_entities: int, num_raw_relations: int):
        if train.shape[0] == 0:
            raise ValueError("cannot extend an empty training split")
        _reject_duplicates(train, num_entities, num_raw_relations)
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

        self.in_degree = np.bincount(self.edge_tgt, minlength=n).astype(np.float64)
        self.norm_coeff = 1.0 / np.sqrt(self.in_degree[self.edge_src] * self.in_degree[self.edge_tgt])
        self.tgt_incidence = _incidence(self.edge_tgt, n)
        self.endpoint_incidence = _incidence(np.concatenate([self.edge_src, self.edge_tgt]), n)
        self.rel_incidence = _incidence(self.edge_rel, self.num_relations)

        self._edge_positions = None
        self._out_adjacency = None

    def edge_position(self, src: int, rel: int, tgt: int) -> int:
        if self._edge_positions is None:
            self._edge_positions = {
                (s, r, t): e
                for e, (s, r, t) in enumerate(
                    zip(self.edge_src.tolist(), self.edge_rel.tolist(), self.edge_tgt.tolist()))
            }
        return self._edge_positions[(src, rel, tgt)]

    def out_edges(self, entity: int) -> list[tuple[int, int]]:
        """Outgoing (extended relation, target) hops of `entity`, sorted, self-loops excluded."""
        if self._out_adjacency is None:
            adj = [[] for _ in range(self.num_entities)]
            for s, r, t in zip(self.edge_src.tolist(), self.edge_rel.tolist(), self.edge_tgt.tolist()):
                if r != self.self_loop_id:
                    adj[s].append((r, t))
            for hops in adj:
                hops.sort()
            self._out_adjacency = adj
        return self._out_adjacency[entity]


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
        }

    def lines(self) -> list[str]:
        d = self.as_dict()
        width = max(len(k) for k in d)
        return [f"{k:<{width}}  {v}" for k, v in d.items()]


def degree_report(store: TripleStore, vocab: Vocabulary) -> DegreeReport:
    """Sparsity statistics of the training split (out-degree based)."""
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
        return [
            f"kept_train                    {self.kept_train}",
            f"dropped_train                 {self.dropped_train}",
            f"entities_missing_from_train   {self.entities_missing_from_train}",
            f"relations_missing_from_train  {self.relations_missing_from_train}",
            f"valid_triples_with_missing    {self.valid_triples_with_missing}",
            f"test_triples_with_missing     {self.test_triples_with_missing}",
        ]


def sparsify_subset(store: TripleStore, keep_fraction: float, seed: int,
                    vocab: Vocabulary) -> tuple[TripleStore, SparsifyReport]:
    """Uniformly keep floor(keep_fraction * |train|) training triples.

    Valid and test pass through unchanged; entities or relations that end up
    absent from the kept training split are only reported, never dropped.
    Deterministic for a fixed seed.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    n_train = store.train.shape[0]
    n_keep = int(np.floor(keep_fraction * n_train))
    if keep_fraction == 1.0:
        kept = store.train.copy()
    else:
        rng = substream(seed, "sparsify")
        picked = np.sort(rng.choice(n_train, size=n_keep, replace=False))
        kept = store.train[picked]

    seen_entities = np.zeros(vocab.num_entities, dtype=bool)
    seen_relations = np.zeros(vocab.num_relations, dtype=bool)
    if kept.size:
        seen_entities[kept[:, 0]] = True
        seen_entities[kept[:, 2]] = True
        seen_relations[kept[:, 1]] = True

    def n_with_missing(arr: np.ndarray) -> int:
        if not arr.size:
            return 0
        bad = ~seen_entities[arr[:, 0]] | ~seen_entities[arr[:, 2]] | ~seen_relations[arr[:, 1]]
        return int(bad.sum())

    report = SparsifyReport(
        kept_train=n_keep,
        dropped_train=n_train - n_keep,
        entities_missing_from_train=int((~seen_entities).sum()),
        relations_missing_from_train=int((~seen_relations).sum()),
        valid_triples_with_missing=n_with_missing(store.valid),
        test_triples_with_missing=n_with_missing(store.test),
    )
    return TripleStore(kept, store.valid.copy(), store.test.copy()), report
