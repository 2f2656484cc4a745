from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hogrn import parallel
from hogrn.evaluation import FilterIndex
from hogrn.kgdata import ExtendedGraph, TripleStore, Vocabulary


def make_store(train, valid=(), test=()):
    """Build (TripleStore, Vocabulary) from name triples, ids by first occurrence."""
    vocab = Vocabulary()

    def to_ids(rows):
        ids = [(vocab.add_entity(h), vocab.add_relation(r), vocab.add_entity(t))
               for h, r, t in rows]
        return np.asarray(ids, dtype=np.int64).reshape(-1, 3)

    return TripleStore(to_ids(train), to_ids(valid), to_ids(test)), vocab


def index_of(known, num_raw):
    """A FilterIndex of the answers that the dict `known` gives each (src, rel) pair."""
    rows = [(s, r, t) for (s, r), answers in known.items() for t in np.asarray(answers).tolist()]
    src, rel, answers = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return FilterIndex(src, rel, answers, num_raw)


def edge_id(graph, src, rel, tgt):
    """Id of the extended edge (src, rel, tgt), found by a scan of the edge arrays."""
    (edge,) = np.flatnonzero(
        (graph.edge_src == src) & (graph.edge_rel == rel) & (graph.edge_tgt == tgt))
    return int(edge)


def star_store(leaves=30):
    """Hub source s and hub target t joined through `leaves` leaves, plus a direct edge
    and a leaf chain, so both hubs have in- and out-degree above `leaves`. The last row
    gives l0 a second edge into t whose relation id (r1) is below that of its first (r2)."""
    triples = [("s", "r3", "t")]
    for i in range(leaves):
        triples += [("s", "r1", f"l{i}"), (f"l{i}", "r2", "t"), ("t", "r1", f"l{i}")]
        if i + 1 < leaves:
            triples.append((f"l{i}", "r1", f"l{i + 1}"))
    return make_store(triples + [("l0", "r1", "t")])


@pytest.fixture
def six_dataset():
    """6 entities, 3 raw relations, all present in train; used for FD and invariants."""
    return make_store(
        train=[
            ("a", "r1", "b"),
            ("b", "r2", "c"),
            ("c", "r3", "d"),
            ("d", "r1", "e"),
            ("e", "r2", "f"),
            ("a", "r3", "c"),
            ("b", "r1", "d"),
            ("f", "r3", "a"),
        ],
        valid=[("a", "r2", "d"), ("b", "r3", "e")],
        test=[("c", "r1", "f"), ("d", "r2", "a")],
    )


@pytest.fixture
def six_graph(six_dataset):
    store, vocab = six_dataset
    return ExtendedGraph(store.train, vocab.num_entities, vocab.num_relations)


@pytest.fixture
def write_dataset(tmp_path):
    """Writes name triples as a dataset directory and returns its path."""

    def _write(train, valid, test, name="data"):
        directory = tmp_path / name
        directory.mkdir(parents=True, exist_ok=True)
        for fname, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
            with (directory / fname).open("w", encoding="utf-8") as fh:
                for h, r, t in rows:
                    fh.write(f"{h}\t{r}\t{t}\n")
        return directory

    return _write


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(n) makes parallel.run split into n parts on n threads.

    The inline threshold is 0, so the tests' tiny loops split too.
    """
    pools = []
    monkeypatch.setattr(parallel, "INLINE_CELLS", 0)

    def use(n):
        pool = ThreadPoolExecutor(n - 1) if n > 1 else None
        pools.append(pool)
        monkeypatch.setattr(parallel, "WORKERS", n)
        monkeypatch.setattr(parallel, "_pool", pool)

    yield use
    for pool in pools:
        if pool is not None:
            pool.shutdown()
