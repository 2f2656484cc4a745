"""Seeded knowledge graphs with the published sizes of the sparse-KG benchmarks.

`PUBLISHED` copies the dataset table of the package README. `write_dataset`
turns one row of it into `train.txt`, `valid.txt` and `test.txt`:

* entity, relation and split counts equal the row exactly;
* out-degrees of the entities that head a training triple follow a
  power law whose median equals the row's median and whose mean is
  train / round(train / avg), so within 0.5 / heads of the row's average;
* tails and relations are Zipf-popular, so some entities are hubs;
* every entity and relation occurs in train, no triple repeats, and valid
  and test are disjoint from train and from each other.

The same (shape, seed) always writes the same files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    name: str
    entities: int
    relations: int
    train: int
    valid: int
    test: int
    avg_out_degree: float
    median_out_degree: int

    @property
    def heads(self) -> int:
        return int(round(self.train / self.avg_out_degree))


PUBLISHED = {
    "NELL23K": Shape("NELL23K", 22_925, 200, 25_445, 4_961, 4_952, 2.21, 1),
    "WD-singer": Shape("WD-singer", 10_282, 135, 16_142, 2_163, 2_203, 2.35, 2),
    "FB15K-237-10%": Shape("FB15K-237-10%", 11_512, 237, 27_211, 15_624, 18_150, 5.84, 4),
}

# A few hundred triples: every workload runs in about a second on it.
TINY = Shape("tiny", 240, 8, 600, 60, 60, 2.5, 2)


@dataclass
class Generated:
    """Id triples as written (ids are the generator's, not the loader's)."""

    shape: Shape
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf popularity over n items in a random rank order, normalised."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    w = w[rng.permutation(n)]
    return w / w.sum()


def head_degrees(num_heads: int, total: int, median: int, cap: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Pareto-tailed integer degrees >= 1 with the given median and sum.

    Degrees are round(y) with y Pareto-distributed around median - 0.25, so the
    integer median is `median`. The tail index is bisected until the sum is as
    close to `total` as the draw allows; the largest degrees then absorb the
    remainder, which leaves the median unchanged.
    """
    if not num_heads <= total <= num_heads * cap:
        raise ValueError(f"cannot spread {total} triples over {num_heads} heads capped at {cap}")
    u = 1.0 - rng.random(num_heads)  # (0, 1]

    def draw(shape_index: float) -> np.ndarray:
        y = (median - 0.25) * u ** (-1.0 / shape_index) / 2.0 ** (1.0 / shape_index)
        return np.clip(np.rint(y), 1, cap).astype(np.int64)

    lo, hi = 1.01, 20.0  # heavier tail at lo, so a larger sum
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if draw(mid).sum() > total:
            lo = mid
        else:
            hi = mid
    degrees = draw(hi)
    order = np.argsort(-degrees, kind="stable")
    diff = total - int(degrees.sum())
    step = 1 if diff > 0 else -1
    i = 0
    while diff != 0:
        e = order[i % num_heads]
        if (step > 0 and degrees[e] < cap) or (step < 0 and degrees[e] > median + 1):
            degrees[e] += step
            diff -= step
        i += 1
    return degrees


def _resolve_conflicts(h, r, t, fixed_r, fixed_t, weights_t, weights_r, forbidden, rng):
    """Redraw tails (or relations) until (h, r, t) rows are distinct, loop-free and allowed.

    Rows whose tail and relation are both fixed are kept in preference to
    others, so coverage placements survive.
    """
    n = h.shape[0]
    num_entities = weights_t.shape[0]
    num_rel = weights_r.shape[0]
    priority = fixed_r.astype(np.int64) + fixed_t.astype(np.int64)
    for _ in range(1000):
        key = (h * num_rel + r) * num_entities + t
        order = np.lexsort((-priority, key))
        dup = np.zeros(n, dtype=bool)
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = dup | (h == t)
        if forbidden is not None:
            bad |= np.isin(key, forbidden)
        idx = np.flatnonzero(bad)
        if idx.size == 0:
            return
        free_t = idx[~fixed_t[idx]]
        t[free_t] = rng.choice(num_entities, size=free_t.size, p=weights_t)
        only_r = idx[fixed_t[idx] & ~fixed_r[idx]]
        r[only_r] = rng.choice(num_rel, size=only_r.size, p=weights_r)
        if (fixed_t[idx] & fixed_r[idx]).any():
            raise RuntimeError("conflict between two coverage placements")
    raise RuntimeError("could not draw distinct triples")


def generate(shape: Shape, seed: int) -> Generated:
    rng = np.random.default_rng([seed, sum(map(ord, shape.name))])
    n, m = shape.entities, shape.relations
    num_heads = shape.heads
    weights_t = _zipf_weights(n, 0.9, rng)
    weights_r = _zipf_weights(m, 1.0, rng)

    heads = np.sort(rng.choice(n, size=num_heads, replace=False))
    cap = max(shape.median_out_degree + 2, shape.train // 50)
    degrees = head_degrees(num_heads, shape.train, shape.median_out_degree, cap, rng)
    h = np.repeat(heads, degrees)
    total = h.shape[0]

    # every entity that heads nothing appears once as a tail; every relation once
    is_head = np.zeros(n, dtype=bool)
    is_head[heads] = True
    tail_only = np.flatnonzero(~is_head)
    t = rng.choice(n, size=total, p=weights_t)
    fixed_t = np.zeros(total, dtype=bool)
    slots = rng.choice(total, size=tail_only.size, replace=False)
    t[slots] = tail_only
    fixed_t[slots] = True
    r = rng.choice(m, size=total, p=weights_r)
    fixed_r = np.zeros(total, dtype=bool)
    slots = rng.choice(np.flatnonzero(~fixed_t), size=m, replace=False)
    r[slots] = np.arange(m)
    fixed_r[slots] = True
    _resolve_conflicts(h, r, t, fixed_r, fixed_t, weights_t, weights_r, None, rng)
    train = np.stack([h, r, t], axis=1)[rng.permutation(total)]

    # held-out triples: heads weighted by training out-degree, unseen as facts
    head_weights = np.zeros(n)
    head_weights[heads] = degrees
    head_weights /= head_weights.sum()
    held = shape.valid + shape.test
    hh = rng.choice(n, size=held, p=head_weights)
    rr = rng.choice(m, size=held, p=weights_r)
    tt = rng.choice(n, size=held, p=weights_t)
    no_fix = np.zeros(held, dtype=bool)
    train_keys = np.unique((train[:, 0] * m + train[:, 1]) * n + train[:, 2])
    _resolve_conflicts(hh, rr, tt, no_fix, no_fix, weights_t, weights_r, train_keys, rng)
    held_out = np.stack([hh, rr, tt], axis=1)
    return Generated(shape, train, held_out[:shape.valid], held_out[shape.valid:])


def write_dataset(directory, shape: Shape, seed: int) -> Generated:
    """Generate one dataset and write its three split files into `directory`."""
    gen = generate(shape, seed)
    write_triples(directory, gen.train, gen.valid, gen.test,
                  [f"e{i}" for i in range(shape.entities)],
                  [f"r{j}" for j in range(shape.relations)])
    return gen


def write_triples(directory, train, valid, test, entity_names, relation_names):
    """Write id triples as `train.txt`, `valid.txt` and `test.txt` under the given names."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, arr in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        lines = [f"{entity_names[a]}\t{relation_names[b]}\t{entity_names[c]}\n"
                 for a, b, c in np.asarray(arr).tolist()]
        (directory / fname).write_text("".join(lines), encoding="utf-8")
