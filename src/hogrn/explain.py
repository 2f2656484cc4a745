"""Path explanations built from recorded aggregation attentions.

The share of a hop (layer k, edge e into target t) is |alpha_k[e]| divided by
the sum of |alpha_k| over t's in-edges, added in edge order; a target whose
attentions are all zero falls back to uniform weights, with a warning. A
prediction (source -> target) is explained by the simple paths between them
in the extended graph: hop k of a path is weighted by its layer-k share, and
the path score is the product of its hop weights. Self-loop edges never
appear in paths.

`normalize_attentions` computes every share of every layer. `explain` works
on the graph's edge arrays and its two edge indexes, both built with the
graph: paths are walked along `out_edges` and end at one of the target's
`in_edges`, and a hop's share sums only its target's in-edges. So a call,
the first one included, costs what its paths touch, not a pass over all edges.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kgdata import ExtendedGraph, Vocabulary


@dataclass(frozen=True)
class PathHop:
    src: int
    rel: int
    tgt: int
    edge: int
    weight: float


@dataclass(frozen=True)
class ExplainedPath:
    hops: tuple[PathHop, ...]
    score: float

    def __len__(self) -> int:
        return len(self.hops)


def _layer_attention(layer: int, alpha, graph: ExtendedGraph) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (graph.num_edges,):
        raise ValueError(
            f"layer {layer}: expected {graph.num_edges} attention values, got {alpha.shape}")
    return alpha


def normalize_attentions(attentions: list[np.ndarray], graph: ExtendedGraph) -> list[np.ndarray]:
    """Per-layer |attention| shares per target; rows of zeros become uniform.

    A target's denominator is the sum of |alpha| over its in-edges, added in
    edge order by `np.add.at` (at FB15K-237-10% shape faster than the
    int64-indexed target-incidence product, with the same bits). `explain`
    adds the same sum one hop target at a time.
    """
    normalized = []
    for layer, alpha in enumerate(attentions):
        weights = np.abs(_layer_attention(layer, alpha, graph))
        denom = np.zeros(graph.num_entities, dtype=np.float64)
        np.add.at(denom, graph.edge_tgt, weights)
        dead = denom == 0.0
        denom[dead] = 1.0  # a dead target's edges divide 0 by 1 here and are overwritten below
        weights /= denom[graph.edge_tgt]
        if dead.any():
            warnings.warn(
                f"layer {layer}: {int(dead.sum())} entity(ies) with all-zero attention; "
                "using uniform weights for their incoming edges")
            edge_dead = dead[graph.edge_tgt]
            weights[edge_dead] = 1.0 / graph.in_degree[graph.edge_tgt[edge_dead]]
        normalized.append(weights)
    return normalized


def _in_edge_total(graph: ExtendedGraph, layer: int, alpha: np.ndarray, entity: int):
    """Sum of |alpha| over the in-edges of `entity`, in edge order; None if it is 0.

    The edges are `graph.in_edges(entity)`, and `np.cumsum` adds them left
    to right, as `normalize_attentions` does (`np.sum` is pairwise and would
    change bits). A non-finite attention on one of these
    edges raises, naming the layer and the edge.
    """
    edges = graph.in_edges(entity)
    magnitudes = np.abs(alpha[edges])
    total = np.cumsum(magnitudes)[-1]  # every entity has its self-loop, so the row is never empty
    if not np.isfinite(total):
        bad = ~np.isfinite(magnitudes)
        if bad.any():
            edge = int(edges[np.argmax(bad)])
            raise ValueError(
                f"layer {layer}: attention of edge {edge} is {alpha[edge]}, not finite")
    if total == 0.0:
        warnings.warn(
            f"layer {layer}: entity {entity} has all-zero attention; "
            "using uniform weights for its incoming edges")
        return None
    return total


def enumerate_paths(
    graph: ExtendedGraph, source: int, target: int, max_len: int
) -> list[tuple[int, ...]]:
    """All simple paths source -> target with at most `max_len` hops.

    A path is the tuple of its edge ids, raw and inverse edges only.
    Depth-first along `graph.out_edges`, so the paths come in lexicographic
    order of their (src, extended relation, tgt) hops. The last hop is looked
    up among the target's in-edges, not searched for among a node's out-edges.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    for name, entity in (("source", source), ("target", target)):
        if not 0 <= entity < graph.num_entities:
            raise IndexError(f"{name} entity out of range: {entity}")
    if source == target:
        return []

    # The last hop: target's in-edges other than its self-loop, sorted by (source,
    # relation), and the set of their sources. A dict of per-source lists makes
    # about two objects per in-edge on every call; on the FB15K-237-10% inference
    # benchmark (2-core Xeon VM) that raised peak RSS by about 1.5 MB.
    last = graph.in_edges(target)
    last = last[graph.edge_rel[last] != graph.self_loop_id]
    last = last[np.lexsort((graph.edge_rel[last], graph.edge_src[last]))]
    last_src = graph.edge_src[last]
    into_target = set(last_src.tolist())

    paths: list[tuple[int, ...]] = []
    trail: list[int] = []
    visited = {source}

    def walk(node: int, depth: int):
        if depth + 1 == max_len:
            if node in into_target:
                lo, hi = np.searchsorted(last_src, (node, node + 1))
                for edge in last[lo:hi].tolist():
                    paths.append((*trail, edge))
            return
        edges = graph.out_edges(node)
        for edge, tgt in zip(edges.tolist(), graph.edge_tgt[edges].tolist()):
            if tgt == target:
                paths.append((*trail, edge))
            # a node one hop short of the limit is entered only if it has an edge into target
            elif tgt not in visited and (depth + 2 < max_len or tgt in into_target):
                trail.append(edge)
                visited.add(tgt)
                walk(tgt, depth + 1)
                visited.discard(tgt)
                trail.pop()

    walk(source, 0)
    return paths


def explain(
    graph: ExtendedGraph,
    attentions: list[np.ndarray],
    source: int,
    target: int,
    max_len: int | None = None,
    top_k: int | None = None,
) -> list[ExplainedPath]:
    """Scored simple paths from source to target, best first.

    Hop k of a path uses the layer-k attention record, so `max_len` cannot
    exceed the number of recorded layers. Ties in score fall back to the
    lexicographic hop order, keeping the result deterministic. Each weight
    is bitwise the one `normalize_attentions` gives its edge; the in-edge
    sums are made only for the hop targets, once per (layer, target).
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be positive, got {top_k}")
    num_layers = len(attentions)
    if max_len is None:
        max_len = num_layers
    if max_len > num_layers:
        raise ValueError(
            f"max_len {max_len} exceeds the {num_layers} recorded layer(s)")
    alphas = [_layer_attention(layer, alpha, graph) for layer, alpha in enumerate(attentions)]
    totals: dict[tuple[int, int], np.float64 | None] = {}

    def share(layer: int, edge: int, tgt: int) -> float:
        key = (layer, tgt)
        if key not in totals:
            totals[key] = _in_edge_total(graph, layer, alphas[layer], tgt)
        total = totals[key]
        if total is None:
            return float(1.0 / graph.in_degree[tgt])
        return float(abs(alphas[layer][edge]) / total)

    explained = []
    for path in enumerate_paths(graph, source, target, max_len):
        hops = []
        score = 1.0
        for k, e in enumerate(path):
            # `item` per hop: cheaper than gathers for the few hops of a typical call
            s, r, t = graph.edge_src.item(e), graph.edge_rel.item(e), graph.edge_tgt.item(e)
            w = share(k, e, t)
            hops.append(PathHop(src=s, rel=r, tgt=t, edge=e, weight=w))
            score *= w
        explained.append(ExplainedPath(hops=tuple(hops), score=score))
    # stable, and the paths come in lexicographic hop order, so ties keep that order
    explained.sort(key=lambda p: -p.score)
    return explained if top_k is None else explained[:top_k]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(paths: list[ExplainedPath], vocab: Vocabulary) -> str:
    """Graphviz digraph of the union of path edges, penwidth scaled by weight."""
    nodes: dict[int, str] = {}
    edges: dict[tuple[int, int, int], float] = {}
    for path in paths:
        for hop in path.hops:
            nodes[hop.src] = vocab.entities[hop.src]
            nodes[hop.tgt] = vocab.entities[hop.tgt]
            key = (hop.src, hop.rel, hop.tgt)
            edges[key] = max(edges.get(key, 0.0), hop.weight)
    lines = ["digraph explanation {", "  rankdir=LR;"]
    for nid in sorted(nodes):
        lines.append(f'  n{nid} [label="{_dot_escape(nodes[nid])}"];')
    for (s, r, t), w in sorted(edges.items()):
        label = f"{vocab.extended_relation_name(r)} ({w:.3f})"
        lines.append(
            f'  n{s} -> n{t} [label="{_dot_escape(label)}", penwidth={1.0 + 4.0 * w:.2f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_records(paths: list[ExplainedPath], vocab: Vocabulary) -> list[dict]:
    """JSON-ready form of the scored paths."""
    records = []
    for path in paths:
        records.append({
            "score": path.score,
            "length": len(path),
            "hops": [
                {
                    "source": vocab.entities[hop.src],
                    "relation": vocab.extended_relation_name(hop.rel),
                    "target": vocab.entities[hop.tgt],
                    "weight": hop.weight,
                }
                for hop in path.hops
            ],
        })
    return records
