"""Path explanations built from recorded aggregation attentions.

Per target entity and layer, incoming edge attentions are normalized by
absolute value so they sum to one (a target whose attentions are all zero
falls back to uniform weights, with a warning). A prediction (source ->
target) is explained by the simple paths between them in the extended graph:
hop k of a path is weighted by the layer-k attention of its edge, and the
path score is the product of its hop weights. Self-loop edges never appear
in paths.
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


def normalize_attentions(attentions: list[np.ndarray], graph: ExtendedGraph) -> list[np.ndarray]:
    """Per-layer |attention| shares per target; rows of zeros become uniform."""
    normalized = []
    for layer, alpha in enumerate(attentions):
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape != (graph.num_edges,):
            raise ValueError(
                f"layer {layer}: expected {graph.num_edges} attention values, got {alpha.shape}")
        weights = np.abs(alpha)
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


def enumerate_paths(
    graph: ExtendedGraph, source: int, target: int, max_len: int
) -> list[tuple[tuple[int, int, int], ...]]:
    """All simple paths source -> target with at most `max_len` hops.

    Hops are (src, extended relation, tgt) over raw and inverse edges.
    Depth-first with sorted hops, so the result is in lexicographic order.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    for name, entity in (("source", source), ("target", target)):
        if not 0 <= entity < graph.num_entities:
            raise IndexError(f"{name} entity out of range: {entity}")
    if source == target:
        return []

    paths: list[tuple[tuple[int, int, int], ...]] = []
    trail: list[tuple[int, int, int]] = []
    visited = {source}

    def walk(node: int, depth: int):
        for rel, tgt in graph.out_edges(node):
            if tgt in visited:
                continue
            trail.append((node, rel, tgt))
            if tgt == target:
                paths.append(tuple(trail))
            elif depth + 1 < max_len:
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
    lexicographic hop order, keeping the result deterministic.
    """
    num_layers = len(attentions)
    if max_len is None:
        max_len = num_layers
    if max_len > num_layers:
        raise ValueError(
            f"max_len {max_len} exceeds the {num_layers} recorded layer(s)")
    weights = normalize_attentions(attentions, graph)
    explained = []
    for path in enumerate_paths(graph, source, target, max_len):
        hops = []
        score = 1.0
        for k, (s, r, t) in enumerate(path):
            edge = graph.edge_position(s, r, t)
            w = float(weights[k][edge])
            hops.append(PathHop(src=s, rel=r, tgt=t, edge=edge, weight=w))
            score *= w
        explained.append(ExplainedPath(hops=tuple(hops), score=score))
    explained.sort(key=lambda p: (-p.score, tuple((h.src, h.rel, h.tgt) for h in p.hops)))
    if top_k is not None:
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        explained = explained[:top_k]
    return explained


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
