"""Command-line interface.

Subcommands:

* stats: dataset sizes, out-degree statistics and valid/test coverage missing from train
* sparsify: uniformly drop training triples and write the reduced dataset
* train: fit a model; writes checkpoint.npz and train_log.txt to --out
* eval: filtered ranking metrics for a checkpoint on valid or test
* explain: attention-weighted paths behind one (source, target) pair
* selfcheck: finite-difference gradient check of both heads, the loss cells against scipy,
  the row order of the sparse kernel behind aggregation's scatters, and rank-oracle
  equivalence, of single rows and of `evaluate_split`'s blocks

The DATA_DIR argument may be omitted when the HOGRN_DATA environment
variable points at a dataset directory. Training options come from defaults,
then an optional key=value config file, then command-line flags, in that
order. Exit codes: 0 ok, 1 user error (bad flags, files that cannot be read
or written, bad config), 2 internal error (numeric failure, selfcheck failure).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
from scipy.sparse import csr_array
from scipy.special import log_expit

from . import parallel
from .entity_updater import add_product
from .evaluation import (DIRECTIONS, FilterIndex, build_filter_index, evaluate_split,
                         filtered_rank, oracle_rank)
from .explain import explain, to_dot, to_records
from .kgdata import (_first_line_not_utf8, degree_report, export_dataset, extend_triples,
                     load_dataset, sparsify_subset, unseen_in_train_warning)
from .optim import finite_difference_check
from .scoring import score_all_tails
from .seeding import substream
from .synthetic import rule_composition_kg
from .training import (TrainConfig, _bce_cells, batch_loss, build_queries, fit, restore_model,
                       save_checkpoint)

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


class UsageError(Exception):
    pass


def _resolve_data_dir(arg: str | None) -> Path:
    if arg is None:
        arg = os.environ.get("HOGRN_DATA")
    if not arg:
        raise UsageError("no dataset directory given and HOGRN_DATA is not set")
    path = Path(arg)
    if not path.is_dir():
        raise UsageError(f"dataset directory not found: {path}")
    return path


def _coerce(key: str, text: str, typ) -> object:
    if typ is bool:
        word = text.lower()
        if word not in _BOOL_WORDS:
            raise UsageError(f"option {key!r}: expected a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    try:
        return typ(text)
    except ValueError:
        raise UsageError(f"option {key!r}: cannot parse {text!r} as {typ.__name__}") from None


def parse_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; keys must be training options."""
    hints = get_type_hints(TrainConfig)
    options: dict[str, object] = {}
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key or not value:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
                if key == "seed":
                    raise UsageError(f"{path}:{lineno}: seed must be given with --seed")
                if key not in hints:
                    raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
                options[key] = _coerce(key, value, hints[key])
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}:{_first_line_not_utf8(path)}: not UTF-8 ({err.reason})") from None
    return options


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hogrn", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset sizes, degree statistics and train coverage")
    p.add_argument("data_dir", nargs="?", help="dataset directory (default: $HOGRN_DATA)")

    p = sub.add_parser("sparsify", help="uniformly drop training triples")
    p.add_argument("data_dir", nargs="?")
    p.add_argument("--keep", type=float, required=True, help="fraction of training triples to keep")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("data_dir", nargs="?")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", help="key=value option file")
    p.add_argument("--out", default=".", help="output directory for checkpoint.npz and train_log.txt")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch lines on stdout")
    # one flag per training option; TrainConfig checks the values
    hints = get_type_hints(TrainConfig)
    for option in fields(TrainConfig):
        if option.name == "seed":
            continue
        flag = "--" + option.name.replace("_", "-")
        if hints[option.name] is bool:
            p.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, type=hints[option.name])

    p = sub.add_parser("eval", help="filtered ranking metrics for a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("data_dir", nargs="?")
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--direction", choices=DIRECTIONS, default="both")

    p = sub.add_parser("explain", help="attention-weighted paths for one prediction")
    p.add_argument("checkpoint")
    p.add_argument("data_dir", nargs="?")
    p.add_argument("--source", required=True, help="source entity name")
    p.add_argument("--target", required=True, help="target entity name")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--top-k", type=int, dest="top_k", default=10)
    p.add_argument("--dot", help="write a Graphviz file")
    p.add_argument("--json", dest="json_out", help="write path records as JSON")

    p = sub.add_parser("selfcheck", help="finite-difference check of the gradient engine, "
                       "the loss cells and the rank oracle, block ranks included")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", type=int, default=4, help="coordinates checked per parameter")
    p.add_argument("--fault-scale", type=float, dest="fault_scale", default=0.0,
                   help="corrupt analytic gradients by this factor (must make the check fail)")
    return parser


def _load_with_coverage_warning(data_dir):
    """The dataset, after one warning on stderr if valid or test triples use
    entities or relations that training never sees."""
    store, vocab = load_dataset(_resolve_data_dir(data_dir))
    warning = unseen_in_train_warning(store, vocab)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return store, vocab


def _cmd_stats(args) -> int:
    store, vocab = load_dataset(_resolve_data_dir(args.data_dir))
    for line in degree_report(store, vocab).lines():
        print(line)
    return 0


def _cmd_sparsify(args) -> int:
    store, vocab = load_dataset(_resolve_data_dir(args.data_dir))
    reduced, report = sparsify_subset(store, args.keep, args.seed, vocab)
    export_dataset(args.out, reduced, vocab)
    for line in report.lines():
        print(line)
    print(f"written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    options = parse_config_file(args.config) if args.config else {}
    for option in fields(TrainConfig):
        value = getattr(args, option.name)
        if value is not None:
            options[option.name] = value
    config = TrainConfig(**options)
    # a bad --out is found before the data is loaded and the run is trained
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store, vocab = _load_with_coverage_warning(args.data_dir)
    graph = extend_triples(store, vocab)
    model = config.build_model(graph)
    log_fn = None if args.quiet else print
    result, optimizer = fit(model, store, vocab, config, log_fn=log_fn)
    print(f"best val MRR {result.best_val_mrr:.4f} at epoch {result.best_epoch} "
          f"({result.epochs_run} epochs run)")
    log_path = out_dir / "train_log.txt"
    log_path.write_text("".join(entry.line() + "\n" for entry in result.history),
                        encoding="utf-8")
    checkpoint_path = out_dir / "checkpoint.npz"
    save_checkpoint(checkpoint_path, model, optimizer, vocab,
                    extra={"best_val_mrr": result.best_val_mrr,
                           "best_epoch": result.best_epoch,
                           "epochs_run": result.epochs_run})
    print(f"checkpoint written to {checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    store, vocab = _load_with_coverage_warning(args.data_dir)
    # an empty split is found before the checkpoint is restored and run
    triples = store.valid if args.split == "valid" else store.test
    if triples.shape[0] == 0:
        raise UsageError(f"split {args.split!r} is empty")
    model, _, _ = restore_model(args.checkpoint, store, vocab)
    h, z, _ = model.eval_states()
    filter_index = build_filter_index(store, vocab)
    report = evaluate_split(model.head, h, z, triples, filter_index,
                            model.graph.num_raw_relations, args.direction)
    print(f"split:    {args.split}")
    for line in report.lines():
        print(line)
    return 0


def _cmd_explain(args) -> int:
    # each check comes before the work it would waste: top_k before loading, the
    # entity names before restoring, max_len before the forward
    if args.top_k < 1:
        raise UsageError(f"top_k must be positive, got {args.top_k}")
    store, vocab = load_dataset(_resolve_data_dir(args.data_dir))
    try:
        source = vocab.entity_id(args.source)
        target = vocab.entity_id(args.target)
    except KeyError as err:
        raise UsageError(err.args[0]) from None
    model, _, _ = restore_model(args.checkpoint, store, vocab)
    num_layers = model.config.num_layers
    if args.max_len is not None and not 1 <= args.max_len <= num_layers:
        raise UsageError(f"max_len must be in 1..{num_layers} (the checkpoint's num_layers), "
                         f"got {args.max_len}")
    _, _, attentions = model.eval_states()
    paths = explain(model.graph, attentions, source, target,
                    max_len=args.max_len, top_k=args.top_k)
    if not paths:
        print(f"no paths from {args.source} to {args.target} within "
              f"{args.max_len or num_layers} hop(s)")
    for path in paths:
        chain = args.source
        for hop in path.hops:
            chain += f" -[{vocab.extended_relation_name(hop.rel)}:{hop.weight:.3f}]-> "
            chain += vocab.entities[hop.tgt]
        print(f"{path.score:.6f}  {chain}")
    if args.dot:
        Path(args.dot).write_text(to_dot(paths, vocab), encoding="utf-8")
        print(f"dot graph written to {args.dot}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(to_records(paths, vocab), indent=2) + "\n", encoding="utf-8")
        print(f"path records written to {args.json_out}")
    return 0


def _rank_oracle_suite(seed: int, instances: int = 200) -> int:
    """Compare the vectorized filtered rank against the loop oracle.

    States are dyadic rationals so both routes are bit-exact and tie cases
    are genuinely exercised. Returns the number of disagreements.
    """
    rng = substream(seed, "selfcheck")
    mismatches = 0
    for _ in range(instances):
        n = int(rng.integers(2, 31))
        dim = int(rng.integers(1, 5))
        h = rng.integers(-8, 9, size=(n, dim)).astype(np.float64) / 8.0
        z = rng.integers(-8, 9, size=(3, dim)).astype(np.float64) / 8.0
        src = int(rng.integers(n))
        rel = int(rng.integers(3))
        gold = int(rng.integers(n))
        known = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        head = "transe" if rng.integers(2) == 0 else "distmult"
        scores = score_all_tails(head, h, z, src, rel)
        if filtered_rank(scores, gold, known) != oracle_rank(head, h, z, src, rel, gold, known):
            mismatches += 1
    return mismatches


def _block_rank_check(seed: int) -> bool:
    """Rank one non-dyadic instance with planted near-ties through `evaluate_split`
    on one worker and on this process's workers, and compare with `oracle_rank`.

    Every third entity has an exact or last-bit twin, and the gold of each
    tail query is one of a twin pair, so a rank decided on a GEMM score's last
    bits can differ from the oracle's. Prints one summary line.
    """
    rng = substream(seed, "selfcheck-blocks")
    n, dim, num_raw, num_triples = 60, 40, 2, 100
    h = rng.normal(size=(n, dim))
    for j in range(0, n - 1, 3):
        h[j + 1] = h[j] * (1.0 + int(rng.integers(0, 4)) * 2.0 ** -52)
    z = rng.normal(size=(2 * num_raw + 1, dim))
    gold = np.minimum(rng.integers(0, n // 3, num_triples) * 3
                      + rng.integers(0, 2, num_triples), n - 1)
    triples = np.stack([rng.integers(0, n, num_triples), rng.integers(0, num_raw, num_triples),
                        gold], axis=1)
    queries = [q for s, r, t in triples.tolist() for q in ((s, r, t), (t, r + num_raw, s))]
    none = np.empty(0, dtype=np.int64)
    no_answers = FilterIndex(none, none, none, num_raw)
    workers = parallel.WORKERS
    counts = sorted({1, workers})
    mismatches = 0
    try:
        for head in ("distmult", "transe"):
            expect = [oracle_rank(head, h, z, s, r, t, none) for s, r, t in queries]
            for count in counts:
                parallel.WORKERS = count  # one worker needs no pool
                ranks = evaluate_split(head, h, z, triples, no_answers, num_raw,
                                       keep_ranks=True).ranks
                mismatches += int(np.count_nonzero(ranks != expect))
    finally:
        parallel.WORKERS = workers
    print(f"block ranks: {'ok' if mismatches == 0 else 'FAILED'} ({mismatches} of "
          f"{2 * len(counts) * len(queries)} ranks differ from the oracle; "
          f"workers {', '.join(map(str, counts))})")
    return mismatches == 0


def _gradient_check(head: str, graph, queries, args) -> bool:
    """The finite-difference check of a small `head` model; prints one summary line."""
    model = TrainConfig(dim=5, num_layers=2, head=head, mask_ratio=0.0,
                        seed=args.seed).build_model(graph)
    batch = np.arange(min(8, len(queries)))

    def loss_fn(_store):
        return batch_loss(model, queries, batch, None, lambda_rel=0.1, temperature=0.5)

    rng = np.random.default_rng(args.seed)
    report = finite_difference_check(loss_fn, model.params, max_coords_per_param=args.coords,
                                     rng=rng, fault_scale=args.fault_scale)
    print(f"{head}: {report.summary()}")
    for failure in report.failures[:10]:
        print(f"  {failure.param}{list(failure.index)}: analytic {failure.analytic:.3e} "
              f"vs numeric {failure.numeric:.3e} (rel err {failure.rel_err:.2e})")
    return report.passed


def _loss_cell_check() -> bool:
    """Compare the BCE's loss cells against scipy's `log_expit` on a fixed grid.

    numpy picks its vector `exp` and `log1p` by CPU, so this checks the code
    this machine runs. A cell passes within 4 ulp and with the sign of
    scipy's cell, -0.0 included. Prints one summary line.
    """
    ends = np.geomspace(1e-320, 1e3, 50_000)
    special = np.array([0.0, 5e-324, 36.0, 37.0, 709.78, 745.2, 1000.0, 1e300, np.inf])
    x = np.concatenate([np.linspace(-50.0, 50.0, 100_001), ends, -ends, special, -special])
    x = np.resize(x, (-(-x.size // 1000), 1000))
    positive = np.arange(x.size).reshape(x.shape) % 2 == 0
    cells = _bce_cells(np.where(positive, x, -x), positive, np.empty_like(x))
    reference = log_expit(x)
    # same-signed floats are as many ulps apart as their magnitude bit patterns
    magnitude = np.int64(np.iinfo(np.int64).max)
    ulps = int(np.abs((cells.view(np.int64) & magnitude)
                      - (reference.view(np.int64) & magnitude)).max())
    signs = np.count_nonzero(np.signbit(cells) != np.signbit(reference))
    passed = ulps <= 4 and signs == 0
    print(f"loss cells: {'ok' if passed else 'FAILED'} (max {ulps} ulp over {x.size} cells"
          + (f", {signs} sign mismatches)" if signs else ")"))
    return passed


def _row_sum_check() -> bool:
    """Check that `add_product` continues a row's sum in column order.

    Its bitwise contract rests on the row order of scipy's private CSR
    kernel, so this runs on the scipy this machine has. One row of 1, 1e16
    and -1e16 is scattered in two products, cut after the first column: in
    column order 1 + 1e16 rounds to 1e16 and the sum is 0, while a fresh
    second product reassociates it to 1 + (1e16 - 1e16) = 1. Prints one
    summary line.
    """
    values = np.array([[1.0], [1e16], [-1e16]])
    out = np.zeros((1, 1))
    add_product(out, csr_array(np.ones((1, 1))), values[:1])
    add_product(out, csr_array(np.ones((1, 2))), values[1:])
    passed = out[0, 0] == 0.0
    print(f"row sums: {'ok' if passed else 'FAILED'} (1 + 1e16 - 1e16 in two scatters "
          f"gave {float(out[0, 0])!r}, in column order 0.0)")
    return passed


def _cmd_selfcheck(args) -> int:
    if args.coords < 1:
        raise UsageError(f"--coords must be positive, got {args.coords}")
    store, vocab = rule_composition_kg(num_entities=24, seed=args.seed)
    graph = extend_triples(store, vocab)
    queries = build_queries(graph)
    passed = [_gradient_check(head, graph, queries, args) for head in ("distmult", "transe")]
    if args.fault_scale:
        print("fault injection active: a failure above confirms the checker catches bad gradients")
    passed.append(_loss_cell_check())
    passed.append(_row_sum_check())

    mismatches = _rank_oracle_suite(args.seed)
    print(f"rank oracle: {'ok' if mismatches == 0 else 'FAILED'} "
          f"({mismatches} mismatched instances)")
    passed.append(_block_rank_check(args.seed))
    return 0 if all(passed) and mismatches == 0 else 2


_COMMANDS = {
    "stats": _cmd_stats,
    "sparsify": _cmd_sparsify,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "explain": _cmd_explain,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are user errors here
        return 0 if not exc.code else 1
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FloatingPointError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
