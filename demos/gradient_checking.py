"""Verify the hand-rolled backward pass against central differences.

The whole trainer rests on the autodiff engine, so this script checks every
parameter coordinate of a small but complete model (attention aggregation,
relation mixing, scoring, both loss terms) and then corrupts the gradients
on purpose to show the checker actually has teeth.
"""
import numpy as np

from hogrn.kgdata import extend_triples
from hogrn.optim import finite_difference_check
from hogrn.synthetic import rule_composition_kg
from hogrn.training import TrainConfig, batch_loss, build_queries

store, vocab = rule_composition_kg(num_entities=20, seed=1)
graph = extend_triples(store, vocab)
model = TrainConfig(dim=4, num_layers=2, head="distmult", mask_ratio=0.0, seed=1).build_model(graph)
queries = build_queries(graph)
batch = np.arange(len(queries))

def loss_fn(_params):
    # masking off so the loss is deterministic, a requirement for differencing
    return batch_loss(model, queries, batch, None, lambda_rel=0.1, temperature=0.5)

print(f"model has {len(model.params)} parameter tensors, "
      f"{model.params.num_values()} coordinates")
report = finite_difference_check(loss_fn, model.params, max_coords_per_param=None)
print(report.summary())

# Flip the sign question around: scale the analytic gradients by 1.5 and the
# checker must complain. A checker that cannot fail proves nothing.
report = finite_difference_check(loss_fn, model.params, max_coords_per_param=4,
                                 rng=np.random.default_rng(0), fault_scale=0.5)
print()
print("with gradients deliberately corrupted by 50%:")
print(report.summary())
for failure in report.failures[:3]:
    print(f"  {failure.param}{list(failure.index)}: analytic {failure.analytic:.3e} "
          f"vs numeric {failure.numeric:.3e}")
assert not report.passed, "the corrupted run must fail"
