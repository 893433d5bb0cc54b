"""Walk through the loss terms on a small hand-checkable batch.

Run: python3 demos/demo_losses.py
"""

import dataclasses

import numpy as np

from dctau.losses import LossConfig, dc_total_loss_grad, supcon_loss_grad
from dctau.verify import (
    dc_universum_loss_grad,
    decompose,
    hard_negative_weights,
    reassemble_anchor_partial,
    unit_rows,
)


def main() -> None:
    rng = np.random.default_rng(3)
    n, d = 8, 5
    cfg = LossConfig(temperature=0.3, gamma=1.0)
    known_cfg = dataclasses.replace(cfg, gamma=0.0)

    z = unit_rows(rng, n, d)
    labels = np.array([1, 1, 2, 2, 3, 3, 1, 2])
    u = unit_rows(rng, n, d)
    u_targets = labels  # universum row r targets its anchor's class

    known = dc_total_loss_grad(z, labels, u, u_targets, known_cfg)
    decomp = decompose(z, labels, u, u_targets, cfg)
    dual = dc_universum_loss_grad(u, u_targets, z, labels, cfg)
    total = dc_total_loss_grad(z, labels, u, u_targets, cfg)
    print(f"known-anchor term      {known.value:10.4f}")
    print(f"universum-anchor term  {dual.value:10.4f}")
    print(f"combined (gamma=1)     {total.value:10.4f}")
    print(f"linearity check        {known.value + dual.value:10.4f}")
    print()

    sup = supcon_loss_grad(z, labels, cfg)
    no_u, no_targets = np.empty((0, d)), np.empty(0, dtype=np.int64)
    empty = dc_total_loss_grad(z, labels, no_u, no_targets, known_cfg)
    print("with zero universum rows the known term is plain supcon:")
    print(f"  values {empty.value!r} == {sup.value!r}: {empty.value == sup.value}")
    print(f"  gradients bitwise equal: {np.array_equal(empty.grad_z, sup.grad_z)}")
    print()

    gap = np.abs(reassemble_anchor_partial(decomp) - decomp.anchor_partial).max()
    print(f"gradient split reassembly gap: {gap:.2e}")

    kw, tw = hard_negative_weights(decomp)
    i = 0
    print(f"\nrepulsion weights for anchor {i} (label {labels[i]}):")
    for j in range(n):
        if j == i:
            continue
        tag = "positive" if labels[j] == labels[i] else "negative"
        print(f"  known row {j} (label {labels[j]}, {tag}): {kw[i, j]:.4f}")
    for j in np.flatnonzero(tw[i] > 0):
        print(f"  universum row {j} (targets class {labels[i]}): {tw[i, j]:.4f}")
    print(f"  row total: {kw[i].sum() + tw[i].sum():.6f}")
    print("\ncloser rows take larger shares, and the universum rows dilute")
    print("the weight any single known negative can claim.")


if __name__ == "__main__":
    main()
