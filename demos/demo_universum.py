"""Show how targeted blends sit between an anchor and the other classes.

Run: python3 demos/demo_universum.py
"""

import numpy as np

from dctau.data import epoch_batches, generate_blobs
from dctau.universum import make_universum


def main() -> None:
    rng = np.random.default_rng(7)
    ds = generate_blobs(class_count=4, per_class=30, dim=2, spread=0.25, seed=1)
    batch = epoch_batches(ds, 16, rng)[0]

    print("anchor class counts:", np.bincount(batch.labels)[1:])
    print()
    print("lambda  mean |u - anchor|  mean |u - donor avg|")
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        u = make_universum(batch, lam, rng)
        d_anchor = np.linalg.norm(u - batch.features, axis=1).mean()
        # back out the donor average each blend used
        donor_avg = (u - lam * batch.features) / (1.0 - lam)
        d_donor = np.linalg.norm(u - donor_avg, axis=1).mean()
        print(f"{lam:6.1f}  {d_anchor:17.4f}  {d_donor:20.4f}")

    print()
    print("higher lambda keeps the blend near its anchor; lower lambda")
    print("pushes it toward the other classes' average.")
    print()

    # row r targets class y_r: k_plus_k hands the loss that target and
    # tells the sides apart by position, giving K target-aligned universum
    # classes; k_plus_one collapses every row into one class, K + 1
    k = ds.class_count
    schemes = {"k_plus_k": batch.labels, "k_plus_one": np.full(batch.size, k + 1)}
    for scheme, classes in schemes.items():
        print(f"scheme {scheme:10s} universum classes: {sorted(set(classes.tolist()))}")


if __name__ == "__main__":
    main()
