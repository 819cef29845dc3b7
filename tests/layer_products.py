"""Every packed layer product of two passes, and the digest of them.

    python tests/layer_products.py

prints the sha256 of the ``marshal`` bytes (version 2) of every result of
``sumeval.layer_product``, in the order they are built in one process: the
k <= 5, q-order 100 catalog rows in catalog order, then the star chains of
the three seeds at n_max 10 and t-order 101 in the seed-1 shuffled order of
the benchmark's bailey_chains pass, each final alpha compared with its
closed form.  ``tests/layer-products.sha256`` holds the digest.  It pins
the packed layout itself (the digit words, the digit width and bound, lo,
the grid step and the slots), which the report digests see only through
the coefficients read back.
"""

import hashlib
import marshal
import random

from qident import bailey as B
from qident import identities as I
from qident import sumeval
from qident.qfunctions import Q

CHAIN_SEEDS = ("unit", "dprime1", "dprime4")
N_MAX, TPREC = 10, 101


def chain_ops():
    """(seed name, k, r, j) of the star chains, shuffled as at seed 1."""
    ops = [(name, k, r, j)
           for name in CHAIN_SEEDS
           for k in range(1, 5)
           for r in range(k + 1)
           for j in range(k - r + 1)]
    random.Random(1).shuffle(ops)
    return ops


def digest() -> str:
    h = hashlib.sha256()
    real = sumeval.layer_product

    def spy(*args):
        out = real(*args)
        h.update(marshal.dumps(out, 2))
        return out

    # bailey imports the name, so both modules are patched
    sumeval.layer_product = B.layer_product = spy
    try:
        for name, params in I.catalog_rows(5):
            I.verify_identity(name, params, 100)
        pairs = {name: B.SEEDS[name](Q, N_MAX, TPREC) for name in CHAIN_SEEDS}
        for name, k, r, j in chain_ops():
            B.run_chain(pairs[name], B.star_chain(k, r, j), TPREC)
            for n in range(N_MAX + 1):
                B.closed_alpha_star_chain(pairs[name], k, r, j, n, TPREC)
    finally:
        sumeval.layer_product = B.layer_product = real
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
