"""The distinct product sides of ``catalog_rows(5)`` and the digest of their
evaluations at q-orders 10, 60 and 100.

    python tests/product_sides.py

prints the sha256 of one line per (side, q-order), sides in catalog order:
the precision of the evaluated side and its sorted (exponent, coefficient)
pairs.  ``tests/product-sides.sha256`` holds the digest.
"""

import hashlib

from qident import identities as I

QPRECS = (10, 60, 100)

SIDES = list(dict.fromkeys(I.CATALOG[name].rhs(params)
                           for name, params in I.catalog_rows(5)))


def digest(evaluate=I.eval_product) -> str:
    lines = []
    for side in SIDES:
        for qprec in QPRECS:
            s = evaluate(side, qprec)
            lines.append(f"{s.prec} {sorted(s.coeffs.items())}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


if __name__ == "__main__":
    print(digest())
