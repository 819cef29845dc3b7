"""The insertion map and its inverse over every small input, and the digest
of their results.

    python tests/motion_maps.py

prints the sha256 of one line per input: ``lambda_map`` of every
multipartition of P_k, ``gamma_map`` of every A_k sequence with k given
and with k defaulted (k <= 3 to size 24, k = 4 to size 16), then the JSON
of the traces of ``EXAMPLE_MP`` both ways.  ``tests/motion-maps.sha256``
holds the digest.
"""

import hashlib
import json

from qident import motion as M
from qident import sets as S

EXAMPLE_MP = ((3, 1), (), (6, 6, 5, 3), (19, 0))

SIZES = ((1, 24), (2, 24), (3, 24), (4, 16))


def lines():
    for k, top in SIZES:
        for mp in S.enum_mp_family(k, k, 0, top):       # all of P_k
            yield f"lambda {k} {mp} {M.lambda_map(mp)}\n"
        for f in S.enum_freq(k, top):                   # all of A_k
            yield f"gamma {k} {f} {M.gamma_map(f, k)} {M.gamma_map(f)}\n"
    out, tr = M.lambda_map(EXAMPLE_MP, trace=True)
    mp, tr2 = M.gamma_map(out, len(EXAMPLE_MP), trace=True)
    for got, t in ((out, tr), (mp, tr2)):
        yield f"trace {got} {json.dumps(t.to_json())}\n"


def digest() -> str:
    return hashlib.sha256("".join(lines()).encode()).hexdigest()


if __name__ == "__main__":
    print(digest())
