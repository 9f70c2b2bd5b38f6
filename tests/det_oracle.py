"""Test oracles for the determinant routes of ``atomembed.gram``.

The rank-one split M = A + v v^t with every entry of the closed-form
adjugate written out, and the O(n^2) sum det(A) + v^t Adj(A) v over it.
The package evaluates the same update through the structure of Adj(A)
(``det_lemma_route``); these are the entry-by-entry forms it is held to,
and over floats the accuracy reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from atomembed.scalars import Scalar


@dataclass(frozen=True)
class AppendixDecomposition:
    """Rank-one split M = A + v v^t with closed-form det(A) and Adj(A).

    A has entries -2 (1 - delta_ij) x_i x_j over i,j = 1..n and
    v = (x_0 + x_1, ..., x_0 + x_n); det(A) = -2^n (x_1 ... x_n)^2 (n-1) and
    Adj(A)[i][j] = 2^(n-1) (x_1 ... x_n)^2 (1/(x_i x_j) - delta_ij (n-1)/x_i^2).
    """

    a: Tuple[Tuple[Scalar, ...], ...]
    v: Tuple[Scalar, ...]
    det_a: Scalar
    adj_a: Tuple[Tuple[Scalar, ...], ...]


def appendix_decomposition(xs: Sequence[Scalar]) -> AppendixDecomposition:
    """The split of the Gram matrix over base xs[0]; a float adjugate entry
    whose x_i x_j underflows raises ZeroDivisionError."""
    xs = tuple(xs)
    n = len(xs) - 1
    zero = 0 * xs[0]  # Fraction or float, like the weights
    tail = xs[1:]
    a = tuple(
        tuple(zero if i == j else -2 * tail[i] * tail[j] for j in range(n))
        for i in range(n)
    )
    v = tuple(xs[0] + xi for xi in tail)
    sq = math.prod(xi * xi for xi in tail)
    det_a = -(2 ** n) * sq * (n - 1)
    adj_a = tuple(
        tuple(
            (2 ** (n - 1)) * sq * (1 / (tail[i] * tail[j])
                                   - ((n - 1) / (tail[i] * tail[i]) if i == j else zero))
            for j in range(n)
        )
        for i in range(n)
    )
    return AppendixDecomposition(a=a, v=v, det_a=det_a, adj_a=adj_a)


def lemma_sum(xs: Sequence[Scalar]) -> Scalar:
    """det(A) + v^t Adj(A) v summed entry by entry over the materialized adjugate."""
    dec = appendix_decomposition(xs)
    n = len(dec.v)
    correction = sum(
        dec.v[i] * dec.adj_a[i][j] * dec.v[j] for i in range(n) for j in range(n)
    )
    return dec.det_a + correction
