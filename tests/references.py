"""Test-only references that route through the general morphism machinery.

The nested double-dual route is the reference for the closed-form
double-dual scalar (``homcalc.double_dual_coefficient``), the spliced bend
for the one-graft bend kernel (``indicators.e_map_matrix``), and the
innermost-first nested coevaluation for ``homcalc.db_prime_vector``.  Each
takes the long way on purpose: whole splice and contraction matrices, and
the evaluation/coevaluation machinery applied twice.
"""

from __future__ import annotations

import math

from fscat.cyclo import Cyc
from fscat.homcalc import (LinMap, TensorWord, contract_pair_matrix,
                           dual_morphism, paths, splice_host_matrix)
from fscat.linalg import dense, mat_mul, mat_vec, zeros

ONE = Cyc.one()


# -- the nested double-dual route ---------------------------------------------


def vertex_linmap(cat, a, b, c) -> LinMap:
    """The chosen basis vector of Hom(c, a (x) b) as a morphism c -> a (x) b."""
    if not cat.n(a, b, c):
        raise ValueError(f"channel ({a},{b};{c}) is inadmissible")
    blocks = {}
    for r in cat.labels:
        tgt = paths(cat, (a, b), r)
        mat = zeros(len(tgt), len(paths(cat, (c,), r)))
        if r == c:
            mat[tgt.index((cat.unit, a, c))][0] = ONE
        blocks[r] = mat
    return LinMap(cat, TensorWord.of((c,)), TensorWord.of((a, b)), blocks)


def nested_double_dual_coefficient(cat, a, b, c) -> Cyc:
    """``homcalc.double_dual_coefficient`` by double dualization of the
    channel vertex through the evaluation/coevaluation machinery."""
    dd = dual_morphism(cat, dual_morphism(cat, vertex_linmap(cat, a, b, c)))
    return dd.block(c)[0][0].inverse()


# -- the spliced bend ---------------------------------------------------------


def spliced_e_map_matrix(cat, letters, k):
    """``indicators.e_map_matrix`` the long way: every splice, then every
    closure.

    The word is spliced into the host pairs (x_j*, x_j), j = 1..k, as whole
    ``splice_host_matrix`` products over every fusion path; then the k pairs
    (x_i*, x_i) are closed innermost first by ``contract_pair_matrix``, and
    the product is scaled by 1 / (t(x_1) ... t(x_k)).
    """
    letters = tuple(letters)
    cat.require_pivotal()
    cur, m = letters, None
    for j in range(k):
        # Hom(1, x* x) is spanned by its one path (1, x*, 1)
        host = (cat.dual(letters[j]), letters[j])
        splice = dense(splice_host_matrix(cat, host, [ONE], 1, cur))
        m = splice if m is None else mat_mul(splice, m)
        cur = host[:1] + cur + host[1:]
    for pos in range(k - 1, -1, -1):
        m = mat_mul(dense(contract_pair_matrix(cat, cur, cat.unit, pos)), m)
        cur = cur[:pos] + cur[pos + 2:]
    scale = math.prod(map(cat.t, letters[:k]), start=ONE).inverse()
    return [[scale * x for x in row] for row in m]


def spliced_db_prime_vector(cat, letters):
    """``homcalc.db_prime_vector`` innermost pair first: the running word
    is the guest of a whole ``splice_host_matrix`` into each new outer pair
    (y*, y)."""
    cur, vec = (), [ONE]
    for y in letters:
        host = (cat.dual(y), y)
        vec = mat_vec(splice_host_matrix(cat, host, [ONE], 1, cur), vec)
        cur = host[:1] + cur + host[1:]
    return cur, vec
