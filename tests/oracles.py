"""Reference oracles the tests compare the program against.

Each one computes a value the package also reaches, or bounds, by an
independent brute-force or closed-form route, and no program path runs
it: the character sum behind the Krawtchouk formula, the weight
histogram of a coset, the exact Gilbert-Varshamov radius, the scalar
Bessel floor term, and the admissible weight pairs with the candidate
ceiling they give.
"""

import math
from math import comb

import numpy as np

from dualattack._kernels import coset_weight_hist, pack_rows
from dualattack.codes import as_bits
from dualattack.errors import BudgetExceeded, DomainError
from dualattack.krawtchouk import KrawtchoukTable
from dualattack.lattice import log_bessel_j


def character_sum_oracle(x, w):
    """sum over |y| = w of (-1)^<x, y>, by brute enumeration.

    Independent of the polynomial formula; equals K_w(|x|).  Words longer
    than 18 bits are refused."""
    x = np.asarray(x, dtype=np.uint8).reshape(-1)
    m = x.size
    if m > 18:
        raise BudgetExceeded("character sum capped at 18 bits")
    if not (0 <= w <= m):
        raise DomainError("need 0 <= w <= len(x)")
    import itertools

    xmask = 0
    for i in range(m):
        if x[i]:
            xmask |= 1 << i
    acc = 0
    for support in itertools.combinations(range(m), w):
        ymask = 0
        for i in support:
            ymask |= 1 << i
        acc += -1 if bin(xmask & ymask).count("1") & 1 else 1
    return acc


def coset_weight_enumerator(code, x):
    """Weight histogram of the coset x + C, as a list of n+1 exact ints.

    Enumerates all 2^k codewords; dimensions above 26 are refused."""
    if code.k > 26:
        raise BudgetExceeded("coset enumeration capped at dimension 26")
    x = as_bits(x).reshape(-1)
    if x.size != code.n:
        raise DomainError("coset representative has the wrong length")
    hist = coset_weight_hist(pack_rows(code.generator), pack_rows(x)[0], code.n)
    return [int(v) for v in hist]


def gv_distance(n, k):
    """Largest d with 2^k * |B_d| < 2^n, by exact integer count.

    Returns 0 when no positive radius qualifies (k = n)."""
    if not (0 < k <= n):
        raise DomainError("need 0 < k <= n")
    ball = 1
    if (ball << k) >= (1 << n):
        return 0
    d = 0
    while d < n:
        nxt = ball + comb(n, d + 1)
        if (nxt << k) >= (1 << n):
            break
        ball = nxt
        d += 1
    return d


def floor_value(params, j):
    """Dominant-term score G(j) when the closest lattice point sits at
    distance j, as (sign, log of magnitude): N sqrt(n pi)/e times
    (n/(2 pi e w j))^{n/2-1} J_{n/2-1}(2 pi w j)."""
    if not j > 0:
        raise DomainError("distance must be positive")
    n, w = params.n, params.w
    k = n // 2 - 1
    sign, lj = log_bessel_j(k, [2.0 * math.pi * w * j])
    lead = (math.log(params.N) + 0.5 * math.log(n * math.pi) - 1.0
            + k * (math.log(n) - math.log(2.0 * math.pi * math.e * w * j)))
    return float(sign[0]), lead + float(lj[0])


class AdmissibleRegion:
    """Weight pairs whose Krawtchouk magnitude stays within a polynomial
    factor of the planted pair's."""

    def __init__(self, pairs, exponent, anchor):
        self.pairs = frozenset((int(i), int(j)) for i, j in pairs)
        self.exponent = float(exponent)
        self.anchor = (int(anchor[0]), int(anchor[1]))
        if self.anchor not in self.pairs:
            raise DomainError("the planted weight pair must be admissible")

    def __contains__(self, pair):
        return (int(pair[0]), int(pair[1])) in self.pairs

    def __len__(self):
        return len(self.pairs)


def admissible_region(nparams, exponent=3.2):
    """All (i, j) with |K_w(u) K_taux(t-u)| <= n^exponent |K_w(i) K_taux(j)|."""
    np_ = nparams
    kw = KrawtchoukTable(np_.n - np_.s, np_.w)
    kt = KrawtchoukTable(np_.s, np_.t_aux)
    anchor_val = kw.value(np_.u) * kt.value(np_.t - np_.u)
    if anchor_val == 0:
        raise DomainError("bias vanishes at the planted weights")
    log_anchor = math.log(abs(anchor_val))
    budget = exponent * math.log(np_.n)
    pairs = []
    for i in range(np_.n - np_.s + 1):
        kwi = kw.value(i)
        if kwi == 0:
            continue
        for j in range(np_.s + 1):
            ktj = kt.value(j)
            if ktj == 0:
                continue
            if log_anchor - math.log(abs(kwi * ktj)) <= budget + 1e-12:
                pairs.append((i, j))
    return AdmissibleRegion(pairs, exponent, (np_.u, np_.t - np_.u))


def candidate_bound(nparams, exponent=3.2):
    """Expected-candidate ceiling: the largest admissible cell mean of
    the pair counts, plus one for the planted candidate."""
    np_ = nparams
    region = admissible_region(nparams, exponent=exponent)
    log2_best = None
    for i, j in region.pairs:
        v = (math.log2(comb(np_.s, j)) + math.log2(comb(np_.n - np_.s, i))
             - (np_.n - np_.k))
        if log2_best is None or v > log2_best:
            log2_best = v
    return 2.0 ** log2_best + 1.0
