"""Peeling level-n tower data into its sharp/flat components.

The peel starts from (Theta_n, X^e Theta_{n-1}), with Theta_{n-1} read as
a polynomial of degree < p^(n-1) in X = 1+T and e the completion twist of
index n (0 unless hatted).  It undoes the steps
(x, y) . S_i = (ap x - eps_p Phi_i y, x) from the right, one exact division
by Phi_i (completed when hatted) per index n-1, ..., 1; the terminal pair
is (sharp, flat):

    (Theta_n, X^e Theta_{n-1}) = (sharp, flat) . S_1 ... S_(n-1).

Since Phi_n X^e Theta_{n-1} = nu Theta_{n-1}, one more step and the inverse
of A~ = [[ap, 1], [-eps_p, 0]] give the tower pair; `recompose` runs the
peel forwards to it (by `logmatrix.push_steps`), the round trip every
decomposition is tested against:

    (Theta_n, nu Theta_{n-1}) = (sharp, flat) . S_1 ... S_n . A~^(-1).

Each division is exact when Theta_n and Theta_{n-1} satisfy the
three-term relation.  A failing one cannot tell which of the two breaks
it, so NotDivisible names the pair's levels; `iwt verify` checks the
relation level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (MixedPrime, NotDivisible, OutOfRange,
                     PrecisionExhausted, PrecisionMismatch, Unstable)
from .iwasawa_algebra import (IwasawaInvariants, LambdaElement, _element,
                              cyclotomic_phi, iwasawa_invariants, vanishing_order)
from .logmatrix import push_steps
from .padic_core import PadicInt, padic_from_rational
from .polyops import poly_phi_peel


@dataclass(frozen=True)
class SharpFlatApprox:
    level: int
    tame_index: int | None
    sharp: LambdaElement
    flat: LambdaElement
    hatted: bool
    params: object  # FormParams

    def invariants(self):
        """(sharp, flat) invariants, computed once per approximation."""
        return self._invariants

    @cached_property
    def _invariants(self):
        return iwasawa_invariants(self.sharp), iwasawa_invariants(self.flat)


def decompose_pair(theta_n, theta_prev, params, hatted=False, tame_index=None):
    """Peel (Theta_n, Theta_{n-1}) into the terminal (sharp, flat) pair."""
    n = theta_n.level
    if theta_prev.level != n - 1:
        raise OutOfRange("theta_prev must live one level below theta_n")
    if theta_prev.precision != theta_n.precision:
        raise PrecisionMismatch(
            f"Theta_n at M={theta_n.precision}, Theta_{{n-1}} at M={theta_prev.precision}")
    if hatted and params.p == 2:
        # the completion twists (1+T)^(-2^(i-2)) evaluate to -1 at the
        # next-lower 2-power point and break exact peel divisibility
        raise OutOfRange("completed decomposition is supported for odd p only")
    if theta_prev.p != theta_n.p:
        raise MixedPrime(f"primes {theta_n.p} and {theta_prev.p}")
    p, M = theta_n.p, theta_n.precision
    # (x, y) = (Theta_n, X^e Theta_{n-1}) as group-basis vectors; each step
    # divides (ap y - x) / eps_p by Phi_i, all on packed vectors
    try:
        x, y = poly_phi_peel(theta_n.units, theta_prev.units, params.ap,
                             pow(params.eps_p, -1, params.modulus), p, n, hatted,
                             theta_n.modulus)
    except NotDivisible as exc:
        raise NotDivisible(
            f"Theta_n or Theta_{{n-1}} breaks the three-term relation (levels {n} "
            f"and {n - 1}); iwt verify checks the relation level by level") from exc
    return SharpFlatApprox(level=n, tame_index=tame_index,
                           sharp=_element(p, n, M, x), flat=_element(p, n, M, y),
                           hatted=hatted, params=params)


def decompose(theta_n, theta_prev, params, hatted=False, tame_index=None):
    """`decompose_pair` with the pair's T-coefficients made, so a timing of
    this call (the synthetic peel of bench/worker.py) includes the change of
    basis that its caller reads afterwards."""
    approx = decompose_pair(theta_n, theta_prev, params, hatted=hatted,
                            tame_index=tame_index)
    for x in (approx.sharp, approx.flat):
        x.coeffs
    return approx


def _forward(approx):
    """The row vector (sharp, flat) . S_1 ... S_n: the peel run forwards."""
    params, n = approx.params, approx.level
    phis = (cyclotomic_phi(params.p, i, n, params.precision, hatted=approx.hatted)
            for i in range(1, n + 1))
    return push_steps((approx.sharp, approx.flat), params.ap, params.eps_p, phis)


def recompose(approx):
    """Forward product; returns the pair (Theta_n, nu Theta_{n-1})."""
    params = approx.params
    x, y = _forward(approx)
    # (x, y) . A~^(-1), A~^(-1) = [[0, -1/eps_p], [1, ap/eps_p]]
    return y, (params.ap * y - x) * pow(params.eps_p, -1, params.modulus)


def decompose_sequence(seq, hatted=False):
    """Decompositions of (Theta_m, Theta_{m-1}) for every level m >= 1.

    T-coefficients are left unmade: the invariants read the group basis.
    """
    return [decompose_pair(seq[m], seq[m - 1], seq.params, hatted=hatted,
                           tame_index=seq.tame_index)
            for m in range(1, seq.top_level + 1)]


def stabilized_invariants(approxes):
    """Invariants from the top level, flagged stable when the top two agree.

    Stability additionally requires lambda to be visible below the
    wraparound bound p^n - p^(n-1) at the lower of the two levels; the
    level-n quotient ring cannot certify larger lambda.
    """
    if len(approxes) < 2:
        raise Unstable("need at least two consecutive levels",
                       levels=[a.level for a in approxes])
    prev, top = approxes[-2], approxes[-1]
    if top.level != prev.level + 1:
        raise Unstable("levels must be consecutive", levels=[prev.level, top.level])
    p = top.params.p
    prev_sharp, prev_flat = prev.invariants()
    top_sharp, top_flat = top.invariants()
    visibility = p ** prev.level - p ** (prev.level - 1)
    stable = (top_sharp.pair() == prev_sharp.pair()
              and top_flat.pair() == prev_flat.pair()
              and top_sharp.lam < visibility and top_flat.lam < visibility)
    return (IwasawaInvariants(top_sharp.mu, top_sharp.lam, stable),
            IwasawaInvariants(top_flat.mu, top_flat.lam, stable))


@dataclass(frozen=True)
class VanishingReport:
    orders: dict          # m -> common vanishing order at primitive p^m-th roots
    rank_estimate: int    # sum over m of (number of primitive roots) * order


def vector_vanishing_orders(approx, m_range):
    """Common vanishing orders of the recombined vector at p-power points.

    For each m the order is the minimum over the two entries of
    (sharp, flat) . S_1 ... S_n of the multiplicity of the m-th
    cyclotomic factor; the weighted sum over m (weight = number of
    primitive p^m-th roots of unity) is the computable lower part of the
    total analytic vanishing count.
    """
    params, n = approx.params, approx.level
    vec = _forward(approx)
    orders = {}
    total = 0
    for m in m_range:
        if m > n:
            raise OutOfRange(f"m={m} exceeds level {n}")
        per_entry = []
        for entry in vec:
            if entry.is_zero():
                continue
            per_entry.append(vanishing_order(entry, m))
        if not per_entry:
            raise PrecisionExhausted("both vector entries vanish mod p^M")
        orders[m] = min(per_entry)
        weight = 1 if m == 0 else params.p ** m - params.p ** (m - 1)
        total += weight * orders[m]
    return VanishingReport(orders=orders, rank_estimate=total)


@dataclass(frozen=True)
class SpecialValueReport:
    checked: bool
    sharp_expected: PadicInt | None
    flat_expected: PadicInt | None
    sharp_agreement: int | None   # valuation of (sharp(0) - expected)
    flat_agreement: int | None


def special_value_check(approx, lratio):
    """Compare (sharp(0), flat(0)) against the trivial-character targets.

    Only the tame-index-0 rows are checkable from a rational L-ratio:
    odd p expects ((-ap^2 + 2ap + p - 1) * r, (2 - ap) * r); p = 2 expects
    ((-ap^3 + 2ap^2 + 2p*ap - ap - 2p) * r, (-ap^2 + 2ap + p - 1) * r).
    The report carries the valuation of the deviation at T = 0; level-n
    data only approximates the tower limit, so the caller judges the
    agreement depth against the level.
    """
    params = approx.params
    if approx.tame_index not in (0, None) or lratio is None:
        return SpecialValueReport(False, None, None, None, None)
    p, M = params.p, params.precision
    ap = params.ap
    r = padic_from_rational(p, lratio, M)
    if p != 2:
        sharp_t = PadicInt(p, -ap * ap + 2 * ap + p - 1, M) * r
        flat_t = PadicInt(p, 2 - ap, M) * r
    else:
        sharp_t = PadicInt(p, -ap ** 3 + 2 * ap ** 2 + 2 * p * ap - ap - 2 * p, M) * r
        flat_t = PadicInt(p, -ap * ap + 2 * ap + p - 1, M) * r
    sharp_dev = (approx.sharp.at_zero() - sharp_t).valuation()
    flat_dev = (approx.flat.at_zero() - flat_t).valuation()
    return SpecialValueReport(True, sharp_t, flat_t, sharp_dev, flat_dev)
