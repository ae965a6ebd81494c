"""Growth numerology: Kurihara terms, rank bounds, the Modesty rule, Sha.

Everything here is exact rational arithmetic on Iwasawa invariants.
Infinite values (ap = 0) propagate through ExtRational; a Kurihara term
of infinity simply means that component never governs that parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic_ext import minimal_k
from .errors import (ExcludedCase, InvalidParams, OutOfRange, SporadicCase,
                     TieCase)
from .padic_core import ExtRational

INF = ExtRational.infinity()

SHARP, FLAT = "sharp", "flat"


def _floor_power_ratio(p, n):
    """floor(p^n / (p+1)) for any integer n (0 for negative n)."""
    if n < 0:
        return 0
    return p ** n // (p + 1)


def kurihara_simple(n, p, star):
    """The plain Kurihara terms: floor(p^n/(p+1)) at the native parity,
    carried from n+1 at the other parity."""
    if star == SHARP:
        native_odd = True
    elif star == FLAT:
        native_odd = False
    else:
        raise OutOfRange(f"kurihara_simple: star must be 'sharp' or 'flat', got {star!r}")
    is_odd = n % 2 == 1
    if is_odd == native_odd:
        return _floor_power_ratio(p, n)
    return _floor_power_ratio(p, n + 1)


@dataclass(frozen=True)
class KuriharaParams:
    """The slope data (v, k, v2, delta) governing the generalized terms.

    delta = min(v2 - 2v, (p-1) p^(-k-2)) is only active on the boundary
    v = p^(-k)/2; away from it the value is forced to 0 (off the
    boundary the defining difference is not a cancellation depth).
    """

    p: int
    v: ExtRational
    k: int | None
    v2: ExtRational
    delta: Fraction

    @classmethod
    def from_v(cls, p, v, v2=None):
        v = v if isinstance(v, ExtRational) else ExtRational(v)
        k = minimal_k(p, v)
        if v.is_infinite or v.value == 0:
            return cls(p=p, v=v, k=None, v2=INF if v.is_infinite else ExtRational(0),
                       delta=Fraction(0))
        boundary = Fraction(1, 2 * p ** k)
        if v2 is None:
            v2 = ExtRational(2 * v.value)  # generic: no cancellation
        v2 = v2 if isinstance(v2, ExtRational) else ExtRational(v2)
        if v.value != boundary:
            delta = Fraction(0)
        else:
            if v2 < 2 * v.value:
                raise InvalidParams(f"v2={v2} below 2v={2 * v.value} at the boundary")
            cap = Fraction(p - 1, p ** (k + 2))
            delta = cap if v2.is_infinite else min(v2.value - 2 * v.value, cap)
        return cls(p=p, v=v, k=k, v2=v2, delta=delta)


def kurihara_general(n, p, params, star):
    """The generalized Kurihara terms, piecewise in v with the v2 correction.

    Continuous in v on [0, oo] and in v2 on [2v, oo]; the ap = 0 limit is
    infinite at the non-native parity, which encodes the parity rule.
    """
    if star not in (SHARP, FLAT):
        raise OutOfRange(f"kurihara_general: star must be 'sharp' or 'flat', got {star!r}")
    if n < 1:
        raise InvalidParams("n must be >= 1")
    v = params.v
    if not v.is_infinite and v.value == 0:
        return ExtRational(0) if star == SHARP else ExtRational(p - 1)
    if v.is_infinite:
        # limit with k = 1 fixed: the k*v slope blows up off-parity
        if star == SHARP:
            return (ExtRational(_floor_power_ratio(p, n)) if n % 2 == 1 else INF)
        if n % 2 == 0:
            return ExtRational(p * _floor_power_ratio(p, n - 1) + p - 1)
        return INF
    k = params.k
    if n <= k:
        raise InvalidParams(f"need n > k, got n={n}, k={k}")
    phi = p ** n - p ** (n - 1)
    vv, delta = v.value, params.delta
    if star == SHARP:
        if n % 2 != k % 2:
            return ExtRational(phi * k * vv + _floor_power_ratio(p, n - k))
        return ExtRational(phi * ((k - 1) * vv + delta) + _floor_power_ratio(p, n + 1 - k))
    if n % 2 != k % 2:
        return ExtRational(phi * ((k - 1) * vv + delta)
                           + p * _floor_power_ratio(p, n - k) + p - 1)
    return ExtRational(phi * k * vv + p * _floor_power_ratio(p, n - 1 - k) + p - 1)


def nu_thresholds(p, lambda_sharp, lambda_flat):
    """The four largest-n thresholds controlling where vanishing can occur.

    Returns (nu_sharp, nu_flat, nu_tilde_sharp, nu_tilde_flat) with the
    defaults (0, 0, 0, 1) when no index qualifies.
    """
    # at the native parities every threshold grows like
    # p^n (p^2 - p - 1)/(p^2 + p), so the searches stop quickly
    lam = max(lambda_sharp, lambda_flat)
    bound = 1
    while p ** bound * (p * p - p - 1) <= (lam + p + 1) * (p * p + p):
        bound += 1
    bound += 3

    def largest(start, parity, predicate, default):
        best = default
        for n in range(start, bound + 1):
            if n % 2 == parity and predicate(n):
                best = n
        return best

    nu_sharp = largest(1, 1, lambda n: lambda_sharp >= p ** n - p ** (n - 1)
                       - kurihara_simple(n, p, SHARP), 0)
    nu_flat = largest(2, 0, lambda n: lambda_flat >= p ** n - p ** (n - 1)
                      - kurihara_simple(n, p, FLAT), 0)
    nu_tilde_flat = largest(3, 1, lambda n: lambda_flat >= p ** n - p ** (n - 1)
                            - p * kurihara_simple(n - 1, p, FLAT) - (p - 1) ** 2, 1)
    nu_tilde_sharp = largest(2, 0, lambda n: lambda_sharp >= p ** n - p ** (n - 1)
                             - p * kurihara_simple(n - 1, p, SHARP), 0)
    return nu_sharp, nu_flat, nu_tilde_sharp, nu_tilde_flat


@dataclass(frozen=True)
class RankBoundReport:
    p: int
    case: str
    nu_sharp: int
    nu_flat: int
    nu_tilde_sharp: int
    nu_tilde_flat: int
    nu: int
    bound: int
    lambda_sum_bound: int | None   # the ap = 0 companion bound, when applicable
    details: dict


def rank_bound(p, mu_sharp, mu_flat, lambda_sharp, lambda_flat, v):
    """Upper bound for the total vanishing count at p-power points.

    Three cases split on comparing |mu gap| with v = ord_p(ap); when
    v is infinite the lambda-sum bound is also reported and the minimum
    taken.
    """
    v = v if isinstance(v, ExtRational) else ExtRational(v)
    mu_sharp, mu_flat = Fraction(mu_sharp), Fraction(mu_flat)
    ns, nf, nts, ntf = nu_thresholds(p, lambda_sharp, lambda_flat)
    gap = abs(mu_sharp - mu_flat)
    details = {}
    if ExtRational(gap) <= v:
        case = "balanced"
        nu = max(ns, nf)
        bound = min(kurihara_simple(nu, p, SHARP) + lambda_sharp,
                    kurihara_simple(nu, p, FLAT) + lambda_flat)
    elif mu_sharp > mu_flat + v.value:
        case = "flat-dominant"
        nu = max(nf, ntf)
        if nu != 1:
            bound = min(kurihara_simple(nu, p, FLAT) + lambda_flat,
                        p * kurihara_simple(nu - 1, p, FLAT) - (p - 1) ** 2 + lambda_flat)
        else:
            bound = min(kurihara_simple(1, p, FLAT) + lambda_flat,
                        kurihara_simple(1, p, SHARP) + lambda_sharp)
    else:
        case = "sharp-dominant"
        nu = max(ns, nts)
        bound = min(p * kurihara_simple(nu - 1, p, SHARP) + lambda_sharp,
                    kurihara_simple(nu, p, SHARP) + lambda_sharp)
    lambda_sum = None
    if v.is_infinite:
        lambda_sum = lambda_sharp + lambda_flat
        bound = min(bound, lambda_sum)
    details["q_nu_sharp"] = kurihara_simple(nu, p, SHARP)
    details["q_nu_flat"] = kurihara_simple(nu, p, FLAT)
    return RankBoundReport(p=p, case=case, nu_sharp=ns, nu_flat=nf,
                           nu_tilde_sharp=nts, nu_tilde_flat=ntf, nu=nu,
                           bound=bound, lambda_sum_bound=lambda_sum,
                           details=details)


def sporadic_check(p, k, v, v2, n, mu_sharp, mu_flat, lambda_sharp, lambda_flat):
    """The excluded parameter combinations where the comparison is undefined."""
    v = v if isinstance(v, ExtRational) else ExtRational(v)
    v2 = v2 if isinstance(v2, ExtRational) else ExtRational(v2)
    mu_sharp, mu_flat = Fraction(mu_sharp), Fraction(mu_flat)
    if not v.is_infinite and v.value == 0:
        return mu_sharp == mu_flat and lambda_sharp == lambda_flat + p - 1
    if v.is_infinite or k is None:
        return False
    if v.value != Fraction(1, 2 * p ** k):
        return False
    vv = v.value
    if v2.is_infinite or v2.value != 2 * vv * (1 + Fraction(1, p) - Fraction(1, p * p)):
        return False
    drift = vv - 2 * vv / (p ** 3 + p ** 2)
    gap = mu_sharp - mu_flat
    if n % 2 != k % 2:
        return gap > drift or (gap == drift and lambda_sharp > lambda_flat)
    return gap < -drift or (gap == -drift and lambda_sharp <= lambda_flat)


@dataclass(frozen=True)
class ModestyDecision:
    star: str              # sharp | flat | tie | sporadic
    sharp_score: ExtRational
    flat_score: ExtRational
    n: int
    k_parity: int | None


def modesty_choose(n, p, params, mu_sharp, mu_flat, lambda_sharp, lambda_flat):
    """Pick the component with the strictly smaller growth score.

    Equal scores are reported as a tie, never broken; the sporadic
    parameter combinations are flagged before any comparison.
    """
    phi = p ** n - p ** (n - 1)
    s_sharp = ExtRational(phi * Fraction(mu_sharp) + lambda_sharp) \
        + kurihara_general(n, p, params, SHARP)
    s_flat = ExtRational(phi * Fraction(mu_flat) + lambda_flat) \
        + kurihara_general(n, p, params, FLAT)
    k_parity = params.k % 2 if params.k is not None else None
    if sporadic_check(p, params.k, params.v, params.v2, n,
                      mu_sharp, mu_flat, lambda_sharp, lambda_flat):
        star = "sporadic"
    elif s_sharp < s_flat:
        star = SHARP
    elif s_flat < s_sharp:
        star = FLAT
    else:
        star = "tie"
    return ModestyDecision(star=star, sharp_score=s_sharp, flat_score=s_flat,
                           n=n, k_parity=k_parity)


def elliptic_table_choose(v, n, mu_sharp, mu_flat, lambda_sharp, lambda_flat, p):
    """The elliptic-curve decision table (v quantized to {0, 1, oo} cases).

    Raises ExcludedCase on the v = 0 cell with equal mu and
    lambda_sharp = lambda_flat + p - 1.
    """
    v = v if isinstance(v, ExtRational) else ExtRational(v)
    mu_sharp, mu_flat = Fraction(mu_sharp), Fraction(mu_flat)
    if v.is_infinite:
        star = SHARP if n % 2 == 1 else FLAT
        return ModestyDecision(star=star, sharp_score=INF, flat_score=INF,
                               n=n, k_parity=None)
    if mu_sharp < mu_flat:
        star = SHARP
    elif mu_flat < mu_sharp:
        star = FLAT
    elif v.value == 0:
        primed = lambda_flat + p - 1
        if lambda_sharp < primed:
            star = SHARP
        elif lambda_sharp > primed:
            star = FLAT
        else:
            raise ExcludedCase(
                "equal mu with lambda_sharp = lambda_flat + p - 1 is excluded")
    else:
        star = SHARP if n % 2 == 1 else FLAT
    return ModestyDecision(star=star, sharp_score=INF, flat_score=INF,
                           n=n, k_parity=minimal_k(p, v))


@dataclass(frozen=True)
class ShaRecord:
    """One Galois-orbit member's invariants for the growth formula.

    kind 'ordinary' uses (mu, lam) of the single unit-root series with no
    Kurihara term; 'form' uses the sharp/flat pairs with the generalized
    terms and the comparison rule; 'elliptic' uses the decision table
    with min(1, v) times the plain terms.
    """

    kind: str                      # ordinary | form | elliptic
    r_infinity: int
    mu: Fraction | None = None
    lam: int | None = None
    mu_sharp: Fraction | None = None
    mu_flat: Fraction | None = None
    lambda_sharp: int | None = None
    lambda_flat: int | None = None
    v: ExtRational | None = None
    v2: ExtRational | None = None
    label: str = ""


@dataclass(frozen=True)
class ShaGrowthReport:
    increments: dict              # n -> e_n - e_(n-1)
    choices: dict                 # n -> tuple of per-record stars


def sha_growth(n_range, records, p):
    """Per-layer increments of the analytic Sha order.

    e_n - e_(n-1) = sum over records of mu*(p^n - p^(n-1)) + lambda* +
    q-term - r_infinity, with the component chosen per record kind.
    Raises SporadicCase/TieCase when the comparison is undefined at some
    requested n (the rule has no equality branch).
    """
    increments, choices = {}, {}
    for n in n_range:
        phi = p ** n - p ** (n - 1)
        total = Fraction(0)
        stars = []
        for rec in records:
            if rec.kind == "ordinary":
                total += Fraction(rec.mu) * phi + rec.lam - rec.r_infinity
                stars.append("natural")
                continue
            if rec.kind == "elliptic":
                decision = elliptic_table_choose(rec.v, n, rec.mu_sharp, rec.mu_flat,
                                                 rec.lambda_sharp, rec.lambda_flat, p)
                star = decision.star
                v = rec.v if isinstance(rec.v, ExtRational) else ExtRational(rec.v)
                scale = 1 if (v.is_infinite or v.value >= 1) else v.value
                q = scale * kurihara_simple(n, p, star) if scale else 0
                mu = rec.mu_sharp if star == SHARP else rec.mu_flat
                lam = rec.lambda_sharp if star == SHARP else rec.lambda_flat
                total += Fraction(mu) * phi + lam + q - rec.r_infinity
                stars.append(star)
                continue
            params = KuriharaParams.from_v(p, rec.v, rec.v2)
            decision = modesty_choose(n, p, params, rec.mu_sharp, rec.mu_flat,
                                      rec.lambda_sharp, rec.lambda_flat)
            if decision.star == "sporadic":
                if not params.v.is_infinite and params.v.value == 0 \
                        and rec.mu is not None and rec.lam is not None:
                    # ordinary-theory fallback for the v = 0 coincidence
                    total += Fraction(rec.mu) * phi + rec.lam - rec.r_infinity
                    stars.append("natural")
                    continue
                raise SporadicCase(f"record {rec.label or records.index(rec)} at n={n}")
            if decision.star == "tie":
                raise TieCase(f"record {rec.label or records.index(rec)} at n={n}")
            star = decision.star
            q = kurihara_general(n, p, params, star)
            mu = rec.mu_sharp if star == SHARP else rec.mu_flat
            lam = rec.lambda_sharp if star == SHARP else rec.lambda_flat
            total += Fraction(mu) * phi + lam + q.value - rec.r_infinity
            stars.append(star)
        increments[n] = total
        choices[n] = tuple(stars)
    return ShaGrowthReport(increments=increments, choices=choices)


def modesty_map(p, v_values, mu_gaps, lambda_sharp, lambda_flat,
                parities=(1, 0), depth=6):
    """Sweep the comparison rule over a (v, mu-gap, parity) grid at v2 = 2v.

    The representative layer for each (v, parity) is the smallest
    n > max(k, depth) of that parity, deep enough that the slope terms
    dominate the bookkeeping tails.  Emits one record per grid point.
    """
    records = []
    for v in v_values:
        v = v if isinstance(v, ExtRational) else ExtRational(v)
        params = KuriharaParams.from_v(p, v)
        k = params.k or 1
        for gap in mu_gaps:
            gap = Fraction(gap)
            mu_sharp = max(gap, Fraction(0))
            mu_flat = max(-gap, Fraction(0))
            for parity in parities:
                n = max(k, depth) + 1
                if n % 2 != parity:
                    n += 1
                decision = modesty_choose(n, p, params, mu_sharp, mu_flat,
                                          lambda_sharp, lambda_flat)
                records.append({
                    "v": v, "mu_gap": gap, "n_parity": parity, "n": n,
                    "k": params.k, "star": decision.star,
                })
    return records
