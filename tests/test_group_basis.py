"""The group-basis ring against the T-basis ring it replaced.

Every operation is run on the same inputs through the package and through
`tbasis_oracle` (the T-basis storage with Newton reductions and binomial
rows), and the T-coefficients, reports and raised errors must agree.
Rings range over p in {2, 3, 5, 7} with p^n <= 2401 and precisions up to
the bounds of test_polyops, so products sit on both sides of the one-word
Kronecker slot and both sides of the sparse-multiply rule.
"""

import contextlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iwt.iwasawa_algebra as algebra
import iwt.sharp_flat as sharp_flat
import tbasis_oracle as oracle
from iwt.cyclotomic_ext import eval_lambda_at_zeta
from iwt.cli import main
from iwt.errors import IwtError, NotDivisible, PrecisionExhausted
from iwt.iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                                 exact_divide_by_phi, iwasawa_invariants,
                                 lift_nu, newton_vr, project_pi,
                                 substitute_inverse, vanishing_order)
from iwt.logmatrix import det_identity_check, functional_equation_check
from iwt.mazur_tate import synthesize_queue
from iwt.padic_core import PadicInt
from iwt.sharp_flat import decompose, decompose_pair
from tbasis_oracle import TLambda

FIXTURE = Path(__file__).parent / "fixtures" / "e37a_p3.json"

PRIMES = (2, 3, 5, 7)
MAX_LEVEL = {2: 11, 3: 7, 5: 4, 7: 4}          # p^n <= 2401
MAX_PRECISION = {2: 40, 3: 25, 5: 17, 7: 14}
KINDS = ("dense", "sparse", "scaled", "long", "short")


@st.composite
def rings(draw, min_level=0, top=None):
    p = draw(st.sampled_from(PRIMES))
    top = MAX_LEVEL[p] if top is None else min(top, MAX_LEVEL[p])
    n = draw(st.integers(min_level, top))
    M = draw(st.integers(1, MAX_PRECISION[p]))
    return p, n, M, random.Random(draw(st.integers(0, 2 ** 32)))


def element(rng, p, n, M, kind):
    """The same element as (package, oracle), built from one random vector.

    sparse: at most 2p nonzero group coefficients, either side of the
    sparse-product rule; scaled: every coefficient divisible by p^k, k <= M, so
    mu > 0 and the zero element occur; long: T-coefficients past p^n,
    reduced by the relation; short: a few low T-coefficients.
    """
    size, modulus = p ** n, p ** M
    if kind == "sparse":
        units = [0] * size
        for _ in range(rng.randint(1, 2 * p)):
            units[rng.randrange(size)] = rng.randrange(modulus)
        return (LambdaElement.from_unit_basis(p, n, M, units),
                TLambda.from_unit_basis(p, n, M, units))
    length = {"dense": size, "scaled": size, "long": 2 * size + rng.randint(0, 3),
              "short": rng.randint(0, 3)}[kind]
    coeffs = [rng.randrange(modulus) for _ in range(length)]
    if kind == "scaled":
        shift = p ** rng.randint(0, M)
        coeffs = [c * shift for c in coeffs]
    return LambdaElement(p, n, M, coeffs), TLambda(p, n, M, coeffs)


def same(x, t):
    assert (x.p, x.level, x.precision) == (t.p, t.level, t.precision)
    assert x.coeffs == t.coeffs


def outcome(fn, *args):
    """fn(*args), or the type of the IwtError it raises."""
    try:
        return fn(*args)
    except IwtError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(rings(), st.sampled_from(KINDS), st.sampled_from(KINDS))
def test_ring_operations(ring, kind_x, kind_y):
    p, n, M, rng = ring
    (x, tx), (y, ty) = element(rng, p, n, M, kind_x), element(rng, p, n, M, kind_y)
    c = rng.randrange(-p ** M, p ** M)
    same(x + y, tx + ty)
    same(x - y, tx - ty)
    same(-x, -tx)
    same(x * y, tx * ty)
    same(y * x, ty * tx)
    same(c * x, c * tx)
    same(x * PadicInt(p, c, M), tx * PadicInt(p, c, M))
    s = rng.randrange(-3 * p ** n, 3 * p ** n)
    unit = LambdaElement.unit_power(p, n, M, s)
    same(unit, TLambda.unit_power(p, n, M, s))
    same(unit * x, TLambda.unit_power(p, n, M, s) * tx)
    assert (x == y) == (tx == ty) and (x == y) <= (hash(x) == hash(y))
    assert x.at_zero() == tx.at_zero() and x.is_zero() == tx.is_zero()
    assert x.to_unit_basis() == tx.to_unit_basis()


@settings(max_examples=40, deadline=None)
@given(rings(), st.sampled_from(KINDS), st.booleans())
def test_level_maps_and_cyclotomic_factors(ring, kind, hatted):
    p, n, M, rng = ring
    x, tx = element(rng, p, n, M, kind)
    if n >= 1:
        same(project_pi(x), oracle.project_pi(tx))
        i = rng.randint(1, n)
        same(cyclotomic_phi(p, i, n, M, hatted), oracle.cyclotomic_phi(p, i, n, M, hatted))
    if n < MAX_LEVEL[p]:
        same(lift_nu(x), oracle.lift_nu(tx))


@settings(max_examples=50, deadline=None)
@given(rings(min_level=1), st.sampled_from(KINDS), st.booleans(), st.booleans())
def test_exact_division_by_phi(ring, kind, hatted, divisible):
    p, n, M, rng = ring
    i = rng.randint(1, n)
    x, tx = element(rng, p, n, M, kind)
    if divisible:
        # a multiple of Phi_{p^i}, and with it a quotient to recover
        phi, tphi = cyclotomic_phi(p, i, n, M), oracle.cyclotomic_phi(p, i, n, M)
        x, tx = x * phi, tx * tphi
    got = outcome(exact_divide_by_phi, x, i, hatted)
    want = outcome(oracle.exact_divide_by_phi, tx, i, hatted)
    if want is NotDivisible:
        assert got is NotDivisible
    else:
        same(got, want)


@settings(max_examples=40, deadline=None)
@given(rings(top=5), st.sampled_from(KINDS))
def test_vanishing_orders(ring, kind):
    p, n, M, rng = ring
    x, tx = element(rng, p, n, M, kind)
    # T^a and Phi_{p^m}^b factors, so that orders above 0 occur
    for _ in range(rng.randint(0, 3)):
        m = rng.randint(0, n)
        if m:
            factor, tfactor = cyclotomic_phi(p, m, n, M), oracle.cyclotomic_phi(p, m, n, M)
        else:
            factor, tfactor = LambdaElement(p, n, M, [0, 1]), TLambda(p, n, M, [0, 1])
        x, tx = x * factor, tx * tfactor
    for m in range(n + 1):
        assert outcome(vanishing_order, x, m) == outcome(oracle.vanishing_order, tx, m)


@settings(max_examples=60, deadline=None)
@given(rings(), st.sampled_from(KINDS), st.fractions(Fraction(-1, 4), 3, max_denominator=12))
def test_invariants_and_newton_values(ring, kind, s):
    p, n, M, rng = ring
    x, tx = element(rng, p, n, M, kind)
    assert outcome(iwasawa_invariants, x) == outcome(oracle.iwasawa_invariants, tx)
    if s > 0:
        assert outcome(newton_vr, x, s) == outcome(oracle.newton_vr, tx, s)


@settings(max_examples=40, deadline=None)
@given(rings(min_level=1), st.sampled_from(KINDS))
def test_evaluation_at_zeta_and_the_inversion(ring, kind):
    p, n, M, rng = ring
    x, tx = element(rng, p, n, M, kind)
    for j in sorted({1, rng.randint(1, n), n}):
        assert eval_lambda_at_zeta(x, j) == oracle.eval_lambda_at_zeta(tx, j)
    same(substitute_inverse(x), oracle.substitute_inverse(tx))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(-9, 9), st.integers(1, 30),
       st.integers(0, 6))
def test_step_product_checks(p, level, ap, eps, extra):
    if eps % p == 0:
        eps += 1
    params = FormParams(p, ap, eps, level + 2 + extra)
    assert det_identity_check(params, level) == oracle.det_identity_check(params, level)
    report = functional_equation_check(params, level)
    assert (report.ok, report.failing_entries, report.twisted) \
        == oracle.functional_equation_check(params, level)


def test_the_oracle_raises_where_the_package_does():
    # the error cases the differential tests compare by type
    zero, tzero = LambdaElement.zero(3, 2, 5), TLambda.zero(3, 2, 5)
    assert outcome(iwasawa_invariants, zero) == outcome(oracle.iwasawa_invariants, tzero)
    assert outcome(vanishing_order, zero, 1) == outcome(oracle.vanishing_order, tzero, 1)
    one, tone = LambdaElement.one(3, 2, 5), TLambda.one(3, 2, 5)
    assert outcome(exact_divide_by_phi, one, 2) is NotDivisible
    assert outcome(oracle.exact_divide_by_phi, tone, 2) is NotDivisible
    with pytest.raises(NotDivisible, match=r"division by Phi_\{p\^2\}"):
        exact_divide_by_phi(one, 2)


@contextlib.contextmanager
def counted_shifts():
    """(length, modulus) of each Taylor shift that iwasawa_algebra makes
    inside the block."""
    calls = []
    shift = algebra.poly_taylor_shift

    def counted(f, c, modulus):
        calls.append((len(f), modulus))
        return shift(f, c, modulus)

    algebra.poly_taylor_shift = counted
    try:
        yield calls
    finally:
        algebra.poly_taylor_shift = shift


@settings(max_examples=30, deadline=None)
@given(rings())
def test_the_constructor_keeps_canonical_input(ring):
    p, n, M, rng = ring
    size = p ** n
    length = rng.choice([0, 1, 3, size - 1, size, size + 1, 2 * size + 1])
    coeffs = [rng.randrange(-2 * p ** M, 2 * p ** M) for _ in range(length)]
    x, tx = LambdaElement(p, n, M, coeffs), TLambda(p, n, M, coeffs)
    with counted_shifts() as shifts:
        same(x, tx)
    # T-coefficients of degree < p^n are the canonical representative
    assert len(shifts) == (length > size)


def ring_synthesis(seed, params, n):
    """synthesize_queue as ring arithmetic: the lift of the forced projection
    plus noise (drawn as T-coefficients) times (1+T)^(p^(m-1)) - 1."""
    p, M = params.p, params.precision
    rng = random.Random(seed)

    def draw(count):
        return [rng.randrange(p ** M) for _ in range(count)]

    elements = [LambdaElement(p, 0, M, draw(1)), LambdaElement(p, 1, M, draw(p))]
    for m in range(2, n + 1):
        target = params.ap * elements[m - 1] - params.eps_p * lift_nu(elements[m - 2])
        lift = LambdaElement.from_unit_basis(p, m, M, target.to_unit_basis())
        kernel_gen = (LambdaElement.unit_power(p, m, M, p ** (m - 1))
                      - LambdaElement.one(p, m, M))
        noise = LambdaElement(p, m, M, draw(p ** m - p ** (m - 1)))
        elements.append(lift + noise * kernel_gen)
    return elements


@pytest.mark.parametrize("p, ap, n, M", [(2, 0, 6, 14), (3, -3, 4, 12), (5, 2, 3, 11),
                                         (7, 0, 3, 5), (3, 1, 2, 1)])
def test_synthesized_towers_carry_their_coefficients(p, ap, n, M):
    params = FormParams(p, ap, 1, M)
    seq = synthesize_queue(11 * p + n, params, n)
    want = ring_synthesis(11 * p + n, params, n)
    assert list(seq.elements) == want
    with counted_shifts() as shifts:
        assert [x.coeffs for x in seq.elements] == [x.coeffs for x in want]
    # only the reference needed a shift per level to read them
    assert len(shifts) == n - 1


@pytest.mark.parametrize("p, ap, n, M, hatted", [(3, -3, 4, 12, False), (5, 0, 3, 11, True),
                                                 (7, 2, 2, 10, True), (2, 0, 5, 13, False)])
def test_decompose_makes_the_pair_coefficients(p, ap, n, M, hatted):
    params = FormParams(p, ap, 1, M)
    seq = synthesize_queue(5 * p + n, params, n)
    approx = decompose(seq[n], seq[n - 1], params, hatted=hatted)
    peeled = decompose_pair(seq[n], seq[n - 1], params, hatted=hatted)
    with counted_shifts() as shifts:
        assert (approx.sharp.coeffs, approx.flat.coeffs) == (peeled.sharp.coeffs,
                                                             peeled.flat.coeffs)
    # the two reads of the bare peel were its only shifts
    assert len(shifts) == 2


@pytest.mark.parametrize("p, n, M", [(2, 5, 6), (3, 3, 5), (5, 2, 4), (7, 2, 3)])
def test_invariants_at_prescribed_mu_and_lambda(p, n, M):
    # every lambda < p^n, those >= p^(n-1) included, where the first fold
    # already vanishes and the whole vector is shifted, at every mu < M; the
    # elements are built from their group-basis vectors, so no T-coefficient
    # view exists to read
    rng = random.Random(p ** n * M)
    size, modulus = p ** n, p ** M
    for mu in range(M):
        for lam in range(size):
            coeffs = ([p ** (mu + 1) * rng.randrange(modulus) for _ in range(lam)]
                      + [p ** mu * (rng.randrange(1, p) + p * rng.randrange(modulus))]
                      + [p ** mu * rng.randrange(modulus) for _ in range(lam + 1, size)])
            tx = TLambda(p, n, M, coeffs)
            x = LambdaElement.from_unit_basis(p, n, M, tx.to_unit_basis())
            with counted_shifts() as shifts:
                got = iwasawa_invariants(x)
            assert got.pair() == oracle.iwasawa_invariants(tx).pair() == (mu, lam)
            # one shift, of a fold mod p longer than lambda, and no view made
            assert len(shifts) == 1 and shifts[0][1] == p and shifts[0][0] > lam
            assert x._coeffs is None
    assert outcome(iwasawa_invariants, LambdaElement.zero(p, n, M)) is PrecisionExhausted
    assert outcome(oracle.iwasawa_invariants, TLambda.zero(p, n, M)) is PrecisionExhausted


@pytest.mark.parametrize("tame, hatted", [(0, False), (1, True)])
def test_the_invariants_command_converts_nothing(tmp_path, monkeypatch, tame, hatted):
    read = []

    def recorded(x):
        read.append(x)
        return iwasawa_invariants(x)

    monkeypatch.setattr(sharp_flat, "iwasawa_invariants", recorded)
    argv = ["invariants", "--input", str(FIXTURE), "--level", "4", "--tame", str(tame),
            "--out", str(tmp_path)] + ["--hatted"] * hatted
    with counted_shifts() as shifts:
        assert main(argv) == 0
    doc = json.loads((tmp_path / "invariants.json").read_text())
    # both components of levels 1..4, each read once, none converted
    assert len(read) == 8 and all(x._coeffs is None for x in read)
    assert shifts and all(modulus == 3 for _, modulus in shifts)
    assert doc["precision"] > 1
