"""Built-in example corpus: small worked identities run by `iwt selfcheck`.

Each check is a named callable returning True on success; the CLI prints
one line per check and exits nonzero if any fails.  These cover the
hand-checkable identities; the full randomized and fixture-backed
batteries live in the pytest suite.
"""

from __future__ import annotations

from fractions import Fraction

from .bsd_analytics import (KuriharaParams, kurihara_general, kurihara_simple,
                            modesty_choose, nu_thresholds, rank_bound)
from .cyclotomic_ext import (EisensteinElement, h_matrix_valuations,
                             phi_at_zeta)
from .iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                              exact_divide_by_phi, iwasawa_invariants,
                              lift_nu, newton_vr, project_pi,
                              substitute_inverse, vanishing_order)
from .logmatrix import det_identity_check, functional_equation_check, half_logs
from .mazur_tate import synthesize_queue, validate_queue
from .padic_core import (ExtRational, PadicInt, ValMatrix, log_gamma,
                         teichmuller, tropical_mul)
from .sharp_flat import decompose, recompose


def _checks():
    F = Fraction
    INF = ExtRational.infinity()

    def padic_arith():
        x = PadicInt(3, 5, 4) * PadicInt(3, 2, 4)
        inv = PadicInt(3, 2, 4).inverse()
        s = PadicInt(5, 100, 3) + PadicInt(5, 30, 3)
        return x == 10 and inv == 41 and s == 5 and s.valuation() == 1

    def teichmuller_values():
        return (teichmuller(1, 3, 2) == 1 and teichmuller(2, 3, 2) == 8
                and pow(teichmuller(2, 5, 3).residue, 4, 125) == 1)

    def log_gamma_values():
        return (log_gamma(7, 3, 2), log_gamma(4, 3, 2), log_gamma(1, 5, 3)) == (1, 2, 0)

    def tropical_identity():
        x = ValMatrix([[F(1, 2), 3], [0, INF]])
        idm = ValMatrix.tropical_identity()
        flat = ValMatrix([[0, 0], [1, 1]])
        return (tropical_mul(idm, x) == x and tropical_mul(x, idm) == x
                and tropical_mul(flat, flat) == flat)

    def lambda_relation():
        prod = LambdaElement.monomial(3, 1, 6, 1) * LambdaElement.monomial(3, 1, 6, 2)
        want = LambdaElement(3, 1, 6, [0, -3, -3])
        unit = LambdaElement.unit_power(3, 2, 6, 9) == LambdaElement.one(3, 2, 6)
        return prod == want and unit

    def pi_nu():
        x = LambdaElement(3, 1, 8, [4, 7, 1])
        return (project_pi(lift_nu(x)) == 3 * x
                and lift_nu(LambdaElement.one(3, 0, 8))
                == LambdaElement(3, 1, 8, [3, 3, 1]))

    def phi_values():
        phi3 = cyclotomic_phi(3, 1, 1, 6) == LambdaElement(3, 1, 6, [3, 3, 1])
        phi2 = cyclotomic_phi(2, 1, 1, 6, hatted=True) == LambdaElement(2, 1, 6, [2, 1])
        phihat = cyclotomic_phi(3, 1, 1, 6, hatted=True) == cyclotomic_phi(3, 1, 1, 6)
        return phi3 and phi2 and phihat

    def divide_roundtrip():
        g = LambdaElement(3, 2, 8, [1, 2])
        return exact_divide_by_phi(g * cyclotomic_phi(3, 2, 2, 8), 2) == g

    def orders_and_invariants():
        x = cyclotomic_phi(3, 1, 2, 8) * cyclotomic_phi(3, 1, 2, 8)
        inv = iwasawa_invariants(LambdaElement(3, 1, 8, [9, 3, 1]))
        inv2 = iwasawa_invariants(3 * LambdaElement(3, 1, 8, [1, 1]))
        return (vanishing_order(x, 1) == 2 and inv.pair() == (0, 2)
                and inv2.pair() == (1, 0))

    def newton_values():
        one = newton_vr(LambdaElement.monomial(3, 1, 8, 1), F(1, 2)) == ExtRational(F(1, 2))
        phi = newton_vr(cyclotomic_phi(3, 2, 2, 8), F(1, 12)) == ExtRational(F(1, 2))
        return one and phi

    def inversion():
        x = LambdaElement(3, 2, 8, list(range(1, 10)))
        ph = cyclotomic_phi(3, 2, 2, 8, hatted=True)
        return substitute_inverse(substitute_inverse(x)) == x \
            and substitute_inverse(ph) == ph

    def eisenstein_basics():
        pi = EisensteinElement.uniformizer(3, 1, 8)
        zero = (pi * pi + 3 * pi + 3).is_zero()
        return (pi.ord() == ExtRational(F(1, 2)) and zero
                and EisensteinElement.constant(3, 2, 8, 3).ord() == ExtRational(1)
                and phi_at_zeta(3, 3, 2, 8) == EisensteinElement.constant(3, 2, 8, 3))

    def h_matrix_ordinary():
        unit = EisensteinElement.constant(3, 3, 10, 2)
        want = ValMatrix([[0, 0], [F(1, 9), F(1, 9)]])
        return h_matrix_valuations(unit, 2, 3) == want

    def det_identity():
        return all(det_identity_check(FormParams(p, ap, 1, 8), 2)
                   for p, ap in ((2, 2), (3, -3), (5, 2)))

    def functional_equation():
        return (functional_equation_check(FormParams(3, -3, 1, 8), 2).ok
                and functional_equation_check(FormParams(2, 2, 1, 8), 2).ok)

    def half_log_units():
        hl = half_logs(3, 2, 1, 8)
        fixed = hl.log_plus_numerator * hl.w_plus \
            == substitute_inverse(hl.log_plus_numerator)
        return hl.log_plus_numerator == cyclotomic_phi(3, 2, 2, 8) and fixed

    def queue_roundtrip():
        params = FormParams(3, -3, 1, 12)
        seq = synthesize_queue(7, params, 3)
        appr = decompose(seq[3], seq[2], params)
        theta, nu_prev = recompose(appr)
        return (validate_queue(seq).valid and theta == seq[3]
                and nu_prev == lift_nu(seq[2]))

    def kurihara_values():
        kp = KuriharaParams.from_v(3, 1)
        return (kurihara_simple(3, 3, "sharp") == 6
                and kurihara_simple(2, 3, "flat") == 2
                and kurihara_simple(1, 7, "sharp") == 0
                and kurihara_general(4, 3, kp, "sharp") == ExtRational(60))

    def rank_bound_values():
        report = rank_bound(3, 0, 0, 1, 5, 1)
        return (nu_thresholds(3, 1, 5)[:2] == (0, 2)
                and report.bound == 7 and report.bound > 1 + 5)

    def modesty_values():
        k0 = KuriharaParams.from_v(3, 0)
        kinf = KuriharaParams.from_v(3, ExtRational.infinity())
        stars = [modesty_choose(n, 3, kinf, 0, 0, 1, 1).star for n in (1, 2)]
        return (modesty_choose(4, 3, k0, 0, 1, 2, 2).star == "sharp"
                and stars == ["sharp", "flat"])

    return [
        ("padic ring ops", padic_arith),
        ("teichmuller lifts", teichmuller_values),
        ("cyclotomic discrete log", log_gamma_values),
        ("tropical matrices", tropical_identity),
        ("group-algebra relation", lambda_relation),
        ("projection/fiber-sum maps", pi_nu),
        ("cyclotomic polynomials", phi_values),
        ("exact division", divide_roundtrip),
        ("orders and invariants", orders_and_invariants),
        ("polygon valuations", newton_values),
        ("inversion automorphism", inversion),
        ("eisenstein ring", eisenstein_basics),
        ("h-matrix unit slope", h_matrix_ordinary),
        ("determinant identity", det_identity),
        ("functional equation", functional_equation),
        ("half-log units", half_log_units),
        ("queue round trip", queue_roundtrip),
        ("kurihara terms", kurihara_values),
        ("rank bound", rank_bound_values),
        ("modesty rule", modesty_values),
    ]


def run_selfcheck():
    failures = 0
    for name, fn in _checks():
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure with context
            ok = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(("PASS " if ok else "FAIL ") + name)
        failures += 0 if ok else 1
    return failures
