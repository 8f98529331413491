"""Why character sums count solutions exactly.

The additive characters of F_q average to an indicator function:
(1/q) sum_mu psi(u mu) is 1 at u = 0 and 0 elsewhere.  Summing that
indicator over a search box turns "count the zeros of
a1 g1^x1 + a2 g2^x2 - b" into a product of short geometric-like sums,
one per term.  This script checks the identity numerically and then
counts solutions both ways on a small instance.
"""

import math

from expzeros.charsum import (brute_count, count_via_charsum,
                              delta_indicator, gauss_partial_sum,
                              make_box, make_equation, psi)
from expzeros.fields import make_field


def main():
    spec = make_field(7)
    e = spec.element

    print("== psi is a character of (F_7, +) ==")
    for k in range(7):
        z = psi(e([k]))
        print(f"  psi({k}) = {z.real:+.4f}{z.imag:+.4f}i")
    total = sum(psi(e([k])) for k in range(7))
    print(f"  sum over F_7: {abs(total):.2e} (cancellation)")

    print()
    print("== averaged characters give the 0-indicator ==")
    worst = 0.0
    for k in range(7):
        v = delta_indicator(e([k]))
        worst = max(worst, abs(v - (1.0 if k == 0 else 0.0)))
        print(f"  u={k}: {v:.12f}")
    print(f"  worst deviation {worst:.2e}")

    print()
    print("== partial Gauss sums obey the sqrt(q) bound at full order ==")
    spec49 = make_field(7, 2)
    g = spec49.from_packed(3)
    a = spec49.from_packed(1)
    mu = spec49.from_packed(5)
    # walk limits up to the order of g; the full sum is Weil-bounded
    from expzeros.arith import factorize, multiplicative_order
    s = multiplicative_order(g, factorize(48))
    for limit in (1, s // 4, s // 2, s):
        val = gauss_partial_sum(a, mu, g, limit)
        print(f"  limit {limit:2d}: |S| = {abs(val):7.3f}"
              + ("  <= sqrt(49) = 7" if limit == s else ""))
    assert abs(gauss_partial_sum(a, mu, g, s)) <= math.sqrt(49) + 1e-9

    print()
    print("== exact counting on 3^x1 + 2^x2 = 3 over F_7 ==")
    eq = make_equation(spec, [(e([1]), e([3])), (e([1]), e([2]))], e([3]))
    print(f"  term orders: {list(eq.orders)}")
    for r in (1, 2, 3):
        box = make_box(eq, r)
        exact, sols = brute_count(eq, box)
        approx = count_via_charsum(eq, box)
        print(f"  r={r}: brute {exact}, charsum {approx:.6f}, "
              f"solutions {sols}")
        assert round(approx) == exact


if __name__ == "__main__":
    main()
