"""Quantum query costs: exact Grover simulation and the search model.

Three layers, checked against each other.  First the closed form
sin^2((2k+1) asin sqrt(m/t)) against an exact state-vector simulation.
Then the BBHT schedule for an unknown number of marked items, whose
expected query count, summed in closed form, stays inside the
O(sqrt(t/m)) envelope.  Finally the
end-to-end model: the solver's outer grid becomes the Grover search
space, so modeled queries scale like the square root of the grid size,
or sqrt(t/M) once the expected number M of solutions is factored in.
"""

import math

from expzeros import qmodel
from expzeros.charsum import make_equation
from expzeros.fields import make_field


def main():
    print("== closed form vs state vector ==")
    for t, m in ((64, 1), (256, 4), (1000, 7)):
        k_opt = qmodel.grover_optimal_k(t, m)
        for k in (0, 1, k_opt):
            closed = qmodel.grover_success(t, m, k)
            sim = qmodel.grover_simulate(t, range(m), k)
            print(f"  t={t:4d} m={m} k={k:2d}: closed {closed:.6f} "
                  f"sim {sim:.6f} diff {abs(closed - sim):.1e}")

    print()
    print("== BBHT: unknown m, expected queries ==")
    for t, m in ((1024, 1), (1024, 16), (4096, 3)):
        expected = qmodel.bbht_expected_queries(t, m)
        envelope = 4 * math.sqrt(t / m)
        print(f"  t={t:4d} m={m:2d}: expected {expected:6.1f}  "
              f"envelope 4*sqrt(t/m) = {envelope:6.1f}")

    print()
    print("== end-to-end model on 2^x1 + 16^x2 = b over F_101 ==")
    spec = make_field(101)
    e = spec.element
    terms = [(e([1]), e([2])), (e([1]), e([16]))]
    print(f"{'b':>4} {'mode':>5} {'t':>5} {'M':>4} {'modeled':>8} "
          f"{'bound ok':>8} {'M_est/M in [1/4,4]':>19}")
    for bv in (3, 17, 42):
        for mode in ("thm2", "thm3"):
            eq = make_equation(spec, terms, e([bv]))
            rep = qmodel.model_quantum_solve(eq, mode)
            ratio = ("-" if rep.m_ratio is None
                     else f"{'yes' if 0.25 <= rep.m_ratio <= 4 else 'NO'}"
                          f" ({rep.m_ratio:.2f})")
            print(f"{bv:>4} {mode:>5} {rep.t:>5} {rep.m_exact:>4} "
                  f"{rep.modeled_queries:>8} {str(rep.within_bound):>8} "
                  f"{ratio:>19}")

    print()
    print("modeled queries grow like sqrt(t); the classical ledger for")
    print("the same instances walks the t grid points one by one.")


if __name__ == "__main__":
    main()
