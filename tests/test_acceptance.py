"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7 asserts the exact dimension sequence 9, 15, 22 of
the 2-truncated quotient, derived by hand in its comment and cross-checked
by the oracle and the collapse element in test_truncation.py.  The
published degree-2 value 24 is a known erratum.
"""

import itertools
import random
import time
from fractions import Fraction

from poissonenv.fileformat import load_bundled_algebra
from poissonenv.ncpa import (
    axiom_violations,
    is_poisson_simple,
    poisson_ideal_closure,
    regular_poisson_structures,
)
from poissonenv.pbw import module_algebra_failures, u_monomials
from poissonenv.poisson_modules import (
    QuasiPoissonModule,
    annihilator,
    j_annihilation_check,
    poisson_violations,
    quasi_violations,
    quotient_module,
    regular_module,
    roundtrip_report,
    standard_bimodule_to_poisson,
    tensor_square_module,
)
from poissonenv.smash import (
    embed,
    generator_relation_failures,
    q_mult,
)
from poissonenv.truncation import (
    TruncatedQuotient,
    dimension_table,
    ideal_gens_by_label,
    ideal_j_gens,
)
from poissonenv.words import shuffle_coproduct

from conftest import mono_product

ONE = Fraction(1)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) {detail}"


def test_criterion_01_axiom_suite(kxk, m2, trunc2):
    ok = True
    detail = ""
    for A in (kxk, m2, trunc2):
        t0 = time.perf_counter()
        good = axiom_violations(A.presentation) == []
        fast = time.perf_counter() - t0 < 1.0
        ok = ok and good and fast
    for name, axiom in (
        ("bad-antisym.alg", "antisymmetry"),
        ("bad-jacobi.alg", "jacobi"),
        ("bad-leibniz.alg", "leibniz"),
    ):
        t0 = time.perf_counter()
        violations = axiom_violations(load_bundled_algebra(name))
        fast = time.perf_counter() - t0 < 1.0
        witnessed = any(v.axiom == axiom for v in violations)
        if not witnessed:
            detail = f"{name} missing {axiom} witness"
        ok = ok and witnessed and fast
    _report(1, "axiom suite with violation witnesses", ok, detail)


def test_criterion_02_hopf_and_module_algebra(kxk, m2, trunc2):
    t0 = time.perf_counter()
    ok = True
    for A in (kxk, m2, trunc2):
        ok = ok and module_algebra_failures(A, 3) == []
    # coassociativity / cocommutativity / counit laws on words of degree <= 4
    for r in range(5):
        for w in itertools.product(range(4), repeat=r):
            delta = shuffle_coproduct(w)
            flipped = {(b, a): c for (a, b), c in delta.items()}
            ok = ok and delta == flipped
            left = {}
            right = {}
            for (w1, w2), c in delta.items():
                if not w1:  # the counit is 1 on the empty word, 0 on others
                    left[w2] = left.get(w2, Fraction(0)) + c
                if not w2:
                    right[w1] = right.get(w1, Fraction(0)) + c
            ok = ok and left == {w: ONE} and right == {w: ONE}
            lhs = {}
            rhs = {}
            for (w1, w2), c in delta.items():
                for (u1, u2), d in shuffle_coproduct(w1).items():
                    key = (u1, u2, w2)
                    lhs[key] = lhs.get(key, Fraction(0)) + c * d
                for (u1, u2), d in shuffle_coproduct(w2).items():
                    key = (w1, u1, u2)
                    rhs[key] = rhs.get(key, Fraction(0)) + c * d
            ok = ok and lhs == rhs
    elapsed = time.perf_counter() - t0
    _report(2, "module-algebra law and coalgebra laws", ok and elapsed < 10.0,
            f"{elapsed:.1f}s")


def test_criterion_03_smash_associativity(kxk, m2):
    t0 = time.perf_counter()
    violations = 0
    monos = [(i, j, w) for w in u_monomials(2, 3) for i in range(2) for j in range(2)]
    for a, b, c in itertools.product(monos, repeat=3):
        if len(a[2]) + len(b[2]) + len(c[2]) > 3:
            continue
        lhs = q_mult(kxk, mono_product(kxk, a, b), {c: ONE})
        rhs = q_mult(kxk, {a: ONE}, mono_product(kxk, b, c))
        if lhs != rhs:
            violations += 1
    rng = random.Random(20250810)
    monos_m2 = [(i, j, w) for w in u_monomials(4, 2) for i in range(4) for j in range(4)]
    for _ in range(500):
        a, b, c = (rng.choice(monos_m2) for _ in range(3))
        lhs = q_mult(m2, mono_product(m2, a, b), {c: ONE})
        rhs = q_mult(m2, {a: ONE}, mono_product(m2, b, c))
        if lhs != rhs:
            violations += 1
    elapsed = time.perf_counter() - t0
    _report(3, "enveloping product associativity",
            violations == 0 and elapsed < 60.0,
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_04_generator_relations(kxk, m2, trunc2):
    failures = []
    for A in (kxk, m2, trunc2):
        failures += generator_relation_failures(A)
    _report(4, "embedding generator relations", failures == [],
            f"{len(failures)} failures")


def test_criterion_05_trivial_bracket_specialization(trunc2):
    rng = random.Random(42)
    monos = [
        (i, j, w) for w in u_monomials(3, 3) for i in range(3) for j in range(3)
    ]
    bad = 0
    for _ in range(200):
        m1, m2_ = rng.choice(monos), rng.choice(monos)
        (i1, j1, al), (i2, j2, be) = m1, m2_
        expected = {}
        word = tuple(sorted(al + be))
        for p, cp in trunc2.mul_basis(i1, i2).data.items():
            for q, dq in trunc2.mul_basis(j2, j1).data.items():
                expected[(p, q, word)] = cp * dq
        if mono_product(trunc2, m1, m2_) != expected:
            bad += 1
    _report(5, "zero-bracket componentwise product", bad == 0, f"{bad} mismatches")


def test_criterion_06_kxk_dimension_sequence(kxk):
    t0 = time.perf_counter()
    table = dimension_table(kxk, ideal_j_gens(kxk), 3)
    dims = [row["dimension"] for row in table]
    stable = all(row["stable"] for row in table)
    sat = all(row["saturation"] == row["degree"] + 2 for row in table)
    elapsed = time.perf_counter() - t0
    _report(6, "product-compat quotient of K x K is 4, 6, 8, 10",
            dims == [4, 6, 8, 10] and stable and sat and elapsed < 60.0,
            f"dims={dims}, {elapsed:.1f}s")


def test_criterion_07_trunc2_dimension_sequence(trunc2):
    # trunc2-n2 is A = k[x1,x2]/(x1,x2)^2 with zero bracket, so the
    # enveloping algebra is the commutative ring R[t0,t1,t2], R = A (x) A
    # (x_a the left copy, y_b the right copy, t_i the Lie embeddings).
    # The J generators reduce to t0 and h_ab = x_a t_b + y_b t_a (the
    # Leibniz rule), all of t-degree 1, so the degree-<=d slice is exactly
    # the span of their monomial multiples.  Counting the quotient by
    # (R-degree, t-degree), with R of dimension 1, 4, 4 in R-degree 0, 1, 2:
    #   t-degree 0:  1 + 4 + 4                     = 9
    #   t-degree 1:  2 + (8 - 4)  + (8 - 8)        = 6
    #   t-degree 2:  3 + (12 - 8) + (12 - 12)      = 7
    # hence 9, 15, 22.  The 8 relations t_c h_ab in bidegree (1, 2) have
    # rank 8; two of their differences, y1 t1t2 - y2 t1^2 and
    # y2 t1t2 - y1 t2^2, lie in J, so two published basis elements coincide
    # in the quotient: the published degree-2 value 24 is an erratum.
    # Every computed slice row is a product m1 g m2 in J, so the computed
    # 22 already bounds the true dimension from above.  Cross-checks in
    # test_truncation.py: the commutative-model oracle and the explicit
    # collapse element.
    t0 = time.perf_counter()
    table = dimension_table(trunc2, ideal_j_gens(trunc2), 2)
    dims = [row["dimension"] for row in table]
    flags = [row["stable"] for row in table]
    elapsed = time.perf_counter() - t0
    _report(7, "product-compat quotient of the 2-truncated algebra",
            dims == [9, 15, 22] and all(flags) and elapsed < 300.0,
            f"dims={dims} (want [9, 15, 22]), stable={flags} (want all), "
            f"{elapsed:.1f}s (limit 300s)")


def test_criterion_08_standard_quotient(kxk):
    table = dimension_table(kxk, ideal_gens_by_label(kxk, "J+I"), 3)
    dims = [row["dimension"] for row in table]
    stable = all(row["stable"] for row in table)
    q = TruncatedQuotient(kxk, ideal_j_gens(kxk), 1)
    lie_unit_dies = q.reduce(embed(kxk, "j", kxk.unit)).is_zero()
    _report(8, "standard quotient collapses to the bimodule algebra",
            dims == [4, 4, 4, 4] and stable and lie_unit_dies,
            f"dims={dims}, j(1)->0: {lie_unit_dies}")


def test_criterion_09_functor_roundtrips(kxk, m2, trunc2):
    ok = True
    detail = []
    cases = [(A, regular_module(A)) for A in (kxk, m2, trunc2)]
    cases.append((kxk, tensor_square_module(kxk)))
    for A, M in cases:
        report = roundtrip_report(A, M, 2)
        if not report["ok"]:
            ok = False
            detail.append(A.name)
    _report(9, "module/action passages are mutually inverse", ok,
            ",".join(detail))


def test_criterion_10_poisson_iff_annihilation(kxk, m2, trunc2):
    from poissonenv.linalg import mat_from_rows

    modules = []
    for A in (kxk, m2, trunc2):
        modules.append((A, regular_module(A)))
        modules.append((A, tensor_square_module(A)))
    reg = regular_module(kxk)
    proj = mat_from_rows([{0: 1}, {}])
    zero = mat_from_rows([{}, {}])
    modules.append(
        (kxk, QuasiPoissonModule(kxk, 2, reg.left, reg.right, (proj, zero)))
    )
    modules.append(
        (kxk, QuasiPoissonModule(kxk, 2, reg.left, reg.right, (zero, proj)))
    )
    regm2 = regular_module(m2)
    modules.append((m2, standard_bimodule_to_poisson(m2, regm2.left, regm2.right)))
    structures = regular_poisson_structures(trunc2)
    for psi in structures.space.rows:
        modules.append(
            (trunc2, regular_module(trunc2, structures.star_bracket_table(psi)))
        )
    assert len(modules) >= 10
    agree = True
    saw_violator = False
    for A, M in modules:
        if quasi_violations(M):
            agree = False
            break
        is_poisson = poisson_violations(M) == []
        saw_violator = saw_violator or not is_poisson
        if j_annihilation_check(A, M) != is_poisson:
            agree = False
    _report(10, "product compatibility equals ideal annihilation",
            agree and saw_violator,
            f"{len(modules)} modules, violators included: {saw_violator}")


def test_criterion_11_regular_structure_spaces(kxk, m2, trunc2):
    ok = True
    for A in (m2, kxk):
        if regular_poisson_structures(A).space.rank != 0:
            ok = False
    # every qualifying twist, including zero, induces a Poisson module
    from poissonenv.linalg import SparseVector

    for A in (kxk, m2, trunc2):
        structures = regular_poisson_structures(A)
        twists = [SparseVector(A.n * A.n)] + list(structures.space.rows)
        for psi in twists:
            M = regular_module(A, structures.star_bracket_table(psi))
            if poisson_violations(M):
                ok = False
    _report(11, "regular twist spaces and induced modules", ok)


def test_criterion_12_simplicity_and_annihilators(kxk, m2):
    rep_kxk = is_poisson_simple(kxk)
    rep_m2 = is_poisson_simple(m2)
    witness_ok = (
        not rep_kxk.simple
        and rep_kxk.witness is not None
        and 0 < rep_kxk.witness.rank < 2
        and poisson_ideal_closure(kxk, rep_kxk.witness.rows) == rep_kxk.witness
    )
    ideal = poisson_ideal_closure(kxk, [kxk.basis(0)])
    M = quotient_module(kxk, ideal)
    ann = annihilator(kxk, M)
    ann_ok = list(ann.rows) == [kxk.basis(0)]
    closure_ok = poisson_ideal_closure(kxk, ann.rows) == ann
    _report(12, "simplicity verdicts and annihilators",
            witness_ok and rep_m2.simple and ann_ok and closure_ok)
