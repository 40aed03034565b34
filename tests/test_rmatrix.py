"""R-matrix: Yang-Baxter, RTT residuals, inverse convention."""

import random

import pytest

from qncalc.ncalg import Element
from qncalc.presentations import free_presentation, preset
from qncalc.qfield import Scalar
from qncalc.rmatrix import (
    entry,
    forms_rtt_compat,
    perturbed_r,
    r_inverse_conventions,
    rtt_components,
    rtt_residual,
    standard_r,
    ybe_residual,
)

q = Scalar.q_power
w = Element.word
LAM = q(1) - q(-1)
ONE, ZERO = Scalar.from_int(1), Scalar.from_int(0)
IDENTITY = tuple(tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4))


def ybe_holds(r):
    return all(c.is_zero for row in ybe_residual(r) for c in row)


def _random_r(seed):
    rng = random.Random(seed)
    return tuple(tuple(Scalar.from_int(rng.randint(-3, 3)) * q(rng.randint(-2, 2))
                       + Scalar.fraction(rng.randint(-2, 2), rng.randint(1, 3))
                       for _ in range(4)) for _ in range(4))


# the index formulas of eq 2.5 and eq 2.4 written out as nested sums: the
# references the matrix products in ``rmatrix`` are compared against
def _ybe_by_indices(r):
    rng = (1, 2)
    out = []
    for i1 in rng:
        for j1 in rng:
            for k1 in rng:
                row = []
                for i3 in rng:
                    for j3 in rng:
                        for k3 in rng:
                            lhs = rhs = ZERO
                            for i2 in rng:
                                for j2 in rng:
                                    for k2 in rng:
                                        lhs = lhs + (entry(r, i1, j1, i2, j2)
                                                     * entry(r, i2, k1, i3, k2)
                                                     * entry(r, j2, k2, j3, k3))
                                        rhs = rhs + (entry(r, j1, k1, j2, k2)
                                                     * entry(r, i1, k2, i2, k3)
                                                     * entry(r, i2, j2, i3, j3))
                            row.append(lhs - rhs)
                out.append(tuple(row))
    return tuple(out)


def _rtt_by_indices(r):
    t = {(1, 1): w("a"), (1, 2): w("b"), (2, 1): w("c"), (2, 2): w("d")}
    rng = (1, 2)
    comps = {}
    for i in rng:
        for j in rng:
            for m in rng:
                for n in rng:
                    acc = Element.zero()
                    for k in rng:
                        for l in rng:
                            acc = acc + entry(r, i, j, k, l) * (t[(k, m)] * t[(l, n)])
                            acc = acc - entry(r, k, l, m, n) * (t[(j, l)] * t[(i, k)])
                    comps[(i, j, m, n)] = acc
    return comps


_R_CASES = {"standard": standard_r, "perturbed": perturbed_r,
            "identity": lambda: IDENTITY, "random": lambda: _random_r(16)}


@pytest.mark.parametrize("case", _R_CASES)
def test_matrix_products_match_index_formulas(case):
    r = _R_CASES[case]()
    assert ybe_residual(r) == _ybe_by_indices(r)
    comps, ref = rtt_components(r), _rtt_by_indices(r)
    assert list(comps) == list(ref)
    assert all(comps[k] == ref[k] for k in ref)
    if case == "random":        # the comparison is not between two zeros
        assert not ybe_holds(r)


def test_standard_entries_match_printed_matrix():
    r = standard_r()
    assert entry(r, 1, 1, 1, 1) == q(1)
    assert entry(r, 2, 2, 2, 2) == q(1)
    assert entry(r, 1, 2, 1, 2) == Scalar.from_int(1)
    assert entry(r, 2, 1, 2, 1) == Scalar.from_int(1)
    assert entry(r, 2, 1, 1, 2) == LAM
    assert sum(1 for row in r for c in row if not c.is_zero) == 5


def test_ybe_standard_zero():
    assert ybe_holds(standard_r())


def test_ybe_identity_matrix():
    assert ybe_holds(IDENTITY)


def test_ybe_perturbed_nonzero_with_witness():
    res = ybe_residual(perturbed_r())
    nonzero = [(i, j) for i, row in enumerate(res)
               for j, c in enumerate(row) if not c.is_zero]
    assert nonzero


def test_rtt_all_zero_under_glq2():
    res = rtt_residual(standard_r(), preset("glq2"))
    assert all(v.is_zero for v in res.values()), {
        k: str(v) for k, v in res.items() if not v.is_zero}


def test_rtt_all_zero_under_unimodular_presets():
    for pid in ("slq2-left", "slq2-right", "glq2-left", "glq2-right"):
        res = rtt_residual(standard_r(), preset(pid))
        assert all(v.is_zero for v in res.values()), pid


def test_rtt_free_presentation_component_oracle():
    # hand expansion of component (1,1,1,2): q a.b - (b.a + lam a.b),
    # proportional to a.b - q b.a
    free = free_presentation("a", "b", "c", "d")
    res = rtt_residual(standard_r(), free)
    comp = res[(1, 1, 1, 2)]
    expected = q(-1) * (w("a.b") - q(1) * w("b.a"))
    assert comp == expected
    assert not all(v.is_zero for v in res.values())


def test_rtt_identity_r_leaves_plain_commutators():
    res = rtt_residual(IDENTITY, preset("glq2"))
    assert not all(v.is_zero for v in res.values())
    free = free_presentation("a", "b", "c", "d")
    res_free = rtt_residual(IDENTITY, free)
    assert res_free[(1, 1, 1, 2)] == w("a.b") - w("b.a")


def test_forms_rtt_compat_calculus_presets():
    for pid in ("glq2-left", "glq2-right"):
        for label, res in forms_rtt_compat(standard_r(), preset(pid)):
            assert res.is_zero, (pid, label, res)


def test_forms_rtt_compat_fails_without_relations():
    from qncalc.ncalg import Generator, Presentation, TerminationOrder
    gens = [Generator(n, 0) for n in "bcad"]
    gens.append(Generator("f", 1))
    free = Presentation("free-f", gens, TerminationOrder("deglex"), [],
                        form_position="right")
    residuals = forms_rtt_compat(standard_r(), free)
    assert any(not res.is_zero for _, res in residuals)


def test_r_inverse_convention_plain_holds():
    conv = r_inverse_conventions()
    assert conv["plain"] is True
