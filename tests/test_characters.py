from fractions import Fraction as F
from itertools import permutations, product

import pytest

from fockcorr.characters import dimension, denominator_det, numerator_det, torus_vars
from fockcorr.combinat import ModuleLabel, enumerate_labels
from fockcorr.errors import LabelError
from fockcorr.identities import DUALITY
from fockcorr.laurent import LaurentPoly, exact_div
from fockcorr.weyl import weyl_denominator_poly
from reference_characters import character, dominant_coefficient


def lp(vars_, terms):
    return LaurentPoly(vars_, {tuple(e): F(c) for e, c in terms.items()})


def test_sp2_characters():
    assert character("Sp2l", ModuleLabel("c", 1, (1,))) == \
        lp(("z1",), {(1,): 1, (-1,): 1})
    assert character("Sp2l", ModuleLabel("c", 1, (0,))) == lp(("z1",), {(0,): 1})


def test_o2_characters():
    assert character("O2l", ModuleLabel("d", 1, (3,))) == \
        lp(("z1",), {(3,): 1, (-3,): 1})
    assert character("O2l", ModuleLabel("d", 1, (0,))) == \
        lp(("z1",), {(0,): 1})


def test_o3_character():
    ch = character("B2l1", ModuleLabel("d", F(3, 2), (1,)))
    assert ch == lp(("w1",), {(2,): 1, (0,): 1, (-2,): 1})  # z + 1 + 1/z


def test_pin2_character():
    ch = character("Pin2l", ModuleLabel("b", 1, (1,)))
    assert ch == lp(("w1",), {(3,): 1, (-3,): 1})  # z^{3/2} + z^{-3/2}


def test_dominant_coefficients():
    assert dominant_coefficient("O2l", ModuleLabel("d", 2, (1, 0))) == 2
    assert dominant_coefficient("O2l", ModuleLabel("d", 2, (2, 1))) == 1
    assert dominant_coefficient("B2l1", ModuleLabel("d", F(5, 2), (2, 1))) == 1
    assert dominant_coefficient("B2l1", ModuleLabel("d", F(5, 2), (0, 0))) == 1
    assert dominant_coefficient("Pin2l", ModuleLabel("b", 2, (1, 0))) == 1


def test_spin_label_guards():
    with pytest.raises(LabelError):
        character("Pin2l", ModuleLabel("d", 2, (1, 0)))
    with pytest.raises(LabelError):
        character("Sp2l", ModuleLabel("b", 1, (1,)))


def _signed_images(ch, l):
    """All signed-permutation images of a character in its torus variables."""
    vars_ = ch.vars
    for perm in permutations(range(l)):
        for signs in product((1, -1), repeat=l):
            out = {}
            for e, c in ch.terms.items():
                ee = tuple(signs[i] * e[perm[i]] for i in range(l))
                out[ee] = out.get(ee, F(0)) + c
            yield LaurentPoly(vars_, out)


@pytest.mark.parametrize("family,label", [
    ("O2l", ModuleLabel("d", 2, (2, 1))),
    ("O2l", ModuleLabel("d", 3, (2, 1, 0))),
    ("Sp2l", ModuleLabel("c", 2, (2, 1))),
    ("Sp2l", ModuleLabel("c", 3, (1, 1, 0))),
    ("B2l1", ModuleLabel("d", F(5, 2), (2, 0))),
    ("Pin2l", ModuleLabel("b", 2, (2, 1))),
])
def test_weyl_group_invariance(family, label):
    ch = character(family, label)
    l = label.rank()
    for image in _signed_images(ch, l):
        assert image == ch


def test_o2l_restriction_sum():
    # lam_l != 0: ch^o = ch^so(lam) + ch^so(bar lam)
    lab = ModuleLabel("d", 2, (2, 1))
    cho = character("O2l", lab)
    num_p = numerator_det("O2l", (F(2), F(1)), 2)
    num_m = numerator_det("O2l", (F(2), F(1)), 2, "-")
    den = denominator_det("O2l", 2)
    so_lam = exact_div(num_p + num_m, den)
    so_bar = exact_div(num_p - num_m, den)
    assert cho == so_lam + so_bar
    assert character("SO2l", lab) == so_lam


def test_pin_factor_two_identity():
    # ch^pin equals literally 2 |z^{lam_i+l-i}+z^{-(lam_i+l-i)}| / |den|
    lab = ModuleLabel("b", 2, (2, 0))
    ch = character("Pin2l", lab)
    num = numerator_det("Pin2l", lab.weight(), 2)
    den = denominator_det("Pin2l", 2)
    assert ch * den == num * 2


def _dimension_by_limit(family, label):
    """Substitute z_j = x^j and take the exact x -> 1 limit via division."""
    l = label.rank()
    num = numerator_det(family, label.weight(), l)
    den = denominator_det(family, l)
    xvar = ("x",)
    scale = 2 if family in ("B2l1", "Pin2l") else 1

    def to_x(p):
        out = {}
        for e, c in p.terms.items():
            d = sum((j + 1) * e[j] for j in range(l))
            out[(d,)] = out.get((d,), F(0)) + c
        return LaurentPoly(xvar, out)

    ratio = exact_div(to_x(num), to_x(den))
    val = ratio.eval_at({"x": F(1)})
    if family == "O2l" and label.lam and label.lam[-1] != 0:
        val *= 2
    if family == "Pin2l":
        val *= 2
    return val


@pytest.mark.parametrize("family,label,dim", [
    ("Sp2l", ModuleLabel("c", 1, (1,)), 2),
    ("Sp2l", ModuleLabel("c", 2, (1, 0)), 4),
    ("O2l", ModuleLabel("d", 2, (1, 0)), 4),
    ("B2l1", ModuleLabel("d", F(3, 2), (1,)), 3),
    ("Pin2l", ModuleLabel("b", 1, (2,)), 2),
])
def test_dimensions(family, label, dim):
    assert _dimension_by_limit(family, label) == dim
    ones = {v: F(1) for v in torus_vars(family, label.rank())}
    assert character(family, label).eval_at(ones) == dim


def _at_one(family, label):
    ones = {v: F(1) for v in torus_vars(family, label.rank())}
    return character(family, label).eval_at(ones)


def test_dimension_is_the_character_at_one_on_every_duality_row():
    # the Weyl dimension formula, doubled for Pin2l and for O2l when
    # lambda_l != 0, against the determinant-ratio character at z = 1
    count = 0
    for (algebra, half), (family, _) in DUALITY.items():
        for l in (1, 2, 3):
            for label in enumerate_labels(algebra, l + F(int(half), 2), 10):
                assert dimension(family, label) == _at_one(family, label), (family, label)
                count += 1
    assert count == 168


@pytest.mark.parametrize("family,label", [
    ("O2l", ModuleLabel("d", 4, (1, 1, 0, 0))),
    ("O2l", ModuleLabel("d", 4, (2, 1, 1, 1))),
    ("Sp2l", ModuleLabel("c", 4, (2, 1, 0, 0))),
    ("B2l1", ModuleLabel("d", F(9, 2), (1, 0, 0, 0))),
    ("B2l1", ModuleLabel("b", F(9, 2), (1, 0, 0, 0))),
    ("Pin2l", ModuleLabel("b", 4, (1, 0, 0, 0))),
])
def test_dimension_is_the_character_at_one_at_rank_4(family, label):
    assert dimension(family, label) == _at_one(family, label)


def test_rank5_denominator_determinants_match_weyl_sums():
    # the second route of check_weyl_denom_*: a sum over the Weyl group
    half_det = denominator_det("O2l", 5) * F(1, 2)
    assert half_det == weyl_denominator_poly("D", 5, torus_vars("O2l", 5))
    assert denominator_det("B2l1", 5) == weyl_denominator_poly(
        "B", 5, torus_vars("B2l1", 5))
