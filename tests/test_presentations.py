"""Built-in presets: validation, confluence, Hopf checks, morphisms."""

from collections import Counter
from importlib.resources import files
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from qncalc.ncalg import (
    Element,
    Presentation,
    check_local_confluence,
    normal_words,
    normalize,
    orient,
    validate_presentation,
)
from qncalc.calculus import (
    diff_presentation,
    interchange_left_to_right,
    interchange_right_to_left,
    reduction_morphisms,
)
from qncalc.presentations import (
    PRESET_IDS,
    antipode_residuals,
    coproduct_residuals,
    epsilon_identity_residuals,
    free_presentation,
    preset,
    preset_without_rule,
    qdet,
    tensor_square,
)
from qncalc.dsl import parse_presentation
from qncalc.qfield import Scalar

q = Scalar.q_power
w = Element.word


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_presets_validate(pid):
    assert validate_presentation(preset(pid)).valid


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_presets_locally_confluent(pid):
    rep = check_local_confluence(preset(pid))
    assert rep.confluent, [(p.rule1, p.rule2, p.word, str(p.residual))
                           for p in rep.unresolved][:5]


# -- PBW basis ------------------------------------------------------------------

# E(0..4): the even normal words of each length on GL, SL and the planes
PBW_EVEN = {"glq2": (1, 6, 19, 44, 85), "slq2": (1, 4, 9, 16, 25), "qplane": (1, 3, 5, 7, 9)}


def pbw_counts(p, top=4) -> dict:
    """{(n, k): the normal words of length n and form degree k}, n <= top."""
    return dict(Counter((len(word), p.form_degree(word)) for word in normal_words(p, top)))


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_normal_words_are_a_pbw_basis(pid):
    # length n, form degree k: E(n - k) C(m, k) words, the classical
    # coordinate ring times the exterior algebra on the m forms
    p = preset(pid)
    even, m = PBW_EVEN[pid.split("-")[0]], len(p.odd_names())
    assert pbw_counts(p) == {(n, k): even[n - k] * comb(m, k)
                             for n in range(5) for k in range(min(n, m) + 1)}


def classical_even_counts(p, top=4) -> tuple:
    """E(0..top) of the classical (q = 1) coordinate ring of ``p``: the
    monomials of each degree outside the leading terms of a grevlex
    Groebner basis of (ad - bc - D, D Dinv - 1), (ad - bc - 1) or
    (ad - 1), a lacking b or c being 0."""
    sympy = pytest.importorskip("sympy")
    x = {n: sympy.Symbol(n) for n in p.even_names()}
    det = x["a"] * x["d"] - x.get("b", 0) * x.get("c", 0)
    ideal = [det - x["D"], x["D"] * x["Dinv"] - 1] if "D" in x else [det - 1]
    basis = sympy.groebner(ideal, *x.values(), order="grevlex")
    leads = [g.monoms(order="grevlex")[0] for g in basis.polys]
    return tuple(sum(not any(all(e.count(i) >= k for i, k in enumerate(lead))
                             for lead in leads)
                     for e in combinations_with_replacement(range(len(x)), n))
                 for n in range(top + 1))


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_the_pbw_counts_are_the_classical_ones(pid):
    assert classical_even_counts(preset(pid)) == PBW_EVEN[pid.split("-")[0]]


def test_an_extra_relation_breaks_the_pbw_count():
    # a mutation check: b.c -> 0 kills words the GL count keeps
    p = parse_presentation("name glq2-bc\nextends glq2\nrule b.c -> 0\n")
    counts = tuple(pbw_counts(p)[n, 0] for n in range(5))
    assert counts == (1, 6, 18, 38, 66) and counts != PBW_EVEN["glq2"]


def test_preset_rule_samples():
    gl = preset("glq2")
    ac = [r for r in gl.rules if r.lhs == ("a", "c")]
    assert ac and ac[0].rhs == q(1) * w("c.a")
    sl = preset("slq2-left")
    th1a = [r for r in sl.rules if r.lhs == ("th1", "a")]
    assert th1a and th1a[0].rhs == q(-2) * w("a.th1")
    gll = preset("glq2-left")
    tht1a = [r for r in gll.rules if r.lhs == ("tht1", "a")]
    assert tht1a and tht1a[0].rhs == w("a.tht1")


def test_shipped_preset_files_are_the_preset_ids():
    shipped = [f.name for f in files("qncalc").joinpath("presets").iterdir()]
    assert sorted(shipped) == sorted(f"{pid}.preset" for pid in PRESET_IDS)
    assert [preset(pid).name for pid in PRESET_IDS] == list(PRESET_IDS)


def test_every_data_file_of_the_package_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    from fnmatch import fnmatch
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    globs = tomllib.loads(root.joinpath("pyproject.toml").read_text())[
        "tool"]["setuptools"]["package-data"]["qncalc"]
    package = root / "src" / "qncalc"
    data = [f.relative_to(package).as_posix() for f in package.rglob("*")
            if f.is_file() and f.suffix not in (".py", ".pyc")
            and "__pycache__" not in f.parts]
    assert {f.split("/")[0] for f in data} >= {"presets", "paper"}
    assert [f for f in data if not any(fnmatch(f, g) for g in globs)] == []


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset("nope")


# -- determinant ---------------------------------------------------------------

def test_qdet_normalizes_to_central_generator():
    p = preset("glq2")
    assert qdet(p) == w("a.d") - q(1) * w("b.c")
    assert normalize(qdet(p), p) == w("D")


def test_qdet_central():
    p = preset("glq2")
    det = qdet(p)
    for g in ("a", "b", "c", "d"):
        assert normalize(det * w(g) - w(g) * det, p).is_zero


def test_qdet_is_one_after_unimodular_reduction():
    m = [mm for mm in reduction_morphisms() if mm.name == "glq2-left->slq2-left"][0]
    image = m.apply(qdet(preset("glq2")))
    assert normalize(image, preset("slq2-left")) == Element.unit()


# -- Hopf checks -----------------------------------------------------------------

def test_epsilon_identities():
    for label, res in epsilon_identity_residuals(preset("glq2")):
        assert res.is_zero, (label, res)


def test_tensor_square_confluent():
    rep = check_local_confluence(tensor_square(preset("glq2")))
    assert rep.confluent


def test_coproduct_and_counit():
    for label, res in coproduct_residuals(preset("glq2")):
        assert res.is_zero, (label, res)


def test_antipode_identities():
    for label, res in antipode_residuals(preset("glq2")):
        assert res.is_zero, (label, res)


# -- nested reductions ---------------------------------------------------------

@pytest.mark.parametrize("m", reduction_morphisms(), ids=lambda m: m.name)
def test_reductions_pass(m):
    for r in preset(m.source).rules:
        image = m.apply(r.relation())
        assert image.is_zero, (m.name, ".".join(r.lhs), str(image))


def test_plane_projection_kills_relation():
    # c -> 0 sends every c-bearing relation to 0 = 0 and keeps x,y relations
    m = [mm for mm in reduction_morphisms() if mm.name == "slq2-left->qplane-left-c0"][0]
    img = m.apply(w("d.c") - q(-1) * w("c.d"))
    assert img.is_zero
    plane = preset("qplane-left-c0")
    assert normalize(w("b.d") - q(1) * w("d.b"), plane).is_zero  # xy = q yx


# -- the matrjoshka is exact ----------------------------------------------------
#
# reduction[...] shows J <= I_target, J the ideal of the images of the
# source rules.  Oriented on their largest words and interreduced, the
# images are a locally confluent system for J whose normal words count as
# the target's, and every target rule normalizes to 0 in it, so
# I_target <= J: each target is exactly the source with D = 1, c = 0 or
# b = 0, and has no relation beyond those.

def _images(m) -> list:
    return [m.apply(r.relation(), normalized=False) for r in preset(m.source).rules]


def _oriented(images, target) -> Presentation:
    """The images, oriented in ``target``'s order by :func:`orient`."""
    return Presentation("J", target.generators, target.order, orient(
        images, Presentation("J", target.generators, target.order, []), "J"))


def _inexact(j, target) -> list:
    """What keeps the ideal that ``j`` presents from being ``target``'s:
    empty when it is."""
    return ((["J not locally confluent"] if not check_local_confluence(j).confluent else [])
            + (["normal words differ"] if pbw_counts(j) != pbw_counts(target) else [])
            + [f"{r.tag} not in J" for r in target.rules
               if not normalize(r.relation(), j).is_zero])


@pytest.mark.parametrize("m, size", [(m, 25 if m.source.startswith("glq2") else 13)
                                     for m in reduction_morphisms()],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_each_reduction_is_the_quotient_by_the_moved_generators(m, size):
    j = _oriented(_images(m), m.target)
    assert _inexact(j, m.target) == []
    assert len(j.rules) == size


@pytest.mark.parametrize("m", reduction_morphisms(), ids=lambda m: m.name)
def test_dropping_a_source_rule_breaks_exactness_unless_its_image_is_0(m):
    # a mutation check: 25 of the 51 GL drops and 13 of the 25 SL drops fail
    images = _images(m)
    broken = [bool(_inexact(_oriented(images[:i] + images[i + 1:], m.target), m.target))
              for i in range(len(images))]
    assert broken == [not x.is_zero for x in images]
    assert sum(broken) == (25 if m.source.startswith("glq2") else 13)


def test_a_target_with_an_extra_rule_is_not_the_quotient():
    target = parse_presentation("name slq2-left\nextends slq2-left\nrule c.b.a -> 0\n")
    j = _oriented(_images(reduction_morphisms()[0]), target)
    assert _inexact(j, target) == ["user:3 not in J"]


# -- interchange --------------------------------------------------------------------

def test_interchange_maps_left_rules_into_right_ideal():
    m = interchange_left_to_right()
    for r in preset("glq2-left").rules:
        image = m.apply(r.relation())
        assert image.is_zero, (r.provenance, ".".join(r.lhs), str(image))


def test_interchange_morphism_example():
    # tht4.d -> q^2 d.tht4 maps onto the right-side relation a.wb4 = q^2 wb4.a
    m = interchange_left_to_right()
    rel = w("tht4.d") - q(2) * w("d.tht4")
    assert m.apply(rel).is_zero
    right = preset("glq2-right")
    assert normalize(w("a.wb4") - q(2) * w("wb4.a"), right).is_zero


def test_interchange_is_involutive_on_rules():
    fwd, back = interchange_left_to_right(), interchange_right_to_left()
    p = preset("glq2-left")
    for r in p.rules:
        once = fwd.apply(r.relation(), normalized=False)
        twice = back.apply(once, normalized=False)
        assert normalize(twice - r.relation(), p).is_zero


# -- where the forms sit --------------------------------------------------------------

# every system's form_position: the side opposite a calculus, else a
# migration order's side, else None
FORM_POSITIONS = {
    "glq2": None, "slq2-left": "right", "slq2-right": "left",
    "glq2-left": "right", "glq2-right": "left",
    "qplane-left-c0": "right", "qplane-left-b0": "right",
    "qplane-right-c0": "left", "qplane-right-b0": "left",
    "slq2-left-diff": "right", "slq2-right-diff": "left",
    "glq2-left-diff": "right", "glq2-right-diff": "left",
    "qplane-left-c0-diff": "right", "qplane-left-b0-diff": "right",
    "qplane-right-c0-diff": "left", "qplane-right-b0-diff": "left",
    "q-line.preset": "right", "wz-plane.preset": None,
    "free": None, "glq2-tensor": None, "glq2-left-without-a.b": "right",
}


def test_every_system_gets_the_form_position_its_declaration_gives():
    examples = Path(__file__).resolve().parent.parent / "docs" / "examples"
    systems = {pid: preset(pid) for pid in PRESET_IDS}
    systems.update((f"{pid}-diff", diff_presentation(pid))
                   for pid in PRESET_IDS if preset(pid).calculus)
    systems.update((f.name, parse_presentation(f.read_text()))
                   for f in sorted(examples.glob("*.preset")))
    systems.update({"free": free_presentation("a", "b"),
                    "glq2-tensor": tensor_square(preset("glq2")),
                    "glq2-left-without-a.b": preset_without_rule(preset("glq2-left"), "a.b")})
    assert {name: p.form_position for name, p in systems.items()} == FORM_POSITIONS


def test_an_explicit_form_position_wins():
    p = preset("glq2-left")
    # the benchmark's positional copy: no calculus, a deglex order
    copy = Presentation(p.name, p.generators, p.order, p.rules, p.form_position, p.tags)
    assert (copy.calculus, copy.form_position) == (None, "right")
    assert Presentation(p.name, p.generators, p.order, p.rules, "left",
                        calculus=p.calculus).form_position == "left"


# -- free presentation ---------------------------------------------------------------

def test_free_presentation_normalize_is_identity():
    p = free_presentation("a", "b", "c", "d")
    x = w("a.b") - q(1) * w("b.a")
    assert normalize(x, p) == x
