"""The value classes keep the contract of frozen dataclasses: construction
by position and keyword, equality only within one class, the hash of the
field tuple, no assignment, and repr "Name(field=value, ...)"."""

from fractions import Fraction

import pytest

from ramlift.dvr import DvrSpec, ExactWittCoeff, ResidueRingSpec, ValInfo
from ramlift.homlift import (
    CertifiedRoot,
    DvrHom,
    HasRootResult,
    ResidueHom,
)
from ramlift.ramification import NewtonPolygon, RamificationReport
from ramlift.record import Record
from ramlift.resfield import FieldEmbedding, FieldSpec, FqElem
from ramlift.witt import WittRingSpec

FIELDS = {
    FieldSpec: ("p", "d", "defining_poly"),
    FieldEmbedding: ("source", "target", "image_of_generator"),
    WittRingSpec: ("k", "M", "lifted_poly"),
    ValInfo: ("value", "exact"),
    ExactWittCoeff: ("field", "kind", "payload"),
    DvrSpec: ("k", "coeffs"),
    ResidueRingSpec: ("ring", "n"),
    CertifiedRoot: ("elem", "t", "deriv_val"),
    ResidueHom: ("source", "target", "psi", "beta"),
    DvrHom: ("source", "target", "psi", "rho", "certificate"),
    HasRootResult: ("kind", "root", "precision"),
    NewtonPolygon: ("vertices", "slopes"),
    RamificationReport: ("e", "tame", "M", "different_val", "discriminant_val"),
}


def build() -> dict:
    """One instance of each class, every part constructed afresh."""
    F3 = FieldSpec(3, 1, (0, 1))
    F9 = FieldSpec(3, 2, (1, 0, 1))
    ident = FieldEmbedding(F3, F3, FqElem(F3, (0,)))
    a0 = ExactWittCoeff(F3, "int", (-3,))
    R = DvrSpec(F3, (a0, ExactWittCoeff(F3, "int", (0,))))
    R2 = ResidueRingSpec(R, 2)
    return {
        FieldSpec: F9,
        FieldEmbedding: FieldEmbedding(F9, F9, FqElem(F9, (0, 2))),
        WittRingSpec: WittRingSpec(F3, 2, (0, 1)),
        ValInfo: ValInfo(Fraction(1, 2), True),
        ExactWittCoeff: a0,
        DvrSpec: R,
        ResidueRingSpec: R2,
        CertifiedRoot: CertifiedRoot(R.uniformizer(2), 2, 1),
        ResidueHom: ResidueHom(R2, R2, ident, R2.from_digits([FqElem(F3, (0,)), FqElem(F3, (1,))])),
        DvrHom: DvrHom(R, R, ident, R.uniformizer(8), (8, 1)),
        HasRootResult: HasRootResult("yes", R.uniformizer(4), 4),
        NewtonPolygon: NewtonPolygon(((0, Fraction(1)), (2, Fraction(0))), ((Fraction(1, 2), 2),)),
        RamificationReport: RamificationReport(2, True, Fraction(1, 2), 1, 1),
    }


CLASSES = list(FIELDS)
ids = [cls.__name__ for cls in CLASSES]


def test_every_class_is_covered():
    assert set(build()) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_independent_builds_compare_and_hash_equal(cls):
    a, b = build()[cls], build()[cls]
    assert a is not b
    assert a == b and not a != b
    fields = tuple(getattr(a, name) for name in FIELDS[cls])
    assert hash(a) == hash(b) == hash(fields)
    assert {a: "cached"}[b] == "cached"  # lru_cache keys match the same way


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_keyword_construction_matches_positional(cls):
    a = build()[cls]
    values = {name: getattr(a, name) for name in FIELDS[cls]}
    assert cls(**values) == cls(*values.values()) == a


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_equal_fields_of_another_class_compare_unequal(cls):
    a = build()[cls]
    values = [getattr(a, name) for name in FIELDS[cls]]
    twin = type("Twin", (cls,), {})(*values)
    assert a != twin and twin != a
    assert a != tuple(values)


def test_classes_with_the_same_arity_compare_unequal():
    assert ValInfo(1, True) != NewtonPolygon(1, True)
    assert DvrSpec(1, 2) != ResidueRingSpec(1, 2) != ValInfo(1, 2)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_cannot_be_assigned(cls):
    a = build()[cls]
    for name in FIELDS[cls] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == build()[cls]


def _record_classes(cls=Record) -> set:
    """Every Record subclass the package defines."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("ramlift."):
            found.add(sub)
        found |= _record_classes(sub)
    return found


def test_every_record_class_is_listed():
    assert _record_classes() == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_hash_is_the_field_tuple_hash_computed_once(cls, monkeypatch):
    r = build()[cls]
    fresh = cls(*[getattr(r, name) for name in cls._fields])  # not hashed yet
    assert hash(r) == hash(r._key(r))
    keys = []
    key = cls._key
    # like attrgetter, a staticmethod is called with the instance alone
    monkeypatch.setattr(cls, "_key", staticmethod(lambda obj: keys.append(obj) or key(obj)))
    assert hash(r) == hash(r) == hash(key(r))
    assert keys == []  # the first hash above kept its value
    assert hash(fresh) == hash(fresh) == hash(r)
    assert len(keys) == 1 and keys[0] is fresh


def test_caches_kept_beside_the_fields():
    objs = build()
    R = objs[DvrSpec]
    assert hash(R) == R.__dict__["_hash"]
    R2 = objs[ResidueRingSpec]
    assert R2._ctx is R2._ctx
    psi = objs[FieldEmbedding]
    g = psi.source.generator()
    assert psi(g) is psi(g)
    assert psi == build()[FieldEmbedding]  # cached images take no part


F3_REPR = "FieldSpec(p=3, d=1, defining_poly=(0, 1))"
A0_REPR = f"ExactWittCoeff(field={F3_REPR}, kind='int', payload=(-3,))"
R_REPR = (
    f"DvrSpec(k={F3_REPR}, coeffs=({A0_REPR}, "
    f"ExactWittCoeff(field={F3_REPR}, kind='int', payload=(0,))))"
)


REPRS = [
    (FieldSpec, "FieldSpec(p=3, d=2, defining_poly=(1, 0, 1))"),
    (FieldEmbedding, "FieldEmbedding(source=FieldSpec(p=3, d=2, defining_poly=(1, 0, 1)), "
                     "target=FieldSpec(p=3, d=2, defining_poly=(1, 0, 1)), "
                     "image_of_generator=FqElem((0,2) in F(3^2;1,0)))"),
    (WittRingSpec, f"WittRingSpec(k={F3_REPR}, M=2, lifted_poly=(0, 1))"),
    (ValInfo, "ValInfo(value=Fraction(1, 2), exact=True)"),
    (ExactWittCoeff, A0_REPR),
    (DvrSpec, R_REPR),
    (ResidueRingSpec, f"ResidueRingSpec(ring={R_REPR}, n=2)"),
    (CertifiedRoot, "CertifiedRoot(elem=DvrElem([[0], [1]] mod m^2), t=2, deriv_val=1)"),
    (HasRootResult, "HasRootResult(kind='yes', root=DvrElem([[0], [1]] mod m^4), precision=4)"),
    (NewtonPolygon, "NewtonPolygon(vertices=((0, Fraction(1, 1)), (2, Fraction(0, 1))), "
                    "slopes=((Fraction(1, 2), 2),))"),
    (RamificationReport, "RamificationReport(e=2, tame=True, M=Fraction(1, 2), "
                         "different_val=1, discriminant_val=1)"),
]


@pytest.mark.parametrize("cls, expected", REPRS, ids=[cls.__name__ for cls, _ in REPRS])
def test_repr_is_the_dataclass_form(cls, expected):
    assert repr(build()[cls]) == expected
