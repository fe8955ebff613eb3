"""The immutable records: value equality and hash, repr, assignment
refused, keyword construction, constructor checks and cached properties."""

from fractions import Fraction

import pytest

from permstab.errors import BoundExceededError, MalformedInputError, SourceMismatchError
from permstab.graphs import LabeledDigraph, RootedPattern, SimpleGraph
from permstab.groups import (
    FpGroup,
    HomCheck,
    PermHomomorphism,
    Subgroup,
    SubgroupClasses,
    cyclic_group,
    subgroup_conjugacy_classes,
)
from permstab.multiplicity import MultiplicityVector
from permstab.perm import Permutation
from permstab.record import Record
from permstab.stability import AmalgamHom, CorrectionReport


def build():
    """One record of each class, each built afresh by keyword."""
    G = cyclic_group(2)
    ident, swap = Permutation([1, 2, 3]), Permutation([2, 1, 3])
    h = PermHomomorphism(source=G, degree=3, images=(ident, swap))
    hf = PermHomomorphism(source=FpGroup(("x",)), degree=2, images=(Permutation([2, 1]),))
    classes = SubgroupClasses(group=G, classes=((frozenset({0}),), (frozenset({0, 1}),)))
    return {
        "Subgroup": Subgroup(parent=G, members=[1, 0]),
        "SubgroupClasses": classes,
        "FpGroup": FpGroup(generators=("x", "y"), relators=["x^2"]),
        "PermHomomorphism": h,
        "HomCheck": HomCheck(witness=(0, 1), message="m"),
        "MultiplicityVector": MultiplicityVector(group=G, degree=3, counts=(1, 1)),
        "AmalgamHom": AmalgamHom(psi1=hf, psi2=hf, h_pairs=(("x", "x"),)),
        "CorrectionReport": CorrectionReport(
            corrected=ident, distance=Fraction(2, 3), input_defect=Fraction(1)
        ),
        "LabeledDigraph": LabeledDigraph(n=2, alphabet=("x",), perms=(Permutation([2, 1]),)),
        "RootedPattern": RootedPattern(
            n=2, root=1, alphabet=("x",), edges=frozenset({(1, 2, 0)})
        ),
        "SimpleGraph": SimpleGraph(n=2, edges=frozenset({frozenset({1, 2})})),
    }


# the repr of each record in build(), as the frozen dataclasses printed it
REPRS = {
    "Subgroup": "Subgroup(parent=FiniteGroup(order=2), members=(0, 1))",
    "SubgroupClasses": "SubgroupClasses(group=FiniteGroup(order=2), classes=((frozenset({0}),),"
    " (frozenset({0, 1}),)))",
    "FpGroup": "FpGroup(generators=('x', 'y'), relators=(((0, 2),),))",
    "PermHomomorphism": "PermHomomorphism(source=FiniteGroup(order=2), degree=3,"
    " images=(Permutation([1, 2, 3]), Permutation([2, 1, 3])))",
    "HomCheck": "HomCheck(witness=(0, 1), message='m')",
    "MultiplicityVector": "MultiplicityVector(group=FiniteGroup(order=2), degree=3,"
    " counts=(1, 1))",
    "AmalgamHom": "AmalgamHom(psi1=PermHomomorphism(source=FpGroup(generators=('x',),"
    " relators=()), degree=2, images=(Permutation([2, 1]),)),"
    " psi2=PermHomomorphism(source=FpGroup(generators=('x',), relators=()), degree=2,"
    " images=(Permutation([2, 1]),)), h_pairs=(('x', 'x'),))",
    "CorrectionReport": "CorrectionReport(corrected=Permutation([1, 2, 3]),"
    " distance=Fraction(2, 3), input_defect=Fraction(1, 1))",
    "LabeledDigraph": "LabeledDigraph(n=2, alphabet=('x',), perms=(Permutation([2, 1]),))",
    "RootedPattern": "RootedPattern(n=2, root=1, alphabet=('x',), edges=frozenset({(1, 2, 0)}))",
    "SimpleGraph": "SimpleGraph(n=2, edges=frozenset({frozenset({1, 2})}))",
}

NAMES = sorted(REPRS)


def test_eleven_record_classes():
    assert len(NAMES) == 11 and set(build()) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_as_the_dataclass_printed(name):
    assert repr(build()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equal_and_hash_by_fields(name):
    a, b = build()[name], build()[name]
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    assert a != object() and a != a._key(a)


@pytest.mark.parametrize("name", NAMES)
def test_one_field_changed_is_unequal(name):
    a = build()[name]
    field = a._fields[-1]
    other = object.__new__(type(a))
    other.__dict__.update(a.__dict__, **{field: "changed"})
    assert other != a


def test_no_record_compares_by_fewer_fields():
    assert not hasattr(Record, "_compare")
    for record in build().values():
        assert type(record)._key(record) == tuple(getattr(record, f) for f in record._fields)


def test_subgroup_classes_class_of_is_derived():
    G = cyclic_group(2)
    found = subgroup_conjugacy_classes(G)
    same = SubgroupClasses(group=G, classes=found.classes)
    assert SubgroupClasses._fields == ("group", "classes")
    assert same == found and hash(same) == hash(found)
    assert same.class_of == {S: i for i, orbit in enumerate(found.classes) for S in orbit}
    assert same.class_of is same.class_of
    assert {found: 1}[same] == 1


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_refused(name):
    a = build()[name]
    before = dict(a.__dict__)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a.__dict__ == before


def test_hom_check_defaults():
    ok = HomCheck()
    assert (ok.ok, ok.witness, ok.message) == (True, None, "")
    assert HomCheck(witness=None) == ok != HomCheck(message="x")
    bad = HomCheck((0, 1), "m")
    assert not bad.ok and bad == build()["HomCheck"]
    with pytest.raises(TypeError):  # ok is read off the witness, not given
        HomCheck(ok=True)


def test_positional_and_keyword_construction_agree():
    G = cyclic_group(2)
    assert Subgroup(G, [0]) == Subgroup(parent=G, members=(0,))
    assert MultiplicityVector(G, 3, (1, 1)) == build()["MultiplicityVector"]
    assert SimpleGraph(2, frozenset({frozenset({1, 2})})) == build()["SimpleGraph"]


def test_trusted_constructors_build_equal_records():
    G = cyclic_group(2)
    assert Subgroup._trusted(G, {1, 0}) == Subgroup(G, [0, 1])
    edges = frozenset({(1, 2, 0)})
    assert RootedPattern._trusted(2, 1, ("x",), edges) == build()["RootedPattern"]


def test_constructor_checks_still_raise():
    G = cyclic_group(2)
    ident = Permutation([1, 2])
    with pytest.raises(SourceMismatchError, match="expected 2 images"):
        PermHomomorphism(G, 2, (ident,))
    with pytest.raises(SourceMismatchError, match="image degree 3"):
        PermHomomorphism(G, 2, (ident, Permutation([1, 2, 3])))
    with pytest.raises(SourceMismatchError):
        PermHomomorphism(FpGroup(("x", "y")), 2, (ident,))
    with pytest.raises(MalformedInputError, match="one permutation per label"):
        LabeledDigraph(2, ("x", "y"), (ident,))
    with pytest.raises(MalformedInputError, match="duplicate labels"):
        LabeledDigraph(2, ("x", "x"), (ident, ident))
    with pytest.raises(MalformedInputError, match="degree mismatch"):
        LabeledDigraph(3, ("x",), (ident,))
    with pytest.raises(MalformedInputError, match="root outside"):
        RootedPattern(2, 3, ("x",), frozenset({(1, 2, 0)}))
    with pytest.raises(BoundExceededError):
        RootedPattern(7, 1, ("x",), frozenset((i, i + 1, 0) for i in range(1, 7)))
    with pytest.raises(MalformedInputError, match="endpoint"):
        RootedPattern(2, 1, ("x",), frozenset({(1, 3, 0)}))
    with pytest.raises(MalformedInputError, match="label index"):
        RootedPattern(2, 1, ("x",), frozenset({(1, 2, 1)}))
    with pytest.raises(MalformedInputError, match="more than one edge"):
        RootedPattern(3, 1, ("x",), frozenset({(1, 2, 0), (1, 3, 0)}))
    with pytest.raises(MalformedInputError, match="connected"):
        RootedPattern(2, 1, ("x",), frozenset())
    with pytest.raises(MalformedInputError, match="two distinct"):
        SimpleGraph(2, frozenset({frozenset({1})}))
    with pytest.raises(MalformedInputError, match="endpoint"):
        SimpleGraph(2, frozenset({frozenset({1, 3})}))


def test_cached_properties_cache():
    records = build()
    h = records["PermHomomorphism"]
    assert h.trace is h.trace
    graph = records["LabeledDigraph"]
    assert graph.hom is graph.hom
    assert graph.hom == PermHomomorphism(FpGroup(("x",)), 2, graph.perms)
    H = records["Subgroup"]
    assert H.as_group() is H.as_group()
    # a cached value is no field: equality, hash and repr read the fields only
    fresh = build()
    assert h == fresh["PermHomomorphism"] and hash(h) == hash(fresh["PermHomomorphism"])
    assert repr(graph) == REPRS["LabeledDigraph"]


class Pair(Record):
    first: int
    second: tuple = ()


def test_fields_are_the_annotations_in_order():
    assert Pair._fields == ("first", "second")
    assert CorrectionReport._fields == ("corrected", "distance", "input_defect")
    assert HomCheck._fields == ("witness", "message")


def test_default_comes_from_the_class_body():
    assert Pair(1) == Pair(first=1) == Pair(1, ()) and Pair(1).second == ()
    assert Pair(1, second=(2,)).second == (2,)


@pytest.mark.parametrize(
    "args,named",
    [
        ((1,), {"third": 3}),  # unknown keyword
        ((), {"second": ()}),  # missing field
        ((), {}),  # missing field, none given
        ((1, (), 3, 4), {}),  # surplus positional
        ((1,), {"first": 1}),  # one field twice
    ],
)
def test_construction_refuses_a_bad_field_list(args, named):
    with pytest.raises(TypeError):
        Pair(*args, **named)
    with pytest.raises(TypeError):
        CorrectionReport(*args, **named)


def test_trusted_stores_in_field_order_without_init(monkeypatch):
    def refuse(self, *args, **named):
        raise AssertionError("__init__ ran")

    monkeypatch.setattr(RootedPattern, "__init__", refuse)
    edges = frozenset({(1, 2, 0)})
    p = RootedPattern._trusted(2, 1, ("x",), edges)
    assert (p.n, p.root, p.alphabet, p.edges) == (2, 1, ("x",), edges)
    # no check runs: a root outside the vertex range is stored as given
    assert RootedPattern._trusted(2, 3, ("x",), edges).root == 3
    assert Pair._trusted(5, (6,)) == Pair(5, (6,))
    assert list(vars(Pair._trusted(5, (6,)))) == ["first", "second"]
