"""The algebra's value classes behave as the dataclasses they replaced.

Every repr below was printed by the dataclass versions; equality holds
only within one class, the hash is that of the field tuple, frozen
classes refuse assignment, and copies and pickles come back equal.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from arckit.ainfty import _SpaceSplit
from arckit.arcalg import Matching, SurgeryPanel, surgery_trace
from arckit.diagrams import CapDiagram, CupDiagram, OrientedCircleDiagram, Weight
from arckit.exact import SparseMatrix
from arckit.extalg import ExtClass, HomElement, identity_element
from arckit.repmod import GradedModule
from arckit.resolve import ProjectiveComplex, resolve_generic

W = Weight.parse


def _panel() -> SurgeryPanel:
    x = OrientedCircleDiagram.parse("cups=(0,1) rays= | ^v | cups=(0,1) rays=")
    y = OrientedCircleDiagram.parse("cups=(0,1) rays= | v^ | cups=(0,1) rays=")
    return surgery_trace(x, y)[-1]


# (name, a factory of fresh equal instances, the repr the dataclass printed)
CASES = [
    ("Weight", lambda: W("v^vv^"), "Weight('v^vv^')"),
    ("CupDiagram", lambda: CupDiagram.parse("cups=(0,1);(2,3) rays=4"),
     "CupDiagram(size=5, cups=frozenset({(0, 1), (2, 3)}), rays=frozenset({4}))"),
    ("CapDiagram", lambda: CapDiagram.parse("cups=(0,1);(2,3) rays=4"),
     "CapDiagram(size=5, cups=frozenset({(0, 1), (2, 3)}), rays=frozenset({4}))"),
    ("OrientedCircleDiagram",
     lambda: OrientedCircleDiagram.parse("cups=(0,1) rays= | v^ | cups=(0,1) rays="),
     "OrientedCircleDiagram('cups=(0,1) rays= | v^ | cups=(0,1) rays=')"),
    ("SurgeryPanel", _panel,
     "SurgeryPanel(bottom_labels=('^', 'v'), top_labels=('^', 'v'), cup_arcs=((0, 1),), "
     "cup_rays=(), cap_arcs=((0, 1),), cap_rays=(), middle_arcs=(), verticals=(), "
     "component_types=('x',), annotation='result', collapsed=True)"),
    ("Matching", lambda: Matching(1, (3, 2)), "Matching(i=1, source_block=(3, 2))"),
    ("SparseMatrix", lambda: SparseMatrix(2, 3, {(0, 1): Fraction(1, 2), (1, 2): 3, (1, 0): 0}),
     "SparseMatrix(rows=2, cols=3, entries={(0, 1): Fraction(1, 2), (1, 2): 3})"),
    ("GradedModule", lambda: GradedModule((1, 1), ("a",), (0,), {}),
     "GradedModule(block=(1, 1), labels=('a',), degrees=(0,), action={})"),
    ("ProjectiveComplex",
     lambda: ProjectiveComplex(W("v^"), (((W("v^"), 0),), ((W("^v"), 1),)), ({(0, 0): ((1, 1),)},)),
     "ProjectiveComplex(weight=Weight('v^'), components=(((Weight('v^'), 0),), "
     "((Weight('^v'), 1),)), differentials=({(0, 0): ((1, 1),)},))"),
    ("HomElement", lambda: HomElement(W("^v"), W("v^"), 1, 1, {0: Fraction(1, 2)}),
     "HomElement(source=Weight('^v'), target=Weight('v^'), k=1, j=1, coords={0: Fraction(1, 2)})"),
    ("ExtClass", lambda: ExtClass("Id", W("^v"), W("^v"), identity_element(W("^v"))),
     "ExtClass(label='Id', source=Weight('^v'), target=Weight('^v'), element=HomElement("
     "source=Weight('^v'), target=Weight('^v'), k=0, j=0, coords={0: 1}))"),
    ("_SpaceSplit", lambda: _SpaceSplit(("s",), 1, [], [{0: 1}], [{1: Fraction(-1, 3)}]),
     "_SpaceSplit(space=('s',), b_count=1, h_classes=[], l_prev=[{0: 1}], "
     "inverse=[{1: Fraction(-1, 3)}])"),
]
HASHABLE = {"Weight", "CupDiagram", "CapDiagram", "OrientedCircleDiagram", "SurgeryPanel", "Matching"}
MUTABLE = {"HomElement"}  # a mutable dataclass before, and built once per A∞ query
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("name,make,text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(name, make, text):
    assert type(make()).__name__ == name
    assert repr(make()) == text


@pytest.mark.parametrize("name,make,text", CASES, ids=IDS)
def test_equal_fields_are_equal_and_hash_like_their_tuple(name, make, text):
    a, b = make(), make()
    assert a == b and not a != b
    assert a != object() and a != a._values
    if name in HASHABLE:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in type(a)._fields))
    else:  # a dict, list or HomElement field, or unhashable by class
        with pytest.raises(TypeError):
            hash(a)


def test_the_resolution_of_a_simple_weight_prints_as_before():
    assert repr(resolve_generic(W("v^"))) == dict((n, t) for n, _, t in CASES)["ProjectiveComplex"]


def test_unhashable_by_class():
    for cls in (HomElement, ExtClass, _SpaceSplit):
        assert cls.__hash__ is None


def test_a_cup_diagram_never_equals_the_cap_diagram_with_its_fields():
    cup = CupDiagram.parse("cups=(0,1);(2,3) rays=4")
    cap = cup.mirror()
    assert cup._values == cap._values
    assert cup != cap and cap != cup
    assert len({cup, cap}) == 2
    assert cap.mirror() == cup


def test_fields_beyond_the_first_decide_equality():
    assert Matching(1, (3, 2)) != Matching(1, (4, 2))
    assert SparseMatrix(2, 2) != SparseMatrix(2, 3)
    assert HomElement(W("^v"), W("v^"), 1, 1) != HomElement(W("^v"), W("v^"), 1, 2)


def test_weight_order_reads_the_labels():
    weights = [W(s) for s in ("v^v^", "^^vv", "vv^^", "^v^v")]
    assert sorted(weights) == [W("^^vv"), W("^v^v"), W("v^v^"), W("vv^^")]
    a, b = W("^v^v"), W("v^v^")
    assert a < b and a <= b and b > a and b >= a and a <= W("^v^v") and not a > b
    with pytest.raises(TypeError):
        a < "v^v^"


@pytest.mark.parametrize("name,make,text", CASES, ids=IDS)
def test_frozen_classes_refuse_assignment(name, make, text):
    x = make()
    field = type(x)._fields[0]
    if name in MUTABLE:
        setattr(x, field, getattr(x, field))
        return
    for attempt in (lambda: setattr(x, field, None), lambda: setattr(x, "extra", 1),
                    lambda: delattr(x, field)):
        with pytest.raises(AttributeError):
            attempt()
    assert repr(x) == text


@pytest.mark.parametrize("name,make,text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(name, make, text):
    x = make()
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and repr(twin) == text
        if name in HASHABLE:
            assert hash(twin) == hash(x)


def test_constructors_take_keywords_and_defaults():
    assert SparseMatrix(rows=1, cols=2).entries == {}
    first, second = HomElement(W("^v"), W("^v"), 0, 0), HomElement(W("^v"), W("^v"), 0, 0)
    assert first.coords == {} and first.coords is not second.coords
    assert Matching(i=0, source_block=(1, 1)) == Matching(0, (1, 1))
    panel = _panel()
    fields = {name: getattr(panel, name) for name in SurgeryPanel._fields[:-1]}
    assert SurgeryPanel(**fields).collapsed is False
    assert ExtClass(label="a", source=W("^v"), target=W("^v"), element=first).element is first
    with pytest.raises(ValueError):
        Matching(2, (1, 1))
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        ProjectiveComplex(W("^v"), (((W("^v"), 0),),), ({},))
