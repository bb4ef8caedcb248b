"""The contract of the package's eighteen public records.

Each record, the value types GroupElement and TwistVector included, is
built positionally and by keyword, with its defaults, and keeps its repr
text, equality and hash within its type and against the plain tuple, a
pickle, copy and deepcopy round trip, read-only fields, its len() where
it has one, and the messages of its checks.  The two value types keep
no __dict__ and refuse the tuple's own operators.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from modtwist import (
    L,
    R,
    X,
    Analysis,
    ConjugacyClass,
    CyclicDiagram,
    DiagramForm,
    DomainError,
    EnumerationResult,
    Factorization,
    FactorizationRealityReport,
    GroupElement,
    MarkedPseudoTree,
    NecklaceClass,
    NecklaceStats,
    ParaSymmetry,
    PseudoTree,
    QuotientReport,
    RealStructure,
    StrongClassLabel,
    SyllableWord,
    TwistVector,
    analyze,
    evaluate,
)

L4 = evaluate("L^4")
TWISTS = (R, L.inverse())
STATS = (5, 5, 0, 0, 24, 0, 2)
STATS_FIELDS = "circles squares right_arrows left_arrows betti euler essential".split()


def _fields(analysis):
    return analysis.element, analysis.cls, analysis.labels


# record type, positional args, keyword args (the same record), args of a
# different record of the type, and the repr of the first
CASES = [
    (
        GroupElement,
        (1, 1, 0, 1),
        {"a": -1, "b": -1, "c": 0, "d": -1},
        (1, 0, 1, 1),
        "GroupElement(1, 1, 0, 1)",
    ),
    (TwistVector, (1, -2), {"p": -1, "q": 2}, (2, 1), "TwistVector(p=1, q=-2)"),
    (CyclicDiagram, ("RLL",), {"letters": "LRL"}, ("LRR",), "CyclicDiagram(letters='LLR')"),
    (
        ParaSymmetry,
        (1, (0, 2)),
        {"axis": 1, "anchor_starts": (0, 2)},
        (3, (1, 3)),
        "ParaSymmetry(axis=1, anchor_starts=(0, 2))",
    ),
    (
        DiagramForm,
        ("disjoint_axes", None, Fraction(1, 3), "LR"),
        {"kind": "disjoint_axes", "q": Fraction(1, 3), "insert": "LR"},
        ("shared_axes", 1),
        "DiagramForm(kind='disjoint_axes', m=None, q=Fraction(1, 3), insert='LR')",
    ),
    (
        SyllableWord,
        ((("X", 1), ("Y", 1)),),
        {"syllables": (("X", 1), ("Y", 1))},
        ((("Y", 1), ("X", 2)),),
        "SyllableWord(syllables=(('X', 1), ('Y', 1)))",
    ),
    (
        ConjugacyClass,
        ("hyperbolic", CyclicDiagram("RL")),
        {"kind": "hyperbolic", "diagram": CyclicDiagram("LR")},
        ("elliptic_order2",),
        "ConjugacyClass(kind='hyperbolic', diagram=CyclicDiagram(letters='LR'))",
    ),
    (
        RealStructure,
        (0, -1, -1, 0),
        {"a": 0, "b": 1, "c": 1, "d": 0},
        (1, 0, 0, -1),
        "RealStructure(a=0, b=1, c=1, d=0)",
    ),
    (
        Factorization,
        (TWISTS,),
        {"factors": TWISTS},
        ((R, R),),
        "Factorization(factors=(GroupElement(1, 0, 1, 1), GroupElement(1, -1, 0, 1)))",
    ),
    (
        StrongClassLabel,
        ("axis", 3, 1),
        {"kind": "axis", "axis": 3, "anchor": 1},
        ("axis", 1, 0),
        "StrongClassLabel(kind='axis', axis=3, anchor=1)",
    ),
    (
        Analysis,
        _fields(analyze(L4)),
        {"element": L4, "cls": analyze(L4).cls, "labels": analyze(L4).labels},
        _fields(analyze(R * R)),
        "Analysis(element=GroupElement(1, 4, 0, 1), "
        "cls=ConjugacyClass(kind='parabolic', diagram=CyclicDiagram(letters='LLLL')), "
        "labels=(StrongClassLabel(kind='axis', axis=1, anchor=0), "
        "StrongClassLabel(kind='axis', axis=3, anchor=1)))",
    ),
    (
        FactorizationRealityReport,
        (True, None, ("real",), 2),
        {"applicable": True, "classes": ("real",), "real_structure_count": 2},
        (False, "element is not real", (), 0),
        "FactorizationRealityReport(applicable=True, reason=None, classes=('real',), "
        "real_structure_count=2)",
    ),
    (
        NecklaceStats,
        STATS + (True, True),
        dict(zip(STATS_FIELDS, STATS), maximal=True, essential_obstruction=True),
        STATS,
        "NecklaceStats(circles=5, squares=5, right_arrows=0, left_arrows=0, betti=24, "
        "euler=0, essential=2, maximal=True, essential_obstruction=True)",
    ),
    (
        NecklaceClass,
        ("oriented", "OOOSSS"),
        {"category": "oriented", "representative": "OOOSSS"},
        ("nonoriented", "OOOSSS"),
        "NecklaceClass(category='oriented', representative='OOOSSS')",
    ),
    (
        EnumerationResult,
        (1, 0, "oriented", 1, (("OOOOOSSSSS", "empty"),), 0.5),
        {
            "k": 1,
            "w": 0,
            "category": "oriented",
            "count": 1,
            "representatives": (("OOOOOSSSSS", "empty"),),
            "elapsed": 0.5,
        },
        (1, 1, "oriented", 0, (), 0.5),
        "EnumerationResult(k=1, w=0, category='oriented', count=1, "
        "representatives=(('OOOOOSSSSS', 'empty'),), elapsed=0.5)",
    ),
    (
        QuotientReport,
        (3, True, 4),
        {"modulus": 3, "solvable": True, "solution_count": 4},
        (3, False, 0),
        "QuotientReport(modulus=3, solvable=True, solution_count=4)",
    ),
    (PseudoTree, ("ud",), {"branches": "ud"}, (), "PseudoTree(branches='ud')"),
    (
        MarkedPseudoTree,
        (PseudoTree("u"), "left"),
        {"tree": PseudoTree("u"), "marking": "left"},
        (PseudoTree("u"), "right"),
        "MarkedPseudoTree(tree=PseudoTree(branches='u'), marking='left')",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def test_the_cases_cover_every_public_record():
    assert len({case[0] for case in CASES}) == 18


@pytest.mark.parametrize("record, args, kwargs, other, text", CASES, ids=IDS)
def test_a_record_builds_compares_and_prints_as_before(record, args, kwargs, other, text):
    r = record(*args)
    assert type(r) is record and repr(r) == text
    assert record(**kwargs) == r and hash(record(**kwargs)) == hash(r)
    assert r == tuple(r) and hash(r) == hash(tuple(r))
    assert record(*other) != r


@pytest.mark.parametrize("record, args, kwargs, other, text", CASES, ids=IDS)
def test_a_record_survives_pickle_and_deepcopy(record, args, kwargs, other, text):
    r = record(*args)
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(twin) is record and twin == r and repr(twin) == text


@pytest.mark.parametrize("record, args, kwargs, other, text", CASES, ids=IDS)
def test_a_record_is_read_only(record, args, kwargs, other, text):
    r = record(*args)
    for name in list(kwargs) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert r == record(*args)


def test_the_defaults_are_the_old_ones():
    assert DiagramForm("no_axis") == DiagramForm(kind="no_axis", m=None, q=None, insert=None)
    form = DiagramForm(kind="shared_axes", m=2)
    assert (form.m, form.q, form.insert) == (2, None, None)
    assert ConjugacyClass("identity").diagram is None
    label = StrongClassLabel(kind="empty")
    assert (label.axis, label.anchor) == (None, None)
    report = FactorizationRealityReport(applicable=False)
    assert (report.reason, report.classes, report.real_structure_count) == (None, (), None)
    stats = NecklaceStats(*STATS)
    assert (stats.maximal, stats.essential_obstruction) == (None, None)
    assert PseudoTree().branches == PseudoTree(branches="").branches == ""


def test_the_fields_hold_the_normalised_values():
    assert CyclicDiagram("RLL").letters == "LLR"
    tau = RealStructure(-1, 0, 0, 1)
    assert (tau.a, tau.b, tau.c, tau.d) == (1, 0, 0, -1)
    f = Factorization(TWISTS)
    assert f.factors == TWISTS and f.vectors == ((1, 0), (0, 1))
    assert EnumerationResult(1, 0, "oriented", 7, (), 0.0).count == 7


def test_the_kept_lengths():
    assert len(CyclicDiagram("LLRLR")) == 5
    assert len(SyllableWord((("X", 1), ("Y", 1), ("X", 2)))) == 3
    assert len(SyllableWord(())) == 0
    assert len(Factorization(TWISTS)) == 2
    assert len(Factorization(())) == 0
    assert len(L) == 4 and len(TwistVector(1, 2)) == 2


@pytest.mark.parametrize("value, other", [(L, R), (TwistVector(1, 2), TwistVector(0, 1))])
def test_the_value_types_refuse_the_tuple_operators(value, other):
    # concatenation on either side, repetition and ordering mean nothing for
    # a group element or a twist vector; L * R is the group product instead
    assert not hasattr(value, "__dict__")
    for operation in (
        lambda: value + other,
        lambda: value + (1,),
        lambda: (1,) + value,
        lambda: 2 * value,
        lambda: value * 2,
        lambda: value < other,
        lambda: value <= (1,),
        lambda: (1,) < value,
    ):
        with pytest.raises(TypeError):
            operation()


def test_the_vectors_and_the_canonical_pairs_are_kept_read_only():
    f = Factorization(TWISTS)
    with pytest.raises(AttributeError):
        f.vectors = ()
    with pytest.raises(AttributeError):
        del f.vectors
    assert f.vectors == ((1, 0), (0, 1))
    assert hash(f) == hash((f.factors,))
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert twin.vectors == f.vectors
    analysis = Analysis(*_fields(analyze(L4)))
    canonical = analysis.canonical
    assert analysis.canonical is canonical
    with pytest.raises(AttributeError):
        analysis.canonical = ()
    with pytest.raises(AttributeError):
        del analysis.canonical
    for twin in (pickle.loads(pickle.dumps(analysis)), copy.deepcopy(analysis)):
        assert twin.canonical == canonical


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroupElement(1, 0, 0, 2), "matrix determinant must be 1, got 2"),
        (lambda: GroupElement(0, 0, 0, 0), "matrix determinant must be 1, got 0"),
        (lambda: TwistVector(2, -4), "twist vector (2, -4) is not primitive"),
        (lambda: TwistVector(0, 0), "twist vector (0, 0) is not primitive"),
        (lambda: CyclicDiagram(""), "empty cyclic word"),
        (lambda: CyclicDiagram("LXR"), "cyclic words use letters L/R only: 'LXR'"),
        (lambda: SyllableWord((("X", 1), ("X", 2))), "adjacent syllables from the same factor"),
        (lambda: SyllableWord((("X", 1), ("Z", 1))), "bad syllable (Z, 1)"),
        (lambda: ConjugacyClass("parabolic"), "parabolic class needs a one-letter cutting word"),
        (
            lambda: ConjugacyClass("parabolic", CyclicDiagram("LR")),
            "parabolic class needs a one-letter cutting word",
        ),
        (
            lambda: ConjugacyClass("hyperbolic", CyclicDiagram("LL")),
            "hyperbolic cutting word must contain both letters",
        ),
        (lambda: RealStructure(1, 0, 0, 1), "real structure lift must have determinant -1"),
        (
            lambda: RealStructure(2, 1, 1, 0),
            "real structure must square to the identity in PGL",
        ),
        (
            lambda: Factorization((R, X)),
            "factor GroupElement(1, -1, 1, 0) is not a positive Dehn twist",
        ),
        (lambda: QuotientReport(3, True, 0), "solvable=True contradicts 0 solutions"),
        (lambda: QuotientReport(3, False, 2), "solvable=False contradicts 2 solutions"),
        (lambda: PseudoTree("udx"), "branches must use letters u/d: 'udx'"),
        (
            lambda: MarkedPseudoTree(PseudoTree(), "up"),
            "marking must be left or right: 'up'",
        ),
    ],
)
def test_a_record_refuses_bad_fields_with_the_old_message(build, message):
    with pytest.raises(DomainError) as excinfo:
        build()
    assert str(excinfo.value) == message
