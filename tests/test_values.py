"""The contract of the package's immutable value classes.

Every value class compares, hashes and prints by its public fields, in
the order its constructor takes them, and refuses assignment.  Memo
fields (a sequence's level cache, a shape's built sequence) count for
none of this.
"""

import copy
import pickle

import pytest

from bratteli import (
    BratteliSequence,
    Cardinality,
    DiagonalMap,
    EquivalenceCertificate,
    Equivalent,
    IndexSystem,
    Intertwining,
    LimitElement,
    NonMixingMap,
    NotEquivalent,
    SupernaturalNumber,
    UnitChangeCertificate,
    Unknown,
    equivalent_q,
    keep_at,
    unit_change,
)

from genseq import full_tree, scalar_chain

DOUBLE = NonMixingMap(1, (0, 0), (1, 3))
INFINITE = Cardinality.infinite()


def _tree():
    return BratteliSequence((1, 2), (DOUBLE,), (2,), 1)


def _values():
    # one instance of every value class, with the field it refuses
    tree = full_tree(2, 3)
    verdict = equivalent_q(tree, tree)
    cert = unit_change(scalar_chain(2, levels=3), (3,), 2)
    return [
        (NonMixingMap(1, (0,), (2,)), "parent"),
        (_tree(), "ranks"),
        (LimitElement(2, (1, -1)), "vec"),
        (IndexSystem((1, 2), ((0, 0),), 1), "sizes"),
        (Cardinality.finite(3), "count"),
        (verdict.certificate.intertwining, "closure"),
        (verdict.certificate, "left"),
        (verdict, "certificate"),
        (NotEquivalent(Cardinality.finite(1), INFINITE, "finiteness"), "reason"),
        (Unknown(5), "depth"),
        (DiagonalMap((1, 2)), "entries"),
        (cert, "partial_n"),
        (SupernaturalNumber.parse("2^inf*3"), "factors"),
    ]


class TestFrozen:
    @pytest.mark.parametrize("value, field", _values(), ids=lambda v: type(v).__name__)
    def test_assign_and_delete_raise(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before

    @pytest.mark.parametrize("value, field", _values(), ids=lambda v: type(v).__name__)
    def test_copies_are_equal_values(self, value, field):
        twins = copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
        for twin in twins:
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)


class TestEquality:
    def test_by_public_fields(self):
        a, b = _tree(), _tree()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != BratteliSequence((1, 2), (DOUBLE,), (1,), 1)
        assert a != BratteliSequence((1, 2), (DOUBLE,), (2,))

    def test_level_cache_does_not_count(self):
        a, b = _tree(), _tree()
        a.map_at(7)
        keep_at(a, 9)
        object.__setattr__(b, "_cache", {"stale": 1})
        assert a._cache != b._cache
        assert a == b and hash(a) == hash(b)

    def test_built_sequence_of_a_shape_does_not_count(self):
        a = IndexSystem((1, 2), ((0, 0),), 1)
        b = IndexSystem((1, 2), ((0, 0),), 1)
        object.__setattr__(b, "_seq", None)
        assert a == b and hash(a) == hash(b)

    def test_different_classes_never_equal(self):
        assert Equivalent(5) != Unknown(5)
        assert Unknown(5) != (5,)
        assert DiagonalMap((1, 2)) != (1, 2)
        assert LimitElement(1, (0,)) != NonMixingMap(1, (0,), (1,))
        shape = IndexSystem((1, 2), ((0, 0),), 1)
        assert shape != shape._seq and shape._seq != shape
        assert len({Equivalent(5), Unknown(5)}) == 2


class TestRepr:
    def test_map(self):
        assert repr(NonMixingMap(1, (0,), (2,))) == (
            "NonMixingMap(source_rank=1, parent=(0,), mult=(2,))"
        )

    def test_sequence_leaves_out_its_cache(self):
        seq = _tree()
        seq.map_at(5)
        assert repr(seq) == (
            "BratteliSequence(ranks=(1, 2), maps=(NonMixingMap(source_rank=1, "
            "parent=(0, 0), mult=(1, 3)),), base_unit=(2,), periodic_tail=1)"
        )

    def test_cardinality(self):
        assert repr(Cardinality.finite(3)) == "Cardinality(kind='finite', count=3)"
        assert repr(Cardinality("infinite")) == "Cardinality(kind='infinite', count=None)"

    def test_shape_and_supernatural(self):
        assert repr(IndexSystem((1, 2), ((0, 0),), 1)) == (
            "IndexSystem(sizes=(1, 2), parents=((0, 0),), periodic_tail=1)"
        )
        assert repr(SupernaturalNumber.parse("3*2^inf")) == (
            "SupernaturalNumber(factors=((2, inf), (3, 1)))"
        )


class TestConstruction:
    def test_keywords_and_defaults(self):
        seq = BratteliSequence(ranks=[1, 2], maps=[DOUBLE], base_unit=[2])
        assert seq.periodic_tail is None
        assert seq.ranks == (1, 2) and seq.maps == (DOUBLE,) and seq.base_unit == (2,)
        tailed = BratteliSequence(
            ranks=(1, 2), maps=(DOUBLE,), base_unit=(2,), periodic_tail=1
        )
        assert tailed == _tree()
        mapped = NonMixingMap(source_rank=1, parent=[0], mult=[2])
        assert mapped == NonMixingMap(1, (0,), (2,))
        assert LimitElement(level=1, vec=[3]).vec == (3,)
        assert IndexSystem(sizes=[1], parents=[]).periodic_tail is None
        assert Cardinality("infinite").count is None
        assert Cardinality(kind="finite", count=2) == Cardinality.finite(2)
        assert SupernaturalNumber().factors == ()
        assert SupernaturalNumber(factors={3: 1, 2: 2}).factors == ((2, 2), (3, 1))
        assert DiagonalMap(entries=[1, 2]).entries == (1, 2)
        assert Unknown(depth=3).depth == 3

    def test_certificate_defaults(self):
        cert = unit_change(scalar_chain(2, levels=3), (3,), 2)
        fields = cert.seq, cert.alt_unit, cert.strategy, cert.rungs
        short = UnitChangeCertificate(*fields, cert.partial_n, cert.partial_m)
        assert (short.exact_n, short.exact_m) == (None, None)
        tw = Intertwining(
            left_levels=(1,),
            right_levels=(1,),
            f_maps=(),
            g_maps=(),
            closure="restart-cut",
        )
        kwargs = dict(
            left=_tree(),
            right=_tree(),
            left_cardinality=INFINITE,
            right_cardinality=INFINITE,
            intertwining=tw,
        )
        by_name = EquivalenceCertificate(**kwargs)
        assert by_name == EquivalenceCertificate(*kwargs.values())
