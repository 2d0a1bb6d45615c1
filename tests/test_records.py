"""The package's frozen records: construction, equality and hashing, repr,
immutability, copy and pickle, and the validation of their fields."""

import copy
import pickle
from fractions import Fraction

import pytest

from qu21.errors import InvalidSignature
from qu21.generators import TableEntry, table_entries
from qu21.qarith import EvalContext, SignedRadical
from qu21.repspace import (Signature, TBasisLabel, UBasisLabel, Weight,
                           gg_from_label)
from qu21.verify import CheckReport, FixedBlock, Truncation
from qu21.weylracah import RacahArgs, WeylBlock, weyl_block

SIG = Signature(4, 2, -2)
U = UBasisLabel(1, 2, Fraction(3, 2), Fraction(1, 2))
BLOCK = weyl_block(EvalContext.exact(Fraction(13, 10)), SIG, Weight(4, 4, -4))

# one record of each class, with its field names in order
RECORDS = {
    "SignedRadical": (SignedRadical(-1, 2, Fraction(3, 5)),
                      "sign qpower radicand"),
    "Signature": (SIG, "f1 f2 f3"),
    "UBasisLabel": (U, "k ell U MU"),
    "TBasisLabel": (TBasisLabel(2, 1, Fraction(5, 2), Fraction(9, 2)),
                    "s p T M"),
    "GGPattern": (gg_from_label(SIG, U), "m13 m23 m33 m12 m22 m11"),
    "TableEntry": (table_entries("u")[0],
                   "eid gen d1 d2 dtwoM sign qexp num den shared"),
    "WeylBlock": (BLOCK, "weight u_labels t_labels entries"),
    "RacahArgs": (RacahArgs.make(1, "1/2", 1, "3/2", 1, 2), "a b e d c f"),
    "Truncation": (Truncation(2, 3, 4), "ell_max s_max depth"),
    "CheckReport": (CheckReport("su11-raising-t", True, 0.0, 1e-10, "", 75),
                    "name passed max_residual tolerance location "
                    "columns_checked note"),
    "FixedBlock": (FixedBlock(BLOCK.weight, BLOCK.u_labels, BLOCK.t_labels,
                              ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 60),
                   "weight u_labels t_labels entries bits"),
}
CLASSES = sorted(RECORDS)


def fields_of(name):
    record, names = RECORDS[name]
    return {field: getattr(record, field) for field in names.split()}


@pytest.mark.parametrize("name", CLASSES)
class TestEachRecord:
    def test_repr_names_every_field(self, name):
        record = RECORDS[name][0]
        shown = ", ".join(f"{f}={v!r}" for f, v in fields_of(name).items())
        assert repr(record) == f"{name}({shown})"

    def test_keyword_construction_equals_positional(self, name):
        record = RECORDS[name][0]
        values = fields_of(name)
        by_keyword = type(record)(**values)
        assert by_keyword == record and type(by_keyword) is type(record)
        assert type(record)(*values.values()) == record

    def test_equal_records_hash_as_their_field_tuple(self, name):
        record = RECORDS[name][0]
        values = tuple(fields_of(name).values())
        twin = type(record)(*values)
        assert twin is not record and twin == record
        assert not twin != record
        assert hash(twin) == hash(record) == hash(values)
        assert record != values and values != record

    def test_fields_can_be_neither_set_nor_deleted(self, name):
        record = RECORDS[name][0]
        first = next(iter(fields_of(name)))
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, first, getattr(record, first))
        with pytest.raises(AttributeError, match="cannot assign"):
            record.no_such_field = 1
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, first)

    def test_copies_are_equal_records_of_the_same_class(self, name):
        record = RECORDS[name][0]
        for twin in (copy.copy(record), copy.deepcopy(record)):
            assert twin == record and type(twin) is type(record)

    def test_pickle_round_trips(self, name):
        record = RECORDS[name][0]
        if name == "TableEntry":
            # its bracket functions are lambdas, which pickle refuses
            with pytest.raises(pickle.PicklingError):
                pickle.dumps(record)
            return
        twin = pickle.loads(pickle.dumps(record))
        assert twin == record and type(twin) is type(record)

    def test_wrong_fields_are_a_type_error(self, name):
        record = RECORDS[name][0]
        values = fields_of(name)
        with pytest.raises(TypeError):
            type(record)(*values.values(), 0)
        with pytest.raises(TypeError):
            type(record)(**values, no_such_field=0)
        with pytest.raises(TypeError):
            type(record)()


def test_defaults_fill_omitted_trailing_fields():
    entry = fields_of("TableEntry")
    del entry["shared"]
    assert TableEntry(**entry).shared == 0
    assert TableEntry(*entry.values()).shared == 0
    report = fields_of("CheckReport")
    del report["note"]
    assert CheckReport(**report).note == ""
    assert CheckReport(*report.values()) == RECORDS["CheckReport"][0]


def test_records_of_different_classes_never_compare_equal():
    # the same field values in a U label and a T label, a Signature and a
    # Weight, a Weyl block and its fixed-point form are different values
    t = TBasisLabel(U.k, U.ell, U.U, U.MU)
    assert U != t and t != U and len({U, t}) == 2
    assert SIG != Weight(4, 2, -2) and Weight(4, 2, -2) != SIG
    fixed = FixedBlock(*fields_of("WeylBlock").values(), bits=60)
    assert fixed != BLOCK and BLOCK != fixed


def test_fixed_block_is_a_weyl_block_with_bits():
    fixed = RECORDS["FixedBlock"][0]
    assert isinstance(fixed, WeylBlock) and fixed.bits == 60
    assert fixed.u_labels == BLOCK.u_labels


def test_exact_reprs():
    assert repr(RECORDS["SignedRadical"][0]) == (
        "SignedRadical(sign=-1, qpower=2, radicand=Fraction(3, 5))")
    assert repr(U) == ("UBasisLabel(k=1, ell=2, U=Fraction(3, 2), "
                       "MU=Fraction(1, 2))")
    assert repr(RECORDS["CheckReport"][0]) == (
        "CheckReport(name='su11-raising-t', passed=True, max_residual=0.0, "
        "tolerance=1e-10, location='', columns_checked=75, note='')")
    assert str(SIG) == "(4,2,-2)" and str(U) == "k=1 ell=2 U=3/2 MU=1/2"


def test_radicals_neither_add_nor_repeat():
    rad = RECORDS["SignedRadical"][0]
    with pytest.raises(TypeError):
        rad + rad
    with pytest.raises(TypeError):
        3 * rad


@pytest.mark.parametrize("build, error", [
    # each used to construct and fail only later, or not at all
    (lambda: SignedRadical(1, 0, 2.5), TypeError),
    (lambda: SignedRadical(1, Fraction(1, 2), Fraction(2)), TypeError),
    (lambda: SignedRadical(1, 0.5, Fraction(2)), TypeError),
    (lambda: SignedRadical(1.0, 0, Fraction(2)), TypeError),
    (lambda: SignedRadical(True, 0, Fraction(2)), TypeError),
    (lambda: SignedRadical(Fraction(-1), 0, Fraction(2)), TypeError),
    (lambda: SignedRadical(1, False, Fraction(2)), TypeError),
    (lambda: Truncation(True, 2, 2), ValueError),
    (lambda: Truncation(2, 2, False), ValueError),
    (lambda: Signature(4, True, -2), InvalidSignature),
], ids=["radicand-float", "qpower-fraction", "qpower-float", "sign-float",
        "sign-bool", "sign-fraction", "qpower-bool",
        "truncation-bool", "truncation-bool-last", "signature-bool"])
def test_field_of_the_wrong_type_is_refused(build, error):
    with pytest.raises(error):
        build()
