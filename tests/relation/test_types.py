"""Column types: validation, encoding round trips, NULL sentinels."""

import os
import subprocess
import sys

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relation.types import (
    NULL,
    FloatType,
    IntType,
    NullValue,
    RidType,
    StringType,
    TimestampType,
    type_for_name,
    type_for_tag,
)
from repro.storage.rid import Rid


class TestNullSingleton:
    def test_null_is_singleton(self):
        assert NullValue() is NULL

    def test_null_is_falsy(self):
        assert not NULL

    def test_null_repr(self):
        assert repr(NULL) == "NULL"

    def test_null_survives_pickling(self):
        import pickle

        assert pickle.loads(pickle.dumps(NULL)) is NULL


class TestIntType:
    def test_roundtrip(self):
        t = IntType()
        data = t.encode(-123456789)
        value, offset = t.decode(data, 0)
        assert value == -123456789
        assert offset == 8

    def test_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            IntType().validate(True)

    def test_rejects_float(self):
        with pytest.raises(TypeMismatchError):
            IntType().validate(1.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(TypeMismatchError):
            IntType().validate(2**63)

    def test_accepts_boundaries(self):
        IntType().validate(2**63 - 1)
        IntType().validate(-(2**63))


class TestFloatType:
    def test_roundtrip(self):
        t = FloatType()
        value, _ = t.decode(t.encode(3.25), 0)
        assert value == 3.25

    def test_accepts_int(self):
        FloatType().validate(7)

    def test_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            FloatType().validate("x")


class TestStringType:
    def test_roundtrip(self):
        t = StringType()
        value, offset = t.decode(t.encode("héllo"), 0)
        assert value == "héllo"
        assert offset == 2 + len("héllo".encode("utf-8"))

    def test_empty_string(self):
        t = StringType()
        value, offset = t.decode(t.encode(""), 0)
        assert value == ""
        assert offset == 2

    def test_rejects_overlong(self):
        with pytest.raises(TypeMismatchError):
            StringType().validate("x" * 70000)

    def test_rejects_bytes(self):
        with pytest.raises(TypeMismatchError):
            StringType().validate(b"raw")


class TestRidType:
    def test_roundtrip(self):
        t = RidType()
        value, _ = t.decode(t.encode(Rid(3, 17)), 0)
        assert value == Rid(3, 17)

    def test_null_sentinel_roundtrip(self):
        t = RidType()
        value, offset = t.decode(t.encode(NULL), 0)
        assert value is NULL
        assert offset == 8

    def test_begin_is_not_null(self):
        t = RidType()
        value, _ = t.decode(t.encode(Rid.BEGIN), 0)
        assert value == Rid.BEGIN

    def test_fixed_width_regardless_of_null(self):
        t = RidType()
        assert len(t.encode(NULL)) == len(t.encode(Rid(0, 0)))

    def test_inline_null_flag(self):
        assert RidType().inline_null

    def test_rejects_non_rid(self):
        with pytest.raises(TypeMismatchError):
            RidType().validate((1, 2))

    @pytest.mark.parametrize("first", ["repro.relation", "repro.storage"])
    def test_either_package_imports_first_in_a_fresh_interpreter(self, first):
        # RidType binds Rid on first use, not at import: repro.storage
        # imports repro.relation while it is itself half-initialised.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        probe = (
            f"import {first}; "
            "from repro.relation.types import RidType; "
            "from repro.storage.rid import Rid; "
            "t = RidType(); t.validate(Rid(1, 2)); "
            "assert t.decode(t.encode(Rid(1, 2)), 0) == (Rid(1, 2), 8)"
        )
        subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            check=True,
        )


class TestTimestampType:
    def test_roundtrip(self):
        t = TimestampType()
        value, _ = t.decode(t.encode(430), 0)
        assert value == 430

    def test_null_sentinel_roundtrip(self):
        t = TimestampType()
        value, _ = t.decode(t.encode(NULL), 0)
        assert value is NULL

    def test_fixed_width_regardless_of_null(self):
        t = TimestampType()
        assert len(t.encode(NULL)) == len(t.encode(123))

    def test_rejects_negative(self):
        with pytest.raises(TypeMismatchError):
            TimestampType().validate(-1)


class TestRegistry:
    def test_lookup_by_name(self):
        assert type_for_name("int") == IntType()
        assert type_for_name("string") == StringType()
        assert type_for_name("rid") == RidType()

    def test_lookup_by_tag(self):
        assert type_for_tag(IntType.tag) == IntType()

    def test_unknown_name(self):
        with pytest.raises(SchemaError):
            type_for_name("varchar")

    def test_unknown_tag(self):
        with pytest.raises(SchemaError):
            type_for_tag(99)

    def test_equality_and_hash(self):
        assert IntType() == IntType()
        assert IntType() != FloatType()
        assert hash(IntType()) == hash(IntType())
