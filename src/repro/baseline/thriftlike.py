"""A Thrift-compact-protocol-style serializer (the Parquet footer's wire
format, reimplemented).

Apache Parquet serializes its ``FileMetaData`` with Thrift's compact
protocol: field headers are (delta-encoded field id, type nibble),
integers are zigzag varints, strings are length-prefixed, and lists
carry a (size, element-type) header. Decoding is inherently sequential —
you cannot find the 9,000th column's byte range without walking the
9,999 structures before it. That sequential-walk property (not Thrift
bit-for-bit compatibility) is what the Fig 5 comparison depends on, and
it is preserved faithfully here.
"""

from __future__ import annotations

from repro.util.varint import decode_varint, encode_varint

# type codes (compact-protocol-inspired)
T_STOP = 0
T_BOOL_TRUE = 1
T_BOOL_FALSE = 2
T_I32 = 5
T_I64 = 6
T_BINARY = 8
T_LIST = 9
T_STRUCT = 12


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class CompactWriter:
    """Emit structs field-by-field like Thrift's compact protocol."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._last_field: list[int] = [0]

    def getvalue(self) -> bytes:
        return bytes(self._out)

    # -- struct framing ------------------------------------------------
    def struct_begin(self) -> None:
        self._last_field.append(0)

    def struct_end(self) -> None:
        self._out.append(T_STOP)
        self._last_field.pop()

    def _field_header(self, field_id: int, type_code: int) -> None:
        delta = field_id - self._last_field[-1]
        if 0 < delta < 16:
            self._out.append((delta << 4) | type_code)
        else:
            self._out.append(type_code)
            self._out += encode_varint(_zigzag(field_id) & (2**64 - 1))
        self._last_field[-1] = field_id

    # -- typed fields ----------------------------------------------------
    def field_i32(self, field_id: int, value: int) -> None:
        self._field_header(field_id, T_I32)
        self._out += encode_varint(_zigzag(value) & (2**64 - 1))

    def field_i64(self, field_id: int, value: int) -> None:
        self._field_header(field_id, T_I64)
        self._out += encode_varint(_zigzag(value) & (2**64 - 1))

    def field_bool(self, field_id: int, value: bool) -> None:
        self._field_header(field_id, T_BOOL_TRUE if value else T_BOOL_FALSE)

    def field_binary(self, field_id: int, value: bytes) -> None:
        self._field_header(field_id, T_BINARY)
        self._out += encode_varint(len(value))
        self._out += value

    def field_string(self, field_id: int, value: str) -> None:
        self.field_binary(field_id, value.encode())

    def list_begin(self, field_id: int, elem_type: int, size: int) -> None:
        self._field_header(field_id, T_LIST)
        if size < 15:
            self._out.append((size << 4) | elem_type)
        else:
            self._out.append(0xF0 | elem_type)
            self._out += encode_varint(size)

    def list_elem_i64(self, value: int) -> None:
        self._out += encode_varint(_zigzag(value) & (2**64 - 1))

    def field_struct(self, field_id: int) -> None:
        self._field_header(field_id, T_STRUCT)
        self.struct_begin()


class CompactReader:
    """Sequential struct decoder; the only way in is the front door."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset
        self._last_field: list[int] = [0]

    @property
    def pos(self) -> int:
        return self._pos

    def read_field_header(self) -> tuple[int, int] | None:
        """(field_id, type) or None at struct end."""
        byte = self._data[self._pos]
        self._pos += 1
        if byte == T_STOP:
            return None
        type_code = byte & 0x0F
        delta = byte >> 4
        if delta:
            field_id = self._last_field[-1] + delta
        else:
            raw, self._pos = decode_varint(self._data, self._pos)
            field_id = _unzigzag(raw)
        self._last_field[-1] = field_id
        return field_id, type_code

    def struct_begin(self) -> None:
        self._last_field.append(0)

    def struct_end(self) -> None:
        self._last_field.pop()

    def read_i64(self) -> int:
        raw, self._pos = decode_varint(self._data, self._pos)
        return _unzigzag(raw)

    read_i32 = read_i64

    def read_binary(self) -> bytes:
        length, self._pos = decode_varint(self._data, self._pos)
        out = self._data[self._pos : self._pos + length]
        self._pos += length
        return bytes(out)

    def read_string(self) -> str:
        return self.read_binary().decode()

    def read_list_header(self) -> tuple[int, int]:
        """(size, element_type)."""
        byte = self._data[self._pos]
        self._pos += 1
        elem_type = byte & 0x0F
        size = byte >> 4
        if size == 15:
            size, self._pos = decode_varint(self._data, self._pos)
        return size, elem_type

    def skip(self, type_code: int) -> None:
        """Skip a value of the given type (still walks every byte)."""
        if type_code in (T_BOOL_TRUE, T_BOOL_FALSE):
            return
        if type_code in (T_I32, T_I64):
            _, self._pos = decode_varint(self._data, self._pos)
            return
        if type_code == T_BINARY:
            length, self._pos = decode_varint(self._data, self._pos)
            self._pos += length
            return
        if type_code == T_LIST:
            size, elem_type = self.read_list_header()
            for _ in range(size):
                self.skip(elem_type)
            return
        if type_code == T_STRUCT:
            self.struct_begin()
            while True:
                header = self.read_field_header()
                if header is None:
                    break
                self.skip(header[1])
            self.struct_end()
            return
        raise ValueError(f"cannot skip unknown type {type_code}")
