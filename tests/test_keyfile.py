import ast
from pathlib import Path

import numpy as np
import pytest

from field_inputs import PATH_FORMS, REFUSED, TAKEN
from fmqkd import keyfile
from fmqkd.errors import KeyFileError
from fmqkd.keyfile import (
    HEADER_SIZE,
    MAX_BITS,
    NATIVE_BLOCK_BITS,
    decode_key_block,
    encode_key_block,
    pack_bits,
    read_key_file,
    write_key_file,
)
from sessions import traced_peak


def test_native_block_round_trip(tmp_path):
    bits = np.random.default_rng(0).integers(0, 2, size=NATIVE_BLOCK_BITS).astype(np.uint8)
    path = tmp_path / "block.qkdr"
    write_key_file(path, bits)
    back = read_key_file(path)
    assert back.size == 65535
    assert np.array_equal(back, bits)
    # 65535 bits need 8192 payload bytes; one padding bit stays zero.
    assert path.stat().st_size == HEADER_SIZE + 8192


@pytest.mark.parametrize("form", list(PATH_FORMS.values()), ids=list(PATH_FORMS))
def test_key_files_are_written_and_read_from_str_and_pathlike_paths(tmp_path, form):
    bits = np.random.default_rng(4).integers(0, 2, 1001, dtype=np.uint8)
    path = tmp_path / "k.qkdr"
    write_key_file(form(path), bits)
    assert path.read_bytes() == encode_key_block(bits)
    for read_as in PATH_FORMS.values():
        assert np.array_equal(read_key_file(read_as(path)), bits)


def test_only_the_cli_imports_pathlib():
    # On CPython 3.10, 3.11 and 3.13 a pathlib.Path interns each part of its
    # path; one built per session churns the interned-string table, which then
    # regrows by about 1 MB. The CLI builds its paths once per process.
    importers = set()
    for module in Path(keyfile.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "pathlib" for name in names):
                importers.add(module.stem)
    assert importers == {"cli"}


def test_golden_block_bytes():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
    # LSB-first packing: byte0 = 0b11001101, byte1 = 0b00000101.
    expected = b"QKDR" + b"\x01" + b"\x00\x00\x00" + b"\x0b\x00\x00\x00" + b"\xcd\x05"
    assert encode_key_block(bits) == expected
    assert np.array_equal(decode_key_block(expected), bits)


def test_empty_block_round_trip():
    assert decode_key_block(encode_key_block(np.array([], dtype=np.uint8))).size == 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XKDR" + b[4:],                      # magic
        lambda b: b[:4] + b"\x02" + b[5:],              # version
        lambda b: b[:5] + b"\x01\x00\x00" + b[8:],      # reserved
        lambda b: b[:-1],                               # truncated payload
        lambda b: b + b"\x00",                          # trailing bytes
        lambda b: b[: HEADER_SIZE - 1],                 # truncated header
    ],
)
def test_malformed_blocks_rejected(mutate):
    good = encode_key_block(np.array([1, 0, 1], dtype=np.uint8))
    with pytest.raises(KeyFileError):
        decode_key_block(mutate(good))


def test_nonzero_padding_rejected():
    good = bytearray(encode_key_block(np.array([1, 0, 1], dtype=np.uint8)))
    good[-1] |= 0x80  # highest bit is padding for a 3-bit block
    with pytest.raises(KeyFileError):
        decode_key_block(bytes(good))


def test_bit_values_validated(tmp_path):
    # Checked as given, before any cast, and one-dimensional only; nothing is written.
    path = tmp_path / "key.qkdr"
    for bad in (np.array([0, 3], dtype=np.uint8), *REFUSED.values()):
        with pytest.raises(KeyFileError):
            encode_key_block(bad)
        with pytest.raises(KeyFileError):
            write_key_file(path, bad)
    assert not path.exists()
    for good in TAKEN:
        assert encode_key_block(good) == b"QKDR\x01\x00\x00\x00\x03\x00\x00\x00\x05"


def test_pack_bits_needs_no_temporary_per_bit():
    # The check reads the bits in place: the peak is the packed bytes, twice.
    bits = np.random.default_rng(1).integers(0, 2, 2 ** 22, dtype=np.uint8)
    with traced_peak() as traced:
        pack_bits(bits)
    assert traced.peak <= 0.3 * bits.size


def test_bit_count_beyond_u32_rejected():
    too_many = np.broadcast_to(np.uint8(0), (MAX_BITS + 1,))  # a view; nothing allocated
    with pytest.raises(KeyFileError, match=str(MAX_BITS)):
        encode_key_block(too_many)
