import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from multishare import formats
from multishare.errors import CorruptData
from multishare.field import BLOCK_WORDS, DEFAULT_MODULUS, word_bytes
from multishare.formats import (canonical_json, share_file_block,
                                share_to_dict, topology_digest,
                                topology_to_dict)
from multishare.protocol import LinkKind, NetworkSpec, NodeShare, Topology
from support import LAYOUT_LENGTHS, LAYOUT_MODULI, layout_values

B = BLOCK_WORDS
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

ESCAPED_IDS = [
    "", 'quote"', "back\\slash", "new\nline", "tab\t", "percent %x %s %%",
    "café", "☃ snow", "emoji \U0001f600", "\x00nul", "}]",
    '","values":["1']


def file_blocks(share: NodeShare, modulus: int) -> list:
    """The share file as deal and refresh write it, one block of values
    at a time."""
    n = len(share.values)
    return [share_file_block(share._replace(values=share.values[i:i + B]),
                             modulus, i, n)
            for i in range(0, max(n, 1), B)]


def streamed_bytes(share: NodeShare, modulus: int) -> bytes:
    """The streamed share file, joined; it must also equal the file that
    share_file_block makes of every value at once, and the one that the
    per-value writer of tests/reference.py builds."""
    data = b"".join(file_blocks(share, modulus))
    assert data == share_file_block(share, modulus, 0, len(share.values))
    assert data == reference.share_bytes(share, modulus)
    return data


def read_whole(path, modulus: int) -> NodeShare:
    """The share file at `path` as read_share reads it, block by block."""
    share = formats.read_share(path, modulus)
    values = []
    for i in range(0, len(share.values), B):
        values += share.values[i:i + B]
    return share._replace(values=tuple(values))


class TestShareWriter:
    """share_file_block, three C-level passes per block of values, against
    the per-value writer of tests/reference.py."""

    @pytest.mark.parametrize("q", [257, 65537, DEFAULT_MODULUS])
    @pytest.mark.parametrize("values", [
        (), (0,), (1,), (0, 0, 0), "edges", "random"],
        ids=["empty", "zero", "one", "zeros", "edges", "random"])
    def test_matches_share_dict(self, q, values):
        if values == "edges":
            values = (0, 1, 15, 16, 255, 256, q - 2, q - 1)
        elif values == "random":
            rng = random.Random(q)
            values = tuple(rng.randrange(q) for _ in range(5000))
        share = NodeShare("d1", 3, 7, values)
        assert streamed_bytes(share, q) == reference.share_bytes(share, q)

    @pytest.mark.parametrize("network_id", ESCAPED_IDS)
    def test_network_id_needs_escaping(self, network_id):
        for values in ((), (0,), (5, 0, 2**100)):
            share = NodeShare(network_id, 1, 0, values)
            assert (streamed_bytes(share, DEFAULT_MODULUS)
                    == reference.share_bytes(share, DEFAULT_MODULUS))

    def test_list_values_and_large_fields(self):
        share = NodeShare("m", 2**40, 2**63, [3, 0, 10])
        assert streamed_bytes(share, 257) == reference.share_bytes(share, 257)

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_block_edges(self, n):
        # Values of every hex width, so that a value split across blocks
        # or a comma lost between them shows; and ids that need escapes.
        rng = random.Random(n)
        values = tuple(rng.randrange(DEFAULT_MODULUS) >> rng.randrange(127)
                       for _ in range(n))
        for network_id in ("d1", "percent %x %s %%", '","values":["1',
                           "\x00nul"):
            share = NodeShare(network_id, 2, 5, values)
            assert (streamed_bytes(share, DEFAULT_MODULUS)
                    == reference.share_bytes(share, DEFAULT_MODULUS))

    def test_blocks_are_bounded(self):
        # No block holds more than BLOCK_WORDS values: the header comes
        # with the first block of values, and the closing bytes with the
        # last.
        share = NodeShare("m", 1, 0, (DEFAULT_MODULUS - 1,) * (2 * B + 1))
        blocks = file_blocks(share, DEFAULT_MODULUS)
        assert len(blocks) == 3
        width = len(f'"{DEFAULT_MODULUS - 1:032x}",')
        head = len(share_file_block(share._replace(values=()),
                                    DEFAULT_MODULUS, 0, 2 * B + 1))
        assert len(blocks[0]) <= head + B * width
        assert max(map(len, blocks[1:])) <= B * width + 3
        assert blocks[-1].endswith(b'"]}\n')

    def test_round_trip(self):
        rng = random.Random(3)
        share = NodeShare("m", 2, 4, tuple(rng.randrange(DEFAULT_MODULUS)
                                           for _ in range(300)))
        data = json.loads(streamed_bytes(share, DEFAULT_MODULUS))
        assert formats.share_from_dict(data, DEFAULT_MODULUS) == share

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [d], formats.NOT_CANONICAL),
        (lambda d: {**d, "values": "00"}, "values must be a list"),
        (lambda d: {k: v for k, v in d.items() if k != "values"},
         formats.NOT_CANONICAL),
        (lambda d: {**d, "values": ["f" * 32] * 2}, formats.OUT_OF_RANGE),
        (lambda d: {**d, "values": d["values"][:1]},
         "the file has 170 bytes, not the 205 that its chunk_count of 2 "
         "values of 32 hex digits gives"),
    ], ids=["not-an-object", "values-string", "values-missing",
            "out-of-range", "count-mismatch"])
    def test_refusals(self, edit, message):
        data = share_to_dict(NodeShare("m", 2, 4, (1, 2)), DEFAULT_MODULUS)
        with pytest.raises(CorruptData) as err:
            formats.share_from_dict(edit(data), DEFAULT_MODULUS)
        assert str(err.value) == message



class TestFixedWidth:
    """Share format v2: every value is the 2w lowercase hex digits of its
    w-byte big-endian form, w = word_bytes(q). share_file_block and
    read_share, which convert a block of values by C-level passes,
    against the per-value writer and reader of tests/reference.py."""

    QS = [257, 65537, DEFAULT_MODULUS]

    @pytest.mark.parametrize("q, digits", [(7, 2), (257, 4), (65537, 6),
                                           (2**61 - 1, 16),
                                           (DEFAULT_MODULUS, 32)])
    def test_width(self, q, digits):
        assert 2 * word_bytes(q) == digits
        assert share_to_dict(NodeShare("m", 1, 0, (0, q - 1)), q)[
            "values"] == ["0" * digits, f"{q - 1:0{digits}x}"]

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_write_and_read_match_reference(self, tmp_path, q, n):
        rng = random.Random(n * q)
        values = tuple(rng.choice((0, q - 1, rng.randrange(q)))
                       for _ in range(n))
        share = NodeShare("d1", 2, 3, values)
        data = streamed_bytes(share, q)
        path = tmp_path / "d1_002.share.json"
        path.write_bytes(data)
        if not n:
            # The writer writes no values, but a share holds one chunk at
            # least (an empty secret is one), so both readers refuse it.
            with pytest.raises(CorruptData, match="chunk_count"):
                reference.read_share_bytes(data, q)
            with pytest.raises(formats.UnreadableShare, match="chunk_count"):
                read_whole(path, q)
            return
        assert reference.read_share_bytes(data, q) == share
        assert read_whole(path, q) == share

    @pytest.mark.parametrize("q", QS)
    def test_v1_file_read(self, tmp_path, q):
        rng = random.Random(q)
        share = NodeShare("m", 1, 4, tuple(rng.randrange(q)
                                           for _ in range(B + 2)))
        path = tmp_path / "m_001.share.json"
        path.write_bytes(reference.share_bytes_v1(share, q))
        assert b'"format_version":1' in path.read_bytes()
        assert read_whole(path, q) == share

    @staticmethod
    def _faults(data: bytes, q: int):
        """`data`, a v2 share file, broken one way at a time, by name."""
        digits = 2 * word_bytes(q)
        first = data.index(b'"values":["') + len(b'"values":["')
        last = len(data) - 3 - digits
        value = data[first:first + digits]
        yield "appended", data + b" "
        yield "cut", data[:-1]
        yield "upper", data.replace(value, value.upper(), 1)
        yield "non-hex", data[:last] + b"g" + data[last + 1:]
        yield "short", data[:first] + data[first + 1:]
        yield "q", data[:last] + b"%0*x" % (digits, q) + data[last + digits:]
        yield "long", data[:first] + b"0" + data[first:]
        # The same size, each byte a hex digit or a separator, but one
        # separator moved or replaced: each is caught by one check.
        second = first + digits + 3
        yield "shifted", (data[:first] + data[first + 1:second] + b"0"
                          + data[second:])
        for name, at, byte in (("opening", second - 1, b","),
                               ("closing", first + digits, b","),
                               ("comma", first + digits + 1, b'"')):
            yield name, data[:at] + byte + data[at + 1:]
        yield "tail", data[:-3] + b"}]\n"
        yield "version-3", data.replace(b'"format_version":2',
                                        b'"format_version":3')
        # Separator bytes in place of a digit, or of two.
        for name, bad in (("quote-digit", b'"'), ("bracket-digits", b"]}")):
            yield name, data[:first] + bad + data[first + len(bad):]

    @pytest.mark.parametrize("q", QS)
    def test_faults_refused_by_both(self, tmp_path, q):
        rng = random.Random(q)
        # The first value has a letter to put in upper case.
        share = NodeShare("m", 1, 0, (q - 2,) + tuple(
            rng.randrange(q) for _ in range(B + 1)))
        data = streamed_bytes(share, q)
        path = tmp_path / "m_001.share.json"
        for name, bad in self._faults(data, q):
            assert bad != data, name
            path.write_bytes(bad)
            with pytest.raises(CorruptData):
                reference.read_share_bytes(bad, q)
            with pytest.raises(formats.UnreadableShare) as err:
                read_whole(path, q)
            assert str(err.value).startswith(f"cannot read share {path}: ")

    @pytest.mark.parametrize("data", [b'"values":["00"]}\n',
                                      b'{"epoch":,"values":["00"]}\n'])
    def test_header_not_json_refused(self, tmp_path, data):
        # The text up to the "values" key is no JSON document.
        path = tmp_path / "m_001.share.json"
        path.write_bytes(data)
        with pytest.raises(formats.UnreadableShare) as err:
            formats.read_share(path, DEFAULT_MODULUS)
        assert str(err.value) == (
            f"cannot read share {path}: {formats.NOT_CANONICAL}")

    @pytest.mark.parametrize("q", [65537, DEFAULT_MODULUS])
    def test_every_byte_at_a_digit(self, tmp_path, q):
        # Each of the 256 bytes in turn at the first digit of value 0, a
        # middle digit of a middle value and the last digit of the last
        # value, q - 1: read_share takes exactly the files the per-value
        # reader takes, and refuses every other with the reason.
        digits = 2 * word_bytes(q)
        share = NodeShare("m", 1, 0, (0, 1, q // 3, 5, q - 1))
        data = streamed_bytes(share, q)
        first = data.index(b'"values":["') + len(b'"values":["')
        stride = digits + 3
        path = tmp_path / "m_001.share.json"
        for at in (first, first + 2 * stride + digits // 2,
                   first + 4 * stride + digits - 1):
            for byte in range(256):
                bad = data[:at] + bytes([byte]) + data[at + 1:]
                path.write_bytes(bad)
                try:
                    want = reference.read_share_bytes(bad, q)
                except CorruptData:
                    want = None
                if want is not None:
                    assert read_whole(path, q) == want, (at, byte)
                    continue
                message = (formats.OUT_OF_RANGE
                           if byte in b"0123456789abcdef"
                           else formats.NOT_FIXED_HEX.format(digits))
                with pytest.raises(formats.UnreadableShare) as err:
                    formats.read_share(path, q).values.read_rest()
                assert str(err.value) == (
                    f"cannot read share {path}: {message}"), (at, byte)


class TestSlotStride:
    """The v2 writer and reader convert a block of values through the
    field's slot layout, a slot being a value's stride in the file
    (field.to_hex, field.from_hex): against the per-value writer and
    reader of tests/reference.py at the moduli and lengths of
    tests/test_field.py's TestSlotLayout, and with each byte in turn at
    each separator before a value, the bytes that the reader overwrites
    once its strided checks have passed."""

    @pytest.mark.parametrize("q", LAYOUT_MODULI)
    @pytest.mark.parametrize("n", LAYOUT_LENGTHS)
    @settings(max_examples=2, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32))
    def test_bytes_match_reference(self, q, n, seed):
        share = NodeShare("d1", 2, 3, tuple(layout_values(q, n, seed)))
        data = streamed_bytes(share, q)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d1_002.share.json"
            path.write_bytes(data)
            assert read_whole(path, q) == share
        assert reference.read_share_bytes(data, q) == share

    @pytest.mark.parametrize("n, at", [(5, 2), (B + 1, B)])
    def test_every_byte_at_a_separator(self, tmp_path, n, at):
        # The closing quote of value at - 1, the comma and the opening
        # quote of value `at`: inside a block, and across the edge of the
        # first block. Any other byte there is refused by both readers,
        # by read_share as not in the layout the tools write.
        q = 65537
        share = NodeShare("m", 1, 0, tuple(layout_values(q, n, n)))
        data = streamed_bytes(share, q)
        opening = (data.index(b'"values":["') + len(b'"values":[')
                   + at * (2 * word_bytes(q) + 3))
        path = tmp_path / "m_001.share.json"
        for pos in range(opening - 2, opening + 1):
            for byte in set(range(256)) - {data[pos]}:
                bad = data[:pos] + bytes([byte]) + data[pos + 1:]
                path.write_bytes(bad)
                with pytest.raises(CorruptData):
                    reference.read_share_bytes(bad, q)
                with pytest.raises(formats.UnreadableShare) as err:
                    formats.read_share(path, q).values.read_rest()
                assert str(err.value) == (
                    f"cannot read share {path}: {formats.NOT_CANONICAL}"
                ), (pos, byte)


class TestV1Faults:
    """Share format v1: each value lowercase hex without leading zeros.
    read_share reads a v1 file value by value, and refuses it at its
    first fault with the reason."""

    @staticmethod
    def _faults(data: bytes, q: int, share: NodeShare):
        """`data`, the v1 share file of `share`, broken one way at a time:
        (name, bytes, the reason read_share gives)."""
        first = data.index(b'"values":["') + len(b'"values":["')
        head = b"%x" % share.values[0]
        tail = b"%x" % share.values[-1]
        last = len(data) - 4 - len(tail)  # where the last value starts
        for name, bad in (("appended", data + b" "),
                          ("space", data.replace(b'","', b'", "', 1)),
                          ("tail", data[:-3] + b"}]\n")):
            yield name, bad, formats.NOT_CANONICAL
        for name, bad in (("cut", data[:-1]),
                          ("cut-last-value", data[:last + 1]),
                          ("cut-first-block", data[:len(data) // 2])):
            yield name, bad, formats.ENDS_EARLY
        for name, bad in (
                ("leading-zero", data[:first] + b"0" + data[first:]),
                ("upper", data[:first] + head.upper()
                 + data[first + len(head):]),
                ("empty", data[:first] + data[first + len(head):]),
                ("non-hex", data[:first] + b"g" + data[first + 1:]),
                ("second-block", data[:last] + b"0" + data[last:])):
            yield name, bad, formats.NOT_HEX
        for name, text in (("q", b"%x" % q), ("40-digits", b"f" * 40)):
            yield (name, data[:first] + text + data[first + len(head):],
                   formats.OUT_OF_RANGE)
        for name, bad in (
                ("dropped", data[:last - 3] + data[last + len(tail):]),
                ("added", data[:last] + tail + b'","' + data[last:])):
            yield name, bad, formats.COUNT_MISMATCH

    @pytest.mark.parametrize("q", TestFixedWidth.QS)
    def test_faults_and_their_messages(self, tmp_path, q):
        rng = random.Random(q)
        # The first value has a letter to put in upper case.
        share = NodeShare("m", 1, 4, (q - 2,) + tuple(
            rng.randrange(q) for _ in range(B + 1)))
        data = reference.share_bytes_v1(share, q)
        path = tmp_path / "m_001.share.json"
        path.write_bytes(data)
        assert read_whole(path, q) == share
        for name, bad, message in self._faults(data, q, share):
            assert bad != data, name
            path.write_bytes(bad)
            with pytest.raises(formats.UnreadableShare) as err:
                read_whole(path, q)
            assert str(err.value).endswith(f": {message}"), name


    @pytest.mark.parametrize("q", TestFixedWidth.QS)
    def test_value_past_the_buffer(self, tmp_path, q):
        # A value so long that no closing quote is among the bytes read
        # for its block, which the file fills: it is out of range, and the
        # file does not end early.
        width = len(format(q - 1, "x")) + 3
        share = NodeShare("m", 1, 0, (1, 16 ** (3 * width)))
        path = tmp_path / "m_001.share.json"
        path.write_bytes(reference.share_bytes_v1(share, q))
        with pytest.raises(formats.UnreadableShare) as err:
            read_whole(path, q)
        assert str(err.value).endswith(f": {formats.OUT_OF_RANGE}")

    @pytest.mark.parametrize("q", TestFixedWidth.QS)
    def test_document_parses(self, q):
        # The whole-document reader takes a v1 share too, and refuses a
        # value with a leading zero.
        share = NodeShare("m", 1, 4, (0, 1, q - 1))
        data = json.loads(reference.share_bytes_v1(share, q))
        assert formats.share_from_dict(data, q) == share
        data["values"][1] = "01"
        with pytest.raises(CorruptData) as err:
            formats.share_from_dict(data, q)
        assert str(err.value) == formats.NOT_HEX


class TestOneGrammar:
    """share_from_dict reads a document as read_share reads the file that
    is its canonical JSON and a newline, by the same reader."""

    @pytest.mark.parametrize("q", TestFixedWidth.QS)
    def test_document_reads_as_its_file(self, tmp_path, q):
        # The v1 and v2 files of one share: whole, broken in turn as the
        # fault catalogues above break them, and with a key that sorts
        # after "values". On each file that is the canonical JSON of an
        # object and a newline, both readers refuse it, or both return
        # the same share.
        rng = random.Random(q)
        share = NodeShare("m", 1, 4, (q - 2,) + tuple(
            rng.randrange(q) for _ in range(B + 1)))
        v1, v2 = reference.share_bytes_v1(share, q), streamed_bytes(share, q)
        files = [v1, v2, *(bad for _, bad in TestFixedWidth._faults(v2, q)),
                 *(bad for _, bad, _ in TestV1Faults._faults(v1, q, share)),
                 *(canonical_json({**json.loads(data), "w": 0}) + b"\n"
                   for data in (v1, v2))]
        path = tmp_path / "m_001.share.json"
        read = 0
        for data in files:
            try:
                doc = json.loads(data)
            except ValueError:
                continue
            if not (isinstance(doc, dict)
                    and canonical_json(doc) + b"\n" == data):
                continue
            path.write_bytes(data)
            found = []
            for reader in (lambda: read_whole(path, q),
                           lambda: formats.share_from_dict(doc, q)):
                try:
                    found.append(reader())
                except CorruptData:
                    found.append(None)
            assert found[0] == found[1], data[-40:]
            read += 1
        assert (read, len(files)) == (20, 34)


class TestReadInOrder:
    """A share file's values are read in order: a slice that does not
    start where the last one ended, or that skips values, is refused."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_out_of_order_slice_refused(self, tmp_path, version):
        q = DEFAULT_MODULUS
        share = NodeShare("m", 1, 0, tuple(range(2 * B + 1)))
        path = tmp_path / "m_001.share.json"
        path.write_bytes(reference.share_bytes_v1(share, q) if version == 1
                         else streamed_bytes(share, q))
        values = formats.read_share(path, q).values
        for index in (slice(1, B), slice(B, 2 * B), slice(0, B, 2)):
            with pytest.raises(ValueError, match="in order"):
                values[index]
        assert list(values[0:B]) == list(range(B))
        for index in (slice(0, B), slice(B + 1, 2 * B), slice(B, None, 2)):
            with pytest.raises(ValueError, match="in order"):
                values[index]
        assert list(values[B:]) == list(range(B, 2 * B + 1))

    @pytest.mark.parametrize("version", [1, 2])
    def test_empty_slice_reads_nothing(self, tmp_path, version):
        # An empty slice where the last one ended is an empty Block, and
        # the file is not opened for it: after the whole file is read, it
        # may be gone.
        q = DEFAULT_MODULUS
        share = NodeShare("m", 1, 0, tuple(range(B + 1)))
        path = tmp_path / "m_001.share.json"
        path.write_bytes(reference.share_bytes_v1(share, q) if version == 1
                         else streamed_bytes(share, q))
        values = formats.read_share(path, q).values
        assert len(values[0:0]) == 0
        assert list(values[0:B]) == list(range(B))
        assert len(values[B:B]) == 0
        assert list(values[B:]) == [B]
        path.unlink()
        for index in (slice(len(values), None), slice(B + 1, B + 1)):
            empty = values[index]
            assert len(empty) == 0 and empty.modulus == q


class TestHexParser:
    """_parse_hex reads one value in the hex grammar: lowercase hex
    without leading zeros ("0" for zero)."""

    @pytest.mark.parametrize("text", ["0", "1", "a",
                                      format(DEFAULT_MODULUS - 1, "x")])
    def test_accepts(self, text):
        assert formats._parse_hex(text) == int(text, 16)

    # Each but the empty text is a spelling int(text, 16) accepts.
    @pytest.mark.parametrize("text", [
        "", "00", "01", "A", " 1", "1\n", "+1", "-1", "0x1", "1_0",
        "\u0661"])
    def test_refuses(self, text):
        with pytest.raises(CorruptData, match="lowercase hex"):
            formats._parse_hex(text)

    def test_matches_reference(self):
        rng = random.Random(8)
        for q in (257, DEFAULT_MODULUS):
            values = [0, 1, q - 1] + [rng.randrange(q) for _ in range(9000)]
            texts = [format(v, "x") for v in values]
            assert reference.parse_hex_values(texts) == values
            for text, value in zip(texts, values):
                assert formats._parse_hex(text) == value

    def test_bad_value_in_a_later_block(self):
        data = share_to_dict(NodeShare("m", 1, 0, (1,) * (B + 2)),
                             DEFAULT_MODULUS)
        data["values"][-1] = "01"
        with pytest.raises(CorruptData, match=f"not the 143568 that its "
                           f"chunk_count of {B + 2} values"):
            formats.share_from_dict(data, DEFAULT_MODULUS)


class TestManifestReader:
    def test_reads_what_the_writer_wrote(self):
        data = json.loads(canonical_json(
            formats.manifest_dict("ab" * 32, 7, 3, ["m/1"])))
        assert formats.manifest_from_dict(data) == ("ab" * 32, 3, 7, ["m/1"])

    @pytest.mark.parametrize("stale", [
        [], ["m/1", "d2/10"], ["/1"], ["café %s\n/7"]])
    def test_stale_names(self, stale):
        data = formats.manifest_dict("ab" * 32, 1, 0, stale)
        assert formats.manifest_from_dict(data) == (
            "ab" * 32, 0, 1, sorted(stale))

    @pytest.mark.parametrize("data,message", [
        ({}, "'topology_digest'"),
        ([], "list indices must be integers or slices, not str"),
        ({"topology_digest": "ab"}, "'epoch'"),
        ({"topology_digest": "ab", "epoch": "1"},
         "epoch must be an integer, not '1'"),
        ({"topology_digest": "ab", "epoch": True},
         "epoch must be an integer, not True")])
    def test_malformed(self, data, message):
        with pytest.raises(CorruptData) as err:
            formats.manifest_from_dict(data)
        assert str(err.value) == message


@st.composite
def topologies(draw):
    """A small topology: any network ids, the mother anywhere."""
    q = draw(st.sampled_from([257, 65537, DEFAULT_MODULUS]))
    ids = draw(st.lists(st.text(max_size=6), min_size=2, max_size=5,
                        unique=True))
    mother = draw(st.integers(0, len(ids) - 1))
    nets = []
    for i, nid in enumerate(ids):
        n = draw(st.integers(1, 6))
        nets.append(NetworkSpec(nid, n, draw(st.integers(0, n - 1)),
                                LinkKind.ITS if i == mother
                                else LinkKind.CLASSICAL))
    return Topology(q, tuple(nets), mother, draw(st.integers(1, len(ids) - 1)))


def example_topologies():
    """The topologies of docs/examples."""
    topology = json.loads((EXAMPLES / "topology.json").read_text())
    scenario = json.loads((EXAMPLES / "scenario.json").read_text())
    return [formats.topology_from_dict(data)
            for data in (topology, scenario["topology"])]


def hashlib_digest(topology: Topology) -> str:
    return hashlib.sha256(
        canonical_json(topology_to_dict(topology))).hexdigest()


class TestTopologyDigest:
    """topology_digest, by the interpreter's built-in SHA-256, against
    hashlib's: the digest in every manifest written so far must not
    change."""

    def test_examples(self):
        for topology in example_topologies():
            assert topology_digest(topology) == hashlib_digest(topology)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(topologies())
    def test_matches_hashlib(self, topology):
        assert topology_digest(topology) == hashlib_digest(topology)

    def test_hashlib_fallback(self, monkeypatch):
        # With neither built-in module importable (None in sys.modules
        # makes an import fail), the digest comes from hashlib.
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(ImportError):
            import _sha256  # noqa: F401
        for topology in example_topologies():
            assert topology_digest(topology) == hashlib_digest(topology)
