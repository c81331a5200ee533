import json
import random

import pytest

import reference
from multishare import formats
from multishare.field import DEFAULT_MODULUS
from multishare.formats import canonical_json, share_bytes, share_to_dict
from multishare.protocol import NodeShare


def expected_file(share: NodeShare, modulus: int) -> bytes:
    """The share file as canonical JSON of the full share dict."""
    return canonical_json(share_to_dict(share, modulus)) + b"\n"


class TestShareWriter:
    """share_bytes, one printf-style pass over the values, against
    canonical_json(share_to_dict(...))."""

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
        assert share_bytes(share, q) == expected_file(share, q)

    @pytest.mark.parametrize("network_id", [
        "", 'quote"', "back\\slash", "new\nline", "tab\t", "percent %x %s %%",
        "café", "☃ snow", "emoji \U0001f600", "\x00nul", "}]",
        '","values":["1'])
    def test_network_id_needs_escaping(self, network_id):
        for values in ((), (0,), (5, 0, 2**100)):
            share = NodeShare(network_id, 1, 0, values)
            assert (share_bytes(share, DEFAULT_MODULUS)
                    == expected_file(share, DEFAULT_MODULUS))

    def test_list_values_and_large_fields(self):
        share = NodeShare("m", 2**40, 2**63, [3, 0, 10])
        assert share_bytes(share, 257) == expected_file(share, 257)

    def test_round_trip(self):
        rng = random.Random(3)
        share = NodeShare("m", 2, 4, tuple(rng.randrange(DEFAULT_MODULUS)
                                           for _ in range(300)))
        data = json.loads(share_bytes(share, DEFAULT_MODULUS))
        assert formats.share_from_dict(data, DEFAULT_MODULUS) == share


class TestHexParser:
    """_parse_hex's conversion against the per-value loop it replaced."""

    def test_matches_reference(self):
        rng = random.Random(8)
        for q in (257, DEFAULT_MODULUS):
            values = [0, 1, q - 1] + [rng.randrange(q) for _ in range(9000)]
            texts = [format(v, "x") for v in values]
            assert formats._parse_hex(texts) == values
            assert reference.parse_hex_values(texts) == values

    def test_empty(self):
        assert formats._parse_hex([]) == []
