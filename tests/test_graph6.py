"""graph6 text format: hand-decoded examples, error offsets, round-trips."""

from __future__ import annotations

import random

import pytest

from specfactor.constructions import complete_graph, cycle
from specfactor.graph import Graph
from specfactor.graph6 import Graph6Error, parse_graph6, to_graph6

from conftest import random_graph


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count == 0
    assert to_graph6(Graph(1, [])) == "@"


def test_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edge_count == 1
    assert to_graph6(complete_graph(2)) == "A_"


def test_k5():
    g = parse_graph6("D~{")
    assert g == complete_graph(5)
    assert g.n == 5 and g.edge_count == 10


def test_c4_round_trip():
    line = to_graph6(cycle(4))
    assert line == "Cl"
    assert parse_graph6(line) == cycle(4)


def test_empty_graph_n0():
    line = to_graph6(Graph(0, []))
    assert parse_graph6(line).n == 0


def test_whitespace_tolerated():
    assert parse_graph6("D~{\n") == complete_graph(5)
    assert parse_graph6(">>graph6<<D~{") == complete_graph(5)


def test_error_empty_line():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0


def test_error_out_of_range_byte():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D~\x01")
    assert exc.value.offset == 2


@pytest.mark.parametrize("text,offset,ch", [
    ("€", 0, "€"),
    ("D~€", 2, "€"),
    ("D€{", 1, "€"),
    (">>graph6<<D€{", 11, "€"),
    ("D~\U0001f600{", 2, "\U0001f600"),
    ("D\ud800{", 1, "\ud800"),
    ("~€??", 1, "€"),
])
def test_error_non_ascii_character(text, offset, ch):
    # offsets count characters, so a multi-byte character is one position
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"byte {ch!r} outside graph6 range (byte offset {offset})"


def test_error_truncated_bit_vector():
    # K5 needs two bit-vector bytes; drop the last one
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D~")
    assert exc.value.offset >= 1


def test_error_trailing_bytes():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D~{~")
    assert exc.value.offset == 3


def test_error_nonzero_padding():
    # a 3-vertex graph uses 3 of 6 bits; "Bh" sets a padding bit of "Bg"
    assert parse_graph6("Bg").edges() == [(0, 1), (1, 2)]
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("Bh")
    assert exc.value.offset == 1


@pytest.mark.parametrize("text,message,offset", [
    ("&D~{", "digraph6", 0),
    (">>graph6<<&D~{", "digraph6", 10),
    ("~AB", "truncated vertex count", 3),
    ("~~??????", "beyond 258047", 1),
])
def test_error_header(text, message, offset):
    with pytest.raises(Graph6Error, match=message) as exc:
        parse_graph6(text)
    assert exc.value.offset == offset


def test_error_is_value_error():
    with pytest.raises(ValueError):
        parse_graph6(":D~{")


def test_multibyte_vertex_count():
    g = Graph(100)
    line = to_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g
    with pytest.raises(ValueError, match="beyond 258047"):
        to_graph6(Graph(258048))


def test_round_trip_corpus():
    rng = random.Random(20260814)
    for _ in range(1000):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.random(), rng)
        assert parse_graph6(to_graph6(g)) == g


def per_edge_graph6(g: Graph) -> str:
    """graph6 body one bit at a time: x(i, j) for i < j, column by column."""
    flat = [(g.row(j) >> i) & 1 for j in range(1, g.n) for i in range(j)]
    flat += [0] * (-len(flat) % 6)
    return "".join(
        chr(sum(bit << (5 - s) for s, bit in enumerate(flat[b : b + 6])) + 63)
        for b in range(0, len(flat), 6)
    )


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 300])
def test_encoding_matches_per_edge_reference(n):
    rng = random.Random(n)
    for g in (random_graph(n, rng.random(), rng), complete_graph(n)):
        line = to_graph6(g)
        head = 1 if n <= 62 else 4
        assert line[head:] == per_edge_graph6(g)
        assert parse_graph6(line) == g
