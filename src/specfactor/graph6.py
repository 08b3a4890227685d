"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix column by
column, x(0,1), x(0,2), x(1,2), x(0,3), ..., six bits per printable byte
offset by 63.  Decoding errors carry the byte offset of the offending
character so malformed corpus lines are easy to locate.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, adjacency_bits

_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position in the line."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< header allowed)."""
    s = text.strip()
    base = 0
    if s.startswith(_HEADER):
        base = len(_HEADER)
        s = s[base:]
    if not s:
        raise Graph6Error("empty graph6 string", base)
    if s[0] == ":":
        raise Graph6Error("sparse6 input is not supported", base)
    if s[0] == "&":
        raise Graph6Error("digraph6 input is not supported", base)

    # one code point per character, so an index into data is one into s;
    # code points below 63 wrap around to large values
    data = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), np.uint32) - 63
    bad = np.flatnonzero(data > 63)
    if bad.size:
        i = int(bad[0])
        raise Graph6Error(f"byte {s[i]!r} outside graph6 range", base + i)

    # vertex count: one byte up to 62, '~' prefix for 63..258047
    head = [int(x) for x in data[:4]]
    if head[0] < 63:
        n = head[0]
        pos = 1
    else:
        if len(head) < 4:
            raise Graph6Error("truncated vertex count", base + len(s))
        if head[1] == 63:
            raise Graph6Error("graphs beyond 258047 vertices unsupported", base + 1)
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        pos = 4

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(
            f"truncated bit vector: need {nbytes} bytes, have {len(data) - pos}",
            base + len(s),
        )
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing bytes after bit vector", base + pos + nbytes)

    # six bits per byte, most significant first; x(i, j) for i < j, column
    # by column, is the lower triangle row by row
    vec = np.unpackbits(data[pos:].astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    if vec[nbits:].any():
        raise Graph6Error("nonzero padding bits", base + len(s) - 1)
    adj = np.zeros((n, n), np.uint8)
    adj[np.tri(n, k=-1, dtype=bool)] = vec[:nbits]
    adj |= adj.T
    packed = np.packbits(adj, axis=1, bitorder="little")
    return Graph._trusted([int.from_bytes(row.tobytes(), "little") for row in packed])


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 line (no header, no newline)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise ValueError("graphs beyond 258047 vertices unsupported")

    # x(i, j) for i < j, column by column, is the lower triangle row by row
    tri = adjacency_bits(g)[np.tri(n, k=-1, dtype=bool)]
    six = np.zeros(-(-tri.size // 6) * 6, np.uint8)
    six[: tri.size] = tri
    chunks = six.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], np.uint8) + 63
    return head + chunks.tobytes().decode("ascii")
