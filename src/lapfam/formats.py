"""Graph serialization: graph6, DOT, and a small csv edge list.

graph6 is the compact ASCII format used by nauty and friends: a vertex
count in one, four or eight characters followed by the upper triangle of
the adjacency matrix in column-major order, six bits per character,
offset by 63.  Labels are not representable in graph6 or the edge list,
so reading either yields an unlabeled graph; DOT output is write-only and
keeps labels.
"""

from __future__ import annotations

from typing import Callable

from .graphs import Graph, _iter_bits

_HEADER = ">>graph6<<"


def _decimal(text: str) -> int:
    """An optionally signed integer in ASCII digits, as typed in input text;
    ``int`` alone would also take ``1_0`` or non-ASCII digits."""
    body = text.strip()
    digits = body[1:] if body.startswith(("+", "-")) else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(body)


def _encode_n(n: int) -> str:
    if n < 0:
        raise ValueError(f"negative vertex count: {n}")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError(f"vertex count too large for graph6: {n}")


def _decode_n(text: str) -> tuple[int, int]:
    """Vertex count and number of characters consumed."""
    if not text:
        raise ValueError("empty graph6 string")
    if text[0] != "~":
        return ord(text[0]) - 63, 1
    start, end = (2, 8) if text[1:2] == "~" else (1, 4)
    if len(text) < end:
        raise ValueError("truncated graph6 vertex count")
    n = 0
    for ch in text[start:end]:
        n = (n << 6) | (ord(ch) - 63)
    return n, end


def write_graph6(g: Graph, header: bool = False) -> str:
    """One-line graph6 encoding (no trailing newline)."""
    # Column j of the upper triangle is the low j bits of mask j, bit i first.
    bits = "".join(
        format(g.neighbor_mask(j) & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)
    )
    bits += "0" * (-len(bits) % 6)
    body = "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))
    prefix = _HEADER if header else ""
    return prefix + _encode_n(g.n) + body


def read_graph6(text: str, admit: Callable[[int], None] | None = None) -> Graph:
    """The one graph in ``text``; sparse6, digraph6 and a file of several
    graphs are refused by name.  ``admit`` sees the header's vertex count
    before anything is built."""
    lines = [line for line in map(str.strip, text.split("\n")) if line]
    line = lines[0] if lines else ""
    if line.startswith((":", ">>sparse6<<")):
        raise ValueError("sparse6 is not supported; lapfam reads graph6")
    if line.startswith(("&", ">>digraph6<<")):
        raise ValueError("digraph6 is not supported; lapfam reads graph6")
    if line.startswith(_HEADER):
        line = line[len(_HEADER) :]
    for ch in line:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 character {ch!r}")
    if len(lines) > 1:
        raise ValueError(f"graph6 input holds {len(lines)} graphs; lapfam reads one per file")
    n, consumed = _decode_n(line)
    if admit is not None:
        admit(n)
    body = line[consumed:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} characters, expected {need}")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    adj = [0] * n
    for j in range(1, n):
        below = int(bits[j * (j - 1) // 2 : j * (j + 1) // 2][::-1], 2)
        adj[j] |= below
        for i in _iter_bits(below):
            adj[i] |= 1 << j
    return Graph._from_masks(adj)


def write_dot(g: Graph, name: str = "g") -> str:
    """Undirected DOT text; vertex labels become node labels when present."""
    lines = [f"graph {name} {{"]
    labels = g.labels
    for v in range(g.n):
        if labels is not None and labels[v] is not None:
            lines.append(f'  n{v} [label="{labels[v]}"];')
        else:
            lines.append(f"  n{v};")
    for u, v in g.edges():
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_edgelist(g: Graph) -> str:
    """csv edge list with a ``u,v`` header; vertices are reported 1-based."""
    lines = ["u,v"]
    lines.extend(f"{u + 1},{v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edgelist(text: str, admit: Callable[[int], None] | None = None) -> Graph:
    """Inverse of write_edgelist; the vertex count is the largest index seen,
    so trailing isolated vertices do not survive a round trip.  ``admit``
    sees that count before the graph is built."""
    rows = [line.strip() for line in text.splitlines()]
    rows = [line for line in rows if line]
    if rows and rows[0].replace(" ", "").lower() == "u,v":
        rows = rows[1:]
    edges = []
    n = 0
    for line in rows:
        try:
            u, v = map(_decimal, line.split(","))
        except ValueError:
            raise ValueError(f"bad edge list line: {line!r}") from None
        if u < 1 or v < 1:
            raise ValueError(f"edge list vertices are 1-based: {line!r}")
        if u == v:
            raise ValueError(f"self-loop in edge list line: {line!r}")
        n = max(n, u, v)
        edges.append((u - 1, v - 1))
    if admit is not None:
        admit(n)
    return Graph(n, edges)


def read_graph_auto(text: str, admit: Callable[[int], None] | None = None) -> Graph:
    """Sniff edge list vs graph6: a comma anywhere, or a digit first, means
    edge list (graph6 characters run from ``?`` to ``~``, so no graph6 line
    starts with a digit).  ``admit`` sees the vertex count before anything
    is built."""
    if "," in text or "0" <= text.lstrip()[:1] <= "9":
        return read_edgelist(text, admit)
    return read_graph6(text, admit)
