import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapfam import (
    Graph,
    are_adjacency_equal,
    combination_graph,
    read_edgelist,
    read_graph6,
    read_graph_auto,
    resolver_graph,
    resolver_graph_iterative,
    write_dot,
    write_edgelist,
    write_graph6,
)
from lapfam.formats import _decode_n, _encode_n
from helpers import bitlist_read_graph6, bitlist_write_graph6, graphs, masks


def same_graph(a: Graph, b: Graph) -> bool:
    return a.n == b.n and are_adjacency_equal(a, b)


class TestGraph6:
    def test_known_encodings(self):
        assert write_graph6(Graph(1)) == "@"
        assert write_graph6(Graph.complete(2)) == "A_"
        assert write_graph6(Graph.complete(3)) == "Bw"
        assert write_graph6(resolver_graph(2, 2)) == "D}_"

    def test_empty_graph(self):
        assert write_graph6(Graph(0)) == "?"
        assert read_graph6("?").n == 0

    def test_header(self):
        text = write_graph6(Graph.path(4), header=True)
        assert text.startswith(">>graph6<<")
        assert same_graph(read_graph6(text), Graph.path(4))

    def test_roundtrip_corpus(self, corpus_graph):
        assert same_graph(read_graph6(write_graph6(corpus_graph)), corpus_graph)

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("c", range(1, 6))
    def test_roundtrip_families(self, d, c):
        for g in (combination_graph(d, c), resolver_graph(d, c)):
            assert same_graph(read_graph6(write_graph6(g)), g)

    def test_matches_networkx_encoder(self, corpus_graph):
        h = nx.Graph()
        h.add_nodes_from(range(corpus_graph.n))
        h.add_edges_from(corpus_graph.edges())
        want = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert write_graph6(corpus_graph) == want

    def test_networkx_reads_ours(self):
        g = resolver_graph(3, 2)
        h = nx.from_graph6_bytes(write_graph6(g).encode())
        assert h.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges())

    def test_large_vertex_count_tier(self):
        g = Graph(63, [(0, 62), (5, 7)])
        text = write_graph6(g)
        assert text.startswith("~")
        assert same_graph(read_graph6(text), g)
        h = nx.Graph()
        h.add_nodes_from(range(63))
        h.add_edges_from([(0, 62), (5, 7)])
        assert text == nx.to_graph6_bytes(h, header=False).decode().strip()

    def test_vertex_count_tiers(self):
        for n in (0, 1, 62, 63, 100, 258047, 258048, 10**6):
            assert _decode_n(_encode_n(n) + "xxx")[0] == n
        assert len(_encode_n(62)) == 1
        assert len(_encode_n(63)) == 4
        assert len(_encode_n(258048)) == 8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            read_graph6("A_\x01")
        with pytest.raises(ValueError):
            read_graph6("B")  # truncated body
        with pytest.raises(ValueError):
            read_graph6("A__")  # trailing garbage
        with pytest.raises(ValueError):
            read_graph6("")
        with pytest.raises(ValueError):
            _encode_n(-1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A_\nBw\n", "graph6 input holds 2 graphs; lapfam reads one per file"),
            (">>graph6<<A_\n\nBw\r\n@\n", "graph6 input holds 3 graphs; lapfam reads one per file"),
            (":Fa@x^\n", "sparse6 is not supported; lapfam reads graph6"),
            (">>sparse6<<:Fa@x^", "sparse6 is not supported; lapfam reads graph6"),
            ("&DI?AO?\n", "digraph6 is not supported; lapfam reads graph6"),
            (">>digraph6<<&DI?AO?", "digraph6 is not supported; lapfam reads graph6"),
            # a space-separated edge list is not read as several graphs
            ("1 2\n2 3\n", "invalid graph6 character '1'"),
        ],
    )
    def test_refusals_name_the_input(self, text, message):
        with pytest.raises(ValueError) as exc:
            read_graph6(text)
        assert str(exc.value) == message

    def test_one_graph_between_blank_lines(self):
        assert same_graph(read_graph6("\n  A_\r\n\n"), Graph.complete(2))

    @settings(max_examples=60, deadline=None)
    @given(g=graphs(max_n=70))
    def test_roundtrip_random(self, g):
        # n up to 70 crosses the 63-vertex tier of the graph6 header
        text = write_graph6(g)
        assert text == bitlist_write_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert text == nx.to_graph6_bytes(h, header=False).decode().strip()
        back = read_graph6(text)
        assert same_graph(back, g) and back.edge_count == g.edge_count

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=0, max_value=70))
    def test_reader_matches_bitlist_oracle(self, data, n):
        # any body of the right length, padding bits included
        need = (n * (n - 1) // 2 + 5) // 6
        codes = data.draw(st.lists(st.integers(63, 126), min_size=need, max_size=need))
        text = _encode_n(n) + "".join(map(chr, codes))
        assert masks(read_graph6(text)) == masks(bitlist_read_graph6(text))


class TestDot:
    def test_labeled_output(self):
        text = write_dot(resolver_graph(2, 1))
        assert 'n0 [label="1"];' in text
        assert 'n2 [label="w1"];' in text
        assert "n1 -- n2;" not in text
        assert "n0 -- n2;" in text
        assert text.endswith("}\n")

    def test_unlabeled_output(self):
        text = write_dot(Graph.path(2), name="p")
        assert text == "graph p {\n  n0;\n  n1;\n  n0 -- n1;\n}\n"

    def test_iterative_labels_survive(self):
        text = write_dot(resolver_graph_iterative(2))
        for name in ("11", "12", "22", "w1", "w2"):
            assert f'[label="{name}"]' in text


class TestEdgeList:
    def test_write(self):
        assert write_edgelist(Graph.path(3)) == "u,v\n1,2\n2,3\n"

    def test_roundtrip(self, corpus_graph):
        # isolated trailing vertices are not representable; skip those
        got = read_edgelist(write_edgelist(corpus_graph))
        if corpus_graph.edge_count and max(
            v for e in corpus_graph.edges() for v in e
        ) == corpus_graph.n - 1:
            assert same_graph(got, corpus_graph)

    def test_header_optional(self):
        assert same_graph(read_edgelist("1,2\n2,3\n"), Graph.path(3))
        assert same_graph(read_edgelist("U, V\n1,2\n"), Graph.complete(2))

    def test_whitespace_tolerant(self):
        assert same_graph(read_edgelist("u,v\n 1 , 2 \n\n"), Graph.complete(2))

    def test_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            read_edgelist("1,2,3\n")
        with pytest.raises(ValueError):
            read_edgelist("0,1\n")
        with pytest.raises(ValueError):
            read_edgelist("a,b\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2,x", "bad edge list line: '2,x'"),
            ("1,2,3", "bad edge list line: '1,2,3'"),
            ("7", "bad edge list line: '7'"),
            ("3,3", "self-loop in edge list line: '3,3'"),
            # fields are ASCII decimals: int() alone reads 1_0 as 10 and
            # the Arabic-Indic digit three as 3
            ("1_0,2", "bad edge list line: '1_0,2'"),
            ("\u0663,1", "bad edge list line: '\u0663,1'"),
            ("+-1,2", "bad edge list line: '+-1,2'"),
            ("-,2", "bad edge list line: '-,2'"),
        ],
    )
    def test_errors_quote_the_line(self, line, message):
        with pytest.raises(ValueError) as exc:
            read_edgelist(f"u,v\n1,2\n{line}\n")
        assert str(exc.value) == message

    def test_signs_and_spaces_keep_their_meaning(self):
        assert same_graph(read_edgelist("+1, +2 \n"), Graph.complete(2))
        for line in ("-1,2", "0,1"):
            with pytest.raises(ValueError, match="1-based"):
                read_edgelist(line)


class TestAuto:
    def test_sniffs_edge_list(self):
        assert same_graph(read_graph_auto("u,v\n1,2\n"), Graph.complete(2))

    def test_sniffs_graph6(self):
        assert same_graph(read_graph_auto("Bw"), Graph.complete(3))

    @pytest.mark.parametrize("text, line", [("1 2\n2 3\n", "1 2"), ("\n  3\t4\n", "3\t4")])
    def test_digit_first_is_an_edge_list(self, text, line):
        # no graph6 line starts with a digit, so the edge list reader names the line
        with pytest.raises(ValueError) as exc:
            read_graph_auto(text)
        assert str(exc.value) == f"bad edge list line: {line!r}"
