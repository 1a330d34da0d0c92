import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgap.graphs import (GraphError, cycle_graph, graph_from_edges, petersen_graph,
                          random_regular)
from nlgap.io import (csv_row, graph_from_text, graph_to_text,
                      map_assignment_from_text, map_to_text, metric_from_text,
                      metric_to_text)
from nlgap.metrics import MetricError, random_euclidean_metric, uniform_metric, validate
from nlgap.poincare import VertexMap
from nlgap.svg import emit_svg


class TestGraphFormat:
    def test_round_trip_bit_exact(self):
        for g in (cycle_graph(5), petersen_graph(), random_regular(12, 3, seed=4)):
            text = graph_to_text(g)
            back = graph_from_text(text)
            assert back.edges == g.edges and back.n == g.n
            assert graph_to_text(back) == text

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_graphs(self, case):
        g = graph_from_edges(*case)
        assert graph_from_text(graph_to_text(g)) == g

    def test_header_line(self):
        text = graph_to_text(cycle_graph(3))
        assert text.splitlines()[0] == "3 3"

    def test_edges_sorted(self):
        text = graph_to_text(petersen_graph())
        body = [tuple(map(int, line.split())) for line in text.splitlines()[1:]]
        assert body == sorted(body)


class TestMetricFormat:
    def test_round_trip_exact_floats(self):
        m = random_euclidean_metric(6, seed=9)
        text = metric_to_text(m)
        back = metric_from_text(text)
        assert (back.dist == m.dist).all()
        assert metric_to_text(back) == text

    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.floats(1.0, 2.0), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        .map(lambda w: (n, w))), st.integers(-300, 300))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bit_exact_random_floats(self, case, exponent):
        """Off-diagonal entries in [s, 2s] always satisfy the triangle
        inequality, so every float in that range is a valid distance."""
        n, weights = case
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, 1)] = np.array(weights) * 10.0 ** exponent
        m = validate(dist + dist.T)
        back = metric_from_text(metric_to_text(m))
        assert back.dist.tobytes() == m.dist.tobytes()

    def test_uniform(self):
        text = metric_to_text(uniform_metric(3))
        assert text.splitlines()[0] == "3"


class TestMapFormat:
    def test_round_trip(self):
        m = uniform_metric(3)
        f = VertexMap(m, (0, 2, 1, 1, 0))
        text = map_to_text(f)
        assert map_assignment_from_text(text) == (0, 2, 1, 1, 0)

    @given(st.integers(2, 10).flatmap(
        lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size - 1), max_size=40))))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_maps(self, case):
        size, assignment = case
        f = VertexMap(uniform_metric(size), tuple(assignment))
        assert map_assignment_from_text(map_to_text(f)) == f.assignment


class TestStrictParsers:
    @pytest.mark.parametrize("text", [
        "3\n0 1\n1 0\n",           # vertex 2 missing
        "3\n0 1\n1 0\n1 1\n",     # vertex 1 twice
        "3\n0 1\n1 0\n3 1\n",     # vertex 3 out of range
        "2\n0 1\n1 0\n2 1\n",     # a row beyond n
    ])
    def test_map_rejected(self, text):
        with pytest.raises(ValueError, match="one line for each vertex"):
            map_assignment_from_text(text)

    def test_graph_rows_beyond_m_rejected(self):
        with pytest.raises(ValueError, match="expected 1 edges"):
            graph_from_text("3 1\n0 1\n1 2\n")

    @pytest.mark.parametrize("text", [
        "2\n0 1\n1 0\n0 1\n",     # a row beyond N
        "2\n0 1\n1 0 1\n",         # a row of the wrong length
    ])
    def test_metric_rejected(self, text):
        with pytest.raises(ValueError, match="2 metric rows of 2 entries"):
            metric_from_text(text)

    @pytest.mark.parametrize("parse", [graph_from_text, metric_from_text,
                                       map_assignment_from_text])
    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_rejected(self, parse, text):
        with pytest.raises(ValueError, match="empty"):
            parse(text)

    @pytest.mark.parametrize("text, message", [
        ("4 4\n0 1\n0 3\n1 2\n2 ", "graph file line 5: expected 2 integers, got '2'"),
        ("4", "graph file line 1: expected 2 integers, got '4'"),
        ("2 1\n\n0 x\n", "graph file line 3: expected 2 integers, got '0 x'"),
        ("1" * 5000 + " 0", "graph file line 1: expected 2 integers, got '" + "1" * 37 + "...'"),
        (f"{2 ** 63} 0", f"graph file line 1: expected 2 integers, got '{2 ** 63} 0'"),
    ], ids=["cut-row", "one-field-header", "not-an-integer", "past-the-digit-limit",
            "past-int64"])
    def test_malformed_graph_row_named(self, text, message):
        with pytest.raises(ValueError) as info:
            graph_from_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("4\n0 0\n1 1\n2 0\n3 ", "map file line 5: expected 2 integers, got '3'"),
        ("2 0\n0 0\n1 1\n", "map file line 1: expected 1 integer, got '2 0'"),
    ])
    def test_malformed_map_row_named(self, text, message):
        with pytest.raises(ValueError) as info:
            map_assignment_from_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("parse, text, error, message", [
        (graph_from_text, "4 -1\n", GraphError, "edge count m = -1 is negative"),
        (metric_from_text, "-1\n", MetricError, "point count N = -1 is negative"),
    ])
    def test_negative_header_count_named(self, parse, text, error, message):
        # these once read "expected -1 edges, found 0" and "expected -1 metric rows"
        with pytest.raises(error) as info:
            parse(text)
        assert str(info.value) == message

    def test_malformed_metric_row_named(self):
        with pytest.raises(ValueError) as info:
            metric_from_text("2\n0 1.0\n1.0 zero\n")
        assert str(info.value) == "metric file line 3: expected numbers, got '1.0 zero'"

    @pytest.mark.parametrize("parse, what", [(graph_from_text, "graph"),
                                             (metric_from_text, "metric"),
                                             (map_assignment_from_text, "map")])
    @given(text=st.one_of(
        st.text(),
        st.text(alphabet="0123456789 -+.e\n"),
        st.builds(lambda text, cut: text[:cut],
                  st.sampled_from(["4 4\n0 1\n0 3\n1 2\n2 3\n", "2\n0 1.0\n1.0 0\n",
                                   "4\n0 0\n1 1\n2 0\n3 1\n"]),
                  st.integers(0, 24))))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_malformed_text(self, parse, what, text):
        """Any text parses, or fails as a ValueError: a malformed file is named
        by kind and line, and numbers outside the domain by the graph or
        metric checks."""
        try:
            parse(text)
        except (GraphError, MetricError):
            pass
        except ValueError as exc:
            assert re.match(rf"(empty {what} file$|{what} file line [1-9][0-9]*: )", str(exc)), exc


class TestCsvRow:
    @pytest.mark.parametrize("field, text", [
        ("frequency", "frequency"),
        (None, ""),
        (True, "1"),
        (False, "0"),
        (7, "7"),
        (np.int64(7), "7"),
        (np.bool_(True), "1"),
        (0.1, "0.1"),
        (1.0, "1.0"),
        (np.float64(2.5), "2.5"),
        (math.inf, "inf"),
    ])
    def test_field_rules(self, field, text):
        assert csv_row(field) == text

    def test_fields_joined_with_commas(self):
        assert csv_row("fraction", 1.0, None) == "fraction,1.0,"


class TestSvg:
    def test_deterministic_bytes(self):
        pts = [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]
        assert emit_svg("a", pts, title="t", config_echo="seed=1") == \
            emit_svg("a", pts, title="t", config_echo="seed=1")

    def test_single_point_degenerate_chart(self):
        out = emit_svg("only", [(1.0, 1.0)])
        assert "<circle" in out and "<svg" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_svg("empty", [])

    def test_config_comment_embedded(self):
        out = emit_svg("s", [(0, 0), (1, 1)], config_echo="n=4 seed=2")
        assert "<!-- config: n=4 seed=2 -->" in out
