"""Plain-text file formats (graphs, metrics, vertex maps, grid coordinates)
and CSV emission.  The graph, metric and map writers round-trip
bit-exactly: graphs store sorted edge lists, metrics full matrix rows with
shortest round-trip decimals, maps one vertex-point pair per line."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .embeddings import GridMap
from .graphs import Graph, _check_graph, graph_from_edges
from .metrics import FiniteMetric, _check_size, validate
from .poincare import VertexMap


def fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain repr for ints."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def csv_row(*fields) -> str:
    """One CSV line: str fields pass through, None is empty, the rest go
    through fmt."""
    return ",".join(f if isinstance(f, str) else "" if f is None else fmt(f)
                    for f in fields)


def _rows(text: str, what: str) -> list[str]:
    """The non-blank lines of a file; an empty file is an error."""
    rows = [r for r in text.splitlines() if r.strip()]
    if not rows:
        raise ValueError(f"empty {what} file")
    return rows


# ---------------------------------------------------------------- graphs

def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    rows = _rows(text, "graph")
    n, m = map(int, rows[0].split())
    _check_graph(n, m)
    edges = [tuple(map(int, r.split())) for r in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------- metrics

def metric_to_text(metric: FiniteMetric) -> str:
    lines = [str(metric.size)]
    lines.extend(" ".join(fmt(x) for x in row) for row in metric.dist)
    return "\n".join(lines) + "\n"


def metric_from_text(text: str) -> FiniteMetric:
    rows = _rows(text, "metric")
    n = int(rows[0])
    _check_size(n, 8 * n * n)
    mat = [[float(x) for x in r.split()] for r in rows[1:]]
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError(f"expected {n} metric rows of {n} entries each")
    return validate(mat)


# ---------------------------------------------------------------- maps

def map_to_text(f: VertexMap) -> str:
    lines = [str(f.n)]
    lines.extend(f"{v} {p}" for v, p in enumerate(f.assignment))
    return "\n".join(lines) + "\n"


def map_assignment_from_text(text: str) -> tuple[int, ...]:
    rows = _rows(text, "map")
    n = int(rows[0])
    out = dict(map(int, r.split()) for r in rows[1:])
    if len(rows) - 1 != n or sorted(out) != list(range(n)):
        raise ValueError(f"a map on {n} vertices needs one line for each vertex 0..{n - 1}")
    return tuple(out[v] for v in range(n))


# ---------------------------------------------------------------- grid coordinates

def grid_to_text(grid: GridMap) -> str:
    """A line "n width", then each vertex's integer coordinates."""
    lines = [f"{grid.coords.shape[0]} {grid.coords.shape[1]}"]
    lines.extend(" ".join(str(int(x)) for x in row) for row in grid.coords)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- reports

@dataclass
class CsvDocument:
    """Header comments (config echo, version, wall time) plus a deterministic
    body; the determinism contract covers the body only."""

    config_echo: str
    version: str
    header: str
    rows: list[str]

    def render(self) -> str:
        out = [f"# config: {self.config_echo}",
               f"# version: {self.version}",
               f"# walltime: {time.time():.3f}",
               self.header]
        out.extend(self.rows)
        return "\n".join(out) + "\n"

