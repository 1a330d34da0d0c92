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


def _rows(text: str, what: str) -> list[tuple[str, str]]:
    """The non-blank lines of a file, each labelled "<what> file line <k>";
    an empty file is an error."""
    rows = [(f"{what} file line {i}", r) for i, r in enumerate(text.splitlines(), 1) if r.strip()]
    if not rows:
        raise ValueError(f"empty {what} file")
    return rows


def _fields(where: str, text: str, convert, count: int | None = None, sep=None) -> list:
    """The fields of text split at sep (whitespace by default), each through
    convert (int or float) and within int64 if ints, exactly count of them if
    given; an error starts with where, the file line or flag it came from."""
    try:
        values = [convert(x) for x in text.split(sep)] if text else []
    except ValueError:   # not a number, or an int past Python's digit limit
        values = None
    if (values is None or count is not None and len(values) != count
            or convert is int and any(not -2 ** 63 <= v < 2 ** 63 for v in values)):
        shown = text.strip()
        if len(shown) > 40:
            shown = shown[:37] + "..."
        noun = "integer" if convert is int else "number"
        expected = f"{noun}s" if count is None else f"{count} {noun}" + "s" * (count != 1)
        raise ValueError(f"{where}: expected {expected}, got {shown!r}")
    return values


# ---------------------------------------------------------------- graphs

def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    head, *rows = _rows(text, "graph")
    n, m = _fields(*head, int, 2)
    _check_graph(n, m)
    if len(rows) != m:
        raise ValueError(f"{head[0]}: expected {m} edges, found {len(rows)}")
    return graph_from_edges(n, [tuple(_fields(*r, int, 2)) for r in rows])


# ---------------------------------------------------------------- metrics

def metric_to_text(metric: FiniteMetric) -> str:
    lines = [str(metric.size)]
    lines.extend(" ".join(fmt(x) for x in row) for row in metric.dist)
    return "\n".join(lines) + "\n"


def metric_from_text(text: str) -> FiniteMetric:
    head, *rows = _rows(text, "metric")
    n, = _fields(*head, int, 1)
    _check_size(n, 8 * n * n)
    if len(rows) != n:
        raise ValueError(f"{head[0]}: expected {n} metric rows of {n} "
                         f"entries each, found {len(rows)} rows")
    mat = [_fields(*r, float) for r in rows]
    for (where, _), row in zip(rows, mat):
        if len(row) != n:
            raise ValueError(f"{where}: expected {n} metric rows of {n} "
                             f"entries each, found {len(row)} entries")
    return validate(mat)


# ---------------------------------------------------------------- maps

def map_to_text(f: VertexMap) -> str:
    lines = [str(f.n)]
    lines.extend(f"{v} {p}" for v, p in enumerate(f.assignment))
    return "\n".join(lines) + "\n"


def map_assignment_from_text(text: str) -> tuple[int, ...]:
    head, *rows = _rows(text, "map")
    n, = _fields(*head, int, 1)
    need = f"a map on {n} vertices needs one line for each vertex 0..{n - 1}"
    if len(rows) != n:
        raise ValueError(f"{head[0]}: {need}, found {len(rows)} lines")
    out = {}
    for row in rows:
        v, p = _fields(*row, int, 2)
        if not 0 <= v < n or v in out:
            raise ValueError(f"{row[0]}: {need}, got vertex {v} here")
        out[v] = p
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

