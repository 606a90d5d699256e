"""Flat text formats for graphs, hypergraphs, and colorings.

Formats (UTF-8, LF line endings):

* graph:      ``graph <n> <m>`` then m lines ``u v``
* hypergraph: ``hypergraph <n> <R> <m>`` then m lines of R vertex ids
* coloring:   lines ``u v c``
"""

from __future__ import annotations

from pathlib import Path

from .graphs import EdgeColoring, Graph, GraphError, LinearHypergraph, check_hypergraph_shape


class FormatError(ValueError):
    pass


def _write(path, lines):
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


def write_graph(path, graph: Graph) -> None:
    lines = [f"graph {graph.n} {graph.m}"]
    lines += [f"{u} {v}" for u, v in graph.edges()]
    _write(path, lines)


def _lines(path) -> list[tuple[int, str]]:
    """Non-blank lines of the file with their 1-based line numbers."""
    text = Path(path).read_text(encoding="utf-8")
    return [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _fields(path, lineno: int, line: str, form: str) -> list[int]:
    """Integers at the ``<field>`` places of ``form``; its other words must match."""
    tokens, words = line.split(), form.split()
    if len(tokens) == len(words) and all(w[0] == "<" or w == t for w, t in zip(words, tokens)):
        try:
            return [int(t) for w, t in zip(words, tokens) if w[0] == "<"]
        except ValueError:
            pass
    raise FormatError(f"{path}:{lineno}: expected '{form}', got {line!r}")


def _header(path, lines, form: str) -> list[int]:
    """Header fields; the last is the edge count, which the body must match."""
    if not lines:
        raise FormatError(f"{path}: empty {form.split()[0]} file")
    fields = _fields(path, *lines[0], form)
    if len(lines) - 1 != fields[-1]:
        raise FormatError(f"{path}: header promises {fields[-1]} edges, found {len(lines) - 1}")
    return fields


def _edge_lines(path, lines, form: str, width: int) -> list[list[int]]:
    """Fields of each edge line; its first ``width`` fields name the edge,
    which may appear only once, in any vertex order."""
    first: dict[tuple[int, ...], int] = {}
    rows = []
    for i, ln in lines:
        fields = _fields(path, i, ln, form)
        edge = tuple(sorted(fields[:width]))
        if edge in first:
            raise FormatError(
                f"{path}:{i}: duplicate edge {' '.join(map(str, edge))} "
                f"(first on line {first[edge]})"
            )
        first[edge] = i
        rows.append(fields)
    return rows


def read_graph(path) -> Graph:
    lines = _lines(path)
    n, _ = _header(path, lines, "graph <n> <m>")
    edges = _edge_lines(path, lines[1:], "<u> <v>", 2)
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_hypergraph(path, H: LinearHypergraph) -> None:
    lines = [f"hypergraph {H.n} {H.R} {H.m}"]
    lines += [" ".join(map(str, e)) for e in H.edges]
    _write(path, lines)


def read_hypergraph(path) -> LinearHypergraph:
    lines = _lines(path)
    n, R, _ = _header(path, lines, "hypergraph <n> <R> <m>")
    H = LinearHypergraph(n, R, _edge_lines(path, lines[1:], " ".join(["<v>"] * R), R))
    try:
        check_hypergraph_shape(H)
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return H


def write_coloring(path, coloring: EdgeColoring) -> None:
    lines = [f"{u} {v} {c}" for (u, v), c in sorted(coloring.colors.items())]
    _write(path, lines)


def read_coloring(path, t: int | None = None) -> EdgeColoring:
    colors = {}
    lines = _lines(path)
    for (i, _), (u, v, c) in zip(lines, _edge_lines(path, lines, "<u> <v> <c>", 2)):
        if c < 1 or (t is not None and c > t):
            raise FormatError(f"{path}:{i}: color {c} out of range 1..t (t={t})")
        colors[(u, v)] = c
    if t is None:
        t = max(colors.values(), default=0)
    try:
        return EdgeColoring(t, colors)
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from exc
