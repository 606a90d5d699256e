"""Flat text formats for graphs, hypergraphs, and colorings.

Formats (UTF-8, LF line endings):

* graph:      ``graph <n> <m>`` then m lines ``u v``
* hypergraph: ``hypergraph <n> <R> <m>`` then m lines of R vertex ids
* coloring:   lines ``u v c``

plus the JSON artifacts (``write_json``, in the format of ``dumps``), among
them the ``structure.json`` of an instance directory, which only this module
writes and reads.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from .graphs import (
    MASK_BYTES_LIMIT,
    EdgeColoring,
    Graph,
    GraphError,
    LinearHypergraph,
    check_hypergraph_shape,
    coloring_rows,
    mask_bytes,
)
from .util import iter_bits


class FormatError(ValueError):
    pass


# largest n (and R) a header may declare; the readers size their
# structures by it before any edge line is read
HEADER_LIMIT = 1 << 20


def write_lines(path, lines) -> None:
    """The one writer of every artifact: each of ``lines`` (any iterable of
    str) and a LF, in UTF-8; an item may hold several LF-joined lines.  It
    streams, so a writer that passes a generator holds no list of the lines:
    the final graph and its coloring are the largest objects a construction
    writes, and their writers pass one chunk per vertex row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_graph(path, graph: Graph) -> None:
    # one chunk per vertex u with a higher neighbour v: its lines "u v"
    rows = (
        f"{u} " + f"\n{u} ".join([str(u + 1 + off) for off in iter_bits(high)])
        for u in range(graph.n) if (high := graph.row(u) >> (u + 1))
    )
    write_lines(path, itertools.chain([f"graph {graph.n} {graph.m}"], rows))


def _lines(path) -> list[tuple[int, str]]:
    """Non-blank lines of the file with their 1-based line numbers."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
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
    """Header fields; the last is the edge count, which the body must match,
    and the others may not exceed ``HEADER_LIMIT``."""
    if not lines:
        raise FormatError(f"{path}: empty {form.split()[0]} file")
    fields = _fields(path, *lines[0], form)
    if max(fields[:-1]) > HEADER_LIMIT:
        raise FormatError(f"{path}:{lines[0][0]}: header field above the limit {HEADER_LIMIT}")
    if len(lines) - 1 != fields[-1]:
        raise FormatError(f"{path}: header promises {fields[-1]} edges, found {len(lines) - 1}")
    return fields


def _edge_lines(path, lines, count: int, width: int) -> list[list[int]]:
    """Fields of each edge line, which must be ``count`` integers; its first
    ``width`` fields name the edge, which may appear only once, in any
    vertex order."""
    first: dict[tuple[int, ...], int] = {}
    rows = []
    for i, ln in lines:
        tokens = ln.split()
        try:
            if len(tokens) != count:
                raise ValueError
            fields = list(map(int, tokens))
        except ValueError:
            raise FormatError(f"{path}:{i}: expected {count} integers, got {ln!r}") from None
        edge = tuple(sorted(fields[:width]))
        at = first.setdefault(edge, i)
        if at != i:
            raise FormatError(
                f"{path}:{i}: duplicate edge {' '.join(map(str, edge))} (first on line {at})"
            )
        rows.append(fields)
    return rows


def read_graph(path) -> Graph:
    lines = _lines(path)
    n, _ = _header(path, lines, "graph <n> <m>")
    body = lines[1:]
    edges = _edge_lines(path, body, 2, 2)
    for (i, _), (u, v) in zip(body, edges):
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"{path}:{i}: edge ({u},{v}) out of range for n={n}")
    need = mask_bytes(edges)
    if need > MASK_BYTES_LIMIT:
        raise FormatError(
            f"{path}: adjacency masks would take {need} bytes, above the limit {MASK_BYTES_LIMIT}"
        )
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_hypergraph(path, H: LinearHypergraph) -> None:
    edges = (" ".join(map(str, e)) for e in H.edges)
    write_lines(path, itertools.chain([f"hypergraph {H.n} {H.R} {H.m}"], edges))


def read_hypergraph(path) -> LinearHypergraph:
    lines = _lines(path)
    n, R, _ = _header(path, lines, "hypergraph <n> <R> <m>")
    if n < 0 or R < 1:
        raise FormatError(f"{path}:{lines[0][0]}: need n >= 0 and R >= 1, got n={n}, R={R}")
    H = LinearHypergraph(n, R, _edge_lines(path, lines[1:], R, R))
    try:
        check_hypergraph_shape(H)
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return H


def write_coloring(path, coloring: EdgeColoring) -> None:
    """Lines ``u v c`` in ascending (u, v), merged from the coloring's
    per-color rows, which share no pair."""
    labels = [(f" {c}", rows) for c, rows in sorted(coloring.rows.items())]
    n = max((len(rows) for _, rows in labels), default=0)

    def chunks():
        # one chunk per smaller endpoint u: its lines "u v c" in ascending v
        for u in range(n):
            higher = {}
            for label, rows in labels:
                high = rows[u] >> (u + 1)
                if high:
                    for off in iter_bits(high):
                        higher[u + 1 + off] = label
            if higher:
                yield f"{u} " + f"\n{u} ".join([f"{v}{higher[v]}" for v in sorted(higher)])

    write_lines(path, chunks())


def read_coloring(path, t: int | None = None) -> EdgeColoring:
    """The coloring of lines ``u v c``, its rows filled from the lines once
    every line has passed its checks."""
    lines = _lines(path)
    triples = _edge_lines(path, lines, 3, 2)
    for (i, _), (u, v, c) in zip(lines, triples):
        if u < 0 or v < 0:
            raise FormatError(f"{path}:{i}: negative vertex in edge {u} {v}")
        if c < 1 or (t is not None and c > t):
            raise FormatError(f"{path}:{i}: color {c} out of range 1..t (t={t})")
    try:
        rows_by_color = coloring_rows(triples)
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return EdgeColoring.from_rows(t if t is not None else max(rows_by_color, default=0),
                                  rows_by_color)


def _json_safe(value):
    """``value`` with each non-finite float replaced by its ``repr``."""
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def dumps(payload) -> str:
    """The one JSON format of every artifact and printed payload: sorted
    keys, indented by 2; a non-finite float is written as the string of its
    ``repr`` and any other value JSON cannot hold as its ``str``.

    Only a payload that holds a non-finite float is copied by ``_json_safe``:
    the copy costs as much as the encoding itself on a large
    ``structure.json``."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, default=str, allow_nan=False)
    except ValueError:
        return json.dumps(_json_safe(payload), indent=2, sort_keys=True, default=str)


def write_json(path, payload) -> None:
    """``payload`` as ``dumps`` formats it, with a final newline."""
    write_lines(path, [dumps(payload)])


def write_structure(path, bundle) -> None:
    """The ``structure.json`` of an ``InstanceBundle``: its parameters, cover,
    s-partition (each cover clique's members mapped to their parts) and
    overlay record."""
    params = bundle.params
    write_json(path, {
        "n": bundle.n,
        "s": params.s,
        "k": params.k,
        "ell": params.ell,
        "beta": params.beta,
        "R": params.R,
        "seed": params.seed,
        "ground_n": bundle.hypergraph.n,
        "cover": {str(v): list(members) for v, members in bundle.cover.cliques.items()},
        "partition": {
            str(v): {str(u): p for p, pm in enumerate(masks) for u in iter_bits(pm)}
            for v, masks in bundle.sparsified.part_masks.items()
        },
        "overlay": {
            "permutations": [list(p) for p in bundle.overlay.permutations],
            "retained": list(bundle.overlay.retained),
        },
    })


def read_structure(path, n: int) -> tuple[int, int, dict, dict]:
    """s, ground_n, cover and part masks (K_v's members in part p at [v][p])
    of an instance's ``structure.json`` over its sparsified graph on n
    vertices.  A file that is not JSON, lacks or mistypes a field, names a
    cover clique outside 0..ground_n-1, a vertex outside 0..n-1 or a part
    outside 0..s-1, sizes its part masks above ``MASK_BYTES_LIMIT``, or does
    not split each cover clique into parts exactly is a FormatError."""
    try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        st = json.loads(Path(path).read_text(encoding="utf-8"))
        kinds = {"s": int, "ground_n": int, "cover": dict, "partition": dict}
        bad = [k for k, kind in kinds.items()
               if type(st) is not dict or type(st.get(k)) is not kind]
        if bad:
            raise ValueError(f"field {bad[0]!r} is missing or not of type {kinds[bad[0]].__name__}")
        s, ground_n = st["s"], st["ground_n"]
        if s < 2 or ground_n < 0:
            raise ValueError(f"need s >= 2 and ground_n >= 0, got s={s}, ground_n={ground_n}")
        need = 8 * s * len(st["cover"])  # an s-tuple of part masks per cover clique
        if need > MASK_BYTES_LIMIT:
            raise ValueError(
                f"part masks would take {need} bytes, above the limit {MASK_BYTES_LIMIT}"
            )
        cover = {int(v): tuple(members) for v, members in st["cover"].items()}
        bad = sorted(v for v in cover if not 0 <= v < ground_n)
        if bad:
            raise ValueError(f"cover clique {bad[0]} outside the ground set 0..{ground_n - 1}")
        parts = {int(v): {int(u): p for u, p in ps.items()} for v, ps in st["partition"].items()}
        bad = [u for ms in (*cover.values(), *parts.values()) for u in ms
               if type(u) is not int or not 0 <= u < n]
        if bad:
            raise ValueError(f"vertex {bad[0]!r} outside the sparsified graph's 0..{n - 1}")
        bad = [p for ps in parts.values() for p in ps.values()
               if type(p) is not int or not 0 <= p < s]
        if bad:
            raise ValueError(f"part {bad[0]!r} outside 0..{s - 1}")
        bad = [(v, u) for v in sorted(cover) for u in sorted(set(cover[v]) ^ set(parts.get(v, ())))]
        if bad:
            v, u = bad[0]
            raise ValueError(f"clique {v}: member {u} has no part" if u in cover[v]
                             else f"clique {v}: vertex {u} has a part but is not a member")
        bad = sorted(set(parts) - set(cover))
        if bad:
            raise ValueError(f"partition names clique {bad[0]}, which is not in the cover")
        part_masks = {}
        for v in sorted(cover):
            masks = [0] * s
            for u, p in parts.get(v, {}).items():
                masks[p] |= 1 << u
            part_masks[v] = tuple(masks)
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return s, ground_n, cover, part_masks
