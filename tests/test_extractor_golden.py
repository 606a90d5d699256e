"""Pinned outputs of the constructive extractors on a seeded corpus.

``lay3_free_subset``, ``half_sequence`` and ``order_vertices`` appear in no
benchmark digest, and ``recursive_free_subset`` only through the largest set
it finds, so their exact outputs (vertex sets, sequences, paths and error
messages) are hashed here over seeded mono-triangle-free colorings.
``lay3`` runs twice per case: at ``THRESHOLD_SCALE = 0``, which forces the
pigeonhole branch whenever some vertex sees two colors, and at the default
scale, where these small graphs take the families branch.  The recursive
extractor runs at both scales too: at 0 any anchor tuple with one qualified
common neighbour starts a pattern step.
"""

import hashlib

from erlab import alpha
from erlab.alpha import ExtractionError, lay3_free_subset, recursive_free_subset
from erlab.bounds import half_sequence, order_vertices
from erlab.util import make_rng

from oracles import mono_free_colored_graph, sample_mono_free_coloring

# sha256 of the repr of each corpus's outputs, in corpus order
LAY3_DIGEST = "54c8b318335d007760adcefb8f5f5e77ae3853dca99febe92101fa7658a8dca1"
SEQUENCE_DIGEST = "d0ddb8120fc7feb9c2475069ac94a54d03611c98390d605b723f4bb46a4b34c6"
RECURSIVE_DIGEST = "bfeacdce354c785760ca90462f0dfbf9657a67f4473b58ec971e07ee78f46734"


def _digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def _lay3_cases():
    for seed in range(120):
        rng = make_rng(seed, "lay3-golden")
        n = rng.randint(6, 28)
        t = rng.choice([3, 4, 5])
        s = rng.choice([3, 4, 5])
        g, col = mono_free_colored_graph(n, t, rng.uniform(0.15, 0.8), ("lay3-golden", seed))
        yield g, col, s, seed


def _lay3_outputs():
    out = []
    for g, col, s, seed in _lay3_cases():
        try:
            res = lay3_free_subset(g, col, s, seed=seed)
            out.append((res.vertices, res.path))
        except ExtractionError as exc:
            out.append(("error", str(exc)))
    return out


def _recursive_outputs():
    out = []
    for seed in range(150):
        rng = make_rng(seed, "recursive-golden")
        n = rng.randint(6, 40)
        t = rng.choice([2, 3, 4, 5])
        s = rng.choice([3, 4, 5])
        g, col = mono_free_colored_graph(n, t, rng.uniform(0.15, 0.8), ("recursive-golden", seed))
        try:
            res = recursive_free_subset(g, col, s, seed=seed)
            out.append((res.vertices, res.path))
        except ExtractionError as exc:
            out.append(("error", repr(exc)))
    return out


def _sequence_cases():
    for seed in range(400):
        rng = make_rng(seed, "sequence-golden")
        t = rng.choice([2, 3, 3, 4])
        k = rng.randint(2, 5 if t == 2 else 11)
        col = sample_mono_free_coloring(k, t, ("sequence-golden", seed))
        yield k, col


def test_lay3_golden(monkeypatch):
    families = _lay3_outputs()
    monkeypatch.setattr(alpha, "THRESHOLD_SCALE", 0.0)
    pigeonhole = _lay3_outputs()
    assert any(res[0] != "error" and res[1][0].startswith("pigeonhole") for res in pigeonhole)
    assert all(res[0] != "error" and res[1][0].startswith("families") for res in families)
    assert _digest((families, pigeonhole)) == LAY3_DIGEST


def test_recursive_golden(monkeypatch):
    default = _recursive_outputs()
    monkeypatch.setattr(alpha, "THRESHOLD_SCALE", 0.0)
    forced = _recursive_outputs()
    steps = sum(res[0] != "error" and "pigeonhole" in res[1][0] for res in default + forced)
    assert steps > 0
    assert _digest((default, forced)) == RECURSIVE_DIGEST


def test_half_sequence_and_ordering_golden():
    out = []
    for k, col in _sequence_cases():
        ordering = order_vertices(k, col)
        out.append((k, half_sequence(k, col), ordering.pi, sorted(ordering.ell_pi.items())))
    assert _digest(out) == SEQUENCE_DIGEST
