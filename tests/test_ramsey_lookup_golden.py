"""Pinned answers of the Ramsey-table lookups and of the lower exponent.

``RamseyTable.r_le``, ``local_greater`` and ``min_ell`` and
``exponent_lower`` are read over a fixed grid, each answer being its
return value or the type and message of what it raised.  The digest was
computed before ``r_le`` and ``local_greater`` shared one lookup.  Exactly
33 answers moved then, and they are declared below: ``local_greater(k, i)``
for k in 4..6 and i in 6..16 raised, since no entry at or below k held a
*value* above i, and now answers True from r^loc_3(3)'s lower bound 17,
as r^loc_k(3) >= r^loc_3(3) >= 17 > i.
"""

import hashlib

from erlab.bounds import exponent_lower
from erlab.freeness import default_table

# sha256 of the repr of the answers, in grid order, as they were before the
# declared changes
GOLDEN_DIGEST = "c22706bfceb151ab99ea29d3e3bf3884805ae8f1a7e35b85e2cc9893c7e03c14"
DECLARED = {("local_greater", k, i) for k in (4, 5, 6) for i in range(6, 17)}


def _answer(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the raise is the answer
        return ("raise", type(exc).__name__, str(exc))


def _exponent(s, t):
    res = exponent_lower(s, t)
    return str(res.value), res.regime, res.trace


def _answers() -> dict:
    table = default_table()
    out = {}
    for t in range(-1, 8):
        for b in range(3, 13):
            for s in range(50):
                out["r_le", t, b, s] = _answer(table.r_le, t, b, s)
    for k in range(7):
        for i in range(25):
            out["local_greater", k, i] = _answer(table.local_greater, k, i)
    for b in range(3, 13):
        for s in range(50):
            for t in range(8):
                out["min_ell", b, s, t] = _answer(table.min_ell, b, s, t)
    for s in range(2, 9):
        for t in range(8):
            out["exponent_lower", s, t] = _answer(_exponent, s, t)
    return out


def test_lookup_answers_match_the_golden():
    answers = _answers()
    assert len(answers) == 8731
    for key in DECLARED:
        assert answers[key] is True, key
        _, k, i = key
        answers[key] = ("raise", "UnresolvedRamseyError",
                        f"unresolved Ramsey entry: r_loc_{k}(3) vs {i}")
    digest = hashlib.sha256(repr(list(answers.items())).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST
