"""The exact operators, frozen as sha256 digests of their JSON.

``frozen_outputs.json`` holds the digest of ``to_json`` of every d_c matrix
for n = 1..4 and of every intrinsic Laplacian for n = 1..3, and under its own
key those of the twelve d_c at n = 5, which are checked apart under their own
time bound. A change to how the exact core is built must leave each of them
byte-identical. A deliberate change of the JSON format re-freezes the file
with

    PYTHONPATH=src python tests/test_frozen_outputs.py

and says so in CHANGES.md.
"""

import hashlib
import json
import pathlib
import time

from conftest import shared_context
from rumincalc.envelope import EnvOp
from rumincalc.rumin_complex import RuminContext

FROZEN = pathlib.Path(__file__).with_name("frozen_outputs.json")
DC_NS = (1, 2, 3, 4)
LAPLACIAN_NS = (1, 2, 3)
N5_KEY = "d_c_n5"


def env_to_rows(a) -> list:
    """The terms of an ``EnvOp`` as JSON-ready rows, sorted by multi-index."""
    return [
        {"multi_index": list(exp), "numerator": c.numerator, "denominator": c.denominator}
        for exp, c in sorted(a.terms.items())
    ]


def to_json(matrix) -> str:
    """An ``OperatorMatrix`` as canonical JSON: degrees, shape and the term
    rows of every entry, an absent one as the zero operator, with sorted keys."""
    zero = EnvOp.zero(matrix.n)
    return json.dumps(
        {
            "n": matrix.n,
            "src_degree": matrix.src_degree,
            "dst_degree": matrix.dst_degree,
            "shape": list(matrix.shape),
            "entries": [
                [env_to_rows(row.get(j, zero)) for j in range(matrix.cols)]
                for row in matrix.entries
            ],
        },
        sort_keys=True,
    )


def _digest(matrix) -> str:
    return hashlib.sha256(to_json(matrix).encode()).hexdigest()


def current_digests() -> dict:
    out = {"d_c": {}, "laplacian": {}}
    for n in DC_NS:
        ctx = shared_context(n)
        out["d_c"][str(n)] = [_digest(ctx.rumin_d_matrix(h)) for h in range(ctx.top + 1)]
    for n in LAPLACIAN_NS:
        ctx = shared_context(n)
        out["laplacian"][str(n)] = [_digest(ctx.rumin_laplacian(h)) for h in range(ctx.top + 1)]
    return out


def test_exact_operators_match_frozen_digests():
    start = time.perf_counter()
    got = current_digests()
    elapsed = time.perf_counter() - start
    want = json.loads(FROZEN.read_text())
    for kind in ("d_c", "laplacian"):
        for n, digests in want[kind].items():
            for h, (g, w) in enumerate(zip(got[kind][n], digests)):
                assert g == w, f"{kind} n = {n}, h = {h} changed"
    assert got == {kind: want[kind] for kind in got}
    assert elapsed < 30.0, elapsed


def test_n5_dc_squares_to_zero_and_matches_frozen_digests():
    # a context of its own, so the n = 5 matrices are freed after this test
    start = time.perf_counter()
    ctx = RuminContext(5)
    d = [ctx.rumin_d_matrix(h) for h in range(ctx.top + 1)]
    # d_c out of the top degree is the empty map, so d_c^2 is defined up to top - 1
    for h in range(ctx.top):
        assert d[h + 1].compose(d[h]).is_zero(), f"d_c^2 != 0 out of degree {h}"
    got = [_digest(m) for m in d]
    elapsed = time.perf_counter() - start
    want = json.loads(FROZEN.read_text())[N5_KEY]
    assert len(want) == len(got) == 12
    for h, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"d_c n = 5, h = {h} changed"
    assert elapsed < 60.0, elapsed


if __name__ == "__main__":
    n5 = RuminContext(5)
    frozen = {**current_digests(), N5_KEY: [_digest(n5.rumin_d_matrix(h)) for h in range(n5.top + 1)]}
    FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
