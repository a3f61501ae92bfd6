"""Golden outputs: the sha256 of CLI JSON documents, pinned byte for byte.

Any change to a digest here is a change to a published output.  A change
that is meant to keep every output identical must leave these passing; one
that changes an output on purpose updates the digest and says why.
"""

import functools
import hashlib
import json

import pytest

from homcert import cli
from homcert.bounds import build_bound_poly
from homcert.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    path,
    write_graph6,
)
from homcert.optimize import certify_threshold

from oracles import all_connected_graphs

PATTERNS = {
    "C5": cycle(5),
    "K4": complete(4),
    "K33": complete_bipartite(3, 3),
    "C8": cycle(8),
    # triangle with a pendant edge at two of its corners: non-exact,
    # non-bipartite
    "bull": Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]),
    # non-exact, bipartite
    "K23": complete_bipartite(2, 3),
}

# name -> (sha256 of `bound`, sha256 of `certify --d-range 2..60`)
GOLDEN = {
    "C5": (
        "a0c476d3d83741f31f0f3e55977c434ba7ed53206d225a430fa75634261fe19e",
        "e9831c29c3f911ad73bc0a9d763f312873d7cf9a2c8f1a40ea2db4d9fe5d3822",
    ),
    "K4": (
        "346fc7403a77c146e94721fa8a7938d2a85cc85920fa3123a90e6cd2f577b2de",
        "e6f9eb22b824f34a1761ca5f09702372d00e6248be05ebfc38eb1ef0c3cba444",
    ),
    "K33": (
        "4705932f685d899ec1cbde755fabb1605c01e922fdeb68ad1e419f91df4f5137",
        "c8b76613b5e8d4c750bc94839fea035a4ec0514b78f7d84aab0bc9bf21e1821e",
    ),
    "C8": (
        "b43988da3c42581fa88a466f75cb783db5338c5328430d63333b6aae7bc9b56c",
        "6fbfca6edd1ecdbed928b5ce113d7ba95667329f3ebf9052a755d55e478a69d1",
    ),
    "bull": (
        "47abfccc2e9147de6c56969e25aec41e88cf3cb016a9931876dd07d06167d681",
        "e4b31d4b8b8d0aebb060efe9ca33f04bd6e9c8a5432136d304c5e1ae03ad33e7",
    ),
    "K23": (
        "5af3c8a8392ce52252dc920764e056cd3a17363bb07b698be946d88ef22c8a35",
        "225cecb88706d35a9d57bb5e753444452e553436451f5fd2eb1fdc1fb8f47c0b",
    ),
}
# verify-paper/2: the Petersen maximizer is printed in its enumerated_form
VERIFY_PAPER = "2b20e853136b11e179f8e16dc9bf0cd4b0f7739be3cfd34cf1881c08ff87a11d"
# sha256 of the compact, key-sorted JSON list of bound certificates for
# every connected non-tree pattern on 3-6 vertices (in the oracle's order)
# followed by C7 and C8: 131 patterns
ALL_SMALL_BOUNDS = "2faab9a040a00df888b275e6e9b4ee580425fa2a1e36519b120f5257f1c148bd"
# sha256 of the compact, key-sorted JSON list of certify_threshold(poly,
# parity, 2, 60) reports for the same 131 bound certificates
ALL_SMALL_CERTIFY = "a1bb2e56f8396f068d2da5810e9747f379201c37784fa7be149e73e1b448c468"
# sha256 of the compact, key-sorted JSON list of the majorant certificates
# of those reports, every d in 2..60 in order: q, majorant and residual too
ALL_SMALL_MAJORANTS = "5828ca53c86578e1d96d5798f6acd10bdf0f53a498e4e19ec17b8c81c6dab472"
# (pattern, d, n_max, --connected) -> sha256 of `search --table`.  C5 at
# d = 4, n <= 9 reaches the dense side 2d > n - 1.
SEARCH = {
    ("C5", 3, 12, False):
        "832657eca29dfdbfe4f059aa89a886208289828e9c19a1580af80acd3cf8ed35",
    ("C5", 3, 12, True):
        "1fe5e4896d16ee0bd6fd3f09970f18cc61343a321233c97601a1cf5a6d500808",
    ("C5", 4, 9, True):
        "ea240e38b0d266b4a662a818ab9f6213044ad6f80794fddc0c1565ef247cdd90",
    ("C5", 2, 14, False):
        "41b57c346e7dc32038ded6d9adeac9181ade9a33e6864fde893e126ae5284b2b",
    ("C5", 5, 10, False):
        "a821dce82f2346cd8e4b21719f1a182e1b89a001b306d49d014128036bdaffd8",
    ("P4", 4, 10, False):
        "9c77247a5e5ebb6a123046e58af10038c5bfe80e925a00dd14934abdc7e1c6f3",
}
SEARCH_PATTERNS = {"C5": cycle(5), "P4": path(4)}


def _digest(args, out):
    assert cli.main([*args, "--out", str(out)]) == cli.EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_bound_and_certify_digests(tmp_path, name):
    g6 = tmp_path / f"{name}.g6"
    g6.write_text(write_graph6(PATTERNS[name]) + "\n")
    bound = tmp_path / "bound.json"
    bound_digest = _digest(["bound", str(g6)], bound)
    parity = json.loads(bound.read_text())["parity"]
    certify_digest = _digest(
        ["certify", "--poly", str(bound), "--parity", parity,
         "--d-range", "2..60"],
        tmp_path / "certify.json",
    )
    assert (bound_digest, certify_digest) == GOLDEN[name]


def test_verify_paper_digest(tmp_path):
    assert _digest(["verify-paper"], tmp_path / "verify.json") == VERIFY_PAPER


@pytest.mark.parametrize("case", sorted(SEARCH))
def test_search_table_digest(tmp_path, case):
    name, d, n_max, connected = case
    g6 = tmp_path / f"{name}.g6"
    g6.write_text(write_graph6(SEARCH_PATTERNS[name]) + "\n")
    args = ["search", "--pattern", str(g6), "--d", str(d),
            "--n-max", str(n_max), "--table"]
    if connected:
        args.append("--connected")
    assert _digest(args, tmp_path / "search.json") == SEARCH[case]


def _json_digest(docs):
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.cache
def _small_bound_certificates():
    """Bound certificates of every connected non-tree pattern on 3-6
    vertices (in the oracle's order), then C7 and C8; built once for the
    two digests below."""
    pats = [
        g
        for n in range(3, 7)
        for g in all_connected_graphs(n)
        if g.size >= g.order
    ]
    pats += [cycle(7), cycle(8)]
    assert len(pats) == 131
    return tuple(build_bound_poly(h) for h in pats)


def test_all_small_bound_certificates_digest():
    docs = [c.to_json_dict() for c in _small_bound_certificates()]
    assert _json_digest(docs) == ALL_SMALL_BOUNDS


@functools.cache
def _small_threshold_reports():
    """certify_threshold over d = 2..60 for each of those certificates;
    scanned once for the two digests below."""
    return tuple(
        certify_threshold(c.poly, c.parity, 2, 60)
        for c in _small_bound_certificates()
    )


def test_all_small_certify_digest():
    docs = [r.to_json_dict() for r in _small_threshold_reports()]
    assert _json_digest(docs) == ALL_SMALL_CERTIFY


def test_all_small_majorants_digest():
    docs = [
        r.certificates[d].to_json_dict()
        for r in _small_threshold_reports()
        for d in range(r.lo, r.hi + 1)
    ]
    assert len(docs) == 131 * 59
    assert _json_digest(docs) == ALL_SMALL_MAJORANTS
