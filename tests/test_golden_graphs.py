"""Golden graph outputs of every builder, compared bit for bit.

The fixture holds one SHA-256 digest per (builder, crystal): the digest of
the graph's node species, its edge table (``src, dst, image, kind`` and the
distance as ``float.hex``) and its meta.  It also pins
``min_image_distance`` of every crystal, and the SHA-256 of five invariance
audit reports as JSON (``audit_reports``), three of them with a witness.  The
graphs were captured from the graph code before every builder was rewritten
over the shared ``neighbor_candidates`` search, and the reports before the
audits shared one trial loop; those rewrites must keep every bit.
Recapture only for a deliberate change of the graphs or the audits, with

    PYTHONPATH=src python tests/test_golden_graphs.py
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from matformer import audit
from matformer.audit import make_builder, shift_sensitive_crystal, tie_crystal
from matformer.crystal import shift_boundary, supercell
from matformer.synthetic import min_image_distance, random_corpus

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_graphs.json")

BUILDERS = {
    "radius": dict(name="radius"),
    "radius_self": dict(name="radius", self_edges=True),
    "tfc": dict(name="tfc"),
    "tfc_self": dict(name="tfc", self_edges=True),
    "knn": dict(name="knn", k=4, perturbation_seed=3),
    "ocgraph": dict(name="ocgraph", radius=1.5),
}


def corpus() -> dict:
    cells = random_corpus(48, seed=2024) + random_corpus(12, seed=2025, n_atoms_max=12)
    out = {f"random{i:02d}": c for i, c in enumerate(cells)}
    for i, alpha in ((0, (2, 1, 1)), (1, (1, 2, 2)), (2, (2, 2, 2)), (5, (3, 1, 1)), (50, (1, 1, 2))):
        out[f"random{i:02d}x{''.join(map(str, alpha))}"] = supercell(cells[i], alpha)
    # redescribed supercells: equal distances computed from different
    # recentred vectors, so they differ in the last bits
    rng = np.random.default_rng(7)
    for i in (3, 5):
        scaled = supercell(cells[i], (2, 2, 2))
        out[f"random{i:02d}x222shifted"] = shift_boundary(scaled, rng.uniform(-1.0, 2.0, 3) @ scaled.lattice)
    out["tie"] = tie_crystal()
    return out


def graph_digest(graph) -> str:
    meta = graph.meta
    radii = None if meta.node_radii is None else [float(x).hex() for x in meta.node_radii]
    lines = [
        repr(graph.node_atomic_numbers.tolist()),
        repr((meta.method, meta.neighbor_rank, meta.t, meta.radius, meta.self_edges, radii)),
    ]
    lines.extend(f"{e.src} {e.dst} {e.image.k} {e.kind} {float(e.distance).hex()}" for e in graph.edges)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def audit_report_digests() -> dict:
    """Digests of three invariant audits and the two negative controls."""
    cells = random_corpus(6, seed=2024)
    reports = {
        "radius_periodic": audit.audit_periodic_invariance(make_builder("radius"), cells, 4, 11, name="radius"),
        "tfc_self_shift": audit.audit_periodic_invariance(
            make_builder("tfc", self_edges=True), cells, 2, 12, alphas=((1, 1, 1),), name="tfc_self"),
        # tol=0 turns rounding-level discrepancies into a witness, which pins
        # the rotations and translations drawn
        "radius_self_e3": audit.audit_e3_invariance(
            make_builder("radius", self_edges=True), cells, 2, 13, tol=0.0, name="radius_self"),
        "ocgraph_shift": audit.audit_periodic_invariance(
            make_builder("ocgraph", radius=0.5), [shift_sensitive_crystal()], 8, 14,
            alphas=((1, 1, 1),), name="ocgraph"),
        "knn_tie": audit.audit_knn_determinism(tie_crystal(), k=1, seeds=tuple(range(8))),
    }
    return {
        label: hashlib.sha256(json.dumps(dataclasses.asdict(report), sort_keys=True).encode()).hexdigest()
        for label, report in reports.items()
    }


def capture() -> dict:
    crystals = corpus()
    out = {"min_image_distance": {name: min_image_distance(c).hex() for name, c in crystals.items()}}
    for label, kwargs in BUILDERS.items():
        build = make_builder(**kwargs)
        out[label] = {name: graph_digest(build(c)) for name, c in crystals.items()}
    out["audit_reports"] = audit_report_digests()
    return out


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def crystals():
    return corpus()


def test_min_image_distance_matches_golden(golden, crystals):
    got = {name: min_image_distance(c).hex() for name, c in crystals.items()}
    assert got == golden["min_image_distance"]


@pytest.mark.parametrize("label", sorted(BUILDERS))
def test_builder_matches_golden_bit_for_bit(golden, crystals, label):
    build = make_builder(**BUILDERS[label])
    got = {name: graph_digest(build(c)) for name, c in crystals.items()}
    mismatched = sorted(name for name in got if got[name] != golden[label].get(name))
    assert sorted(got) == sorted(golden[label])
    assert not mismatched, mismatched


def test_audit_reports_match_golden(golden):
    assert audit_report_digests() == golden["audit_reports"]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
