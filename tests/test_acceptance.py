"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The verdict-table reproduction (criterion 2) and the
oracle/witness cross-check (criterion 7) dominate the runtime.
"""

import random
import time
from fractions import Fraction

import pytest

from crystref import (ON_HYPERPLANE, REFLECTION_POWER, AffineMap, Monomial,
                      Ring, ScalarModule, Vector, build_group, catalog_ids,
                      check_counterexample, enumerate_linear_group,
                      fixed_space, full_table_report, has_finite_order,
                      is_reflection, module_window, orbit_classes,
                      orbit_equiv, power, rank1_window, reflection_families,
                      subspace_satisfies_form, verify_element,
                      witness_from_conditions, witness_from_cycle)
from crystref.steinberg import element_stream
from conftest import random_affine

BOUND = 1
BUDGET = 200_000

_table_cache = {}


def _table():
    if "report" not in _table_cache:
        _table_cache["report"] = full_table_report(bound=BOUND, budget=BUDGET)
    return _table_cache["report"]


def _ok(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_counterexample_certification():
    """Every failing row of both tables certifies exactly, in under 5 s."""
    start = time.perf_counter()
    failing = [gid for gid in catalog_ids()
               if not build_group(gid).expected_steinberg]
    genuine = [g for g in failing if not g.uses_alpha]
    nongenuine = [g for g in failing if g.uses_alpha]
    assert len(genuine) == 5          # the genuine counterexample table
    assert len(nongenuine) == 9       # the Coxeter-part counterexample table
    for gid in failing:
        rep = check_counterexample(gid)
        assert rep["passed"], gid.name()
        assert rep["member"] and rep["off_arrangement"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"certification took {elapsed:.2f}s"
    _ok(1, f"all {len(failing)} tabulated counterexamples certified exactly "
           f"in {elapsed:.2f}s")


def test_criterion_2_verdict_table_reproduction():
    """The recomputed table matches the published verdict column row by row."""
    report = _table()
    assert report["all_match"], [r["group"] for r in report["rows"]
                                 if not r["match"]]
    assert len(report["rows"]) == 31
    for row in report["rows"]:
        sw = row["sweep"]
        if row["n"] <= 2:
            assert sw["exhaustive"], row["group"]
        if row["n"] == 3 and "G(6" in row["group"]:
            assert sw["examined"] >= 100_000, row["group"]
        if row["expected"]:
            assert sw["violation_count"] == 0, row["group"]
        else:
            assert row["method"] == "counterexample"
    # the one row past the budget is a seeded sample: pin its draw
    sampled = {row["group"]: row["sweep"] for row in report["rows"]
               if not row["sweep"]["exhaustive"]}
    assert {name: (sw["with_fixed_point"], sw["violation_count"])
            for name, sw in sampled.items()} == \
        {"[G(2,2,4)]^a_1": (55_523, 484)}
    assert report["elapsed_seconds"] < 600
    _ok(2, f"31/31 rows match the published verdicts "
           f"in {report['elapsed_seconds']}s (bound={BOUND}, budget={BUDGET})")


def test_criterion_3_rank1_hyperplane_sets():
    """Window R=3 equality with the half-Gaussian and Eisenstein mirror sets."""
    radius = Fraction(3)
    spec4 = build_group("[G(4,1,1)]_1")
    r4 = spec4.ring
    half_zi = ScalarModule(r4, [r4.rational(Fraction(1, 2)),
                                r4.scalar(0, Fraction(1, 2))])
    _, hyp4 = rank1_window(spec4, radius)
    assert {(p.a, p.b) for p in hyp4} == \
        {(p.a, p.b) for p in module_window(half_zi, radius)}
    spec6 = build_group("[G(6,1,1)]_1")
    r6 = spec6.ring
    w = r6.root(2)
    inv = (r6.one() - w).inverse()
    m1 = ScalarModule(r6, [inv, inv * w])
    m2 = ScalarModule(r6, [r6.rational(Fraction(1, 2)), w * Fraction(1, 2)])
    expected = {(p.a, p.b) for p in module_window(m1, radius)} | \
               {(p.a, p.b) for p in module_window(m2, radius)}
    _, hyp6 = rank1_window(spec6, radius)
    assert {(p.a, p.b) for p in hyp6} == expected
    _ok(3, f"rank-1 mirror sets match exactly on the R=3 window "
           f"({len(hyp4)} and {len(hyp6)} points)")


def test_criterion_4_hyperplane_golden_list():
    """Derived families of the hexagonal index-2 group equal the known list,
    by two-sided module inclusion."""
    spec = build_group("[G(6,2,2)]_2")
    r6 = spec.ring
    w = r6.root(2)
    zw = ScalarModule(r6, [r6.one(), w])
    ideal = zw.scaled(r6.one() - w)
    fams = {f.form.text(): f for f in reflection_families(spec)}
    for j in (1, 2):
        for br in fams[f"x{j}"].branches:
            assert br.constants.includes(zw) and zw.includes(br.constants)
    for m in range(6):
        key = f"x1 - x^{m}*x2" if m else "x1 - x2"
        mod = fams[key].branches[0].constants
        ref = zw if m % 2 else ideal
        assert mod.includes(ref) and ref.includes(mod), key
    _ok(4, "mirror families of [G(6,2,2)]_2 reproduce the published list")


def test_criterion_5_orbit_facts():
    """(a) two orbits on the half-Eisenstein window with the lattice one of
    them; (b) odd-odd half-Gaussian vertices form one class; (c) the r=3
    tessellation has two vertex classes; (d) the r=p counterexample
    coordinates are pairwise inequivalent."""
    r6 = Ring(6)
    w6 = r6.root(2)
    zw = ScalarModule(r6, [r6.one(), w6])
    half = ScalarModule(r6, [r6.rational(Fraction(1, 2)), w6 * Fraction(1, 2)])
    pts = module_window(half, Fraction(2))
    classes = orbit_classes(r6, zw, pts)
    assert len(classes) == 2
    lattice_class = next(c for c in classes if any(p.is_zero() for p in c))
    assert all(zw.contains(p) == (p in lattice_class) for p in pts)

    r4 = Ring(4)
    h = Fraction(1, 2)
    lam4 = ScalarModule(r4, [r4.scalar(h, h), r4.scalar(-h, h)])
    odd = [p for p in module_window(lam4, Fraction(7, 2))
           if p.a.denominator == 2 and p.b.denominator == 2]
    assert len(odd) >= 36
    assert len(orbit_classes(r4, lam4, odd)) == 1

    r3 = Ring(3)
    third = ScalarModule(r3, [r3.rational(Fraction(1, 3)),
                              r3.xi() * Fraction(1, 3)])
    inv = (r3.one() - r3.xi()).inverse()
    lam3 = ScalarModule(r3, [inv, inv * r3.xi()])
    verts = [p for p in module_window(third, Fraction(2))
             if not lam3.contains(p)]
    assert len(orbit_classes(r3, lam3, verts)) == 2

    for name in ("[G(3,3,3)]_1", "[G(4,4,3)]_1", "[G(6,6,3)]_1"):
        spec = build_group(name)
        ring = spec.ring
        zxi = ScalarModule(ring, [ring.one(), ring.xi()])
        u = fixed_space(spec.counterexample).point()
        for a in range(3):
            for b in range(a + 1, 3):
                assert orbit_equiv(ring, zxi, u[a], u[b]) is None, (name, a, b)
    _ok(5, "tessellation orbit counts and pairwise inequivalence verified")


def test_criterion_6_geometry_lemma_property_suite():
    """10^4 random monomial affine maps: finite order iff fixed point, and
    reflection iff fixed point plus reflection linear part, against direct
    iteration and the combinatorial rank count."""
    rng = random.Random(987654321)
    rings = [Ring(3), Ring(4), Ring(6)]
    total = 0
    mismatches = 0
    start = time.perf_counter()
    while total < 10_000:
        ring = rng.choice(rings)
        n = rng.randint(1, 3)
        g = random_affine(rng, ring, n)
        total += 1
        order = g.lin.order()
        finite_by_iteration = power(g, order).is_identity()
        if has_finite_order(g) != finite_by_iteration:
            mismatches += 1
        ones = sum(1 for nodes, exps in g.lin.cycles()
                   if sum(exps) % ring.r == 0)
        lin_is_reflection = (n - ones == 1) and not g.lin.is_identity()
        if is_reflection(g) != (finite_by_iteration and lin_is_reflection):
            mismatches += 1
    assert mismatches == 0
    _ok(6, f"{total} random affine maps, zero discrepancies "
           f"({time.perf_counter() - start:.1f}s)")


def test_criterion_7_oracle_witness_agreement():
    """Over the criterion-2 sweep streams, every element where a lemma-based
    witness fires gets an on-hyperplane verdict from the complete oracle."""
    start = time.perf_counter()
    fired = 0
    checked = 0
    for gid in catalog_ids():
        spec = build_group(gid)
        r = spec.ring.r

        def lemma_applicable(lin, r=r):
            return lin.is_diagonal() or any(
                len(nodes) > 1 and sum(exps) % r == 0
                for nodes, exps in lin.cycles())

        for g in element_stream(spec, bound=BOUND, budget=BUDGET,
                                lin_filter=lemma_applicable):
            if not has_finite_order(g):
                continue
            checked += 1
            wit = witness_from_cycle(spec, g)
            if wit is None and g.lin.is_diagonal():
                wit = witness_from_conditions(spec, g)
            if wit is None:
                continue
            fired += 1
            space = fixed_space(g)
            verdict = verify_element(spec, g, classify_reflection_power=False)
            assert verdict.outcome == ON_HYPERPLANE, (spec.name, g.text())
            assert subspace_satisfies_form(space, wit.family.form,
                                           wit.constant), (spec.name, g.text())
    assert fired > 1000
    _ok(7, f"lemma witnesses fired on {fired} of {checked} candidate "
           f"elements, zero oracle disagreements "
           f"({time.perf_counter() - start:.0f}s)")


def test_criterion_8_lattice_invariance():
    """Every row's lattice is stable under its linear generators; the r=6
    k=1 lattices at n=2 are stable under the whole wreath group."""
    for gid in catalog_ids():
        spec = build_group(gid)
        for m in spec.linear_generators:
            assert spec.lattice.is_invariant(m), spec.name
    r6 = Ring(6)
    full = enumerate_linear_group(r6, 6, 1, 2)
    assert len(full) == 72
    for name in ("[G(6,1,2)]_1", "[G(6,2,2)]_1", "[G(6,3,2)]_1"):
        lat = build_group(name).lattice
        for m in full:
            assert lat.is_invariant(m), (name, m.text())
    _ok(8, "all catalog lattices invariant; full wreath-group invariance "
           "confirmed for the r=6 index-1 lattices at n=2")
