"""Group catalog: naming, generators, enumeration, membership, data file."""

import json
from pathlib import Path

import pytest

from crystref import (AffineMap, CrystrefError, InvalidParameters, Monomial,
                      Ring, TooLarge, UnknownGroup, Vector, build_group,
                      catalog, catalog_ids, compose, enumerate_linear_group,
                      generators_of_linear_part, linear_group_order,
                      parse_group_name, parse_scalar)
from crystref.catalog import _coeff_gens
from crystref.lattices import lattice_from_generators


def test_name_round_trip():
    for gid in catalog_ids():
        assert parse_group_name(gid.name()) == gid
    assert parse_group_name("G(6,3,2):2").name() == "[G(6,3,2)]_2"
    assert parse_group_name("G(2,1,3):a:3").name() == "[G(2,1,3)]^a_3"
    assert parse_group_name("W(A(2)):a:1").name() == "[W(A(2))]^a_1"


def test_popov_relabeling_aliases():
    assert parse_group_name("[G(2,1,2)]^a_3") == parse_group_name("[G(2,1,2)]^a_4")
    assert parse_group_name("[G(2,1,2)]^a_5") == parse_group_name("[G(2,1,2)]^a_1")
    # at n >= 3 the indices are distinct groups
    assert parse_group_name("[G(2,1,3)]^a_3") != parse_group_name("[G(2,1,3)]^a_4")


def test_unknown_groups_rejected():
    with pytest.raises(UnknownGroup):
        build_group("[G(9,9,9)]_1")
    with pytest.raises(UnknownGroup):
        build_group("[G(3,3,2)]_1")     # dihedral-size genuine rows are omitted
    with pytest.raises(UnknownGroup):
        build_group("[G(4,4,2)]_1")
    with pytest.raises(UnknownGroup):
        build_group("[G(3,1,1)]_2")     # only one rank-1 lattice per r
    with pytest.raises(UnknownGroup):
        build_group("[G(2,2,2)]^a_1")   # reducible
    with pytest.raises(UnknownGroup):
        parse_group_name("totally-not-a-group")


def test_generators_examples():
    r6 = Ring(6)
    gens = generators_of_linear_part(r6, 6, 3, 2)
    assert gens == [Monomial.from_cycles(r6, 2, [[1, 2]]),
                    Monomial.diagonal(r6, [3, 0]),
                    Monomial(r6, [1, 0], [-1, 1])]
    r1 = Ring(1)
    assert len(generators_of_linear_part(r1, 1, 1, 3)) == 2
    r4 = Ring(4)
    assert generators_of_linear_part(r4, 4, 1, 2) == [
        Monomial.from_cycles(r4, 2, [[1, 2]]), Monomial.diagonal(r4, [1, 0])]
    with pytest.raises(InvalidParameters):
        generators_of_linear_part(r6, 6, 4, 2)   # p must divide r


def test_generators_generate(rng):
    # closure of the generated set reaches the whole enumerated group
    for (r, p, n) in ((6, 3, 2), (4, 2, 2), (3, 1, 2), (2, 2, 3), (1, 1, 3)):
        ring = Ring(r, alpha=(r <= 2))
        gens = generators_of_linear_part(ring, r, p, n)
        seen = {Monomial.identity(ring, n)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    prod = g * m
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
            frontier = nxt
        assert len(seen) == linear_group_order(r, p, n), (r, p, n)


def test_enumeration_counts():
    assert len(enumerate_linear_group(Ring(1), 1, 1, 3)) == 6
    assert len(enumerate_linear_group(Ring(4), 4, 1, 2)) == 32
    assert len(enumerate_linear_group(Ring(6), 6, 3, 2)) == 24
    with pytest.raises(TooLarge):
        enumerate_linear_group(Ring(6), 6, 1, 8)


def test_enumeration_closed(rng):
    ring = Ring(6)
    els = enumerate_linear_group(ring, 6, 3, 2)
    group = set(els)
    assert len(group) == 24
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        assert a * b in group
        assert a.inverse() in group


def test_build_group_examples():
    spec = build_group("[G(6,3,2)]_2")
    assert spec.expected_steinberg is False
    r6 = spec.ring
    assert spec.counterexample.lin == Monomial.diagonal(r6, [3, 3])
    assert spec.counterexample.tran == Vector(r6, [r6.one(), r6.root(2) - 1])
    assert build_group("[G(4,2,2)]_3").expected_steinberg is True
    spec224 = build_group("[G(2,2,4)]^a_1")
    assert spec224.expected_steinberg is False
    al, one = spec224.ring.formal(), spec224.ring.one()
    assert list(spec224.counterexample.tran.coords) == \
        [one, one + al, -al, spec224.ring.zero()]
    # the n = 3 instance of the same family satisfies the property
    assert build_group("[G(2,2,3)]^a_1").expected_steinberg is True


def test_counterexample_identity_extension():
    spec = build_group("[G(3,1,5)]_2")
    cx = spec.counterexample
    assert cx.n == 5
    assert cx.lin.exps == (1, 1, 0, 0, 0)
    assert all(cx.tran[i].is_zero() for i in range(2, 5))
    assert spec.is_member(cx)


def test_is_member_examples():
    for gid in catalog_ids():
        spec = build_group(gid)
        for m in spec.linear_generators:
            assert spec.is_member(AffineMap.linear(m))
        if spec.counterexample is not None:
            assert spec.is_member(spec.counterexample)
    spec = build_group("[G(6,3,2)]_2")
    assert not spec.is_member(AffineMap.linear(Monomial.diagonal(spec.ring, [1, 0])))
    s411 = build_group("[G(4,1,2)]_1")
    assert s411.is_member(AffineMap.translation(Vector.basis(s411.ring, 2, 1)))


def test_member_products_close(rng):
    for name in ("[G(6,3,2)]_2", "[G(2,1,2)]^a_4", "[G(4,2,2)]_3"):
        spec = build_group(name)
        els = spec.elements_of_linear_part()
        basis = spec.lattice.zbasis
        members = []
        for _ in range(12):
            lin = rng.choice(els)
            t = Vector.zero(spec.ring, spec.n)
            for b in basis:
                t = t + b.scale(spec.ring.rational(rng.randint(-1, 1)))
            members.append(AffineMap(lin, t))
        for _ in range(40):
            g, h = rng.choice(members), rng.choice(members)
            assert spec.is_member(compose(g, h))
            assert spec.is_member(g.inverse())


def test_symmetric_group_family():
    spec = build_group("[W(A(2))]^a_1")
    assert spec.n == 3 and spec.ring.r == 1 and spec.ring.alpha
    assert spec.lattice.rank == 4          # rank 2(n-1) in ambient C^3
    assert len(spec.linear_generators) == 2
    assert spec.expected_steinberg is True
    # every lattice vector has coordinate sum zero
    for b in spec.lattice.zbasis:
        total = spec.ring.zero()
        for x in b.coords:
            total = total + x
        assert total.is_zero()


def test_catalog_file_matches_constructors():
    raw = json.loads((Path(__file__).parent / "data" / "catalog.json")
                     .read_text())
    entries = {e["name"]: e for e in raw["groups"]}
    ids = catalog_ids()
    assert set(entries) == {g.name() for g in ids}
    for gid in ids:
        entry = entries[gid.name()]
        spec = build_group(gid)
        assert entry["steinberg"] == spec.expected_steinberg
        assert entry["r"] == spec.id.r and entry["p"] == spec.id.p
        assert entry["n"] == spec.n and entry["k"] == spec.id.k
        ring = Ring(entry["ring"]["r"], entry["ring"]["alpha"])
        assert ring is spec.ring
        gens = []
        for gen in entry["lattice"]:
            vec = Vector(ring, [parse_scalar(ring, s) for s in gen["vector"]])
            gens.append((vec, _coeff_gens(ring, gen["coefficients"]),
                         gen["coefficients"]))
        lat = lattice_from_generators(ring, entry["n"], gens,
                                      rank=entry["rank"])
        assert lat.rank == spec.lattice.rank
        assert all(spec.lattice.contains(b) for b in lat.zbasis), gid.name()
        assert all(lat.contains(b) for b in spec.lattice.zbasis), gid.name()
        if "counterexample" in entry:
            cx = entry["counterexample"]
            diag = [parse_scalar(ring, s) for s in cx["diagonal"]]
            exps = [next(e for e in range(ring.r) if ring.root(e) == d)
                    for d in diag]
            lin = Monomial.diagonal(ring, exps)
            tran = Vector(ring, [parse_scalar(ring, s) for s in cx["tran"]])
            assert AffineMap(lin, tran) == spec.counterexample, gid.name()
        else:
            assert spec.counterexample is None


def test_build_group_guards_raise_errors(monkeypatch):
    # the sanity checks are errors, not asserts that python -O would strip
    saved = dict(catalog._SPEC_CACHE)
    catalog._SPEC_CACHE.clear()
    try:
        monkeypatch.setattr(catalog.Lattice, "is_invariant",
                            lambda self, m: False)
        with pytest.raises(CrystrefError, match="lattice not invariant"):
            build_group("[G(4,1,2)]_2")
    finally:
        catalog._SPEC_CACHE.clear()
        catalog._SPEC_CACHE.update(saved)
