"""Verification engine: orbits, lemma witnesses, verdicts, sweeps."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from crystref import (NO_FIXED_POINT, ON_HYPERPLANE, REFLECTION_POWER,
                      VIOLATION, AffineMap, CrystrefError,
                      ExpectedPositiveGroup, Monomial, NotAMember, Ring,
                      ScalarModule, Vector, build_group, catalog_ids,
                      check_counterexample, compose, fixed_space,
                      has_finite_order, is_reflection, module_window,
                      off_arrangement_point, orbit_classes, orbit_equiv,
                      power,
                      subspace_satisfies_form, sweep, sweep_exact,
                      verify_element, witness_from_conditions,
                      witness_from_cycle)
from crystref import steinberg
from crystref.catalog import _ROWS, GroupId
from crystref.cli import run
from crystref.steinberg import (_SEED, _ClassLookup, _Classes,
                                _coefficient_matrix, _decode, _guard,
                                _integer_basis, _sample, element_stream,
                                full_table_report)


def _half_gaussian_module(r4):
    h = Fraction(1, 2)
    return ScalarModule(r4, [r4.scalar(h, h), r4.scalar(-h, h)])


def test_orbit_equiv_examples():
    r4 = Ring(4)
    lam = _half_gaussian_module(r4)
    z = r4.scalar(Fraction(1, 2), Fraction(1, 2))
    w = r4.scalar(Fraction(3, 2), Fraction(1, 2))
    assert orbit_equiv(r4, lam, z, w) == 0
    assert orbit_equiv(r4, lam, z, z) == 0
    r3 = Ring(3)
    zw = ScalarModule(r3, [r3.one(), r3.xi()])
    assert orbit_equiv(r3, zw, (r3.one() - r3.xi()).inverse(), r3.zero()) is None


def test_orbit_relation_is_symmetric_and_transitive(rng):
    r6 = Ring(6)
    w = r6.root(2)
    mod = ScalarModule(r6, [r6.one(), w])
    pts = module_window(ScalarModule(
        r6, [r6.rational(Fraction(1, 2)), w * Fraction(1, 2)]), Fraction(3, 2))
    for a in pts:
        for b in pts:
            ab = orbit_equiv(r6, mod, a, b)
            ba = orbit_equiv(r6, mod, b, a)
            assert (ab is None) == (ba is None)
    classes = orbit_classes(r6, mod, pts)
    for cls in classes:
        for a in cls:
            for b in cls:
                assert orbit_equiv(r6, mod, a, b) is not None


def test_orbit_classes_two_orbit_fact():
    # the half-Eisenstein window splits into the lattice orbit and one other
    r6 = Ring(6)
    w = r6.root(2)
    zw = ScalarModule(r6, [r6.one(), w])
    half = ScalarModule(r6, [r6.rational(Fraction(1, 2)), w * Fraction(1, 2)])
    pts = module_window(half, Fraction(2))
    classes = orbit_classes(r6, zw, pts)
    assert len(classes) == 2
    lattice_class = next(c for c in classes if any(p.is_zero() for p in c))
    for p in pts:
        assert (p in lattice_class) == zw.contains(p)


def test_orbit_classes_single_point():
    r4 = Ring(4)
    assert orbit_classes(r4, _half_gaussian_module(r4), [r4.one()]) == [[r4.one()]]


def test_witness_from_cycle_examples():
    spec = build_group("[G(4,1,2)]_1")
    r4 = spec.ring
    g = AffineMap.linear(Monomial.from_cycles(r4, 2, [[1, 2]]))
    wit = witness_from_cycle(spec, g)
    assert wit is not None
    assert wit.constant.is_zero()
    assert wit.reflection.lin == g.lin
    # a 3-cycle with a lattice translation in the symmetric-group family
    wa = build_group("[W(A(2))]^a_1")
    ring = wa.ring
    t = wa.lattice.zbasis[1] + wa.lattice.zbasis[2]
    g3 = AffineMap(Monomial.from_cycles(ring, 3, [[1, 2, 3]]), t)
    wit3 = witness_from_cycle(wa, g3)
    assert wit3 is not None
    space = fixed_space(g3)
    assert subspace_satisfies_form(space, wit3.family.form, wit3.constant)
    # diagonal linear parts are out of scope for this construction
    diag = AffineMap.linear(Monomial.diagonal(r4, [1, 0]))
    assert witness_from_cycle(spec, diag) is None


def test_witness_from_conditions_condition3():
    # both fixed-point coordinates odd-odd half-Gaussian: orbit condition fires
    spec = build_group("[G(4,1,2)]_2")
    r4 = spec.ring
    h = Fraction(1, 2)
    t = Vector(r4, [r4.scalar(h, h), r4.scalar(h, -h)])
    g = AffineMap(Monomial.diagonal(r4, [2, 2]), t)
    assert spec.is_member(g)
    wit = witness_from_conditions(spec, g)
    assert wit is not None
    assert not wit.family.form.is_coordinate
    space = fixed_space(g)
    assert subspace_satisfies_form(space, wit.family.form, wit.constant)
    v = verify_element(spec, g)
    assert v.outcome in (ON_HYPERPLANE, REFLECTION_POWER)


def test_witness_from_conditions_condition1():
    # r = 6, p = 2: an element of order > p whose p-th power lands in the
    # lattice on one coordinate
    spec = build_group("[G(6,2,2)]_1")
    r6 = spec.ring
    g = AffineMap(Monomial.diagonal(r6, [2, 4]),
                  Vector(r6, [r6.one(), r6.one()]))
    assert spec.is_member(g)
    assert not power(g, 2).is_identity()
    wit = witness_from_conditions(spec, g)
    assert wit is not None
    assert wit.family.form.is_coordinate
    space = fixed_space(g)
    assert subspace_satisfies_form(space, wit.family.form, wit.constant)
    # the constant is the fixed point's coordinate x_j, and the composed
    # g^2 translates coordinate j by (1 - lam_j^2) x_j
    j = wit.family.form.j
    x_j = space.base[j - 1]
    assert wit.constant == x_j
    lam = r6.root(g.lin.exps[j - 1])
    assert power(g, 2).tran[j - 1] == (r6.one() - lam * lam) * x_j


def test_witness_from_conditions_condition2():
    # an involution with eigenvalue -1 entries: g^p = 1 at p = 2
    spec = build_group("[G(6,2,2)]_1")
    r6 = spec.ring
    t = Vector(r6, [r6.rational(2), r6.scalar(1, 1)])
    g = AffineMap(Monomial.diagonal(r6, [3, 3]), t)
    assert spec.is_member(g) and power(g, 2).is_identity()
    wit = witness_from_conditions(spec, g)
    assert wit is not None
    space = fixed_space(g)
    assert subspace_satisfies_form(space, wit.family.form, wit.constant)
    assert wit.family.form.is_coordinate
    assert wit.constant == space.base[wit.family.form.j - 1]


def test_witness_from_conditions_identity_absent():
    spec = build_group("[G(6,2,2)]_1")
    g = AffineMap.translation(spec.lattice.zbasis[0])
    assert witness_from_conditions(spec, g) is None


def test_componentwise_solvability_matches_dense_solver(rng):
    from conftest import dense_fixed_space, random_affine
    for ring in (Ring(3), Ring(4), Ring(6), Ring(2, True)):
        for n in (1, 2, 3):
            for _ in range(60):
                g = random_affine(rng, ring, n, with_alpha=True)
                assert has_finite_order(g) == \
                    (not dense_fixed_space(g).is_empty), g.text()


def test_verify_element_examples():
    s632 = build_group("[G(6,3,2)]_2")
    v = verify_element(s632, s632.counterexample)
    assert v.outcome == VIOLATION
    r6 = s632.ring
    assert v.fixed_point == Vector(
        r6, [r6.rational(Fraction(1, 2)), (r6.root(2) - 1) * Fraction(1, 2)])
    # a reflection is classified as (a power of) a reflection
    s422 = build_group("[G(4,2,2)]_3")
    refl = AffineMap.linear(s422.linear_generators[0])
    assert verify_element(s422, refl).outcome == REFLECTION_POWER
    # translations have no fixed point
    t = AffineMap.translation(s422.lattice.zbasis[0])
    assert verify_element(s422, t).outcome == NO_FIXED_POINT
    with pytest.raises(NotAMember):
        verify_element(s422, AffineMap.translation(
            Vector.basis(s422.ring, 2, 1).scale(s422.ring.rational(Fraction(1, 7)))))
    with pytest.raises(NotAMember):
        verify_element(s422, AffineMap.identity(s422.ring, 2))


def test_verify_element_d4_on_hyperplane_witness_shape():
    # diag(-1,-1) with admissible translation in the r=4 p=2 k=3 group always
    # sits on the mirror x1 + i x2 = beta, whose witness reflection carries
    # the translation beta e1 - i beta e2
    from crystref.hyperplanes import family_index, witness_reflection
    spec = build_group("[G(4,2,2)]_3")
    r4 = spec.ring
    xi = r4.xi()
    alpha, beta = r4.one(), r4.one()
    t1 = xi * alpha + beta * (r4.one() + xi)
    t2 = -alpha - beta * (r4.one() + xi)
    g = AffineMap(Monomial.diagonal(r4, [2, 2]), Vector(r4, [t1, t2]))
    assert spec.is_member(g)
    v = verify_element(spec, g)
    assert v.outcome in (ON_HYPERPLANE, REFLECTION_POWER)
    # the x1 - xi^3 x2 family (= x1 + i x2) admits exactly the constant beta
    fam = family_index(spec)[("d", 1, 2, 3)]
    space = fixed_space(g)
    val = fam.form.evaluate(space.point())
    assert val == beta
    branch = fam.admits(val)
    assert branch is not None
    refl = witness_reflection(spec, fam, branch, val)
    assert refl.tran == Vector(r4, [beta, -(xi * beta)])
    assert refl.lin == Monomial(r4, [1, 0], [-3, 3])
    assert subspace_satisfies_form(space, fam.form, val)


def test_sweep_examples(monkeypatch):
    s412 = build_group("[G(4,1,2)]_2")
    rep = sweep(s412, bound=1)
    assert rep.violation_count == 0 and rep.exhaustive
    assert rep.examined == rep.grid_total == 32 * 81
    s312 = build_group("[G(3,1,2)]_2")
    rep2 = sweep(s312, bound=1)
    assert rep2.violation_count >= 1
    assert any(v.element == s312.counterexample for v in rep2.violations)
    s224 = build_group("[G(2,2,4)]^a_1")
    rep3 = sweep(s224, bound=1, budget=20000)
    assert not rep3.exhaustive and rep3.examined == 20000
    assert rep3.violation_count >= 1
    # the full grid is still cheap and pins the tabulated element
    monkeypatch.setattr(steinberg, "_CONFIRM_CAP", 50)
    rep4 = sweep(s224, bound=1)
    assert rep4.exhaustive and rep4.examined == 1259712
    assert any(v.element == s224.counterexample for v in rep4.violations)


def test_sweep_deterministic():
    spec = build_group("[G(6,6,2)]^a_2")
    a = sweep(spec, bound=1)
    b = sweep(spec, bound=1)
    assert [v.element for v in a.violations] == [v.element for v in b.violations]
    s224 = build_group("[G(2,2,4)]^a_1")
    r1 = sweep(s224, bound=1, budget=5000)
    r2 = sweep(s224, bound=1, budget=5000)
    assert [v.element for v in r1.violations] == [v.element for v in r2.violations]


def test_sample_matches_random_sample():
    # the table's draw; k = 200000 at the last total of CPython's pool branch
    # and the first of its set branch; k <= 5, where the set branch starts
    # past 21; and two Mersenne Twister words per draw past 32 bits
    for total, k in ((1_259_712, 200_000), (1_048_597, 200_000),
                     (1_048_598, 200_000), (21, 5), (22, 5), (1000, 3),
                     (2 ** 40 + 17, 1000)):
        expected = sorted(random.Random(_SEED).sample(range(total), k))
        drawn = _sample(total, k)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == expected, (total, k)


def _assert_fixed_points_are_off_arrangement_points(spec, report):
    """A lone fixed point is its own off-arrangement point: each violation's
    fixed point, from verify_element's shortcut or its full search, is the
    one off_arrangement_point finds."""
    for v in report.violations:
        assert v.fixed_point == off_arrangement_point(
            spec, fixed_space(v.element)), v.element.text()


def test_fast_sweep_matches_exact_oracle(monkeypatch):
    monkeypatch.setattr(steinberg, "_CONFIRM_CAP", 10 ** 9)
    for name in ("[G(4,1,2)]_2", "[G(3,1,2)]_2", "[G(6,6,2)]^a_3",
                 "[G(2,1,2)]^a_4", "[G(4,2,2)]_3", "[W(A(2))]^a_1",
                 "[G(6,3,2)]_2"):
        spec = build_group(name)
        fast = sweep(spec, bound=1).to_dict()
        exact = sweep_exact(spec, bound=1)
        slow = exact.to_dict()
        del fast["elapsed_seconds"], slow["elapsed_seconds"]
        assert fast == slow, name
        _assert_fixed_points_are_off_arrangement_points(spec, exact)
    # n = 3 and alpha rows under sampling: the fast verdicts agree with the
    # exact oracle on exactly the elements the sample draws
    for name in ("[G(6,6,3)]_1", "[G(2,1,3)]^a_3"):
        spec = build_group(name)
        fast = sweep(spec, bound=1, budget=1500)
        assert not fast.exhaustive and fast.examined == 1500
        with_fp = 0
        bad = set()
        for g in element_stream(spec, bound=1, budget=1500):
            outcome = verify_element(spec, g,
                                     classify_reflection_power=False).outcome
            with_fp += outcome != NO_FIXED_POINT
            if outcome == VIOLATION:
                bad.add(g)
        assert {v.element for v in fast.violations} == bad, name
        assert fast.with_fixed_point == with_fp, name
        _assert_fixed_points_are_off_arrangement_points(spec, fast)


def test_integer_decode_matches_vector_arithmetic():
    rng = random.Random(2024)
    for gid in catalog_ids():
        spec = build_group(gid)
        basis, den = _integer_basis(spec, 3)
        coeffs = [[rng.randint(-3, 3) for _ in spec.lattice.zbasis]
                  for _ in range(200)]
        decoded = _decode(spec, basis, den, np.array(coeffs, dtype=np.int64))
        for row, t in zip(coeffs, decoded):
            want = Vector.zero(spec.ring, spec.n)
            for c, b in zip(row, spec.lattice.zbasis):
                want = want + b.scale(spec.ring.rational(c))
            assert t == want and hash(t) == hash(want), (spec.name, row)


def test_int64_guard_refuses_overflowing_products():
    huge = np.array([[2 ** 61, 5], [2 ** 61, -7]], dtype=np.int64)
    _guard(1, huge[:, 1:])
    _guard(2 ** 58, huge[:, 1:])
    with pytest.raises(CrystrefError):
        _guard(1, huge)                 # column abs-sum 2**62
    with pytest.raises(CrystrefError):
        _guard(2 ** 59, huge[:, 1:])    # 2**59 * 12 >= 2**62
    with pytest.raises(CrystrefError):
        _guard(2 ** 62)                 # the bound alone
    spec = build_group("[G(4,1,2)]_2")
    with pytest.raises(CrystrefError):
        sweep(spec, bound=2 ** 61, budget=10)
    with pytest.raises(CrystrefError):
        _ClassLookup(spec, 2 ** 61)     # c @ A_h
    # the class data of a linear part are guarded too: the kernel product
    # (the identity) and the reduction (diag(i, i), four classes)
    ident = _coefficient_matrix(spec, Monomial.identity(spec.ring, 2))
    diag = _coefficient_matrix(spec, Monomial.diagonal(spec.ring, [1, 1]))
    _Classes(ident, 2 ** 61)
    _Classes(diag, 2 ** 50)
    with pytest.raises(CrystrefError):
        _Classes(ident, 2 ** 62)
    with pytest.raises(CrystrefError):
        _Classes(diag, 2 ** 61)
    assert run(["check", spec.name, "-B", str(2 ** 61), "--budget", "10"]) == 2


def _det(mat):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _class_count(classes, m, cap):
    """How many classes the keys tell apart, walking from c = 0 along the
    unit vectors (their classes generate the finite class group); the walk
    stops once it has seen more than cap keys."""
    unit = np.eye(m, dtype=np.int64)
    frontier = np.zeros((1, m), dtype=np.int64)
    seen = set(classes.keys(frontier).tolist())
    while len(frontier) and len(seen) <= cap:
        step = (frontier[:, None, :] + unit).reshape(-1, m)
        fresh = {}
        for key, row in zip(classes.keys(step).tolist(), step):
            if key not in seen:
                fresh.setdefault(key, row)
        seen.update(fresh)
        frontier = np.array(list(fresh.values()), dtype=np.int64).reshape(-1, m)
    return len(seen)


def test_class_count_is_det_of_one_minus_sigma():
    # A_{tau^-1}, built by the conjugation walk as products of the inverse
    # generators' matrices, is the matrix the lattice solves give; where
    # I - A_sigma is invertible the classes are Z^m / (I - A_sigma) Z^m,
    # |det(I - A_sigma)| of them
    invertible = 0
    for gid in catalog_ids():
        spec = build_group(gid)
        m = spec.lattice.rank
        lookup = _ClassLookup(spec, 1)
        assert len(lookup.conjugate) == len(spec.elements_of_linear_part())
        for sigma, (_, tau_inv, a_tau_inv) in lookup.conjugate.items():
            assert a_tau_inv.tolist() == _coefficient_matrix(spec, tau_inv), \
                (spec.name, sigma)
            a = _coefficient_matrix(spec, sigma)
            det = abs(_det([[int(i == j) - a[i][j] for j in range(m)]
                            for i in range(m)]))
            if det:
                invertible += 1
                classes = _Classes(a, 1 << 20)
                assert classes.kernel.size == 0
                assert _class_count(classes, m, det) == det, (spec.name, sigma)
    assert invertible == 519


def test_outcome_and_class_are_conjugation_invariant():
    # (sigma, t) -> (sigma, t + (1 - sigma) s) and -> (tau sigma tau^-1,
    # tau t) keep the exact verdict; the sweep looks each element up as a
    # conjugate (sigma0, c @ A_{tau^-1}) with that verdict too, and the
    # translation conjugate in the same class
    rng = random.Random(31)
    for gid in catalog_ids():
        spec = build_group(gid)
        lat, ring = spec.lattice, spec.ring
        lookup = _ClassLookup(spec, 100)
        sigmas = spec.elements_of_linear_part()

        def combination(coeffs):
            t = Vector.zero(ring, spec.n)
            for c, b in zip(coeffs, lat.zbasis):
                t = t + b.scale(ring.rational(int(c)))
            return t

        def outcome(h):
            return verify_element(spec, h,
                                  classify_reflection_power=False).outcome

        for _ in range(8):
            sigma, tau = rng.choice(sigmas), rng.choice(sigmas)
            t = combination([rng.randint(-1, 1) for _ in lat.zbasis])
            s = combination([rng.randint(-1, 1) for _ in lat.zbasis])
            g = AffineMap(sigma, t)
            if g.is_identity():
                continue
            want = outcome(g)
            keys = []
            for h in (g, AffineMap(sigma, t + s - sigma.apply(s)),
                      AffineMap(tau * sigma * tau.inverse(), tau.apply(t))):
                classes, a = lookup(h.lin)
                x = np.array([lat.coefficients(h.tran)]) @ a
                looked_up = AffineMap(lookup.conjugate[h.lin][0],
                                      combination(x[0]))
                assert outcome(h) == outcome(looked_up) == want, \
                    (spec.name, h.text())
                fixed = bool((x @ classes.kernel == 0).all())
                assert fixed == (want != NO_FIXED_POINT), (spec.name, h.text())
                keys.append(int(classes.keys(x)[0]) if fixed else None)
            assert keys[0] == keys[1], (spec.name, g.text())


def test_sampling_refuses_grids_past_maxsize():
    spec = build_group("[G(4,1,2)]_2")
    # (2 * 10**8 + 1)**4 translations per linear part: past sys.maxsize
    with pytest.raises(CrystrefError):
        sweep(spec, bound=10 ** 8, budget=10)
    with pytest.raises(CrystrefError):
        next(element_stream(spec, bound=10 ** 8, budget=10))


def test_chunked_sweep_matches_single_block(monkeypatch):
    # a small chunk size splits every linear part's grid (3^4 and 3^6 rows)
    # into blocks that end mid-grid; the report and the element streams, full
    # and sampled, must not change
    for name in ("[G(6,3,2)]_2", "[G(2,1,3)]^a_3"):
        spec = build_group(name)
        whole = sweep(spec, bound=1).to_dict()
        streams = [list(element_stream(spec, bound=1, budget=budget))
                   for budget in (None, 1500)]
        with monkeypatch.context() as patch:
            patch.setattr(steinberg, "_CHUNK", 7)
            chunked = sweep(spec, bound=1).to_dict()
            assert [list(element_stream(spec, bound=1, budget=budget))
                    for budget in (None, 1500)] == streams, name
        del whole["elapsed_seconds"], chunked["elapsed_seconds"]
        assert whole["exhaustive"] and whole["with_fixed_point"] > 0
        assert chunked == whole, name
        assert len(streams[0]) == whole["examined"] - 1
    assert whole["violation_count"] > 0


def test_table_reports_failed_certification_as_mismatch(monkeypatch, capsys):
    certify = steinberg.check_counterexample

    def failing(spec):
        if spec.name == "[G(3,1,2)]_2":
            raise CrystrefError("certification failed on purpose")
        return certify(spec)

    monkeypatch.setattr(steinberg, "check_counterexample", failing)
    rep = full_table_report(budget=500)
    rows = {row["group"]: row for row in rep["rows"]}
    row = rows["[G(3,1,2)]_2"]
    assert row["counterexample"] == {"passed": False,
                                     "error": "certification failed on purpose"}
    assert row["computed"] is True and row["match"] is False
    assert not rep["all_match"]
    assert all(r["match"] for name, r in rows.items() if name != row["group"])
    capsys.readouterr()
    assert run(["table", "--budget", "500"]) == 1
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()
            if line.endswith("MISMATCH")] == ["[G(3,1,2)]_2"]


def test_failed_certification_names_the_row(monkeypatch):
    # the tabulated element swapped for a non-member, an element with no
    # fixed point and one whose fixed space lies on a mirror: each time the
    # certification raises an error naming the row, and the table reports
    # the row as a mismatch
    spec = build_group("[G(3,1,2)]_2")
    ring, g = spec.ring, spec.counterexample
    off_lattice = Vector.basis(ring, 2, 1).scale(ring.rational(Fraction(1, 5)))
    swap = Monomial(ring, [1, 0], [0, 0])
    for bad in (AffineMap(g.lin, g.tran + off_lattice),
                AffineMap(Monomial.identity(ring, 2), spec.lattice.zbasis[0]),
                AffineMap(swap, Vector.zero(ring, 2))):
        with monkeypatch.context() as patch:
            patch.setattr(spec, "counterexample", bad)
            with pytest.raises(CrystrefError, match=re.escape(spec.name)):
                check_counterexample(spec)
            rows = {row["group"]: row
                    for row in full_table_report(budget=500)["rows"]}
        row = rows[spec.name]
        assert row["counterexample"]["passed"] is False, bad.text()
        assert row["computed"] is True and row["match"] is False, bad.text()


def test_check_counterexample_all_failing_rows():
    for gid in catalog_ids():
        spec = build_group(gid)
        if spec.expected_steinberg:
            with pytest.raises(ExpectedPositiveGroup):
                check_counterexample(spec)
        else:
            rep = check_counterexample(spec)
            assert rep["passed"], rep
            if spec.id.p == spec.id.r and spec.n == 3 and not spec.id.uses_alpha:
                assert rep["orbit_inequivalent_pairs"] == [[1, 2], [1, 3], [2, 3]]


def _failing_rows_past_the_table():
    """Every failing row at each n from the least n where it fails (nmin,
    or nmin + 1 for [G(2,2,n)]^a_1) through three more."""
    ids = []
    for row in _ROWS:
        failing = [n for n in range(row.nmin, row.nmin + 8)
                   if (row.nmax is None or n <= row.nmax)
                   and not row.steinberg(n)]
        ids += [GroupId(row.family, row.r, row.p, n, row.k, row.alpha)
                for n in failing if n <= failing[0] + 3]
    return ids


@pytest.mark.parametrize("gid", _failing_rows_past_the_table(), ids=str)
def test_check_counterexample_past_the_table(gid):
    # fixed spaces of dimension 3 or more: a difference form constant on the
    # candidate line must not block the off-arrangement point
    rep = check_counterexample(gid)
    assert rep["passed"] and rep["off_arrangement"]


def test_counterexample_fixed_line_case():
    # the k = 3 element at n = 3 fixes a line, not a point; the certificate
    # must exhibit a point of the line off every mirror
    spec = build_group("[G(2,1,3)]^a_3")
    space = fixed_space(spec.counterexample)
    assert space.dim == 1
    rep = check_counterexample(spec)
    assert rep["fixed_space_dimension"] == 1
    from crystref import point_on_arrangement, parse_scalar
    pt = Vector(spec.ring, [parse_scalar(spec.ring, s)
                            for s in rep["fixed_point"]])
    assert point_on_arrangement(spec, pt) is None


def test_verdict_monotone_under_powers(rng):
    # if g sits on a mirror, no power with a fixed space reports a violation
    spec = build_group("[G(6,2,2)]_2")
    els = spec.elements_of_linear_part()
    checked = 0
    while checked < 25:
        lin = rng.choice(els)
        t = Vector.zero(spec.ring, 2)
        for b in spec.lattice.zbasis:
            t = t + b.scale(spec.ring.rational(rng.randint(-1, 1)))
        g = AffineMap(lin, t)
        if g.is_identity():
            continue
        space = fixed_space(g)
        if space.is_empty:
            continue
        v = verify_element(spec, g, classify_reflection_power=False)
        if v.outcome != ON_HYPERPLANE:
            continue
        checked += 1
        for j in (2, 3):
            gj = power(g, j)
            if gj.is_identity():
                continue
            vj = verify_element(spec, gj, classify_reflection_power=False)
            assert vj.outcome != VIOLATION


def test_lemma_witnesses_never_contradict_oracle(rng):
    # random members with fixed points: a fired lemma witness forces an
    # on-hyperplane verdict
    for name in ("[G(6,2,2)]_1", "[G(4,1,2)]_2", "[G(2,2,3)]^a_1"):
        spec = build_group(name)
        els = spec.elements_of_linear_part()
        for _ in range(120):
            lin = rng.choice(els)
            t = Vector.zero(spec.ring, spec.n)
            for b in spec.lattice.zbasis:
                t = t + b.scale(spec.ring.rational(rng.randint(-1, 1)))
            g = AffineMap(lin, t)
            if g.is_identity():
                continue
            if has_finite_order(g):
                # the reflection-power label, against composed affine powers
                powers = (power(g, k) for k in range(1, lin.order() + 1))
                assert (verify_element(spec, g).outcome == REFLECTION_POWER) \
                    == any(is_reflection(h) for h in powers), g.text()
            wit = witness_from_cycle(spec, g) or witness_from_conditions(spec, g)
            if wit is None:
                continue
            v = verify_element(spec, g, classify_reflection_power=False)
            assert v.outcome == ON_HYPERPLANE, (name, g.text())
            space = fixed_space(g)
            assert subspace_satisfies_form(space, wit.family.form, wit.constant)
