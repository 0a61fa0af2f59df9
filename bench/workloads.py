"""The three benchmark workloads: inputs, the timed call into crystref, and
the output checks made after the timed region.

Every call goes through crystref's public names, looked up on the package at
call time (``crystref.sweep(...)``), so that the tracer in layertrace.py sees it.

Why these workloads:

* table    - the paper's verdict table as ``crystref table --json`` runs it:
             the headline user run.  Its time is mostly per-linear-part sweep
             preparation and exact confirmation of violations.
* oracle   - a seeded draw of single elements through the exact per-element
             oracle and the lemma witnesses; it never enters the vectorised
             sweep, so it isolates the scalars, lattices, affine and
             hyperplanes layers.
* wide_box - exhaustive bound-3 sweeps of the rank-2 rows: the same steinberg
             layer as table, but dominated by listing violations rather than
             by preparation, so a table gain that slows violation listing
             shows here.

A workload is split into `parts` fixed pieces of input; a repetition runs one
part (``prepare(specs, seed, part)``), or the whole input when part is None.
wide_box is split so that several of its repetitions fit in a run; oracle so
that a run times a larger draw in repetitions of a few seconds each.
"""

from __future__ import annotations

import json
import random
import traceback
from pathlib import Path

import crystref

HERE = Path(__file__).resolve().parent
VERDICTS = json.loads((HERE / "verdicts.json").read_text())["verdicts"]


def _report_exception(what: str) -> str:
    traceback.print_exc()
    return f"{what} raised"


def setup(group_ids) -> list:
    """The work every CLI call repeats: build each group, its mirror families
    and its linear part."""
    specs = []
    for gid in group_ids:
        spec = crystref.build_group(gid)
        crystref.reflection_families(spec)
        spec.elements_of_linear_part()
        specs.append(spec)
    return specs


def _box_size(spec, bound: int) -> int:
    side = 2 * bound + 1
    return len(spec.elements_of_linear_part()) * side ** spec.lattice.rank


class Table:
    """All catalog rows at bound 1 and budget 200 000 through
    full_table_report; one operation per row."""

    name = "table"
    parts = 1
    BOUND = 1
    BUDGET = 200_000

    def group_ids(self):
        return crystref.catalog_ids()

    def prepare(self, specs, seed: int, part):
        return None

    def size(self, specs, inputs) -> tuple[int, int]:
        elements = sum(min(_box_size(s, self.BOUND), self.BUDGET) for s in specs)
        return len(specs), elements

    def run(self, specs, inputs):
        try:
            return crystref.full_table_report(bound=self.BOUND, budget=self.BUDGET)
        except Exception:
            return _report_exception("full_table_report")

    def check(self, specs, inputs, report, seed: int) -> tuple[int, list[str]]:
        if isinstance(report, str):
            return len(specs), [report]
        errors = []
        failed = 0
        rows = {row["group"]: row for row in report["rows"]}
        for spec in specs:
            try:
                problem = self._problem(rows.get(spec.name),
                                        VERDICTS.get(spec.name))
            except Exception:
                problem = _report_exception("the check")
            if problem is not None:
                failed += 1
                errors.append(f"{spec.name}: {problem}")
        if len(rows) != len(specs):
            errors.append(f"report has {len(rows)} rows, expected {len(specs)}")
        return failed, errors

    @staticmethod
    def _problem(row, published):
        if row is None:
            return "row missing from the report"
        if published is None:
            return "row has no published verdict"
        if ("holds" if row["computed"] else "fails") != published:
            return f"computed verdict differs from published {published}"
        if not row["match"]:
            return "row reports a mismatch"
        if published == "fails" and not row["counterexample"]["passed"]:
            return "counterexample not certified"
        return None


class Oracle:
    """Per part, PER_ROW (sigma, t) draws from every row's bound-1 box, fixed
    by the seed and the part alone, each through verify_element and both
    lemma witnesses; one operation per element.  Two parts double the input a
    run times, which narrows the seed-to-seed variation in its cost."""

    name = "oracle"
    parts = 2
    PER_ROW = 40

    def group_ids(self):
        return crystref.catalog_ids()

    def prepare(self, specs, seed: int, part):
        items = []
        for k in range(self.parts) if part is None else [part]:
            items += self._draw(specs, random.Random(f"oracle:{seed}:{k}"))
        return items

    def _draw(self, specs, rng):
        items = []
        for spec in specs:
            sigmas = spec.elements_of_linear_part()
            ring = spec.ring
            for _ in range(self.PER_ROW):
                while True:
                    sigma = rng.choice(sigmas)
                    coeffs = [rng.randint(-1, 1) for _ in spec.lattice.zbasis]
                    if not (sigma.is_identity() and not any(coeffs)):
                        break
                tran = crystref.Vector.zero(ring, spec.n)
                for c, b in zip(coeffs, spec.lattice.zbasis):
                    if c:
                        tran = tran + b.scale(ring.rational(c))
                items.append((spec, crystref.AffineMap(sigma, tran)))
        return items

    def size(self, specs, items) -> tuple[int, int]:
        return len(items), len(items)

    def run(self, specs, items):
        out = []
        for spec, g in items:
            try:
                verdict = crystref.verify_element(spec, g)
                out.append((verdict,
                            crystref.witness_from_cycle(spec, g),
                            crystref.witness_from_conditions(spec, g)))
            except Exception:
                out.append(_report_exception(f"{spec.name} {g.text()}"))
        return out

    def check(self, specs, items, results, seed: int) -> tuple[int, list[str]]:
        errors = []
        for (spec, g), res in zip(items, results):
            try:
                problem = res if isinstance(res, str) else self._problem(spec, g, *res)
            except Exception:
                problem = _report_exception("the check")
            if problem is not None:
                errors.append(f"{spec.name} {g.text()}: {problem}")
        return len(errors), errors

    @staticmethod
    def _problem(spec, g, verdict, wit_cycle, wit_cond):
        outcome = verdict.outcome
        on_mirror = (crystref.ON_HYPERPLANE, crystref.REFLECTION_POWER)
        if outcome not in on_mirror + (crystref.VIOLATION, crystref.NO_FIXED_POINT):
            return f"unknown outcome {outcome!r}"
        for wit in (wit_cycle, wit_cond):
            if wit is None:
                continue
            if outcome not in on_mirror:
                return f"a lemma witness fired but the oracle says {outcome}"
            space = crystref.fixed_space(g)
            if not crystref.subspace_satisfies_form(space, wit.family.form,
                                                    wit.constant):
                return "fixed space is off the witness hyperplane"
            if not (spec.is_member(wit.reflection)
                    and crystref.is_reflection(wit.reflection)):
                return "witness is not a reflection of the group"
        if outcome == crystref.VIOLATION:
            if VERDICTS.get(spec.name) == "holds":
                return "violation in a row the paper says holds"
            pt = verdict.fixed_point
            if g.apply(pt) != pt:
                return "violation point is not fixed"
            if crystref.point_on_arrangement(spec, pt) is not None:
                return "violation point lies on a mirror"
        return None

    @staticmethod
    def summary(results) -> dict:
        counts: dict[str, int] = {}
        for res in results:
            if isinstance(res, str):
                continue
            verdict, wc, wd = res
            counts[verdict.outcome] = counts.get(verdict.outcome, 0) + 1
            if wc is not None or wd is not None:
                counts["witness_fired"] = counts.get("witness_fired", 0) + 1
        return counts


class WideBox:
    """Exhaustive sweep at bound 3 (as ``crystref check -B 3``) of every
    rank-2 row; one operation per row.  The rows are split into `parts`
    pieces of about equal cost, so that a repetition takes a few seconds."""

    name = "wide_box"
    parts = 3
    BOUND = 3
    SHOWN = 10          # violations `crystref check` prints by default
    RESAMPLED = 5       # seeded extra violations re-verified per row

    def group_ids(self):
        return [gid for gid in crystref.catalog_ids() if gid.n == 2]

    def prepare(self, specs, seed: int, part):
        """The rows of one part: the recorded reference counts give each row
        a cost (violations listed, plus elements examined at about 1/256 of
        a violation each), and the rows are dealt, dearest first, to the
        cheapest part so far."""
        if part is None:
            return specs
        reference = json.loads(
            (HERE / "wide_box_reference.json").read_text())["rows"]

        def cost(spec):
            ref = reference.get(spec.name, {})
            return ref.get("violation_count", 0) + ref.get("examined", 0) / 256

        loads = [0.0] * self.parts
        rows = [[] for _ in range(self.parts)]
        for spec in sorted(specs, key=cost, reverse=True):
            k = loads.index(min(loads))
            loads[k] += cost(spec)
            rows[k].append(spec)
        return rows[part]

    def size(self, specs, rows) -> tuple[int, int]:
        return len(rows), sum(_box_size(s, self.BOUND) for s in rows)

    def run(self, specs, rows):
        out = {}
        for spec in rows:
            try:
                out[spec.name] = crystref.sweep(spec, bound=self.BOUND)
            except Exception:
                out[spec.name] = _report_exception(f"sweep {spec.name}")
        return out

    def check(self, specs, rows, reports, seed: int) -> tuple[int, list[str]]:
        rng = random.Random(f"wide_box:{seed}")
        reference = json.loads(
            (HERE / "wide_box_reference.json").read_text())["rows"]
        errors = []
        for spec in rows:
            rep = reports[spec.name]
            try:
                problem = rep if isinstance(rep, str) else self._problem(
                    spec, rep, reference.get(spec.name), rng)
            except Exception:
                problem = _report_exception("the check")
            if problem is not None:
                errors.append(f"{spec.name}: {problem}")
        return len(errors), errors

    def _problem(self, spec, rep, ref, rng):
        if ref is None:
            return "no recorded reference"
        got = (rep.violation_count, rep.examined, rep.with_fixed_point)
        want = (ref["violation_count"], ref["examined"], ref["with_fixed_point"])
        if got != want:
            return (f"violations/examined/with_fixed_point {got}, "
                    f"reference {want}")
        rest = rep.violations[self.SHOWN:]
        again = rep.violations[:self.SHOWN] + rng.sample(
            rest, min(self.RESAMPLED, len(rest)))
        for v in again:
            outcome = crystref.verify_element(
                spec, v.element, classify_reflection_power=False).outcome
            if outcome != crystref.VIOLATION:
                return f"{v.element.text()} re-verifies as {outcome}"
        return None


WORKLOADS = {w.name: w for w in (Table(), Oracle(), WideBox())}
