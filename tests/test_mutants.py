"""A replayable mutation matrix.

Each row breaks one library function in one place: the function (a
module's, or a class's method), a text of its source that must occur
exactly once, its replacement, and a killer, a fast in-process oracle
that must pass on the real code and fail on the mutant.  When a refactor
removes a row's text, the row fails and must be re-pointed.
"""

import random
from fractions import Fraction

import pytest

from credal import constraints, entail, harness, optimize, procedures, simplex
from credal.constraints import LinearAtom, satisfies
from credal.entail import Cell
from credal.formulas import Parser
from credal.harness import _plain_space
from credal.measures import EPS, Measure
from credal.spaces import event_from_indices
from tests import test_constraints, test_entail, test_harness
from tests.conftest import (
    CLOSED_CMP,
    EXACT,
    atom_coefficients,
    atom_value,
    bland_lp,
    clear_caches,
    float_atom_holds,
    mutant,
    scale_row,
    simplex_grid,
)
from tests.test_entail import _vertex_corpus
from tests.test_formulas import _disagreements as formula_disagreements
from tests.test_harness import probe_covers_the_grid
from tests.test_procedures import (
    domain_is_a_property_of_kb,
    equivalent_kbs_split_alike,
    exact_rules_agree_with_the_selection,
)
from tests.test_simplex import _disagreements, random_lps, scaled_lps, solve_rational

F = Fraction


def _atoms(seed):
    """(atom, its space) pairs on 2-4 worlds: one to three terms whose
    coefficients have denominators 1-6 and whose events may be empty or
    repeat, so that terms cancel and rows share a factor; every
    comparator, and bounds that grid points meet exactly."""
    rng = random.Random(seed)
    out = []
    for n in (2, 3, 4):
        sp = _plain_space("m", n)
        for _ in range(40):
            terms = tuple((F(rng.randint(-4, 4), rng.randint(1, 6)),
                           event_from_indices(sp, rng.sample(range(n), rng.randint(0, n))))
                          for _ in range(rng.randint(1, 3)))
            bound = F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6)))
            out += [(LinearAtom(terms, cmp, bound), sp) for cmp in EXACT]
    return out


def holds_at_is_atom_value():
    """LinearAtom.holds_at, at grid points as a weight sequence and as a
    dict without zeros, against the reference atom_value compared in
    Fractions."""
    for atom, sp in _atoms(30):
        for mu in simplex_grid(sp, 4):
            expected = EXACT[atom.cmp](atom_value(atom, mu), atom.bound)
            sparse = {i: w for i, w in enumerate(mu.weights) if w}
            if atom.holds_at(mu.weights) != expected or atom.holds_at(sparse) != expected:
                return False
    return True


def atom_rows_are_scale_row():
    """entail._atom_row against the reference scale_row of the atom's
    rational open row: the term-built coefficients, t's (+1 for <, -1 for
    >) and the bound, at the lcm of their denominators."""
    t_coeff = {"<": F(1), ">": F(-1)}
    for atom, sp in _atoms(31):
        n = len(sp.worlds)
        reference = scale_row(atom_coefficients(atom) + [t_coeff.get(atom.cmp, F(0))],
                              CLOSED_CMP[atom.cmp], atom.bound, n + 1)
        if entail._atom_row(atom, n) != reference:
            return False
    return True


def lps_pass_the_checker():
    """`solve_lp`'s optimal answers on `random_lps(2024, 400)` against
    the exact checker `lp_faults`."""
    return not _disagreements(random_lps(2024, 400), oracle=False)


def lps_are_blands_rule():
    """`solve_lp` on `scaled_lps(2024, 400)` against the reference
    `bland_lp`, Bland's rule over the rationals: the same status, x and
    value, Fraction for Fraction."""
    return all(solve_rational(*lp) == bland_lp(*lp) for lp in scaled_lps(2024, 400))


def walks_are_the_basis_search():
    """`Cell.vertices`, a walk of `_pivot`s over shared tableau rows, on
    the cells of test_entail's vertex corpus against the exhaustive
    `basis_search_vertices`; a walk that divides by zero fails."""
    try:
        return all(list(Cell(atoms, sp).vertices()) == expected
                   for atoms, sp, _, expected in _vertex_corpus())
    except ZeroDivisionError:
        return False


VERTICES = "return tuple(list(x) for x in sorted(keys, key=keys.get))"


def float_checks_are_the_reference():
    """`satisfies` on seeded float measures against the reference
    `float_atom_holds` at EPS, for `_atoms`' terms and comparators with
    the bound at the atom's value and EPS either side of it."""
    rng = random.Random(33)
    for atom, sp in _atoms(33):
        raw = [rng.random() for _ in sp.worlds]
        mu = Measure.from_floats(sp, [w / sum(raw) for w in raw])
        value = F(atom_value(atom, mu))
        for shift in (-1, 0, 1):
            near = LinearAtom(atom.terms, atom.cmp, value + shift * F(EPS))
            if satisfies(mu, near) != float_atom_holds(near, mu, EPS):
                return False
    return True


def formulas_are_the_reference():
    """`enumerate_worlds`, `event_of` and `from_interpretation` on the
    first 100 of test_formulas' seeded cases against the plain-Python
    formula reference of conftest."""
    return not formula_disagreements(34, 100)


def passes(cls, name):
    """A killer that runs the test method cls.name from cold caches and
    passes when it does."""
    def killer():
        clear_caches()
        try:
            getattr(cls(), name)()
        except AssertionError:
            return False
        return True
    return killer


# to_dnf and conservative_check are patched where their killers read them,
# the test modules that import them by name
MUTANTS = [
    pytest.param(LinearAtom, "holds_at", "EXACT_COMPARE[self.cmp]",
                 'EXACT_COMPARE["<=" if self.cmp == "=" else self.cmp]', holds_at_is_atom_value,
                 id="holds_at-decides-=-as-<="),
    pytest.param(LinearAtom, "holds_at", "d = lcm(*[w.denominator for _, w in support])",
                 "d = next(iter(support))[1].denominator", holds_at_is_atom_value,
                 id="holds_at-with-d-from-the-first-weight"),
    pytest.param(entail, "_atom_row", "g = gcd(big_l, *ints)", "g = 1",
                 atom_rows_are_scale_row, id="atom_row-without-gcd"),
    pytest.param(simplex, "_pivot", "new = other if p == d else [a * p // d for a in other]",
                 "new = other", lps_pass_the_checker, id="pivot-without-rescale"),
    pytest.param(simplex, "_pivot", "new = other.copy()", "new = other",
                 walks_are_the_basis_search, id="pivot-into-the-shared-row"),
    pytest.param(simplex, "_phase_1",
                 "rels = [_FLIP[rel] if ints[-1] < 0 else rel for ints, rel, _ in rows]",
                 "rels = [rel for ints, rel, _ in rows]", lps_pass_the_checker,
                 id="phase_1-without-orientation"),
    pytest.param(simplex, "_phase_1", "row[-1] *= big_k // q", "row[-1] *= big_k",
                 lps_pass_the_checker, id="phase_1-rhs-without-its-scale"),
    pytest.param(simplex, "_phase_1", "big_l // k * g", "big_l // k", lps_are_blands_rule,
                 id="phase_1-weight-without-g"),
    pytest.param(simplex, "_distinct_columns", "first.setdefault(key, j)", "first[key] = j",
                 lps_are_blands_rule, id="distinct_columns-keeps-the-later"),
    pytest.param(simplex, "vertices", VERTICES, VERTICES + "[1:]", walks_are_the_basis_search,
                 id="vertices-without-the-first"),
    pytest.param(simplex, "vertices", VERTICES, VERTICES + "[:-1]", walks_are_the_basis_search,
                 id="vertices-without-the-last"),
    pytest.param(constraints, "compare", "return v <= b + EPS", "return v <= b - EPS",
                 float_checks_are_the_reference, id="compare-with-the-<=-margin-reversed"),
    pytest.param(optimize, "updates",
                 'res.status == "empty" and any(d.infinite for d in res.diagnostics)', "False",
                 domain_is_a_property_of_kb, id="updates-without-the-infinite-divergence-raise"),
    pytest.param(harness, "essentially_entailment_probe", "lo / 2}", "lo}",
                 probe_covers_the_grid, id="probe-alpha-at-lo-not-below-it"),
    pytest.param(Parser, "unary", "return self.full ^ self.unary()", "return self.unary()",
                 formulas_are_the_reference, id="not-without-its-complement"),
    pytest.param(Parser, "implies", "(self.full ^ left) | self.implies(bar)",
                 "left | self.implies(bar)", formulas_are_the_reference,
                 id="implies-without-the-complement-of-its-left-side"),
    pytest.param(Parser, "iff", "self.full ^ left ^ self.iff(bar)", "left ^ self.iff(bar)",
                 formulas_are_the_reference, id="iff-read-as-xor"),
    pytest.param(test_constraints, "to_dnf", "union = isinstance(e, Or) != negated",
                 "union = isinstance(e, Or)",
                 passes(test_constraints.TestSemanticEquivalences,
                        "test_dnf_preserves_satisfaction_on_grid"),
                 id="to_dnf-without-de-morgan-under-negation"),
    pytest.param(optimize, "updates", "res = kl_project(mu, kb)",
                 "res = kl_project(mu.to_float(), kb)",
                 passes(test_harness.TestBootstrap,
                        "test_correspondence_of_rational_priors_is_exact"),
                 id="updates-projecting-the-priors-floats"),
    pytest.param(procedures, "_factorize",
                 "if all(_reads_only(comp, row.ints) for row in rows.values())",
                 "if any(_reads_only(comp, row.ints) for row in rows.values())",
                 equivalent_kbs_split_alike, id="factorize-joining-owners-by-union"),
    pytest.param(procedures, "_product_family_sampled",
                 "_point_mass_event(cells(kb, space), space).indices()", "range(len(space.worlds))",
                 lambda: exact_rules_agree_with_the_selection(4),
                 id="product-family-corners-from-every-world"),
    pytest.param(procedures, "_product_family_sampled", "entails(kb, theta, space)",
                 "satisfiable(and_(kb, theta), space).feasible",
                 lambda: exact_rules_agree_with_the_selection(4),
                 id="product-family-proving-by-consistency"),
    pytest.param(test_entail, "conservative_check", "verified = closed and len(psi_cells) == 1",
                 "verified = closed",
                 passes(test_entail.TestConservativeCheck, "test_a_sample_refutes_a_two_cell_psi"),
                 id="conservative_check-verifying-any-closed-psi"),
]


@pytest.mark.parametrize("owner, name, old, new, killer", MUTANTS)
def test_the_killer_passes_on_the_code_and_fails_on_the_mutant(monkeypatch, owner, name, old,
                                                               new, killer):
    broken = mutant(owner, name, old, new)  # old occurs exactly once
    assert killer()
    monkeypatch.setattr(owner, name, broken)
    assert not killer()
