"""The window-independent plan cached on a Lattice: the line vector, the 2D
seed pair, the closure rays, the coordinate kernels and the memoized
reflections.  A lattice that has served earlier calls must give what a fresh
one gives, outputs and budget errors alike."""

import random
from fractions import Fraction

import pytest

from kleinsail.lattice import (
    _REFLECTED_CACHES, CUBIC49_MINPOLY, GOLDEN_MINPOLY, Lattice, _coordinate_kernels,
    _kernel_rows, _reduced_pair, _row_points, irrationality_check, lattice_from_alpha,
    lattice_from_cubic_field, random_rational_lattice,
)
from kleinsail.linalg import mat_mul
from kleinsail.normmin import orthant_representatives, theorem1_audit
from kleinsail.numberfield import NumberField
from kleinsail.sail import (
    DEFAULT_POINT_BUDGET, PointBudgetError, _closure_points, _closure_rays, _line_basis,
    build_sail_patch,
)
from test_same_outputs import CASES as SAME_OUTPUT_CASES
from test_same_outputs import outputs


def _golden_alpha():
    return lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)


def _cubic49():
    return lattice_from_cubic_field(CUBIC49_MINPOLY)


@pytest.mark.parametrize("name, make, t", SAME_OUTPUT_CASES,
                         ids=[name for name, _, _ in SAME_OUTPUT_CASES])
def test_warm_lattice_matches_a_fresh_one(name, make, t):
    # a lattice that has built patches at t, at a smaller window and in its
    # other orthants gives the documents a fresh lattice gives
    lat = make()
    first = build_sail_patch(lat, t).to_json_str()
    build_sail_patch(lat, 3)
    for signs in orthant_representatives(lat.n):
        build_sail_patch(lat.reflect(signs), t)
    assert build_sail_patch(lat, t).to_json_str() == first
    assert build_sail_patch(make(), t).to_json_str() == first
    assert outputs(lambda: lat, t) == outputs(make, t)


@pytest.mark.parametrize("make, t", [
    (_cubic49, 6),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 20),
], ids=["cubic49-6", "alpha-13/34-20"])
def test_audit_twice_matches_a_fresh_lattice(make, t):
    lat = make()
    first = theorem1_audit(lat, t).to_json_str()
    assert theorem1_audit(lat, t).to_json_str() == first
    assert theorem1_audit(make(), t).to_json_str() == first


def _outcome(lat, t, budget):
    try:
        return build_sail_patch(lat, t, budget=budget).to_json_str()
    except PointBudgetError as exc:
        return ("raised", exc.stage, exc.budget)


_BUDGETS = list(range(1, 60)) + [100, 200, 400, 1000, 3000]


@pytest.mark.parametrize("make, t", [
    (_golden_alpha, 600),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 40),
    (lambda: random_rational_lattice(2, 1), 100),
    (lambda: random_rational_lattice(3, 0), 10),
    (_cubic49, 6),
], ids=["golden-alpha-600", "alpha-13/34-40", "rational2-1-100", "rational3-0-10",
        "cubic49-6"])
def test_budget_errors_do_not_depend_on_call_history(make, t):
    # at every budget a warm lattice returns the patch, or raises with the
    # stage and budget, of a fresh one: cached scans charge their leaves.
    # `climbing` starts cold, so its fills first fail and cache nothing
    warm, climbing = make(), make()
    build_sail_patch(warm, t)
    outcomes = set()
    for budget in _BUDGETS:
        want = _outcome(make(), t, budget)
        assert _outcome(warm, t, budget) == want, budget
        assert _outcome(climbing, t, budget) == want, budget
        outcomes.add(want[:2] if isinstance(want, tuple) else "patch")
    # the grid reaches a patch, and a budget error in the window scan
    assert "patch" in outcomes and ("raised", "window") in outcomes


def _fresh_lattice_with_every_constructor_value_set():
    fld = NumberField(GOLDEN_MINPOLY)
    one, zero = fld.one(), fld.zero()
    cubic = NumberField(CUBIC49_MINPOLY)
    return [Lattice.single_field(fld, [(one, zero), (one - fld.gen(), one)], 1,
                                 provenance="golden", seed=3),
            Lattice.module(cubic, [cubic.one(), cubic.gen(), cubic.gen() ** 2],
                           provenance="cubic49", seed=4)]


def test_every_cache_has_a_reflect_rule():
    # `__init__` sets each cache to None, and the registry says what
    # `reflect` does with it: a carry function, or None to drop it
    for lat in _fresh_lattice_with_every_constructor_value_set():
        assert {k for k, v in vars(lat).items() if v is None} == set(_REFLECTED_CACHES)
    assert all(rule is None or callable(rule) for rule in _REFLECTED_CACHES.values())


def test_reflect_is_memoized_per_sign_tuple():
    lat = _cubic49()
    for signs in orthant_representatives(3):
        assert lat.reflect(signs) is lat.reflect(tuple(signs))
    assert lat.reflect((1, -1, 1)) is not lat.reflect((1, 1, -1))


@pytest.mark.parametrize("make, t", [
    (_cubic49, 6),
    (lambda: random_rational_lattice(3, 0), 10),
    (_golden_alpha, 60),
], ids=["cubic49", "rational3-0", "golden-alpha"])
def test_reflected_lattice_keeps_its_own_orthant_plan(make, t):
    # a warm lattice's reflections find their own line vector, one with
    # ambient image >= 0 in their own orthant; the base's vector is not one
    # in some orthant, so carrying it over would break this
    base = make()
    build_sail_patch(base, t)
    u, _ = _line_basis(base, DEFAULT_POINT_BUDGET)
    v_base = tuple(row[-1] for row in u)
    carried_would_fail = False
    for signs in orthant_representatives(base.n):
        lat = base.reflect(signs)
        u, _ = _line_basis(lat, DEFAULT_POINT_BUDGET)
        v = tuple(row[-1] for row in u)
        assert all(lat.coord_sign(v, i) >= 0 for i in range(lat.n)), signs
        carried_would_fail |= any(lat.coord_sign(v_base, i) < 0 for i in range(lat.n))
        # the kernels are carried, and read as the reflection's own would
        assert lat._kernels is base._kernels
        fresh = Lattice(lat.basis, lat.embeddings, lat.field, scale_d_sq=lat.scale_d_sq,
                        row_signs=lat.row_signs)
        assert (irrationality_check(lat, t).witness_sample(64)
                == irrationality_check(fresh, t).witness_sample(64))
        assert _closure_rays(lat) == _closure_rays(fresh)
    assert carried_would_fail


@pytest.mark.parametrize("seed", range(8))
def test_kernel_rows_do_not_depend_on_the_generator_pair(seed):
    # a rank-2 coordinate kernel rebased by a unimodular U reduces to a pair
    # with the same rows, and the rows list the same points
    lat = random_rational_lattice(3, seed, denom_limit=7)
    rng = random.Random(seed)
    for gens in _coordinate_kernels(lat):
        assert len(gens) == 2
        want_gens, want = _kernel_rows(lat, gens, 30)
        points = set(_row_points(want_gens, want))
        for _ in range(4):
            u = ((1, 0), (0, 1))
            while u == ((1, 0), (0, 1)) or abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) != 1:
                u = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
            got_gens, got = _kernel_rows(lat, _reduced_pair(lat, mat_mul(u, gens)), 30)
            assert len(got) == len(want)
            assert set(_row_points(got_gens, got)) == points


@pytest.mark.parametrize("make", [
    _cubic49, lambda: random_rational_lattice(3, 0), _golden_alpha,
], ids=["cubic49", "rational3-0", "golden-alpha"])
def test_closure_points_double_mu_until_beyond_the_window(make):
    # from mu = 1 the closure points start inside the window; mu doubles
    # until every coordinate of every point is >= t
    lat, t = make(), 10**9
    rays = _closure_rays(lat)
    far = _closure_points(lat, rays, 1, Fraction(t))
    mu = far[0][0] // rays[0][0]
    assert mu > 1 and mu & (mu - 1) == 0
    assert far == [tuple(mu * x for x in r) for r in rays]
    for c in far:
        assert all(lat.coord_sign(c, i) > 0 and not lat.coord_abs_lt(c, i, t)
                   for i in range(lat.n))
    half = [tuple(mu // 2 * x for x in r) for r in rays]
    assert any(lat.coord_abs_lt(c, i, t) for c in half for i in range(lat.n))
