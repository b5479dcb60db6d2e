"""The breadth-first subgroup closure against a naive pairwise closure."""

import random

from cubicdescent.lines27 import GroupElt, full_group, orbits, subgroup_closure

CAP = 128


def naive_closure(generators, cap):
    """Add every product of two known elements until nothing is new;
    None once more than cap elements are known."""
    elems = {GroupElt.identity(), *generators}
    while len(elems) <= cap:
        new = {g * h for g in elems for h in elems} - elems
        if not new:
            return elems
        elems |= new
    return None


def _generator_sets(seed, count):
    """Seeded generator sets: random group elements, with some pure sign
    changes mixed in so that small subgroups occur too."""
    grp = full_group()
    signs = [g for g in grp if g.sigma == (0, 1, 2, 3, 4)]
    rng = random.Random(seed)
    for _ in range(count):
        gens = [rng.choice(grp) for _ in range(rng.randint(1, 2))]
        gens += [rng.choice(signs) for _ in range(rng.randint(0, 2))]
        yield gens


def test_closure_matches_naive_oracle():
    small = 0
    for gens in _generator_sets(11, 40):
        oracle = naive_closure(gens, CAP)
        found = subgroup_closure(gens, cap=CAP)
        if oracle is None:
            assert found is None
            continue
        small += 1
        assert len(found) == len(oracle) and set(found) == oracle
        assert subgroup_closure(gens) is not None
        assert set(subgroup_closure(gens)) == oracle
    assert small >= 10          # the seeded sets reach both outcomes


def test_cap_is_exact():
    for gens in _generator_sets(12, 20):
        order = len(subgroup_closure(gens))
        assert len(subgroup_closure(gens, cap=order)) == order
        assert subgroup_closure(gens, cap=order - 1) is None
    assert len(subgroup_closure([], cap=1)) == 1
    assert subgroup_closure([], cap=0) is None


def test_cap_at_full_group():
    gens = [GroupElt((1, 1, 1, 1, 1), (1, 0, 2, 3, 4)),
            GroupElt((1, 1, 1, 1, 1), (1, 2, 3, 4, 0)),
            GroupElt((-1, -1, 1, 1, 1), (0, 1, 2, 3, 4))]
    assert set(subgroup_closure(gens, cap=1920)) == set(full_group())
    assert subgroup_closure(gens, cap=1919) is None


def test_orbits_of_generators_match_closure():
    """orbits follows the generators only; the closure holds every
    inverse, so its orbits are the reference."""
    for gens in _generator_sets(13, 30):
        assert orbits(gens) == orbits(subgroup_closure(gens))
