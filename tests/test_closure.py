"""The subgroup closure and its coset step against a naive pairwise
closure."""

import random

from cubicdescent import lines27
from cubicdescent.lines27 import (GroupElt, _extend, full_group, orbits,
                                  subgroup_closure)

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


# ---------------------------------------------------------------------------
# the coset step: <H, cand> from a closed H by right cosets


def _split(gens):
    """(H as a set of indices, its generator indices, the last generator's
    index) for a generator set whose last element lies outside the group
    of the others; None when it lies inside."""
    *head, last = gens
    h = {g.index for g in subgroup_closure(head)}
    if last.index in h:
        return None
    return h, [g.index for g in head], last.index


def test_coset_step_matches_closures():
    outcomes = {"grown": 0, "capped": 0}
    for gens in _generator_sets(14, 40):
        split = _split(gens)
        if split is None:
            continue
        h, head, cand = split
        grown = _extend(h, head, cand, CAP)
        oracle = naive_closure(gens, CAP)
        if oracle is None:
            assert grown is None and subgroup_closure(gens, cap=CAP) is None
            outcomes["capped"] += 1
            continue
        outcomes["grown"] += 1
        assert grown == {g.index for g in oracle}
        assert grown == {g.index for g in subgroup_closure(gens)}
    assert outcomes["grown"] >= 10 and outcomes["capped"] >= 5


def test_coset_step_limit_is_exact():
    for gens in _generator_sets(15, 30):
        split = _split(gens)
        if split is None:
            continue
        h, head, cand = split
        group = {g.index for g in subgroup_closure(gens)}
        assert _extend(h, head, cand, len(group)) == group
        assert _extend(h, head, cand, len(group) - 1) is None


def test_coset_step_rejects_before_any_product(monkeypatch):
    """No subgroup order within the limit: None before the product tables
    are read.  2|H| > limit is one such case; |H| = 384 with limit 1919 is
    another, since no order between 384 and 1920 is a multiple of 384 and
    divides 1920."""
    sign_change = GroupElt((-1, -1, 1, 1, 1), (0, 1, 2, 3, 4))
    swap = GroupElt((1, 1, 1, 1, 1), (1, 0, 2, 3, 4))
    h = {g.index for g in subgroup_closure([sign_change])}
    big_gens = [GroupElt((1, 1, 1, 1, 1), (0, 2, 3, 4, 1)),
                GroupElt((1, 1, 1, 1, 1), (0, 2, 1, 3, 4)), sign_change]
    big = subgroup_closure(big_gens)
    assert len(big) == 384 and swap not in big
    big, big_gens = {g.index for g in big}, [g.index for g in big_gens]

    def no_tables():
        raise AssertionError("a product was formed")

    monkeypatch.setattr(lines27, "_tables", no_tables)
    assert _extend(h, [sign_change.index], swap.index, 3) is None
    assert _extend(big, big_gens, swap.index, 1919) is None
    monkeypatch.undo()
    assert len(_extend(h, [sign_change.index], swap.index, 4)) == 4
    assert len(_extend(big, big_gens, swap.index, 1920)) == 1920
