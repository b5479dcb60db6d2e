"""The Galois fit (minimal_cover_subgroup) against the breadth-first
backtracking it replaced, kept here as the oracle: every fit must return
the same elements and the same chosen representatives, in the same order.
"""

import importlib
import random
from pathlib import Path

import pytest

import cubicdescent as cd
from cubicdescent import frobenius
from cubicdescent.lines27 import (GroupElt, _blocks_from_sizes, _tables,
                                  anchored_class_members, anchored_frob_data,
                                  class_members, cover_order_bound,
                                  full_group, minimal_cover_subgroup,
                                  subgroup_closure)

from conftest import PAPER_P

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bfs_closure(generators, cap=None):
    """The group generated, by a breadth-first search from the identity
    that multiplies each new element by the generators; None as soon as
    the order exceeds cap."""
    if cap is not None and cap < 1:
        return None
    limit = 1920 if cap is None else cap
    grp, perm_mul, perm_act, sign_mul = _tables()
    gens = [divmod(s.index, 16) for s in generators]
    elems = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            a, e = divmod(g, 16)
            mul_a, act_a, mul_e = perm_mul[a], perm_act[a], sign_mul[e]
            for b, f in gens:
                h = mul_a[b] + mul_e[act_a[f]]
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
                    if len(elems) > limit:
                        return None
        frontier = nxt
    return [grp[k] for k in elems]


def backtracking_fit(classes, cap=1920):
    """Oracle: the smallest subgroup meeting every class, each branch
    closing chosen + [candidate] from the identity, with no memory of the
    states searched before."""
    members = [c if isinstance(c, list) else class_members(c)
               for c in classes]
    members.sort(key=len)
    best_elems = None
    best_chosen = None

    def grow(chosen, elems, k):
        nonlocal best_elems, best_chosen
        if best_elems is not None and len(elems) >= len(best_elems):
            return
        if k == len(members):
            best_elems = set(elems)
            best_chosen = list(chosen)
            return
        inside = next((c for c in members[k] if c in elems), None)
        if inside is not None:
            grow(chosen + [inside], elems, k + 1)
            return
        tried = set()
        for cand in members[k]:
            limit = (len(best_elems) - 1) if best_elems is not None else cap
            closure = bfs_closure(chosen + [cand], cap=limit)
            if closure is None:
                continue
            key = frozenset(closure)
            if key in tried:
                continue
            tried.add(key)
            grow(chosen + [cand], set(closure), k + 1)

    grow([], {GroupElt.identity()}, 0)
    if best_elems is None:
        return None, None
    return sorted(best_elems, key=lambda g: (g.sigma, g.t)), best_chosen


def assert_same_fit(member_lists):
    elems, chosen = minimal_cover_subgroup(member_lists)
    oracle_elems, oracle_chosen = backtracking_fit(member_lists)
    assert elems == oracle_elems
    assert [g.index for g in chosen] == [g.index for g in oracle_chosen]
    return elems


def sampled_member_lists(coeffs, x=None):
    """The member lists sample_frobenius fits for a quintic, with the
    default 40 primes below 500."""
    recorded = []

    def record(member_lists):
        recorded.append(member_lists)
        return minimal_cover_subgroup(member_lists)

    _, report = cd.run_strategy(cd.UniPoly(list(coeffs)), x=x)
    saved = frobenius.minimal_cover_subgroup
    frobenius.minimal_cover_subgroup = record
    try:
        frobenius.sample_frobenius(report)
    finally:
        frobenius.minimal_cover_subgroup = saved
    (member_lists,) = recorded
    return member_lists


@pytest.fixture
def galois_fit_inputs(monkeypatch):
    """The galois-fit workload's quintics, each at scale 1 and -1."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    return [tuple(c * k ** (5 - i) for i, c in enumerate(base))
            for base in workloads.GALOIS_QUINTICS
            for k in workloads.GALOIS_SCALES]


def seeded_quintics(seed, count):
    """Squarefree products of small monic factors of degrees (1, 2, 2),
    (2, 3) or (1, 1, 3): their fits stay at order 192 or below, where the
    oracle takes well under a second."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = cd.UniPoly([1])
        for d in rng.choice([(1, 2, 2), (2, 3), (1, 1, 3)]):
            f = f * cd.UniPoly([rng.randint(-5, 5) for _ in range(d)] + [1])
        c = tuple(int(x) for x in f.coeffs)
        if c[0] != 0 and c not in out and f.is_squarefree():
            out.append(c)
    return out


def test_fit_matches_oracle_on_galois_fit_inputs(galois_fit_inputs):
    assert len(galois_fit_inputs) == 14
    orders = {len(assert_same_fit(sampled_member_lists(c)))
              for c in galois_fit_inputs}
    assert orders == {16, 32, 48, 64, 96}


def test_fit_matches_oracle_for_x_not_r():
    # the paper quintic under x = r + 1
    elems = assert_same_fit(sampled_member_lists(PAPER_P.coeffs, x=[1, 1]))
    assert len(elems) == 16


def test_fit_matches_oracle_order_384():
    elems = assert_same_fit(sampled_member_lists((3, 1, -2, 0, 1, 1)))
    assert len(elems) == 384


def test_fit_matches_oracle_on_seeded_quintics():
    orders = [len(assert_same_fit(sampled_member_lists(c)))
              for c in seeded_quintics(3, 10)]
    assert len(set(orders)) >= 4


@pytest.mark.parametrize("sizes", [(5,), (1, 2, 2), (2, 3), (1, 4),
                                   (1, 1, 3), (1, 1, 1, 2), (1, 1, 1, 1, 1)])
def test_fit_matches_oracle_on_subgroup_samples(sizes):
    """Member lists of the anchored classes of a few elements drawn from
    a random block-preserving subgroup of order at most 96."""
    blocks = _blocks_from_sizes(sizes)
    preserving = [g for g in full_group()
                  if anchored_frob_data(g, blocks) is not None]
    rng = random.Random(len(sizes))
    fits = 0
    while fits < 10:
        gens = [rng.choice(preserving) for _ in range(rng.randint(1, 2))]
        group = subgroup_closure(gens, cap=96)
        if group is None:
            continue
        picks = [rng.choice(group) for _ in range(rng.randint(2, 5))]
        member_lists = [anchored_class_members(anchored_frob_data(g, blocks),
                                               sizes) for g in picks]
        # the picks generate a subgroup of group meeting every class
        assert len(assert_same_fit(member_lists)) <= len(group)
        fits += 1


def test_bound_is_at_most_the_fitted_order(galois_fit_inputs):
    """The table's bound never exceeds the order of the group fitted, on
    the galois-fit inputs and the seeded quintics."""
    for coeffs in galois_fit_inputs + seeded_quintics(3, 10):
        member_lists = sampled_member_lists(coeffs)
        elems, _ = minimal_cover_subgroup(member_lists)
        assert cover_order_bound(member_lists) <= len(elems)


def test_bound_of_an_empty_list_is_none():
    assert cover_order_bound([[GroupElt.identity()], []]) is None
    assert minimal_cover_subgroup([[GroupElt.identity()], []]) == (None,
                                                                   None)


def test_oracle_closure_matches_subgroup_closure():
    rng = random.Random(16)
    grp = full_group()
    for _ in range(30):
        gens = [rng.choice(grp) for _ in range(rng.randint(1, 3))]
        for cap in (None, 96):
            oracle = bfs_closure(gens, cap)
            found = subgroup_closure(gens, cap)
            assert (oracle is None) == (found is None)
            if oracle is not None:
                assert set(oracle) == set(found)
