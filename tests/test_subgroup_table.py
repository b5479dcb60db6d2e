"""The shipped table of the conjugacy classes of subgroups of W(D5)
against its generator, tests/subgroup_classes.py, and against the group:
each row's generators close to its order and meet exactly its mask, the
orders are distributed as in W(D5), and no two rows are conjugate."""

from collections import Counter

import numpy as np

from cubicdescent import subgroup_table
from cubicdescent.lines27 import full_group

import subgroup_classes as gen

#: number of conjugacy classes of subgroups of W(D5) of each order
ORDER_COUNTS = {1: 1, 2: 5, 3: 1, 4: 20, 5: 1, 6: 7, 8: 37, 10: 1, 12: 13,
                16: 33, 20: 1, 24: 18, 32: 17, 48: 14, 60: 1, 64: 7, 80: 1,
                96: 8, 120: 1, 128: 1, 160: 1, 192: 4, 320: 1, 384: 1,
                960: 1, 1920: 1}


def test_generator_rewrites_the_shipped_table():
    text = gen.render(*gen.enumerate_classes())
    assert text == gen.MODULE.read_text(), \
        f"the table is stale; rewrite it with: {gen.COMMAND}"


def test_rows_close_to_their_order_and_meet_their_mask():
    assert len(subgroup_table.ELEMENT_CLASSES) == 18
    position = {c: i for i, c in enumerate(subgroup_table.ELEMENT_CLASSES)}
    grp = full_group()
    for order, gens, mask in subgroup_table.SUBGROUP_CLASSES:
        elems = gen.closure(gens)
        assert len(elems) == order
        met = {position[grp[k].frob_class()] for k in elems}
        assert mask == sum(1 << i for i in met)


def test_order_distribution():
    orders = [row[0] for row in subgroup_table.SUBGROUP_CLASSES]
    assert orders == sorted(orders)
    assert Counter(orders) == ORDER_COUNTS
    assert sum(ORDER_COUNTS.values()) == 197


def test_no_two_rows_are_conjugate():
    _, conj, _, _ = gen.group_tables()
    rows = subgroup_table.SUBGROUP_CLASSES
    members = []
    for _, gens, _ in rows:
        member = np.zeros(1920, dtype=bool)
        member[list(gen.closure(gens))] = True
        members.append(member)
    for i, (order, gens, _) in enumerate(rows):
        for j in range(i):
            if rows[j][0] == order:
                assert not gen.is_conjugate(conj, gens, members[j])
