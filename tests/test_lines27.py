import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cubicdescent.linalg import Matrix, inverse
from cubicdescent.lines27 import (EVEN_VECTORS, LABEL_INDEX, LABELS,
                                  N_LINES, PIC_VECTORS, GroupElt,
                                  act_on_27, anchored_class_members,
                                  anchored_frob_data, anticanonical_check,
                                  class_members, class_representative,
                                  full_group, intersection_matrix,
                                  minimal_cover_subgroup, orbits,
                                  pic_trace_of_class, subgroup_closure)

#: seven line classes that span Pic x Q
SPAN_LABELS = (("L0",)
               + tuple(eps for eps in EVEN_VECTORS if eps.count(-1) == 4)
               + ((1, 1, 1, 1, 1),))


def span_images(perm: tuple) -> Matrix:
    """The matrix whose columns are the images of the spanning classes."""
    return Matrix(7, 7, [Fraction(PIC_VECTORS[perm[LABEL_INDEX[lab]]][i])
                         for i in range(7) for lab in SPAN_LABELS])


def pic_matrix_of(perm: tuple) -> Matrix:
    """Oracle: the linear map induced on Pic x Q by a permutation of the
    27 lines, solved from seven spanning line classes."""
    return span_images(perm) @ inverse(span_images(tuple(range(N_LINES))))


def test_label_counts():
    assert len(LABELS) == 27
    assert len(EVEN_VECTORS) == 16
    assert anticanonical_check()


def test_group_order_1920():
    grp = full_group()
    assert len(grp) == 1920
    # closed under multiplication on a sample
    rng = random.Random(1)
    elems = set(grp)
    for _ in range(100):
        g = grp[rng.randrange(1920)]
        h = grp[rng.randrange(1920)]
        assert g * h in elems
        assert g.inv() * g == GroupElt.identity()


def test_intersection_structure():
    im = intersection_matrix()
    assert all(im[k][k] == -1 for k in range(27))
    # L0 = label 0 meets exactly the ten pair lines
    meets = [k for k in range(1, 27) if im[0][k] == 1]
    assert len(meets) == 10
    assert all(1 <= k <= 10 for k in meets)
    assert all(sum(1 for j in range(27) if j != k and im[k][j] == 1) == 10
               for k in range(27))


def test_action_preserves_pairing_full_group():
    im = intersection_matrix()
    for g in full_group():
        p = act_on_27(g)
        for a in range(27):
            row, prow = im[a], im[p[a]]
            for b in range(a, 27):
                assert row[b] == prow[p[b]]


def test_action_is_homomorphism():
    grp = full_group()
    rng = random.Random(6)
    for _ in range(60):
        g, h = grp[rng.randrange(1920)], grp[rng.randrange(1920)]
        pg, ph, pgh = act_on_27(g), act_on_27(h), act_on_27(g * h)
        assert all(pgh[k] == pg[ph[k]] for k in range(27))


def test_identity_fixes_everything():
    assert act_on_27(GroupElt.identity()) == tuple(range(27))
    assert orbits([GroupElt.identity()]) == [1] * 27


def test_full_group_orbits():
    gens = [GroupElt((1, 1, 1, 1, 1), (1, 0, 2, 3, 4)),
            GroupElt((1, 1, 1, 1, 1), (1, 2, 3, 4, 0)),
            GroupElt((-1, -1, 1, 1, 1), (0, 1, 2, 3, 4))]
    assert len(subgroup_closure(gens)) == 1920
    assert orbits(gens) == [1, 10, 16]


def test_frob_class_and_representative():
    g = GroupElt((-1, 1, -1, 1, 1), (1, 0, 2, 4, 3))
    cls = g.frob_class()
    assert sum(d for d, _ in cls) == 5
    rep = class_representative(cls)
    assert rep.frob_class() == cls
    # class membership is conjugation-invariant on samples
    grp = full_group()
    rng = random.Random(2)
    for _ in range(30):
        h = grp[rng.randrange(1920)]
        assert (h * g * h.inv()).frob_class() == cls


def test_class_members_and_trace():
    ident_cls = GroupElt.identity().frob_class()
    assert class_members(ident_cls) == [GroupElt.identity()]
    assert pic_trace_of_class(ident_cls) == 7
    # every class's trace is the trace of the full Picard matrix of its
    # first member in full_group(), and of a sample of further members
    first = {}
    for g in full_group():
        first.setdefault(g.frob_class(), g)
    assert len(first) == 18
    for cls, g in first.items():
        assert pic_matrix_of(act_on_27(g)).trace() == pic_trace_of_class(cls)
    rng = random.Random(4)
    for g in rng.sample(full_group(), 60):
        assert pic_matrix_of(act_on_27(g)).trace() \
            == pic_trace_of_class(g.frob_class())


def test_anchored_data():
    blocks = ((0,), (1, 2), (3, 4))
    g = GroupElt((-1, 1, -1, 1, 1), (0, 2, 1, 3, 4))
    data = anchored_frob_data(g, blocks)
    assert data == (((1, -1),), ((2, -1),), ((1, 1), (1, 1)))
    # sigma not preserving the blocks yields None
    h = GroupElt((1, 1, 1, 1, 1), (1, 0, 2, 3, 4))
    assert anchored_frob_data(h, ((0,), (1, 2), (3, 4))) is None
    members = anchored_class_members(data, (1, 2, 2))
    assert members and all(anchored_frob_data(m, blocks) == data for m in members)


def test_minimal_cover_identity_only():
    elems, chosen = minimal_cover_subgroup([GroupElt.identity().frob_class()])
    assert len(elems) == 1 and chosen == [GroupElt.identity()]


# ---------------------------------------------------------------------------
# index-backed elements and the product tables


def tuple_product(g, h):
    """Oracle: (t, s) * (t', s') from the tuples, applying h first; the
    sign at s(k) is t[s(k)] * t'[k]."""
    s, t = g.sigma, g.t
    prod = [0] * 5
    for k, x in enumerate(h.t):
        prod[s[k]] = t[s[k]] * x
    return tuple(prod), tuple(s[i] for i in h.sigma)


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_full_group_indices():
    grp = full_group()
    assert all(g.index == k for k, g in enumerate(grp))
    assert GroupElt.identity().index == 0
    # a constructed element equals its interned copy
    g = GroupElt((-1, 1, -1, 1, 1), (1, 0, 2, 4, 3))
    h = grp[g.index]
    assert (h.t, h.sigma) == (g.t, g.sigma)
    assert g == h and hash(g) == hash(h)


def test_table_products_match_tuple_formula():
    grp = full_group()
    rng = random.Random(10)
    for g in (grp[rng.randrange(1920)] for _ in range(200)):
        for h in grp:
            gh = g * h
            assert (gh.t, gh.sigma) == tuple_product(g, h)
            assert gh is grp[gh.index]


def test_inverse_both_sides():
    one = GroupElt.identity()
    for g in full_group():
        assert g * g.inv() == one and g.inv() * g == one


def test_anchored_class_members_match_scan():
    grp = full_group()
    comps = list(compositions(5))
    assert len(comps) == 16
    for sizes in comps:
        blocks = []
        pos = 0
        for n in sizes:
            blocks.append(tuple(range(pos, pos + n)))
            pos += n
        data = [anchored_frob_data(g, blocks) for g in grp]
        for datum in set(data) - {None}:
            scan = [g for g, d in zip(grp, data) if d == datum]
            assert anchored_class_members(datum, sizes) == scan
    for cls in {g.frob_class() for g in grp}:
        assert class_members(cls) == [g for g in grp if g.frob_class() == cls]


def test_anchored_class_members_is_a_fresh_list():
    cls = GroupElt.identity().frob_class()
    first = anchored_class_members((cls,), (5,))
    first.append(full_group()[5])
    first.clear()
    assert anchored_class_members((cls,), (5,)) == [GroupElt.identity()]


def test_import_builds_no_table():
    """The product tables, the group, the per-element 27-line permutations
    and plain-class bits, the per-ell tables of the residue sieve and the
    table of subgroup classes are built or loaded on first use: importing
    the library leaves every cache empty and the table module unread."""
    code = ("import sys\n"
            "import cubicdescent.frobenius\n"
            "from cubicdescent import lines27 as m, pointsearch as s\n"
            "print(m.full_group.cache_info().currsize,"
            " m._tables.cache_info().currsize,"
            " m._anchored_index.cache_info().currsize,"
            " m._perm27.cache_info().currsize,"
            " m._class_bit.cache_info().currsize,"
            " m._subgroup_table.cache_info().currsize,"
            " s._ell_tables.cache_info().currsize,"
            " 'cubicdescent.subgroup_table' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["0"] * 7 + ["False"]
