"""The repr of one example of each result record, byte for byte."""

from sqfbetti import (
    SqfMonomial,
    betti_table,
    bouquet_orderings,
    bouquet_subadditivity,
    build_bouquet_set,
    build_lattice,
    facet_complex,
    is_bouquet,
    is_well_ordered_cover,
    reduced_homology_ranks,
    split_certificate,
    taylor_faces_below,
    top_degree_check,
    verify_subadditivity,
)


def test_record_reprs(path3, triangle_tail, three_brooms, three_brooms_table):
    I, table = three_brooms, three_brooms_table
    delta = facet_complex(I)

    def fid(text):
        return delta.facet_index(SqfMonomial.from_names(I.vars, list(text)))

    groups = [[fid(t) for t in g] for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))]
    check = is_bouquet(delta, groups[1])
    bset = build_bouquet_set(delta, groups)
    woc = is_well_ordered_cover(I, bouquet_orderings(bset))
    records = [
        (verify_subadditivity(I, table=table), "SubadditivityReport(pd=7, holds)"),
        (
            top_degree_check(I, 7, 2, 5, table=table),
            "TopDegreeCheck(t_2+t_5=4+8 >= r=10: True)",
        ),
        (top_degree_check(path3, 3, 1, 2), "TopDegreeCheck(i=3, inapplicable)"),
        (table, "BettiTable(pd=7, totals=(1, 9, 28, 44, 40, 22, 7, 1), field=QQ)"),
        (check, "BouquetCheck(ok=True)"),
        (
            is_bouquet(delta, [fid("ax"), fid("bz")]),
            "BouquetCheck(ok=False, reason='facets have empty common intersection')",
        ),
        (check.bouquet, "Bouquet(facets=[4, 5, 6])"),
        (bset, "BouquetSet([0, 1], [4, 5, 6], [7, 8]; reps=[0, 5, 7])"),
        (
            bouquet_subadditivity(bset, [0], table=table),
            "BouquetSubadditivity(t_7=10 <= t_2+t_5=4+8)",
        ),
        (woc, "WocCheck(ok=True)"),
        (
            is_well_ordered_cover(triangle_tail, [0, 1, 2]),
            "WocCheck(ok=False, reason='not a minimal cover')",
        ),
        (woc.woc, "WellOrderedCover(a*y, a*x, b*z, b*w, b*v, c*g, c*u)"),
        (
            split_certificate(I, woc.woc, 2),
            "SplitCertificate(a=2, m=a*x*y, m2=b*z*v*w*c*u*g, "
            "condition=induced_equals_prefix)",
        ),
        (
            reduced_homology_ranks(taylor_faces_below(triangle_tail, triangle_tail.top())),
            "ChainComplexRanks(h={2: 2}, field=QQ)",
        ),
    ]
    for record, text in records:
        assert repr(record) == text
        assert not hasattr(record, "__dict__"), text
    # the lattice keeps object's repr
    lattice = build_lattice(path3)
    assert repr(lattice).startswith("<sqfbetti.lattice.LcmLattice object at 0x")
    assert not hasattr(lattice, "__dict__")
