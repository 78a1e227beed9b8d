"""Exact Betti tables from Taylor-subcomplex homology.

Each multigraded Betti number beta_{i,m} is the reduced homology rank,
in degree i-2, of the subcomplex of the Taylor simplex on faces whose
lcm strictly divides m.  Only lcm-lattice multidegrees can be nonzero,
so one homology computation per lattice element fills the whole table.

Run with:  python3 demos/03_betti_tables.py
"""

from sqfbetti import (
    GF_32003,
    betti_table,
    build_lattice,
    format_betti_m2,
    format_monomial,
    multigraded_betti,
    parse_ideal_text,
    reduced_homology_ranks,
    taylor_faces_below,
)

I = parse_ideal_text("x y\ny z\nx z\nz a\na b\nb c")
print("ideal: (xy, yz, xz, za, ab, bc)")
print()

table = betti_table(I)
print("graded Betti table (rows are j - i):")
print(format_betti_m2(table))
print()
print(f"projective dimension: {table.pd}")
print(f"maximal degrees t_i:  {table.t}")
print(f"column totals:        {table.totals()}")

print()
print("== one entry, by hand ==")
lat = build_lattice(I)
m = lat.top()
layers = taylor_faces_below(I, m)  # layers[k]: the k-generator faces
ranks = reduced_homology_ranks(layers)
print(f"for m = {format_monomial(m, I.vars)} the strict-divisor subcomplex "
      f"has face counts {dict(sorted(ranks.face_counts.items()))}")
print(f"homology ranks: { {d: v for d, v in ranks.homology_ranks.items() if v} }")
i = 4
print(f"so beta_({i},{format_monomial(m, I.vars)}) = h_{i - 2} "
      f"= {multigraded_betti(I, i, m)}")

print()
print("== the multigraded layer under the graded table ==")
j = 4
entries = [(i2, m2) for (i2, m2), v in table.multigraded.items()
           if m2.degree == j]
entries.sort()
for i2, m2 in entries:
    v = table.multigraded[(i2, m2)]
    print(f"  beta_({i2}, {format_monomial(m2, I.vars)}) = {v}")
print(f"summing the degree-{j} column: "
      f"{ {i2: table.graded.get((i2, j)) for i2 in (2, 3)} }")

print()
print("== field independence here ==")
table_p = betti_table(I, field=GF_32003)
print("over GF(32003) the table is identical:",
      table_p.graded == table.graded)
