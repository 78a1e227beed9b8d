"""The lcm lattice of an ideal: elements, witnesses, complements.

Run with:  python3 demos/02_lcm_lattice.py
"""

from sqfbetti import (
    build_lattice,
    enumerate_complements,
    format_monomial,
    hasse_pairs,
    is_lattice_complement,
    parse_ideal_text,
)

I = parse_ideal_text("x y\ny z\nz u")
lat = build_lattice(I)

print("ideal: (x*y, y*z, z*u)")
print(f"lattice has {len(lat.elements)} elements "
      "(bottom 1 first, top last), each a join of generators:")
for m in lat.elements:
    gens = lat.witness[m.mask]
    label = format_monomial(m, I.vars)
    joined = " v ".join(format_monomial(I.gens[g], I.vars) for g in gens)
    print(f"  {label:8} = {joined if gens else 'empty join (the bottom)'}")

print()
print("cover relations (Hasse diagram edges):")
for lo, hi in hasse_pairs(lat):
    print(f"  {format_monomial(lat.elements[lo], I.vars)} < "
          f"{format_monomial(lat.elements[hi], I.vars)}")

print()
print("complements join to the top and meet outside the ideal:")
J = parse_ideal_text("x y\ny z\nx z\nz a\na b\nb c")
lat2 = build_lattice(J)
top = J.top()
print(f"in (xy, yz, xz, za, ab, bc), whose top is "
      f"{format_monomial(top, J.vars)}:")
for m in lat2.elements:
    partners = enumerate_complements(J, m)
    if partners:
        shown = ", ".join(format_monomial(p, J.vars) for p in partners[:3])
        more = "" if len(partners) <= 3 else f", ... ({len(partners)} total)"
        print(f"  {format_monomial(m, J.vars):12} ~ {shown}{more}")

m1 = lat2.elements[1]
m2 = enumerate_complements(J, m1)
if m2:
    ok = is_lattice_complement(J, m1, m2[0])
    print(f"checked: {format_monomial(m1, J.vars)} and "
          f"{format_monomial(m2[0], J.vars)} are complements: {ok}")
