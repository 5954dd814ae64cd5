"""
Simplicial-set models, suspension, and the bar identity
=======================================================

The based simplicial-set model with a flag factors and b splitting factors
is an (a+b+1)-fold suspension of the corresponding building: its homology
is the building's homology shifted up by a+b+1.  The two-sided bar
construction on a model is, simplex by simplex, the model with one more
splitting factor.

Run:  python3 demos/05_suspension_and_bar_models.py
"""

from commonbasis import check_bar_model, check_suspension, d_model

# Degreewise sizes of the one-factor flag model: nondegenerate simplices
# are the strict full flags, so rank 3 over F_2 has 1 + 14 + 21 of them.
model = d_model(1, 0, 3, 2)
print("flag model of F_2^3:", {d: len(s) for d, s in model.simplices.items()})
print("its homology:", model.homology(), "(eight 3-spheres worth)")

# The suspension comparison across factor shapes: the model's homology is
# the building's, shifted by the number of factors plus one.
for a, b, n in [(1, 0, 2), (0, 1, 2), (2, 0, 2), (1, 1, 2), (0, 2, 2), (1, 0, 3)]:
    rep = check_suspension(a, b, n, 2)
    print(f"factors (a={a}, b={b}), n={n}:  building {rep.building_profile}  "
          f"model {rep.model_profile}  shift ok: {rep.ok}")

# The bar construction adds a splitting factor: nondegenerate bisimplices
# in each bidegree biject with the bigger model's simplices, and the face
# maps correspond.
rep = check_bar_model(1, 0, 2, 2)
print("\nbar bisimplices vs one extra splitting factor over F_2^2:")
for (internal, bar), (lhs, rhs) in sorted(rep.counts.items()):
    if lhs or rhs:
        print(f"  bidegree (internal {internal}, bar {bar}): {lhs} = {rhs}")
print("bijection and face correspondence verified:", rep.ok,
      f"({rep.faces_checked} faces checked)")
