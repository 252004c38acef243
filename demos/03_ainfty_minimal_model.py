"""The A-infinity minimal model on the Ext algebra: building a splitting,
watching the higher products vanish on one-cap blocks, and finding the
genuinely nonzero m_3 on a two-cap block.

Run with:  python3 demos/03_ainfty_minimal_model.py   (about a second)
"""

from arckit import build_splitting, lambda_n, m_n, stasheff_check, vanishing_report
from arckit.ainfty import composable_tuples

print("=== One-cap blocks are formal ===\n")
split = build_splitting(3, 1, "generic")
report = vanishing_report(split, 6)
print("Block (3|1), generic homotopy, arities 3..6:")
for arity in range(3, 7):
    nz = report["per_arity"][arity]["nonzero_tuples"]
    print(f"  m_{arity}: {len(nz)} nonzero tuples")
print(f"Q applied to every basis product is zero: {report['q_lambda2_zero']}")

print("\n=== Two-cap blocks have a nonzero m_3 and nothing above ===\n")
split = build_splitting(2, 2, "canonical-n2")
report = vanishing_report(split, 5)
print("Block (2|2), canonical homotopy:")
print(f"  Q(lambda_3) identically zero:        {report['q_lambda3_zero']}")
print(f"  Q(lambda_2).Q(lambda_2) identically: {report['q_lambda2_products_zero']}")
for arity in (3, 4, 5):
    nz = report["per_arity"][arity]["nonzero_tuples"]
    print(f"  m_{arity}: {len(nz)} nonzero tuples"
          + (f" (max |coefficient| = {report['per_arity'][arity]['max_abs_coefficient']})"
             if nz else ""))

print("\nA sample nonzero m_3, decomposed over the labelled Ext basis:")
classes = split.all_h_classes()
for chain in composable_tuples(classes, 3):
    coeffs = split.pi_coefficients(lambda_n(split, chain))
    if coeffs:
        labels = " , ".join(c.label for c in chain)
        ((label, k, _, _), value), = coeffs.items()
        print(f"  m_3({labels}) = {value} * {label} in Ext^{k}")
        break

print("\n=== Stasheff identities ===\n")
check = stasheff_check(split, 5)
print(f"Identities checked to arity 5: {check['checked']} instances,")
print(f"violations: {len(check['violations'])}")
