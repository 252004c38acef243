"""The reflection ρ of (m|n) onto (n|m) as a metamorphic check.

ρ reads a weight right to left with v and ^ swapped and mirrors every arc
diagram left to right (``oracles.reflect_weight``, ``oracles.reflect_diagram``).
It maps the basis of K_m^n onto that of K_n^m, keeps degrees, and the surgery
product, the decomposition, Cartan and Kazhdan-Lusztig polynomials, the terms
of both resolutions, the Ext dimensions and the splitting's count of H-classes
per bidegree commute with it.  It needs no reference implementation, so it
reaches (3|3), where the dense references stop, and a rule that treats left
and right, or v and ^, unevenly breaks it.
"""

from collections import Counter

import pytest

from arckit import (
    basis,
    build_splitting,
    resolve_cone,
    resolve_generic,
    verify_resolution,
    weights_in_block,
)
from arckit.arcalg import basis_product
from arckit.extalg import ext_dims
from arckit.repmod import cartan_poly, decomposition_poly, kl_poly_closed
from oracles import reflect_diagram, reflect_weight

# the stacked pairs of each block; ρ carries them onto those of (n|m)
STACKED = {(2, 2): 413, (3, 2): 1179, (4, 2): 2221, (3, 3): 17641}


def _reflection(m, n) -> dict:
    """ρ on the basis of K_m^n, each image the ``basis`` object of K_n^m."""
    objects = {d: d for d in basis(n, m)}
    return {d: objects[reflect_diagram(d)] for d in basis(m, n)}


@pytest.mark.parametrize("m,n", list(STACKED))
def test_reflection_is_a_degree_preserving_bijection(m, n):
    rho = _reflection(m, n)
    assert len(set(rho.values())) == len(basis(n, m)) == len(rho)
    assert all(image.degree == d.degree for d, image in rho.items())
    assert all(reflect_diagram(image) == d for d, image in rho.items())
    assert all(reflect_weight(reflect_weight(w)) == w for w in weights_in_block(m, n))


@pytest.mark.parametrize("m,n", list(STACKED))
def test_products_commute_with_the_reflection(m, n):
    rho = _reflection(m, n)
    on_cup: dict = {}
    for d in basis(m, n):
        on_cup.setdefault((d.cup.cups, d.cup.rays), []).append(d)
    checked = 0
    for a in basis(m, n):
        for b in on_cup.get((a.cap.cups, a.cap.rays), ()):
            want = {rho[d]: c for d, c in basis_product(a, b)}
            assert basis_product(rho[a], rho[b]).terms == want
            checked += 1
    assert checked == STACKED[m, n]


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3)])
def test_ext_dims_commute_with_the_reflection(m, n):
    weights = weights_in_block(m, n)
    for lam in weights:
        for mu in weights:
            assert ext_dims(reflect_weight(lam), reflect_weight(mu)) == ext_dims(lam, mu)


# each block with its reflection: (3|2)↔(2|3), (4|2)↔(2|4), and (3|3) onto itself
REFLECTED = [(3, 2), (2, 3), (4, 2), (2, 4), (3, 3)]


@pytest.mark.parametrize("m,n", REFLECTED)
@pytest.mark.parametrize("poly", [kl_poly_closed, decomposition_poly, cartan_poly])
def test_polynomials_commute_with_the_reflection(m, n, poly):
    weights = weights_in_block(m, n)
    values = {(lam, mu): poly(lam, mu) for lam in weights for mu in weights}
    assert len(set(map(str, values.values()))) > 2  # not only 0 and 1
    for (lam, mu), p in values.items():
        assert poly(reflect_weight(lam), reflect_weight(mu)) == p


@pytest.mark.parametrize("m,n", REFLECTED)
@pytest.mark.parametrize("resolve", [resolve_cone, resolve_generic], ids=["cone", "generic"])
def test_resolutions_commute_with_the_reflection(m, n, resolve):
    # the image is verified where (n|m) is the block
    for lam in weights_in_block(m, n):
        c, image = resolve(lam), resolve(reflect_weight(lam))
        assert verify_resolution(c) == []
        want = [sorted((str(reflect_weight(w)), j) for w, j in comp) for comp in c.components]
        assert [sorted((str(w), j) for w, j in comp) for comp in image.components] == want


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2)])
def test_split_h_counts_commute_with_the_reflection(m, n):
    # the generic H is picked in index order and need not commute with ρ;
    # how many classes it has in each bidegree (k, j) must
    split, image = build_splitting(m, n, "generic"), build_splitting(n, m, "generic")
    weights = weights_in_block(m, n)
    for lam in weights:
        for mu in weights:
            counts = Counter((c.k, c.j) for c in split.h_classes(lam, mu))
            reflected = image.h_classes(reflect_weight(lam), reflect_weight(mu))
            assert Counter((c.k, c.j) for c in reflected) == counts
