"""The splitting hom^k = B ⊕ H ⊕ L of every pair: pinned answers, the
slow reference build, and the checks that guard a wrong splitting."""

import contextlib
import hashlib
import io

import pytest

import oracles
from arckit import ainfty, bruhat_leq, build_splitting, extalg, weights_in_block
from arckit.ainfty import Splitting
from arckit.cli import main
from arckit.exact import Echelon
from arckit.extalg import (
    ExtClass,
    _k_range,
    basis_hom_element,
    ext_basis,
    hom_differential,
    hom_space,
    resolution,
    shelton_dims,
)


def _pairs(m, n):
    weights = weights_in_block(m, n)
    return [(lam, mu) for lam in weights for mu in weights]


def _pair_record(lam, mu, pair) -> list:
    """Every k of one pair: b_count, the H coordinates and shifts, the
    L-preimages of the previous degree and the stored B and H rows of each
    inverse column."""
    return [
        (
            str(lam),
            str(mu),
            k,
            data.b_count,
            [(c.label, c.element.j, sorted(c.element.coords.items())) for c in data.h_classes],
            [sorted(vec.items()) for vec in data.l_prev],
            [sorted(column.items()) for column in data.inverse],
        )
        for k, data in sorted(pair.items())
    ]


def split_digest(split) -> str:
    digest = hashlib.sha256()
    for lam, mu in _pairs(*split.block):
        digest.update(repr(_pair_record(lam, mu, split._pair(lam, mu))).encode())
    return digest.hexdigest()


# sha256 of split_digest, recorded from the build that kept dense L vectors
# and the whole inverse: its L written sparsely and its inverse restricted
# to the B and H rows give these same digests
SPLIT_DIGESTS = {
    (3, 2, "canonical-n2"): "4ba7da3107a43a42547aa5a7f19905abb08f0efd348f9478d9d9c37e25f7c6d9",
    (3, 2, "generic"): "dd30bef689f775ac9a7e89cd4b1bf7dcc0ee4379d7c9c2b3703089141b7c01d3",
    (2, 3, "generic"): "8ffa928aeaa95f7f0fb346d06fce6a5e993cecda477a68f10ff98dc3d956ad72",
    (4, 2, "canonical-n2"): "f34a6bee1571194460264ab0273d01f9737d98f4646c82a3f1635a914cf82804",
    # these two, and the CI-only pin below, recorded from the build that
    # completed L by trying each unit vector in turn
    (3, 3, "generic"): "fda82f370b74823a609c4d96264680d51bc3aef6573d641de76cb4341c530365",
    (2, 4, "generic"): "b928a8f87483bc54efd0a02db1774e82f35ed5fd7527ca9150baca5a703e39df",
}

# split_digest pins the installed-script step of CI checks and tier-1 does
# not run: the (4|3) generic split takes several seconds
CI_ONLY_SPLIT_DIGESTS = {
    (4, 3, "generic"): "07056ebb0473020fd81eba88acb05aeed62f2a25b35810d62b0df97f9ce1f7e3",
}

# sha256 of the stdout of `arckit ainfty ... --format json`
CLI_DIGESTS = {
    ("-m", "3", "-n", "2", "--mode", "canonical", "--max-arity", "5"): (
        "ccee5990ce24512695cb0667f79a85547d05492307a97baa7d1e568fbdaf277b"
    ),
    ("-m", "2", "-n", "2", "--mode", "canonical", "--max-arity", "5"): (
        "e025c2ceeafae4dabcb2b5ee0f6744b4175c5b5f0020ae5e8ef6a07a773379f0"
    ),
    ("-m", "3", "-n", "2", "--mode", "generic", "--max-arity", "4"): (
        "de7eb20afa929d05f6db78810bdb1b05985c5099d2ecf27fe19db9e0b6234198"
    ),
    ("-m", "4", "-n", "2", "--mode", "canonical", "--max-arity", "5"): (
        "a9e502afdfc54674fd91de1b8a772abb03ce63dd82aca3e0fac2337987620b86"
    ),
    ("-m", "2", "-n", "3", "--max-arity", "5"): (
        "9f7c2b333b26a634150c5cfaf223a3c1e22bc172c0452b47d3edd44819fc4913"
    ),
}


class TestPinned:
    @pytest.mark.parametrize("m,n,mode", sorted(SPLIT_DIGESTS))
    def test_splitting_is_unchanged(self, m, n, mode, request):
        fixture = {"canonical-n2": "split_32_canonical", "generic": "split_32_generic"}
        if (m, n) == (3, 2):
            split = request.getfixturevalue(fixture[mode])
        else:
            split = build_splitting(m, n, mode)
        assert split_digest(split) == SPLIT_DIGESTS[(m, n, mode)]

    @pytest.mark.parametrize("args", sorted(CLI_DIGESTS))
    def test_ainfty_json_is_unchanged(self, args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["ainfty", *args, "--format", "json"]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CLI_DIGESTS[args]


class TestAgainstReference:
    @pytest.mark.parametrize(
        "m,n,mode",
        [
            (2, 2, "canonical-n2"),
            (2, 2, "generic"),
            (3, 1, "generic"),
            (3, 2, "canonical-n2"),
            (3, 2, "generic"),
            (2, 3, "generic"),
        ],
    )
    def test_every_pair_equals_the_reference_build(self, m, n, mode):
        split = build_splitting(m, n, mode)
        for lam, mu in _pairs(m, n):
            got = split._build_pair(lam, mu)
            want = oracles.build_pair(split, lam, mu)
            assert [data.space for data in got.values()] == [
                data.space for data in want.values()
            ]
            assert _pair_record(lam, mu, got) == _pair_record(lam, mu, want)

    def test_a_wrong_choice_of_h_differs_from_the_reference(self, monkeypatch):
        # the reference picks generic H from its own dense kernel basis, so
        # a build that walks the kernel basis backwards no longer matches it
        original = extalg.kernel_basis
        monkeypatch.setattr(extalg, "kernel_basis", lambda d: original(d)[::-1])
        split = Splitting(3, 2, "generic")
        assert any(
            _pair_record(lam, mu, split._pair(lam, mu))
            != _pair_record(lam, mu, oracles.build_pair(split, lam, mu))
            for lam, mu in _pairs(3, 2)
        )


def _coboundary_for_a_class(m, n):
    """A class (label, λ, μ) made by ``canonical_class`` (λ ≠ μ) and a
    nonzero coboundary of its degree."""
    for lam, mu in _pairs(m, n):
        for c in ext_basis(lam, mu) if lam != mu else []:
            for vector in hom_space(lam, mu, c.k - 1):
                image = hom_differential(basis_hom_element(lam, mu, c.k - 1, vector))
                if not image.is_zero():
                    return (c.label, lam, mu), image
    raise AssertionError("no class has a coboundary in its degree")


def _ext_degree(m, n, top: bool):
    """(λ, μ, k) with Ext^k ≠ 0 whose hom^{k+1} is empty (top) or not."""
    for lam, mu in _pairs(m, n):
        for k in shelton_dims(lam, mu):
            if top == (k + 1 not in _k_range(lam, mu) or not hom_space(lam, mu, k + 1)):
                return lam, mu, k
    raise AssertionError("no such degree")


def _without_cocycles(monkeypatch, lam, mu, k):
    """Make the generic choice of H see no cocycles in hom^k(λ, μ)."""
    matrix = oracles.differential_matrix(lam, mu, k)
    original = extalg.kernel_basis
    monkeypatch.setattr(
        extalg, "kernel_basis", lambda d: [] if d == matrix else original(d)
    )


class TestChecksFire:
    """Each check of the build rejects a splitting broken on purpose."""

    def test_h_representative_that_is_a_coboundary(self, monkeypatch):
        (label, lam, mu), coboundary = _coboundary_for_a_class(2, 2)
        original = extalg.canonical_class

        def patched(which, source, target):
            if (which, source, target) == (label, lam, mu):
                return ExtClass(label, lam, mu, coboundary)
            return original(which, source, target)

        monkeypatch.setattr(extalg, "canonical_class", patched)
        # the splitting and the public basis share one check
        with pytest.raises(ArithmeticError, match="dependent modulo coboundaries"):
            Splitting(2, 2, "canonical-n2")._pair(lam, mu)
        with pytest.raises(ArithmeticError, match="dependent modulo coboundaries"):
            ext_basis(lam, mu)

    def test_h_representative_that_is_no_cocycle(self, monkeypatch):
        # a class (λ ≠ μ) and a basis vector of its degree that d moves
        label, lam, mu, vector = next(
            (c.label, lam, mu, f)
            for lam, mu in _pairs(2, 2)
            for c in (ext_basis(lam, mu) if lam != mu else [])
            for f in (basis_hom_element(lam, mu, c.k, v) for v in hom_space(lam, mu, c.k))
            if not hom_differential(f).is_zero()
        )
        original = extalg.canonical_class

        def patched(which, source, target):
            if (which, source, target) == (label, lam, mu):
                return ExtClass(label, lam, mu, vector)
            return original(which, source, target)

        monkeypatch.setattr(extalg, "canonical_class", patched)
        with pytest.raises(ArithmeticError, match=f"canonical {label} .* not a cocycle"):
            Splitting(2, 2, "canonical-n2")._pair(lam, mu)
        with pytest.raises(ArithmeticError, match=f"canonical {label} .* not a cocycle"):
            ext_basis(lam, mu)

    def test_d_not_injective_on_l(self, monkeypatch):
        lam, mu, k = _ext_degree(2, 2, top=False)
        _without_cocycles(monkeypatch, lam, mu, k)
        with pytest.raises(ArithmeticError, match="not injective"):
            Splitting(2, 2, "generic")._pair(lam, mu)

    def test_l_left_over_below_an_empty_degree(self, monkeypatch):
        # d vanishes on the top degree, so no later degree sees this L
        lam, mu, k = _ext_degree(2, 2, top=True)
        _without_cocycles(monkeypatch, lam, mu, k)
        with pytest.raises(ArithmeticError, match="does not exhaust the cocycles"):
            Splitting(2, 2, "generic")._pair(lam, mu)

    @pytest.mark.parametrize("mode", ["generic", "canonical-n2"])
    def test_count_differs_from_the_recursion(self, monkeypatch, mode):
        lam, mu, k = _ext_degree(2, 2, top=False)
        original = extalg.shelton_dims

        def patched(source, target):
            dims = original(source, target)
            if (source, target) == (lam, mu):
                dims = {**dims, k: dims[k] + 1}
            return dims

        monkeypatch.setattr(extalg, "shelton_dims", patched)
        with pytest.raises(ArithmeticError, match="disagree with the recursion"):
            Splitting(2, 2, mode)._pair(lam, mu)

    def test_homotopy_seed_inside_the_cocycles(self, monkeypatch):
        lam, mu = next(
            (lam, mu)
            for lam, mu in _pairs(2, 2)
            if lam != mu and extalg.homotopy_seeds(lam, mu)
        )
        c = ext_basis(lam, mu)[0]
        monkeypatch.setattr(
            ainfty, "homotopy_seeds", lambda source, target: {c.k: [c.element]}
        )
        with pytest.raises(ArithmeticError, match="lies in the cocycles"):
            Splitting(2, 2, "canonical-n2")._pair(lam, mu)


class TestOnePass:
    """The build eliminates each hom^k once: the tagged pass, plus the
    kernel of d_k in generic mode.  Only the homotopy seeds enter that pass
    untagged: L's unit vectors are read off its pivots, not tried."""

    def _eliminations(self, monkeypatch, m, n, mode) -> int:
        for lam in weights_in_block(m, n):
            resolution(lam)  # resolutions eliminate too; build them first
        original = Echelon.of_rows
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(Echelon, "of_rows", staticmethod(counted))
        split = Splitting(m, n, mode)
        for lam, mu in _pairs(m, n):
            split._pair(lam, mu)
        return len(calls)

    def test_canonical_build(self, monkeypatch):
        assert self._eliminations(monkeypatch, 3, 2, "canonical-n2") == 0
        # d_k is built once, and only where a labelled class of degree k or
        # a nonempty L_k (for the next degree's B) reads it, at the columns
        # they read
        built, columns, original = [], [], extalg._d_columns

        def counted(lam, mu, k, cols):
            built.append((lam, mu, k))
            columns.append(len(cols))
            return original(lam, mu, k, cols)

        monkeypatch.setattr(extalg, "_d_columns", counted)
        split = Splitting(3, 2, "canonical-n2")
        split.all_h_classes()
        read = {
            (lam, mu, k)
            for (lam, mu), pair in split._pairs.items()
            for k, data in pair.items()
            if data.h_classes or (k + 1 in pair and pair[k + 1].l_prev)
        }
        assert len(built) == len(set(built))
        assert set(built) == read
        # 206 degrees with a nonempty L_k or a class other than Id, and the
        # one d_0 that only the identity's cocycle check reads (L_0 empty)
        assert len(built) <= 207
        # the supports of those classes and of L_k: 829 of the 1,460
        # columns of the d_k built
        assert sum(columns) == 829

    def test_generic_build(self, monkeypatch):
        nonempty = sum(
            1
            for lam, mu in _pairs(2, 2)
            for k in _k_range(lam, mu)
            if hom_space(lam, mu, k)
        )
        assert self._eliminations(monkeypatch, 2, 2, "generic") == nonempty

    @pytest.mark.parametrize("mode,seeds", [("generic", 0), ("canonical-n2", 26)])
    def test_only_seeds_enter_untagged(self, monkeypatch, mode, seeds):
        split = Splitting(3, 2, mode)
        if mode == "canonical-n2":
            assert seeds == sum(
                len(vectors)
                for lam, mu in _pairs(3, 2)
                for vectors in extalg.homotopy_seeds(lam, mu).values()
            )
        where, calls, original = ["outside"], [], Echelon.add

        def within(name, function):
            def run(*args):
                where.append(name)
                try:
                    return function(*args)
                finally:
                    where.pop()

            return run

        def counted(span, vec):
            calls.append(where[-1])
            return original(span, vec)

        monkeypatch.setattr(ainfty, "_split_pair", within("split", ainfty._split_pair))
        # kernel_basis's own elimination is not part of the split's pass
        monkeypatch.setattr(Echelon, "of_rows", staticmethod(within("kernel", Echelon.of_rows)))
        monkeypatch.setattr(Echelon, "add", counted)
        for lam, mu in _pairs(3, 2):
            split._pair(lam, mu)
        assert calls.count("split") == seeds


class TestOnlyPairsAChainReaches:
    """Ext(M(λ), M(μ)) = 0 unless λ ≤ μ, so the classes are found without
    splitting the other pairs; Π, Q and verify still split them on demand."""

    def test_all_h_classes_splits_the_pairs_with_lambda_below_mu(self):
        split = Splitting(3, 2, "canonical-n2")
        split.all_h_classes()
        leq = {(lam, mu) for lam, mu in _pairs(3, 2) if bruhat_leq(lam, mu)}
        assert len(leq) == 50
        assert set(split._pairs) == leq

    @pytest.mark.parametrize(
        "m,n,mode", [(3, 2, "canonical-n2"), (3, 2, "generic"), (2, 3, "generic")]
    )
    def test_other_pairs_have_no_classes_and_split_on_demand(self, m, n, mode):
        split = Splitting(m, n, mode)
        others = [(lam, mu) for lam, mu in _pairs(m, n) if not bruhat_leq(lam, mu)]
        assert others
        for lam, mu in others:
            assert split.h_classes(lam, mu) == []
            assert (lam, mu) not in split._pairs
            split.verify(lam, mu)
            assert all(not data.h_classes for data in split._pair(lam, mu).values())
        assert split._classes == []

    def test_weights_of_another_block_are_rejected(self):
        split = Splitting(3, 2, "generic")
        other, own = weights_in_block(2, 3)[0], weights_in_block(3, 2)[0]
        for lam, mu in [(other, other), (other, own), (own, other)]:
            with pytest.raises(ValueError, match="outside the block"):
                split.h_classes(lam, mu)
        assert split._pairs == {}
