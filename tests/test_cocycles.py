"""Cocycle construction, verification, the omega-tilde kernel, and its laws."""

from __future__ import annotations

import dataclasses
import math
import os
import random
from itertools import product, repeat
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind.cyclotomic import CyclotomicInteger, divisors, gauss_sum_closed, root
from fsind.cocycles import (
    CocycleError,
    ThreeCocycle,
    VerificationReport,
    c_omega,
    cocycle_from_file,
    conjugate_cocycle,
    omega_tilde,
    omega_tilde_root,
    parse_cocycle_spec,
    product_cocycle,
    psi,
    psi_on,
    restrict,
    trivial_cocycle,
    verify_cocycle,
)
from fsind.groups import (
    FiniteGroup,
    group_from_table_file,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
    trivial_pair,
)
from fsind.extensions import (
    FAMILIES,
    ExtensionData,
    family_hn3,
    omega_from_extension,
    parse_family_spec,
    split_family_spec,
)


def family_cocycles_upto(order_bound):
    """A spread of built-in family cocycles on groups up to the given order."""
    specs = [
        "h2n2:2:1", "h2n2:3:1", "h2n2:4:2",
        "hn3:3:1:1", "hn3:3:2:1",
        "suzuki:1:2:1:1", "suzuki:1:3:-1:-1", "suzuki:3:2:1:-1",
        "suzukiP:2:2:1", "suzukiP:2:3:-1",
    ]
    out = []
    for spec in specs:
        cat = parse_family_spec(spec)
        if cat.group.order <= order_bound:
            out.append((spec, cat))
    return out


def coboundary(w, g, h, k, l):
    """(delta omega)(g, h, k, l) as an exponent, not reduced."""
    f, mul = w.exp_fn, w.group.mul
    return f(h, k, l) - f(mul(g, h), k, l) + f(g, mul(h, k), l) - f(g, h, mul(k, l)) + f(g, h, k)


def assert_checks_agree(w, label):
    """The generator check gives the full check's verdict, and a violation it
    reports is one."""
    report = verify_cocycle(w)
    assert report.ok == verify_cocycle(w, mode="full").ok, (label, str(report))
    if report.failure and report.failure[0] == "cocycle identity":
        s, h, k, l = report.failure[1]
        assert s in w.group.generators()
        assert coboundary(w, s, h, k, l) % w.value_order, (label, str(report))


def _shifted(w, pos, d, block=1):
    """w with the value at pos times exp(2*pi*i*d/M), 0 < d < M; a cocycle
    with value order 1 is first written with M = 2.  With block b > 1 the
    value moves at every (g, h, k) with (g % b, h, k // b) that of pos, so
    that the result still reads g and k through b alone, and claims b."""
    m = max(w.value_order, 2)
    scale = m // w.value_order
    f = w.exp_fn

    def key(g, h, k):
        return (g % block, h, k // block) if block > 1 else (g, h, k)

    at = key(*pos)
    return ThreeCocycle(
        w.group, m, lambda g, h, k: scale * f(g, h, k) + (d if key(g, h, k) == at else 0),
        label=f"{w.label}+{d}@{pos}", block=block,
    )


def _scalar_generator_check(cocycle):
    """verify_cocycle(cocycle) in mode "auto", decided one quadruple at a time
    and calling exp_fn for each value it reads: the oracle for the lanes."""
    grp, f, m, blk = cocycle.group, cocycle.exp_fn, cocycle.value_order, cocycle.block
    n, mul = grp.order, grp.mul
    reps = range(0, n, blk)  # one l per block
    for g in range(n):
        at_1g = [f(0, g, r) % m for r in reps]
        at_g1 = [f(g, 0, r) % m for r in reps]
        for h in range(n):
            if at_1g[h // blk] or at_g1[h // blk] or f(g, h, 0) % m:
                return VerificationReport(False, g * n + h + 1, ("normalization", (g, h)))
    # at_kl[k](row) = row[block of k*l], one entry per block of l
    at_kl = [itemgetter(*[mul(k, r) // blk for r in reps]) if n > blk else list for k in range(n)]

    def slice_of(h):  # f(h, k, l) for every k and one l per block
        return [[f(h, k, r) for r in reps] for k in range(n)]

    checked = 0
    for s in grp.generators():
        w, seen = slice_of(s), [False] * n
        for h in range(n):
            if seen[h]:
                continue
            here = first = slice_of(h)
            while not seen[h]:  # walk the orbit h -> s*h
                seen[h] = True
                sh = mul(s, h)
                there = first if seen[sh] else slice_of(sh)
                for k in range(n):
                    e = w[h][k // blk]
                    terms = zip(here[k], there[k], w[mul(h, k)], at_kl[k](w[h]))
                    for j, (a, b, c, d) in enumerate(terms):
                        if (a - b + c - d + e) % m:
                            where = ("cocycle identity", (s, h, k, j * blk))
                            return VerificationReport(False, checked + j * blk + 1, where)
                    checked += n
                h, here = sh, there
    return VerificationReport(True, checked)


def _oracle_cocycles():
    """(label, cocycle) pairs on small groups for the generator-check oracle."""
    z2, z4 = make_cyclic(2), make_cyclic(4)
    q8 = group_from_table_file(os.path.join(os.path.dirname(__file__), "..", "data", "q8.txt"))
    out = [(f"psi({n},{r})", psi_on(make_cyclic(n), r)) for n in range(1, 13) for r in range(n)]
    groups = [
        make_dihedral(8), make_dihedral(12), parse_group_spec("product:cyclic:2,cyclic:4"), q8
    ]
    out += [(f"trivial on {grp.label}", trivial_cocycle(grp)) for grp in groups]
    out += [
        (f"psi(2,{a}) x psi(4,{b})", product_cocycle(psi_on(z2, a), psi_on(z4, b)))
        for a in range(2) for b in range(4)
    ]
    for fam in FAMILIES.values():
        for params in fam.grid:
            cat = fam.build(*params)
            if cat.group.order <= 24:
                spec = fam.spec(params)
                out += [(spec, cat.omega), (f"trivial on {spec}", trivial_cocycle(cat.group))]
    return out


ORACLE_COCYCLES = _oracle_cocycles()


class TestPsi:
    def test_values(self):
        w = psi(4, 1)
        assert w.value_order == 16
        # exponent r * j * (k + l - (k+l mod n)) with representatives in 0..n-1
        assert w.exponent(1, 3, 3) == 1 * (3 + 3 - 2)
        assert w.exponent(2, 2, 2) == 2 * (2 + 2 - 0)
        assert w.exponent(0, 3, 3) == 0
        # the same exponents on every triple, through psi or the psi:r spec
        for big_n, r in ((6, 1), (8, 3), (9, 2)):
            nn = big_n * big_n
            for w in (psi(big_n, r), parse_cocycle_spec(f"psi:{r}", make_cyclic(big_n))):
                assert w.value_order == nn
                for j, k, l in product(range(big_n), repeat=3):
                    want = r * j * (k + l - (k + l) % big_n) % nn
                    assert w.exponent(j, k, l) == want, (big_n, r, j, k, l)

    def test_psi_spec_builds_no_second_group(self, monkeypatch):
        # psi:r on a group already built tabulates no other group
        built = []
        init = FiniteGroup.__init__

        def counting_init(self, order, *args, **kwargs):
            built.append(order)
            init(self, order, *args, **kwargs)

        monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
        for spec in ("cyclic:400", "product:cyclic:2,cyclic:3"):
            grp = parse_group_spec(spec)
            built.clear()
            parse_cocycle_spec("psi:1", grp)
            assert built == [], spec

    def test_verified_for_all_small_parameters(self):
        for n in range(1, 9):
            for r in range(n):
                assert verify_cocycle(psi(n, r), mode="full").ok
        # a cyclic group whose generator is not 1: psi read through a discrete log
        z6 = parse_group_spec("product:cyclic:2,cyclic:3")
        for r in range(6):
            assert verify_cocycle(psi_on(z6, r), mode="full").ok

    def test_trivial_power(self):
        # psi^n is a coboundary-level statement we can't see, but psi^0 is 1
        w = psi(5, 0)
        assert all(
            w.exponent(g, h, k) == 0
            for g in range(5) for h in range(5) for k in range(5)
        )


class TestVerification:
    def test_trivial_ok(self):
        assert verify_cocycle(trivial_cocycle(make_dihedral(8)), mode="full").ok

    def test_perturbed_cocycle_fails(self):
        base = psi(4, 1)

        def bad(g, h, k):
            if (g, h, k) == (1, 2, 3):
                return base.exp_fn(g, h, k) + 1
            return base.exp_fn(g, h, k)

        broken = ThreeCocycle(base.group, base.value_order, bad)
        report = verify_cocycle(broken, mode="full")
        assert not report.ok
        assert report.failure[0] == "cocycle identity"

    def test_non_normalized_fails(self):
        grp = make_cyclic(3)
        for mode in ("auto", "full"):
            report = verify_cocycle(ThreeCocycle(grp, 3, lambda g, h, k: 1), mode=mode)
            assert not report.ok and report.failure[0] == "normalization"

    @pytest.mark.parametrize("make, where, checked", [
        (lambda: ThreeCocycle(make_cyclic(27), 27, lambda g, h, k: 1), (0, 0), 1),
        (lambda: _bumped_hn3(False, (0, 5, 0)), (0, 5), 6),
        (lambda: _bumped_hn3(True, (8, 0, 1)), (8, 9), 226),
    ], ids=["z27", "hn3-tau", "hn3-sigma"])
    def test_normalization_failure_counts_the_pairs_decided(self, make, where, checked):
        # the pairs (g, h) are decided in order, so failing at (g, h) decides
        # g * n + h + 1 of them, whichever mode or block reads them
        w = make()
        for report in (
            verify_cocycle(w),
            verify_cocycle(w, mode="full"),
            verify_cocycle(dataclasses.replace(w, block=1)),
        ):
            assert (report.ok, report.checked, report.failure) == (
                False, checked, ("normalization", where)
            )

    def test_generator_check_on_psi(self):
        # Z_12 has one generator, so the check covers 12^3 quadruples
        report = verify_cocycle(psi(12, 5))
        assert report.ok and report.checked == 12**3

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="sampled"):
            verify_cocycle(psi(4, 1), mode="sampled")

    def test_families_are_cocycles(self):
        for spec, cat in family_cocycles_upto(60):
            assert verify_cocycle(cat.omega, mode="full").ok, spec

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_generator_check_matches_full_check(self, data):
        label, w = data.draw(st.sampled_from(ORACLE_COCYCLES))
        n = w.group.order
        if n > 1 and data.draw(st.booleans()):
            pos = data.draw(st.tuples(*[st.integers(1, n - 1)] * 3))
            w = _shifted(w, pos, data.draw(st.integers(1, max(w.value_order, 2) - 1)))
        assert_checks_agree(w, label)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 3), st.integers(2, 6), st.data())
    def test_generator_check_matches_full_check_on_pullbacks(self, na, nb, m, data):
        # a normalized cochain on Z_na pulled back to Z_na x Z_nb: D vanishes
        # at the generator (0, 1), so only (1, 0) can expose a non-cocycle
        size = (na - 1) ** 3
        values = data.draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))

        def exp_fn(g, h, k):
            return values[((g - 1) * (na - 1) + h - 1) * (na - 1) + k - 1] if g and h and k else 0

        base = ThreeCocycle(make_cyclic(na), m, exp_fn)
        w = product_cocycle(base, trivial_cocycle(make_cyclic(nb)))
        assert w.group.generators() == (1, nb)
        assert_checks_agree(w, (na, nb, m, values))


# every h2n2, hn3 and suzukiP grid category up to order 72, and one suzuki
EXTENSION_GRID = [
    (FAMILIES[kind].spec(params), cat)
    for kind in ("h2n2", "hn3", "suzukiP")
    for params in FAMILIES[kind].grid
    for cat in [FAMILIES[kind].build(*params)]
    if cat.group.order <= 72
] + [("suzuki:3:2:-1:1", parse_family_spec("suzuki:3:2:-1:1"))]


def _bumped_extension_data(data, draw):
    """The (sigma, tau) of `data` with one entry of one of them moved."""
    nf, ng, m = data.pair.F.order, data.pair.G.order, data.value_order
    shift = draw(st.integers(1, m - 1))
    bump_sigma = draw(st.booleans())  # sigma(g; x, y), else tau(g, h; x)
    sizes = (ng, nf, nf) if bump_sigma else (ng, ng, nf)
    at = draw(st.tuples(*(st.integers(0, size - 1) for size in sizes)))
    return _bumped(data, bump_sigma, at, shift)


def _bumped(data, bump_sigma, at, shift):
    """The (sigma, tau) of `data` with sigma(at), else tau(at), moved by shift."""
    f = (data.sigma_exp if bump_sigma else data.tau_exp) or (lambda a, b, c: 0)  # None: 1 throughout

    def bumped(a, b, c):
        return f(a, b, c) + shift * ((a, b, c) == at)

    sigma, tau = (bumped, data.tau_exp) if bump_sigma else (data.sigma_exp, bumped)
    return ExtensionData(data.pair, data.value_order, sigma, tau, label=f"{data.label}+{shift}@{at}")


def _bumped_hn3(bump_sigma, at):
    return omega_from_extension(_bumped(family_hn3(3, 1, 1), bump_sigma, at, 1)).omega


class TestCosetBlocks:
    """verify_cocycle reads one l per block of `ThreeCocycle.block`."""

    def test_extension_cocycles_read_the_third_argument_by_block(self):
        for spec, cat in EXTENSION_GRID:
            w = cat.omega
            f, n, b = w.exp_fn, w.group.order, w.block
            for g, h in product(range(n), repeat=2):
                row = list(map(f, repeat(g, n), repeat(h, n), range(n)))
                assert all(len(set(row[r:r + b])) == 1 for r in range(0, n, b)), (spec, g, h)

    def test_extension_cocycles_read_the_first_argument_by_block(self):
        # omega(g, h, k) = omega(g % b, h, k): every g, on a fixed sample of
        # 400 pairs (h, k) (all |G|^3 triples take seconds)
        for spec, cat in EXTENSION_GRID:
            w = cat.omega
            f, n, b = w.exp_fn, w.group.order, w.block
            pairs = random.Random(spec).sample(list(product(range(n), repeat=2)), min(n * n, 400))
            hs, ks = zip(*pairs)
            rows = [list(map(f, repeat(g, len(pairs)), hs, ks)) for g in range(n)]
            assert all(rows[g] == rows[g % b] for g in range(n)), spec

    def test_block_report_equals_the_one_block_report(self):
        for spec, cat in EXTENSION_GRID:
            report = verify_cocycle(cat.omega)
            assert report.ok, (spec, str(report))
            assert report == verify_cocycle(dataclasses.replace(cat.omega, block=1)), spec

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bumped_extension_data_reports_equal_the_one_block_reports(self, data):
        kind, params = data.draw(st.sampled_from(
            [("h2n2", (n, xi)) for n in (2, 3, 4) for xi in range(n)]
            + [("hn3", (3, xi, zeta)) for xi in range(3) for zeta in range(3)]
            + [("suzukiP", (2, l, beta)) for l in (2, 3) for beta in (1, -1)]
        ))
        base = FAMILIES[kind].data(*params)
        w = omega_from_extension(_bumped_extension_data(base, data.draw)).omega
        assert w.block == base.pair.G.order
        assert verify_cocycle(w) == verify_cocycle(dataclasses.replace(w, block=1))

    def test_blocks_that_are_not_cosets_are_rejected(self):
        # a block must be 1 or the group's coset block, whose blocks are the
        # left cosets of {0..b-1} by construction
        w = parse_family_spec("h2n2:3:1").omega  # order 18, coset block 9
        with pytest.raises(ValueError, match="block 4 is neither 1 nor the group's coset block 9"):
            verify_cocycle(dataclasses.replace(w, block=4))
        # on Z_6, {0, 1} is not a subgroup
        with pytest.raises(ValueError, match="block 2 is neither 1 nor the group's coset block 1"):
            verify_cocycle(dataclasses.replace(psi(6, 1), block=2))
        # Z_6 relabelled so that {0, 1} is the subgroup {0, 3}, whose coset
        # 1 + {0, 3} = {1, 4} is labelled {2, 4}, not block {2, 3}
        label = [0, 2, 3, 1, 4, 5]
        z6 = FiniteGroup(6, lambda a, b: label[(label.index(a) + label.index(b)) % 6])
        with pytest.raises(ValueError, match="block 2 is neither 1 nor the group's coset block 1"):
            verify_cocycle(ThreeCocycle(z6, 1, lambda g, h, k: 0, block=2))
        # mode "full" ignores the block
        assert verify_cocycle(dataclasses.replace(psi(6, 1), block=2), mode="full").ok

    def test_grid_cocycles_carry_the_coset_block(self):
        for fam in FAMILIES.values():
            for params in fam.grid:
                cat = fam.build(*params)
                assert cat.omega.block == cat.group.coset_block > 1, (fam.kind, params)

    def test_one_block(self):
        # F = 1: the whole group is one block, so each slice row has one entry
        w = omega_from_extension(ExtensionData(
            trivial_pair(make_cyclic(1), make_dihedral(6)), 3,
            lambda g, x, y: 0, lambda g, h, x: 0,
        )).omega
        assert w.block == w.group.order == 6
        report = verify_cocycle(w)
        assert report.ok and report == verify_cocycle(dataclasses.replace(w, block=1))
        bad = dataclasses.replace(w, exp_fn=lambda g, h, k: int((g, h) == (2, 3)))
        report = verify_cocycle(bad)
        assert report.failure == ("normalization", (2, 3))
        assert report == verify_cocycle(dataclasses.replace(bad, block=1))

    def test_derived_cocycles_have_one_block(self, tmp_path):
        w = parse_family_spec("h2n2:2:1").omega
        assert w.block == 4
        path = tmp_path / "trivial.txt"
        path.write_text("order 2\n")
        derived = [
            restrict(w, range(4)),
            conjugate_cocycle(w),
            product_cocycle(w, psi(2, 1)),
            product_cocycle(psi(2, 1), w),
            psi(4, 1),
            trivial_cocycle(w.group),
            cocycle_from_file(w.group, path),
        ]
        assert [d.block for d in derived] == [1] * len(derived)

    def test_generator_check_reads_one_l_per_block(self):
        # hn3:5:1:1 (|G| = 25): one slice of 125 x 5 calls per G-part, shared
        # by both generators and by normalization, so 125^2 calls in all
        w = parse_family_spec("hn3:5:1:1").omega
        calls, counted = _counted(w.exp_fn)
        report = verify_cocycle(dataclasses.replace(w, exp_fn=counted))
        assert report.ok and report.checked == 2 * 125**3
        assert calls[0] == 125**2
        assert report == verify_cocycle(dataclasses.replace(w, block=1))

    def test_one_block_check_builds_every_slice(self):
        # with block 1 nothing is claimed of the first argument: the walk
        # builds each slice afresh and keeps none
        w = psi(12, 5)
        calls, counted = _counted(w.exp_fn)
        assert verify_cocycle(dataclasses.replace(w, exp_fn=counted)).ok
        assert calls[0] == 2_304


def _coboundary(grp, m, seed):
    """delta c for a random normalized 2-cochain c mod m: a normalized
    3-cocycle at every value order m, its values spread over [0, m)."""
    rng, n, mul = random.Random(seed), grp.order, grp.mul
    c = [[rng.randrange(m) if g and h else 0 for h in range(n)] for g in range(n)]
    return ThreeCocycle(
        grp, m, lambda g, h, k: c[h][k] - c[mul(g, h)][k] + c[g][mul(h, k)] - c[g][h],
        label=f"delta c mod {m}",
    )


def _scaled(w, scale):
    """w written with value order scale * M: the same values."""
    f = w.exp_fn
    return dataclasses.replace(
        w, value_order=scale * w.value_order, exp_fn=lambda g, h, k: scale * f(g, h, k)
    )


def assert_lane_reports_agree(w):
    """The lane check equals the scalar oracle field for field, and the full
    check gives its verdict (and its report, when normalization fails)."""
    report = verify_cocycle(w)
    assert report == _scalar_generator_check(w), (w.label, str(report))
    full = verify_cocycle(w, mode="full")
    assert full.ok == report.ok, (w.label, str(report), str(full))
    if report.failure and report.failure[0] == "normalization":
        assert full == report, w.label
    return report


class TestLanes:
    """verify_cocycle decides each (s, h) row with one int of lanes, as wide
    as 5 * value_order needs; the scalar check is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bumped_reports_equal_the_scalar_check(self, data):
        label, w = data.draw(st.sampled_from(ORACLE_COCYCLES + EXTENSION_GRID))
        w = getattr(w, "omega", w)
        n = w.group.order
        if n > 1:
            pos = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3))
            shift = data.draw(st.integers(1, max(w.value_order, 2) - 1))
            w = _shifted(w, pos, shift, block=w.block)
        assert verify_cocycle(w) == _scalar_generator_check(w), (label, w.label)

    # each width in bits is the least of 8, 16, 32, 64 with 5m < 2^(width - 1);
    # past 64 the lanes are packed with int.to_bytes.  The orders on both sides
    # of each bound, and one inside each width, whose lanes overflow any
    # narrower one
    @pytest.mark.parametrize("m", [
        25, 26, 100, 6553, 6554, 30_000, 429496729, 429496730, 2**40, 2**64 + 13
    ])
    def test_value_orders_on_both_sides_of_each_lane_width(self, m):
        for grp in (make_cyclic(5), make_dihedral(6), parse_group_spec("product:cyclic:2,cyclic:4")):
            n = grp.order
            w = _coboundary(grp, m, seed=m + n)
            assert assert_lane_reports_agree(w).ok, (grp.label, m)
            # (1, 1, 1) first breaks D at lane (k, l) = (1, 1), the first that
            # a normalized cochain can break; (n-1, n-1, n-1) at the last lane
            for pos, lane in (((1, 1, 1), (1, 1)), ((n - 1,) * 3, (n - 1, n - 1))):
                for shift in (1, m - 1):
                    report = assert_lane_reports_agree(_shifted(w, pos, shift))
                    assert report.failure[1][2:] == lane, (grp.label, m, pos, shift)

    def test_wide_lanes_with_blocks(self):
        # psi and an extension cocycle scaled past 2^64, the int.to_bytes path
        for w in (psi(5, 2), psi(6, 1), parse_family_spec("h2n2:3:1").omega):
            wide = _scaled(w, 2**62 + 1)
            assert 5 * wide.value_order >= 2**63
            assert assert_lane_reports_agree(wide).ok, w.label
            n, b = w.group.order, w.block
            for pos in ((1, 1, 1), (n - 1, n - 1, n - 1), (b + 1, 2, b)):
                assert_lane_reports_agree(_shifted(wide, pos, wide.value_order - 1, block=b))

    def test_order_one(self):
        # one lane; the trivial group has no generators, so nothing but
        # normalization is read
        grp = make_cyclic(1)
        assert grp.generators() == ()
        for m in (1, 26, 2**64 + 13):
            report = verify_cocycle(ThreeCocycle(grp, m, lambda g, h, k: 0))
            assert (report.ok, report.checked) == (True, 0)
            assert report == _scalar_generator_check(ThreeCocycle(grp, m, lambda g, h, k: 0))
            bad = ThreeCocycle(grp, max(m, 2), lambda g, h, k: 1)
            assert verify_cocycle(bad) == verify_cocycle(bad, mode="full") == VerificationReport(
                False, 1, ("normalization", (0, 0))
            )


def _counted(f):
    """([number of calls so far], f counting its calls)."""
    calls = [0]

    def counted(g, h, k):
        calls[0] += 1
        return f(g, h, k)

    return calls, counted


class TestOmegaTilde:
    def test_zero_outside_torsion(self):
        w = psi(4, 1)
        assert omega_tilde_root(w, 2, 1) is None
        assert omega_tilde(w, 2, 1).is_zero()

    def test_is_class_function(self):
        # omega_tilde_n(x g x^-1) = omega_tilde_n(g) for every family cocycle
        for spec, cat in family_cocycles_upto(200):
            grp, w = cat.group, cat.omega
            ns = divisors(grp.exponent())
            for cls in grp.conjugacy_classes():
                rep = cls[0]
                for n in ns:
                    ref = omega_tilde_root(w, n, rep)
                    for g in cls[1:]:
                        assert omega_tilde_root(w, n, g) == ref, (spec, n, cls)

    def test_order_bound_on_cyclic(self):
        # for psi_N^r: when n*i = 0 in Z_N, the order of omega_tilde_n(i)
        # divides gcd(N, n, e) with e the order of the class of the cocycle
        for big_n in range(1, 13):
            for r in range(big_n):
                w = psi(big_n, r)
                e = big_n // math.gcd(big_n, r) if r else 1
                for n in range(1, 2 * big_n + 1):
                    for i in range(big_n):
                        if (n * i) % big_n:
                            continue
                        val = omega_tilde_root(w, n, i)
                        bound = math.gcd(big_n, math.gcd(n, e))
                        assert val.multiplicative_order() in divisors(bound)

    def test_square_power_law_on_cyclic(self):
        # omega_tilde_n(a*i) = omega_tilde_n(i)^(a^2) on torsion elements
        for big_n in range(1, 13):
            for r in range(big_n):
                w = psi(big_n, r)
                for n in range(1, 2 * big_n + 1):
                    for i in range(big_n):
                        if (n * i) % big_n:
                            continue
                        base = omega_tilde_root(w, n, i)
                        for a in range(big_n):
                            got = omega_tilde_root(w, n, (a * i) % big_n)
                            assert got == base ** (a * a), (big_n, r, n, i, a)

    def test_torsion_sum_is_gauss_sum(self):
        # sum of omega_tilde_n over Z_N equals S(n*r/d, d) with d = gcd(N, n)
        for big_n in range(1, 13):
            for r in range(big_n):
                w = psi(big_n, r)
                for n in range(1, 2 * big_n + 1):
                    total = CyclotomicInteger.zero()
                    for i in range(big_n):
                        total = total + omega_tilde(w, n, i)
                    d = math.gcd(big_n, n)
                    assert total == gauss_sum_closed(n * r // d, d), (big_n, r, n)


class TestCohomologicalOrder:
    def test_psi_generator(self):
        for big_n in (2, 3, 4, 6, 8):
            for r in range(big_n):
                w = psi(big_n, r)
                expected = big_n // math.gcd(big_n, r) if r else 1
                assert omega_tilde_root(w, big_n, 1).multiplicative_order() == expected
                assert c_omega(w) == expected

    def test_trivial(self):
        assert c_omega(trivial_cocycle(make_dihedral(12))) == 1

    def test_c_divides_quotient_exponent(self):
        # each family has a normal subgroup H on which the cocycle restricts
        # to 1 identically; c(omega) must divide the exponent of Gamma/H
        for spec, cat in family_cocycles_upto(60):
            grp, w = cat.group, cat.omega
            h_set = set(_trivially_restricted_subgroup(spec, grp))
            # H is a subgroup, the restriction is literally trivial, H is normal
            assert all(grp.mul(a, b) in h_set for a in h_set for b in h_set)
            for a in h_set:
                for b in h_set:
                    for c in h_set:
                        assert w.exponent(a, b, c) == 0, (spec, a, b, c)
            for x in range(grp.order):
                assert all(
                    grp.mul(grp.mul(x, h), grp.inv(x)) in h_set for h in h_set
                )
            # exponent of the quotient: least e with x^e in H for all x
            quot_exp = 1
            for x in range(grp.order):
                e = 1
                while grp.power(x, e) not in h_set:
                    e += 1
                quot_exp = math.lcm(quot_exp, e)
            assert quot_exp % c_omega(w) == 0, spec


def _trivially_restricted_subgroup(spec, grp):
    """Elements of a normal subgroup on which the family cocycle is 1."""
    fam, parts = split_family_spec(spec)
    kind = fam.kind
    if kind in ("h2n2", "hn3"):
        return range(parts[0] ** 2)  # the Z_N x Z_N factor
    if kind in ("suzuki", "suzukiP"):
        n, l = parts[0], parts[1]
        return [x * 2 * n for x in range(2 * l)]  # the dihedral factor <r, s>
    raise AssertionError(spec)


class TestDerivedCocycles:
    def test_restrict(self):
        w = psi(6, 1)
        sub_elems = [0, 2, 4]
        r = restrict(w, sub_elems)
        assert r.group.order == 3
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert r.exponent(a, b, c) == w.exponent(2 * a, 2 * b, 2 * c)
        assert verify_cocycle(r, mode="full").ok

    def test_product(self):
        w = product_cocycle(psi(2, 1), psi(3, 1))
        assert w.group.order == 6
        assert verify_cocycle(w, mode="full").ok
        assert w.value_order == math.lcm(4, 9)

    def test_conjugate(self):
        w = psi(5, 2)
        cw = conjugate_cocycle(w)
        for g in range(5):
            for h in range(5):
                for k in range(5):
                    assert (w.exponent(g, h, k) + cw.exponent(g, h, k)) % 25 == 0


class TestFilesAndSpecs:
    def test_file_cocycle(self, tmp_path):
        w = psi(3, 1)
        lines = ["order 9"]
        for g in range(3):
            for h in range(3):
                for k in range(3):
                    e = w.exponent(g, h, k)
                    if e:
                        lines.append(f"{g} {h} {k} {e}")
        path = tmp_path / "omega.txt"
        path.write_text("\n".join(lines) + "\n")
        loaded = cocycle_from_file(make_cyclic(3), path)
        for g in range(3):
            for h in range(3):
                for k in range(3):
                    assert loaded.exponent(g, h, k) == w.exponent(g, h, k)

    def test_file_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("order 4\n1 1 1 1\n")
        with pytest.raises(ValueError):
            cocycle_from_file(make_cyclic(3), path)

    def test_file_rejects_one_altered_value_on_z100(self, tmp_path):
        # the former sampled check, above order 40, accepted this file
        path = tmp_path / "one-entry.txt"
        path.write_text("order 2\n1 1 22 1\n")
        with pytest.raises(CocycleError, match="cocycle identity"):
            cocycle_from_file(make_cyclic(100), path)

    def test_parse_specs(self):
        z4 = make_cyclic(4)
        assert parse_cocycle_spec("trivial", z4).value_order == 1
        w = parse_cocycle_spec("psi:3", z4)
        assert w.value_order == 16
        with pytest.raises(ValueError):
            parse_cocycle_spec("psi:1", make_dihedral(8))
        with pytest.raises(ValueError):
            parse_cocycle_spec("mystery", z4)
