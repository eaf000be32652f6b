"""Acceptance suite: one test per criterion, each printing a PASS line.

Golden values are exact (integer or polynomial equality); the randomized
criteria use fixed seeds and assert zero failures.
"""

from __future__ import annotations

import random
import time

from vknots import (
    crossing_change,
    flat_key,
    reorder_components,
    reverse_component,
    serialize,
)
from vknots.cli import main as cli_main
from vknots.invariants import (
    DEFAULT_DEPTH,
    DEFAULT_WINDOW,
    FNMK_VARS,
    FTILDE_VARS,
    affine_index_poly,
    b_flat_sum,
    b_sum,
    comparable_invariant,
    dwrithe,
    dwrithe_nm,
    f_poly,
    f_poly_nmk,
    flatsum_fingerprint,
    flatsum_nonzero,
    fspan_nk,
    i_flat,
    i_function,
    index_weight,
    linking_numbers,
    nested_dwrithe,
    over_under_weight,
    self_crossings,
    sign_weight,
    smoothed_link_dwrithe_weight,
    span_nk,
    tilde_f,
    writhe_n,
)
from vknots.labeling import index_map
from vknots.laurent import LaurentPoly
from vknots.moves import apply_move, enumerate_moves, kinds_within, walk
from vknots.smoothing import smooth1, smooth2
from conftest import named, random_chord_diagram


def _ok(label):
    print(f"PASS: {label}", flush=True)


# -- criterion 1: the 4.31 golden table, all values, under a second ------


def test_criterion_1_table_values():
    t0 = time.perf_counter()
    k = named("K431")
    alpha, beta, gamma, delta = 1, 2, 3, 4

    signs = {c: k.sign(c) for c in (alpha, beta, gamma, delta)}
    assert signs == {alpha: -1, beta: 1, gamma: -1, delta: -1}
    inds = index_map(k)
    assert (inds[alpha], inds[beta], inds[gamma], inds[delta]) == (1, 1, 0, 0)
    assert dwrithe(k, 1) == 0 and dwrithe(k, 2) == 0

    ka = smooth1(k, alpha)
    assert (ka.sign(beta), ka.sign(gamma), ka.sign(delta)) == (1, -1, 1)
    inds_a = index_map(ka)
    assert (inds_a[beta], inds_a[gamma], inds_a[delta]) == (1, 2, 1)
    assert dwrithe(ka, 1) == 2 and dwrithe(ka, 2) == -1

    kb = smooth1(k, beta)
    assert (kb.sign(alpha), kb.sign(gamma), kb.sign(delta)) == (-1, 1, -1)
    inds_b = index_map(kb)
    assert (inds_b[alpha], inds_b[gamma], inds_b[delta]) == (1, -1, -2)
    assert dwrithe(kb, 1) == -2 and dwrithe(kb, 2) == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _ok(f"criterion 1 (4.31 table, 26 values, {elapsed * 1000:.0f} ms)")


def test_criterion_2_nested_dwrithe():
    assert dwrithe_nm(named("K431"), 1, 1) == -4
    _ok("criterion 2 ((1,1)-difference writhe of 4.31 = -4)")


def test_criterion_3_kprime():
    kp = named("KPRIME")
    assert affine_index_poly(kp).is_zero()
    assert f_poly(kp, 1).is_zero()
    assert f_poly(kp, 2).is_zero()
    expected = LaurentPoly.from_dict(
        FNMK_VARS, {(0, 0, -4): -1, (0, 0, 4): -1, (0, 0, 0): 2}
    )
    assert f_poly_nmk(kp, 1, 1, 1) == expected
    _ok("criterion 3 (K': P = F^1 = F^2 = 0, F^{1,1,1} = -l2^-4 - l2^4 + 2)")


def test_criterion_4_hopf_linking():
    h = named("HOPF")
    lk = linking_numbers(h)
    assert (lk.over, lk.under, lk.span) == (-1, 0, -1)
    swapped = linking_numbers(reorder_components(h, (2, 1)))
    assert (swapped.over, swapped.under) == (0, -1)
    _ok("criterion 4 (virtual Hopf linking numbers and exchange)")


TABLE2 = {
    ("VK3", 2, 2, 0): {
        (0, -1, 0): 1, (-2, 0, -8): -1, (0, 2, 6): -1, (0, -2, 0): 1,
        (0, 2, 0): 3, (0, 0, 4): 1, (0, 0, 6): 2, (0, 0, -8): 1,
        (0, 0, 8): -1, (2, -2, 4): -1, (2, -4, 6): -1, (2, -3, 8): 1,
        (0, 0, 0): -5,
    },
    ("VK3", 2, 2, 2): {
        (0, -1, 0): 1, (-2, 0, 2): -1, (0, 2, -2): -1, (0, -2, 0): 1,
        (0, 2, 0): 3, (0, 0, -2): 1, (0, 0, 2): 1, (2, -2, 0): -1,
        (2, -3, -2): 1, (2, -4, -2): -1, (0, 0, 0): -4,
    },
    ("VK4", 2, 2, 0): {
        (0, -1, 0): 1, (-2, 0, -8): -1, (0, 2, 6): -1, (0, -2, 0): 1,
        (0, 2, 0): 3, (0, 0, 4): 1, (0, 0, 6): 2, (0, 0, -8): 1,
        (0, 0, 8): -1, (2, -2, 4): -2, (2, -3, 4): 1, (2, -2, 8): 1,
        (2, -4, 6): -1, (0, 0, 0): -5,
    },
    ("VK4", 2, 2, 2): {
        (0, -1, 0): 1, (-2, 0, 2): -1, (0, 2, -2): -1, (0, -2, 0): 1,
        (0, 2, 0): 3, (0, 0, -2): 1, (0, 0, 2): 1, (2, -2, 0): -2,
        (2, -3, 0): 1, (2, -2, -2): 1, (2, -4, -2): -1, (0, 0, 0): -4,
    },
}


def test_criterion_5_table2():
    values = {}
    for (name, n, k, m), coeffs in TABLE2.items():
        expected = LaurentPoly.from_dict(FTILDE_VARS, coeffs)
        got = tilde_f(named(name), n, k, m)
        assert got == expected, (name, n, k, m)
        values[(name, k, m)] = got
    assert values[("VK3", 2, 0)] != values[("VK4", 2, 0)]
    assert values[("VK3", 2, 2)] != values[("VK4", 2, 2)]
    _ok("criterion 5 (VK3/VK4 span polynomials, term for term, and distinct)")


def test_criterion_6_kishino_pipeline(capsys):
    t0 = time.perf_counter()
    k = named("KISHINO")
    a, b, c, d = 1, 2, 3, 4

    s = b_sum(k, 1)
    keys = {x: flat_key(smooth2(k, x)) for x in (a, b, c, d)}
    assert keys[a] == keys[d] and keys[b] == keys[c] and keys[a] != keys[b]
    coeffs = s.coefficients()
    assert coeffs[keys[a]] == -2 and coeffs[keys[b]] == 2

    k1, k2 = smooth2(k, a), smooth2(k, b)
    assert self_crossings(k1, 2) == (c, d)
    assert b_flat_sum(k2, 2).is_empty()
    assert flatsum_nonzero(b_flat_sum(k1, 2), 1, 2) is True
    assert flatsum_nonzero(s, 2, 2) is True

    code = cli_main(["distinguish", "KISHINO", "UNKNOT"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("DISTINCT")

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.2f}s"
    _ok(f"criterion 6 (Kishino B-sum pipeline, {elapsed:.2f} s)")


def _battery(d):
    if d.n_components == 1:
        specs = [
            ("aip", {}), ("jn", {"n": 1}), ("djn", {"n": 1}), ("djn", {"n": 2}),
            ("fpoly", {"n": 1}), ("djnm", {"n": 1, "m": 1}),
            ("fnmk", {"n": 1, "m": 1, "k": 1}), ("ftilde", {"n": 1, "k": 1, "m": 0}),
        ]
    elif d.n_components == 2:
        specs = [
            ("lk", {}), ("span", {}), ("spannk", {"n": 1, "k": 0}),
            ("fspannk", {"n": 1, "k": 0}), ("fspannk", {"n": 1, "k": 1}),
        ]
    else:
        specs = []
    for i in range(1, d.n_components + 1):
        specs.append(("bsum", {"i": i}))
        specs.append(("bflat", {"i": i}))
    return specs


def test_criterion_7_move_invariance():
    t0 = time.perf_counter()
    rng = random.Random(20240811)
    diagrams = []
    for s in range(140):
        diagrams.append(random_chord_diagram(rng, rng.randint(1, 4), 1))
    for s in range(60):
        diagrams.append(random_chord_diagram(rng, rng.randint(1, 4), 2))
    assert len(diagrams) >= 200

    failures = []
    for idx, d in enumerate(diagrams):
        specs = _battery(d)
        base = {
            (n, tuple(sorted(p.items()))): comparable_invariant(n, d, p, 0, 1)
            for n, p in specs
        }
        cur = d
        for step in range(50):
            sites = enumerate_moves(cur, kinds_within(7 - cur.n_crossings))
            if not sites:
                break
            cur = apply_move(cur, sites[rng.randrange(len(sites))])
            assert cur.n_crossings <= 8
            for n, p in specs:
                got = comparable_invariant(n, cur, p, 0, 1)
                if got != base[(n, tuple(sorted(p.items())))]:
                    failures.append((idx, step, n, p, serialize(cur)))
    elapsed = time.perf_counter() - t0
    assert not failures, failures[:3]
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s"
    _ok(f"criterion 7 (move invariance, {len(diagrams)} walks x 50 steps, "
        f"{elapsed:.0f} s)")


def test_criterion_7_bsums_at_cli_defaults():
    """Criterion 7's B-sum half at the command line's defaults: every
    bsum(i) and bflat(i) comparable value at depth 2 and window 3 stays
    equal to its start value along short seeded walks."""
    depth, window = DEFAULT_DEPTH, DEFAULT_WINDOW  # 2 and 3
    t0 = time.perf_counter()
    rng = random.Random(20261018)
    failures, steps = [], 0
    for w in range(20):
        d = random_chord_diagram(rng, rng.randint(1, 4), 1 + w % 2)
        specs = [(n, {"i": i}) for i in range(1, d.n_components + 1)
                 for n in ("bsum", "bflat")]
        base = [comparable_invariant(n, d, p, depth, window) for n, p in specs]
        for step, cur in enumerate(walk(d, 10, rng.randrange(2**31), 5), 1):
            steps += 1
            for (n, p), want in zip(specs, base):
                if comparable_invariant(n, cur, p, depth, window) != want:
                    failures.append((w, step, n, p, serialize(cur)))
    elapsed = time.perf_counter() - t0
    assert not failures, failures[:3]
    assert steps >= 150
    _ok(f"criterion 7 at depth {depth}, window {window} (20 walks, {steps} steps, "
        f"{elapsed:.1f} s)")


def test_criterion_8_flatness():
    rng = random.Random(77)
    trials = 0
    while trials < 1000:
        if rng.random() < 0.5:
            d = random_chord_diagram(rng, rng.randint(1, 5), 1)
            base = (
                dwrithe(d, 1), dwrithe(d, 2), dwrithe_nm(d, 1, 1),
                flatsum_fingerprint(b_flat_sum(d, 1), 1, 2),
            )
            cid = rng.choice(d.crossing_ids())
            changed = crossing_change(d, cid)
            got = (
                dwrithe(changed, 1), dwrithe(changed, 2),
                dwrithe_nm(changed, 1, 1),
                flatsum_fingerprint(b_flat_sum(changed, 1), 1, 2),
            )
        else:
            d = random_chord_diagram(rng, rng.randint(1, 5), 2)
            base = (
                fspan_nk(d, 1, 0), fspan_nk(d, 1, 1), fspan_nk(d, 2, 1),
                flatsum_fingerprint(b_flat_sum(d, 1), 1, 2),
                flatsum_fingerprint(b_flat_sum(d, 2), 1, 2),
            )
            cid = rng.choice(d.crossing_ids())
            changed = crossing_change(d, cid)
            got = (
                fspan_nk(changed, 1, 0), fspan_nk(changed, 1, 1),
                fspan_nk(changed, 2, 1),
                flatsum_fingerprint(b_flat_sum(changed, 1), 1, 2),
                flatsum_fingerprint(b_flat_sum(changed, 2), 1, 2),
            )
        assert got == base, (serialize(d), cid)
        trials += 1

    # flat span antisymmetry under component exchange
    for seed in range(200):
        rng2 = random.Random(seed)
        d = random_chord_diagram(rng2, rng2.randint(1, 5), 2)
        swapped = reorder_components(d, (2, 1))
        for n in (1, 2):
            for k in (0, 1, 2):
                assert fspan_nk(swapped, n, k) == -fspan_nk(d, n, k)

    # span invariance under reversing both components
    for seed in range(200):
        rng2 = random.Random(1000 + seed)
        d = random_chord_diagram(rng2, rng2.randint(1, 5), 2)
        rev = reverse_component(reverse_component(d, 1), 2)
        assert linking_numbers(rev).span == linking_numbers(d).span

    _ok(f"criterion 8 (flatness: {trials} crossing-change trials, "
        "antisymmetry, double reversal)")


def test_criterion_9_structure():
    rng = random.Random(4242)
    knots = [random_chord_diagram(rng, rng.randint(1, 5), 1) for _ in range(110)]
    links = [random_chord_diagram(rng, rng.randint(1, 5), 2) for _ in range(40)]

    ones_k = {"t": 1, "l": 1}
    for d in knots:
        assert affine_index_poly(d).substitute({"t": 1}).is_zero()
        assert f_poly(d, 1).substitute(ones_k).is_zero()
        assert f_poly_nmk(d, 1, 1, 1).substitute({"t": 1, "l1": 1, "l2": 1}).is_zero()
        ft = tilde_f(d, 1, 1, 0)
        assert ft.substitute({"t": 1, "l": 1, "v": 1}).is_zero()
        n = rng.choice((1, 2))
        assert tilde_f(d, n, 2, 1).substitute({"v": 1}) == f_poly(d, n)

    sgn, ind = sign_weight(), index_weight()
    for d in knots:
        for n in (1, 2):
            assert i_function(d, sgn, ind, n) == writhe_n(d, n)
            assert i_flat(d, sgn, ind, n) == dwrithe(d, n)
        for m in (-1, 1, 2):
            assert nested_dwrithe(d, 1, (m,)) == dwrithe_nm(d, 1, m)
    w1 = over_under_weight()
    for d in links:
        for n in (1, 2):
            w2 = smoothed_link_dwrithe_weight(n)
            for k in (-1, 0, 1):
                assert i_function(d, w1, w2, k) == span_nk(d, n, k)
                assert i_flat(d, w1, w2, k) == fspan_nk(d, n, k)
    _ok(f"criterion 9 (structure: telescoping, v=1 specialization on "
        f"{len(knots)} knots, generic = direct paths)")


def test_criterion_10_parity_audit():
    rng = random.Random(9001)
    pairs = 0
    while pairs < 500:
        d = random_chord_diagram(rng, rng.randint(0, 4), 1)
        sites = enumerate_moves(d, ("R2-insert",))
        site = sites[rng.randrange(len(sites))]
        d2 = apply_move(d, site)
        a, b = sorted(set(d2.crossing_ids()) - set(d.crossing_ids()))
        assert d2.sign(a) == -d2.sign(b), "sign weight must be odd"
        im = index_map(d2)
        assert im[a] == im[b], "index weight must be even"
        pairs += 1
    _ok(f"criterion 10 (parity audit on {pairs} generated R2 pairs)")
