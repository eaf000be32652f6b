import importlib
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import PreconditionError, crossing_change, diagram, flat_key, memo, parse, serialize
from vknots.cli import main
from vknots.invariants import (
    b_flat_sum,
    b_sum,
    fingerprint,
    flat_sum,
    flatsum_fingerprint,
    flatsum_nonzero,
    linking_numbers,
    self_crossings,
)
from vknots.invariants.fingerprint import _sublink
from vknots.invariants.flatsums import _b_rows
from vknots.smoothing import smooth2, smooth2_changed
from conftest import oracle_sublink, random_chord_diagram, random_knot, walk_corpus


def _within(d, comps):
    """The crossings of d that lie on the 0-based components comps alone."""
    return {c for c in d.crossing_ids() if set(d.components_of(c)) <= comps}


def test_flat_sum_reduces_by_key(vtref):
    a = smooth2(vtref, 1)
    s = flat_sum([(a, 1), (a, 2), (a, -3)])
    assert s.is_empty()
    s2 = flat_sum([(a, 1), (a, 1)])
    assert [c for _, c, _ in s2.terms] == [2]


def test_b_sum_trivialities(unknot, hopf):
    assert b_sum(unknot, 1).is_empty()
    # no self-crossings on either component of the hopf link
    assert b_sum(hopf, 1).is_empty()
    assert b_sum(hopf, 2).is_empty()
    with pytest.raises(PreconditionError):
        b_sum(unknot, 2)


def test_b_sum_vtref(vtref):
    s = b_sum(vtref, 1)
    assert [c for _, c, _ in s.terms] == [1, 1]
    assert flatsum_nonzero(s, 1, 2) is True


def test_kishino_b_sum_structure(kishino):
    assert {c: kishino.sign(c) for c in kishino.crossing_ids()} == \
        {1: -1, 2: 1, 3: 1, 4: -1}
    assert flat_key(smooth2(kishino, 1)) == flat_key(smooth2(kishino, 4))
    assert flat_key(smooth2(kishino, 2)) == flat_key(smooth2(kishino, 3))
    assert flat_key(smooth2(kishino, 1)) != flat_key(smooth2(kishino, 2))
    s = b_sum(kishino, 1)
    assert sorted(c for _, c, _ in s.terms) == [-2, 2]


def test_kishino_certificate(kishino):
    k1 = smooth2(kishino, 1)
    k2 = smooth2(kishino, 2)
    assert self_crossings(k1, 2) == (3, 4)
    bf1 = b_flat_sum(k1, 2)
    bf2 = b_flat_sum(k2, 2)
    assert bf2.is_empty()
    assert flatsum_nonzero(bf2, 1, 2) is False
    assert flatsum_nonzero(bf1, 1, 2) is True
    assert flatsum_nonzero(b_sum(kishino, 1), 2, 2) is True


def test_kishino_linked_third_component(kishino):
    # the four terms of the inner flat B-sum split into linked/unlinked
    # patterns, which is what blocks cancellation
    k1 = smooth2(kishino, 1)
    patterns = []
    for c in self_crossings(k1, 2):
        for dd in (smooth2(k1, c), smooth2(crossing_change(k1, c), c)):
            spans = tuple(
                linking_numbers(oracle_sublink(dd, (i, 2))).span
                for i in (0, 1)
            )
            patterns.append(spans)
    assert len(set(patterns)) >= 2


def _oracle_b_sum(d, i):
    """The B-sum as defined: the type-2 smoothing at each self-crossing of
    component i, with that crossing's sign."""
    return flat_sum([(smooth2(d, c), d.sign(c)) for c in self_crossings(d, i)])


def _oracle_b_flat_sum(d, i):
    """The flat B-sum as defined: per self-crossing c, the type-2 smoothing
    at c with c's sign, then the type-2 smoothing of d with c changed, with
    the sign negated."""
    pairs = []
    for c in self_crossings(d, i):
        pairs.append((smooth2(d, c), d.sign(c)))
        pairs.append((smooth2(crossing_change(d, c), c), -d.sign(c)))
    return flat_sum(pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 14), st.integers(1, 3))
def test_b_sums_match_their_definitions(seed, n_chords, n_components):
    """Whole terms, representatives included, from a cold memo and with
    either half of the B-sum rows already memoised."""
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    for i in range(1, n_components + 1):
        want = (_oracle_b_sum(d, i), _oracle_b_flat_sum(d, i))
        memo.clear()
        assert b_sum(d, i) == want[0]
        memo.clear()
        assert b_flat_sum(d, i) == want[1]
        memo.clear()
        assert (b_sum(d, i), b_flat_sum(d, i)) == want
        memo.clear()
        flat = b_flat_sum(d, i)
        assert (b_sum(d, i), flat) == want
    memo.clear()


def test_batch_row_smooths_and_keys_each_b_sum_term_once(monkeypatch, capsys,
                                                          tmp_path):
    """``bsum(i)`` and ``bflat(i)`` on one row share their type-2 smoothings:
    each self-crossing's smoothing and its changed twin are built once and
    flat-keyed once, wherever vknots calls the three functions from."""
    link = parse("O1+O2-U1+U2-O5+U6-;O3-U4+U3-O4+U5+O6-")
    built = {"smooth2": [], "smooth2_changed": []}
    keyed = []

    def builder(name, real):
        def wrapped(d, c):
            rep = real(d, c)
            built[name].append(((d, c), rep))
            return rep
        return wrapped

    def key(d):
        keyed.append(d)
        return flat_key(d)

    fakes = {flat_key: key, smooth2: builder("smooth2", smooth2),
             smooth2_changed: builder("smooth2_changed", smooth2_changed)}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "vknots" or name.startswith("vknots.")):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in fakes:
                    monkeypatch.setattr(mod, attr, fakes[value])
    cat = tmp_path / "cat.tsv"
    cat.write_text(f"L\t{serialize(link)}\n", encoding="utf-8")
    inv = "bsum(1),bflat(1),bsum(2),bflat(2)"
    assert main(["batch", "--json", "--inv", inv, str(cat)]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert all(row[spec] for spec in inv.split(","))
    selfs = [(link, c) for i in (1, 2) for c in self_crossings(link, i)]
    assert len(selfs) == 4
    for name, calls in built.items():
        assert Counter(args for args, _ in calls) == Counter(selfs), name
    reps = [rep for calls in built.values() for _, rep in calls]
    assert sorted(map(id, keyed)) == sorted(map(id, reps))


def test_b_sums_of_a_component_share_one_memo_entry():
    """``_b_rows`` holds both terms of each self-crossing in one entry, so
    ``bsum(i)`` and then ``bflat(i)`` miss once per component."""
    link = parse("O1+O2-U1+U2-O5+U6-;O3-U4+U3-O4+U5+O6-")
    memo.clear()
    before = _b_rows.cache_info()
    for i in (1, 2):
        b_sum(link, i)
        b_flat_sum(link, i)
    after = _b_rows.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 2)
    assert after.currsize == 2


def test_nested_flat_b_sums_stay_out_of_the_memo(kishino):
    """The fingerprints' nested flat B-sums build their pairs unmemoised."""
    memo.clear()
    [(_, _, buckets)] = [e for e in fingerprint(kishino, 2) if e[0] == "bflat"]
    assert buckets and _b_rows.cache_info().currsize == 0


@pytest.mark.parametrize("as_json", [False, True])
def test_batch_row_serializes_each_representative_once(monkeypatch, capsys,
                                                       tmp_path, as_json):
    """``bsum(i)`` and ``bflat(i)`` on one row share most representatives;
    the row builds each one's text once, and writes the same bytes as
    rendering each value on its own."""
    link = parse("O1+O2-U1+U2-O5+U6-;O3-U4+U3-O4+U5+O6-")
    inv = "bsum(1),bflat(1),bsum(2),bflat(2)"
    cat = tmp_path / "cat.tsv"
    cat.write_text(f"L\t{serialize(link)}\n", encoding="utf-8")
    flags = ["--json"] if as_json else []
    values = {spec: f(link, i) for i in (1, 2)
              for spec, f in ((f"bsum({i})", b_sum), (f"bflat({i})", b_flat_sum))}
    memo.clear()
    if as_json:
        want = json.dumps([{"name": "L", **{
            spec: {"terms": [{"coef": c, "diagram": serialize(rep)}
                             for _, c, rep in value.terms]}
            for spec, value in values.items()}}]) + "\n"
    else:
        want = "\t".join(["L"] + [f"{spec}={value}" for spec, value in values.items()]) + "\n"
    written = []
    write = diagram._write

    def counted(components):
        written.append(components)
        return write(components)

    monkeypatch.setattr(diagram, "_write", counted)
    assert main(["batch", *flags, "--inv", inv, str(cat)]) == 0
    assert capsys.readouterr().out == want
    assert written and len(set(map(id, written))) == len(written)
    assert len(written) < sum(len(value.terms) for value in values.values())


def test_flatsum_nonzero_tristate(vtref):
    a = smooth2(vtref, 1)
    assert flatsum_nonzero(flat_sum([]), 1, 2) is False
    assert flatsum_nonzero(flat_sum([(a, 3)]), 1, 2) is True


def test_bflat_crossing_change_invariance():
    for seed in range(12):
        d = random_knot(seed, 5)
        base = flatsum_fingerprint(b_flat_sum(d, 1), 1, 2)
        for cid in d.crossing_ids():
            changed = crossing_change(d, cid)
            assert flatsum_fingerprint(b_flat_sum(changed, 1), 1, 2) == base


def test_restricted_bucket_map_transfers_across_moves(vtref, kishino):
    from vknots.invariants import restricted_flatsum_fingerprint

    for base in (vtref, kishino):
        want = restricted_flatsum_fingerprint(b_sum(base, 1), base, 1, 1, 2)
        for w in walk_corpus(base, 5, steps=8, max_crossings=8, seed0=40):
            got = restricted_flatsum_fingerprint(b_sum(w, 1), w, 1, 1, 2)
            assert got == want


def test_raw_bucket_map_not_kink_stable(unknot):
    # a kink move shifts the raw B-sum by a diagram-with-unknot class; the
    # restricted map drops exactly that bucket
    from vknots.invariants import restricted_flatsum_fingerprint
    from vknots.moves import apply_move, enumerate_moves

    kinked = apply_move(unknot, enumerate_moves(unknot, ("R1-insert",))[0])
    assert flatsum_fingerprint(b_sum(kinked, 1), 1, 2) != ()
    assert restricted_flatsum_fingerprint(
        b_sum(kinked, 1), kinked, 1, 1, 2
    ) == ()


def test_restricted_map_of_empty_sum_builds_no_kink_class(monkeypatch, vtref, unknot):
    from vknots.invariants import restricted_flatsum_fingerprint

    # the package attribute ``fingerprint`` is the function, not the module
    fp = importlib.import_module("vknots.invariants.fingerprint")
    calls = []
    real = fp.kink_class_fingerprints
    monkeypatch.setattr(fp, "kink_class_fingerprints",
                        lambda *args: calls.append(args) or real(*args))
    for d, s in ((vtref, b_flat_sum(vtref, 1)), (unknot, b_sum(unknot, 1))):
        assert s.is_empty()
        assert restricted_flatsum_fingerprint(s, d, 1, 2, 3) == ()
        for i in (0, d.n_components + 1):
            with pytest.raises(PreconditionError):
                restricted_flatsum_fingerprint(s, d, i, 2, 3)
    assert calls == []
    # a sum with a bucket still has its kink-class buckets dropped
    from vknots.moves import apply_move, enumerate_moves

    kinked = apply_move(unknot, enumerate_moves(unknot, ("R1-insert",))[0])
    assert restricted_flatsum_fingerprint(b_sum(kinked, 1), kinked, 1, 1, 2) == ()
    assert len(calls) == 1


def test_fingerprint_component_count(unknot, hopf):
    assert fingerprint(unknot, 0, 2) != fingerprint(hopf, 0, 2)


def test_sublink_extraction(hopf):
    assert _sublink(hopf.components, (0,), _within(hopf, {0})) == ((),)
    assert _sublink(hopf.components, (0, 1), _within(hopf, {0, 1})) == hopf.components
    assert serialize(oracle_sublink(hopf, (0,))) == "0"
    assert oracle_sublink(hopf, (0, 1)) == hopf
    # a pair of a 3-component link keeps only the crossings on it alone
    dd = parse("O1+O2+U1+U2+O4+U5-O6+U6+;O3-U4+;U3-O5-O7+U7+")
    for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        assert _sublink(dd.components, keep, _within(dd, set(keep))) \
            == oracle_sublink(dd, keep).components, keep
