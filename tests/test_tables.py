"""The memoised writhe and span tables against the per-crossing sums they
replace, and the default battery's invariance under relabeling crossings
and rotating component starts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import Diagram, Passage, PreconditionError
from vknots.cli import _default_battery
from vknots.invariants import (
    comparable_invariant,
    dwrithe,
    dwrithe_nm,
    fspan_nk,
    linking_numbers,
    nested_dwrithe,
    span_nk,
    tilde_f,
    writhe_n,
)
from vknots.invariants.fingerprint import _pair_vector
from vknots.labeling import index_map
from vknots.smoothing import smooth1, smooth3

from conftest import random_chord_diagram


# -- oracles: one crossing at a time, as the formulas read ----------------------


def _require_knot(d, what):
    if d.n_components != 1:
        raise PreconditionError(
            f"{what} is defined for knot diagrams only (got {d.n_components} components)"
        )


def oracle_writhe_n(d, n):
    _require_knot(d, "the n-th writhe")
    if n == 0:
        raise PreconditionError("the n-th writhe requires n != 0")
    return sum(d.sign(c) for c, i in index_map(d).items() if i == n)


def oracle_dwrithe(d, n):
    _require_knot(d, "the difference writhe")
    if n <= 0:
        raise PreconditionError("the difference writhe requires n > 0")
    return oracle_writhe_n(d, n) - oracle_writhe_n(d, -n)


def oracle_dwrithe_nm(d, n, m):
    _require_knot(d, "the (n,m)-difference writhe")
    if n <= 0:
        raise PreconditionError("the (n,m)-difference writhe requires n > 0")
    if m == 0:
        return 0
    return m * sum(
        d.sign(c) * oracle_dwrithe(smooth1(d, c), n)
        for c, i in index_map(d).items()
        if i in (m, -m)
    )


def oracle_span_nk(d, n, k):
    if d.n_components != 2:
        raise PreconditionError(
            f"the (n,k)-span needs exactly 2 components (got {d.n_components})"
        )
    if n <= 0:
        raise PreconditionError("the (n,k)-span requires n > 0")
    total = 0
    for c in d.crossing_ids():
        oc, uc = d.components_of(c)
        if oc != uc and oracle_dwrithe(smooth3(d, c), n) == k:
            total += d.sign(c) if oc == 0 else -d.sign(c)
    return total


def _outcome(fn, *args):
    """The value, or the PreconditionError message, of one call."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return ("PreconditionError", str(exc))


def _beyond(d):
    """An n past every crossing index of the knots whose writhes d's values
    read: d itself and its type-1 smoothings, or a link's type-3 ones."""
    if d.n_components == 1:
        knots = [d] + [smooth1(d, c) for c in d.crossing_ids()]
    elif d.n_components == 2:
        knots = [smooth3(d, c) for c in d.crossing_ids()
                 if not d.is_self_crossing(c)]
    else:
        knots = []
    return 1 + max((abs(i) for x in knots for i in index_map(x).values()),
                   default=5)


def _diagram(seed, n_chords, n_components):
    return random_chord_diagram(random.Random(seed), n_chords, n_components)


# -- tables against the oracles ------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 14), st.integers(1, 4))
def test_writhe_tables_match_per_crossing_sums(seed, n_chords, n_components):
    d = _diagram(seed, n_chords, n_components)
    far = _beyond(d)
    ns = list(range(-1, 6)) + [far, far + 1]
    for n in ns + [-far]:
        assert _outcome(writhe_n, d, n) == _outcome(oracle_writhe_n, d, n), n
    for n in ns:
        assert _outcome(dwrithe, d, n) == _outcome(oracle_dwrithe, d, n), n
        for m in list(range(-4, 5)) + [far, -far]:
            assert _outcome(dwrithe_nm, d, n, m) \
                == _outcome(oracle_dwrithe_nm, d, n, m), (n, m)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 9), st.integers(1, 4))
def test_span_tables_match_per_crossing_sums(seed, n_chords, n_components):
    d = _diagram(seed, n_chords, n_components)
    far = _beyond(d)
    for n in list(range(-1, 6)) + [far]:
        for k in list(range(-4, 5)) + [far, -far]:
            want = _outcome(oracle_span_nk, d, n, k)
            assert _outcome(span_nk, d, n, k) == want, (n, k)
            if isinstance(want, int):
                assert fspan_nk(d, n, k) == want + oracle_span_nk(d, n, -k)
    if d.n_components != 2:
        return
    for window in range(1, 5):
        scalar = tuple(fspan_nk(d, n, k)
                       for n in range(1, window + 1)
                       for k in range(0, window + 1))
        assert _pair_vector(*d.components, window)[3] == scalar, window
    assert _pair_vector(*d.components, 1)[1] == linking_numbers(d).span


def test_precondition_messages_are_unchanged(vtref, hopf):
    cases = [
        (writhe_n, hopf, 1, "the n-th writhe is defined for knot diagrams only "
                            "(got 2 components)"),
        (writhe_n, vtref, 0, "the n-th writhe requires n != 0"),
        (dwrithe, hopf, 1, "the difference writhe is defined for knot diagrams "
                           "only (got 2 components)"),
        (dwrithe, vtref, 0, "the difference writhe requires n > 0"),
        (dwrithe_nm, hopf, 1, 1, "the (n,m)-difference writhe is defined for "
                                 "knot diagrams only (got 2 components)"),
        (dwrithe_nm, vtref, -1, 0, "the (n,m)-difference writhe requires n > 0"),
        (span_nk, vtref, 1, 0, "the (n,k)-span needs exactly 2 components (got 1)"),
        (span_nk, hopf, 0, 0, "the (n,k)-span requires n > 0"),
        (fspan_nk, hopf, -2, 1, "the (n,k)-span requires n > 0"),
        (index_map, hopf, "crossing index is defined for knot diagrams only "
                          "(got 2 components)"),
        (tilde_f, hopf, 1, 1, 0, "the span polynomial is defined for knot "
                                 "diagrams only (got 2 components)"),
        (nested_dwrithe, hopf, 1, (), "the nested difference writhe is defined "
                                      "for knot diagrams only (got 2 components)"),
    ]
    for fn, *args, message in cases:
        with pytest.raises(PreconditionError) as exc:
            fn(*args)
        assert str(exc.value) == message


# -- the default battery under relabeling and rotation ------------------------

DEPTH, WINDOW = 1, 2


def _battery(d):
    return [comparable_invariant(name, d, params, DEPTH, WINDOW)
            for name, params in _default_battery(d, WINDOW)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 5), st.integers(1, 3))
def test_battery_invariant_under_relabeling_and_rotation(seed, n_chords,
                                                        n_components):
    """Renumbering the crossings and starting each component at another
    passage describe the same diagram, so every comparable value of the
    default battery stays the same."""
    rng = random.Random(seed)
    d = random_chord_diagram(rng, n_chords, n_components)
    ids = d.crossing_ids()
    new_ids = dict(zip(ids, rng.sample(range(1, 100), len(ids))))
    comps = []
    for comp in d.components:
        r = rng.randrange(max(len(comp), 1))
        comps.append(tuple(Passage(new_ids[p.crossing], p.strand, p.sign)
                           for p in comp[r:] + comp[:r]))
    assert _battery(Diagram(tuple(comps))) == _battery(d)
