"""How the invariants follow reversing a knot and swapping the two
components of a link."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import reorder_components, reverse_component
from vknots.invariants import (
    affine_index_poly,
    dwrithe,
    dwrithe_nm,
    linking_numbers,
    span_nk,
)
from vknots.laurent import LaurentPoly

from conftest import random_chord_diagram


def _t_inverse(p):
    """``p(1/t)`` of a one-variable Laurent polynomial."""
    return LaurentPoly.from_dict(p.variables, {(-e,): c for (e,), c in p.terms})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 12))
def test_reversing_a_knot(seed, n_chords):
    """Reversal maps aip(t) to aip(1/t), negates every djn(n) and leaves
    every djnm(n,m) as it is."""
    d = random_chord_diagram(random.Random(seed), n_chords, 1)
    r = reverse_component(d, 1)
    assert affine_index_poly(r) == _t_inverse(affine_index_poly(d))
    for n in range(1, 5):
        assert dwrithe(r, n) == -dwrithe(d, n)
        for m in range(-3, 4):
            assert dwrithe_nm(r, n, m) == dwrithe_nm(d, n, m), (n, m)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 12))
def test_swapping_the_components_of_a_link(seed, n_chords):
    """Swapping the components exchanges over and under, so span and every
    spannk(n,k) change sign."""
    d = random_chord_diagram(random.Random(seed), n_chords, 2)
    s = reorder_components(d, (2, 1))
    assert linking_numbers(s).span == -linking_numbers(d).span
    for n in range(1, 5):
        for k in range(-4, 5):
            assert span_nk(s, n, k) == -span_nk(d, n, k), (n, k)
