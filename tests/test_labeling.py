import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import (
    InconsistentLabelingError,
    PreconditionError,
    arc_labeling,
    crossing_index,
    crossing_sign,
    mirror,
    parse,
)
from vknots import labeling
from vknots.invariants.weights import i_function, index_weight, sign_weight
from vknots.labeling import index_map
from vknots.moves import apply_move, enumerate_moves
from conftest import random_chord_diagram, random_knot


def test_unknot_single_arc(unknot):
    assert arc_labeling(unknot).component_labels(0) == (0,)


def test_vtref_labels_and_indices(vtref):
    assert arc_labeling(vtref).component_labels(0) == (0, -1, -2, -1)
    assert crossing_index(vtref, 1) == 1
    assert crossing_index(vtref, 2) == -1
    assert crossing_sign(vtref, 1) == 1
    assert crossing_sign(vtref, 2) == 1


def test_classical_trefoil_all_indices_zero():
    t = parse("O1+U2+O3+U1+O2+U3+")
    assert set(index_map(t).values()) == {0}


def test_hopf_sign(hopf):
    assert crossing_sign(hopf, 1) == -1


def test_inconsistent_labeling_reports_component(hopf):
    with pytest.raises(InconsistentLabelingError) as exc:
        arc_labeling(hopf)
    assert exc.value.component == 1


@pytest.mark.parametrize("kink", ["O1+U1+", "U1+O1+", "O1-U1-", "U1-O1-"])
def test_kink_index_zero_both_signs(kink):
    d = parse(kink)
    assert crossing_index(d, 1) == 0


def test_index_needs_knot(hopf):
    with pytest.raises(PreconditionError):
        crossing_index(hopf, 1)


def test_unknown_crossing(vtref):
    with pytest.raises(PreconditionError):
        crossing_index(vtref, 9)


def test_mirror_negates_index():
    for seed in range(40):
        d = random_knot(seed)
        m = mirror(d)
        for cid, ind in index_map(d).items():
            assert index_map(m)[cid] == -ind


def test_r2_pairs_have_equal_index_opposite_sign():
    for seed in range(25):
        d = random_knot(seed, 4)
        sites = [m for m in enumerate_moves(d, ("R2-insert",))]
        for site in sites[:: max(1, len(sites) // 8)]:
            d2 = apply_move(d, site)
            new = sorted(set(d2.crossing_ids()) - set(d.crossing_ids()))
            assert len(new) == 2
            a, b = new
            assert d2.sign(a) == -d2.sign(b)
            im = index_map(d2)
            assert im[a] == im[b]


def test_base_shift_leaves_index_alone(vtref):
    # recompute indices from labels shifted by a constant
    labels = arc_labeling(vtref).as_dict()
    shifted = {k: v + 17 for k, v in labels.items()}
    for cid in vtref.crossing_ids():
        (oc, oi), (uc, ui) = vtref.passage_positions(cid)
        ind = shifted[(oc, oi)] - shifted[(uc, ui)] - vtref.sign(cid)
        assert ind == crossing_index(vtref, cid)


def test_index_map_is_read_only(vtref):
    from vknots.invariants import writhe_n

    m = index_map(vtref)
    with pytest.raises(TypeError):
        for c in m:
            m[c] = 7
    assert writhe_n(vtref, 1) == 1
    assert dict(index_map(vtref)) == {1: 1, 2: -1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 12))
def test_crossing_index_reads_the_index_map(seed, n_chords):
    d = random_chord_diagram(random.Random(seed), n_chords)
    assert {c: crossing_index(d, c) for c in d.crossing_ids()} == dict(index_map(d))


def test_i_function_builds_no_index_map(monkeypatch):
    """The ``ind`` weight looks each crossing up in the knot's rows, so an
    I-function makes no pass over every crossing per crossing."""
    d = random_chord_diagram(random.Random(5), 28)
    want = sum(d.sign(c) for c in d.crossing_ids() if index_map(d)[c] == 1)
    calls = []
    monkeypatch.setattr(labeling, "index_map", lambda *a: calls.append(a))
    assert i_function(d, sign_weight(), index_weight(), 1) == want
    assert d.n_crossings == 28 and calls == []
