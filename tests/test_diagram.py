import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import (
    Diagram,
    builtin_catalog,
    GaussCodeError,
    Passage,
    PreconditionError,
    ValidationError,
    crossing_change,
    flat_key,
    memo,
    mirror,
    parse,
    reorder_components,
    reverse_component,
    serialize,
)
from vknots.invariants import (
    b_sum,
    compute_invariant,
    kink_class_fingerprints,
    restricted_flatsum_fingerprint,
)
from vknots.moves import KINDS, MoveSites, apply_move, enumerate_moves, walk
from vknots.smoothing import smooth1, smooth2, smooth2_changed, smooth3
from conftest import named, random_chord_diagram, random_knot, src_env

import collections
import copy
import importlib
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError

diagram_module = importlib.import_module("vknots.diagram")


def test_parse_unknot(unknot):
    assert unknot.n_components == 1
    assert unknot.n_crossings == 0
    assert serialize(unknot) == "0"


def test_parse_vtref(vtref):
    assert vtref.n_components == 1
    assert vtref.n_crossings == 2
    assert [p.token() for p in vtref.components[0]] == ["O1+", "O2+", "U1+", "U2+"]


def test_parse_hopf_two_components(hopf):
    assert hopf.n_components == 2
    assert hopf.n_crossings == 1
    assert not hopf.is_self_crossing(1)


def test_parse_whitespace_ignored():
    assert serialize(parse(" O1+ U2+\nO3- U1+ O2+ U3- ")) == \
        serialize(parse("O1+U2+O3-U1+O2+U3-"))


@pytest.mark.parametrize("bad", ["", "O1", "O1+U1", "X1+", "O1+;U2+", ";O1+U1+"])
def test_parse_rejects_syntax(bad):
    with pytest.raises((GaussCodeError, ValidationError)):
        parse(bad)


@pytest.mark.parametrize("bad", [
    "O1+U1+O1+U1+",       # id seen four times
    "O1+O1+",             # two over passages
    "O1+U1-",             # mismatched signs
    "O1+U2+",             # unmatched ids
])
def test_parse_rejects_invalid(bad):
    with pytest.raises(ValidationError):
        parse(bad)


@pytest.mark.parametrize("bad, message", [
    ("O1+U1+O1+U1+", "crossing 1 occurs 4 time(s), expected 2"),
    ("O1+O1+", "crossing 1 is not once over and once under"),
    ("O1+U1-", "crossing 1 has mismatched signs"),
    ("O1+U2+", "crossing 1 occurs 1 time(s), expected 2"),
    # the first crossing met along the code is the one reported
    ("O2+U2-;O1+U1+O1+", "crossing 2 has mismatched signs"),
    ("O3+O1+U1+", "crossing 3 occurs 1 time(s), expected 2"),
    ("U4-O4-;O2+", "crossing 2 occurs 1 time(s), expected 2"),
    ("O0+U0+", "crossing id must be positive, got 0"),
    # a malformed passage is reported before any pairing fault
    ("O2+U2-;O0+U0+", "crossing id must be positive, got 0"),
])
def test_validation_messages(bad, message):
    with pytest.raises(ValidationError) as exc:
        parse(bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("first, second, message", [
    (Passage(1, "X", 1), Passage(1, "U", 1), "bad strand flag 'X'"),
    (Passage(1, "O", 1), Passage(1, "X", 1), "bad strand flag 'X'"),
    (Passage(1, "O", 2), Passage(1, "U", 2), "bad sign 2"),
    (Passage(1, "O", 1), Passage(1, "U", 2), "bad sign 2"),
    (Passage(0, "O", 1), Passage(0, "U", 1), "crossing id must be positive, got 0"),
])
def test_diagram_checks_each_passage(first, second, message):
    # Passage itself checks nothing; the Diagram constructor does
    with pytest.raises(ValidationError) as exc:
        Diagram(((first, second),))
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [
    collections.namedtuple("Record", "crossing strand sign")(1, "O", 1),
    "O1+",
    (1, "O", 1),
    [1, "O", 1],
], ids=["record", "string", "tuple", "list"])
def test_diagram_refuses_what_is_not_a_passage(bad):
    """Only a pooled ``Passage`` is a passage: a record with valid fields
    is refused like a string, a tuple or a list, wherever it stands."""
    for comps in (((bad, Passage(1, "U", 1)),), ((Passage(1, "U", 1), bad),)):
        with pytest.raises(ValidationError) as exc:
            Diagram(comps)
        assert str(exc.value) == f"not a passage: {bad!r}"


_CROSSINGS = (1, 2, True, False, 1.0, 3.0, 0, -1, "1", None)
_STRANDS = ("O", "U", "X", "", 1, True, None)
_SIGNS = (1, -1, True, False, 1.0, -1.0, 0, 2, "+", None)


def test_passage_rule_is_stated_once():
    """Over a grid of fields, a passage is pooled exactly when
    ``_passage_error`` finds no fault, and a one-crossing Diagram of those
    fields raises exactly that fault."""
    for c in _CROSSINGS:
        for s in _STRANDS:
            for g in _SIGNS:
                error = diagram_module._passage_error(c, s, g)
                assert (Passage(c, s, g) is Passage(c, s, g)) == (error is None), (c, s, g)
                comps = ((Passage(c, s, g), Passage(c, "U" if s == "O" else "O", g)),)
                if error is None:
                    assert Diagram(comps).sign(c) == g
                    continue
                with pytest.raises(ValidationError) as exc:
                    Diagram(comps)
                assert str(exc.value) == error, (c, s, g)


@pytest.mark.parametrize("code", ["0", "O1+U1+", "O1+O2+U1+U2+;0", "O1-;U1-"])
def test_crossing_table_waits_for_a_query(code):
    """Parsing checks a code but builds no crossing table; the first
    per-crossing query builds it, and later queries read the same one."""
    d = parse(code)
    assert d._table is None
    d.crossing_ids()
    table = d._table
    assert table is not None
    for c in d.crossing_ids():
        d.sign(c)
    assert d._table is table


def _scan(d):
    """Brute force: crossing id -> (over (comp, pos), under (comp, pos), sign)."""
    out = {}
    for ci, comp in enumerate(d.components):
        for pi, p in enumerate(comp):
            over, under, _ = out.get(p.crossing, (None, None, None))
            if p.over:
                over = (ci, pi)
            else:
                under = (ci, pi)
            out[p.crossing] = (over, under, p.sign)
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 9), st.integers(1, 4))
def test_crossing_table_matches_scan(seed, n_chords, n_components):
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    scan = _scan(d)
    assert d.crossing_ids() == tuple(sorted(scan))
    assert d.n_crossings == len(scan)
    for cid, (over, under, sign) in scan.items():
        assert d.sign(cid) == sign
        assert d.passage_positions(cid) == (over, under)
        assert d.components_of(cid) == (over[0], under[0])
        assert d.is_self_crossing(cid) == (over[0] == under[0])
    unknown = max(scan, default=0) + 1
    for query in (d.sign, d.passage_positions, d.components_of, d.is_self_crossing):
        with pytest.raises(PreconditionError):
            query(unknown)
    twin = Diagram(tuple(
        tuple(Passage(p.crossing, p.strand, p.sign) for p in comp)
        for comp in d.components
    ))
    assert twin == d and hash(twin) == hash(d)
    assert len({d, twin}) == 1


def test_serialize_rotation_normalizes():
    assert serialize(parse("U1+O2+U2+O1+")) == "O1+U1+O2+U2+"
    assert serialize(parse("U2+O1+U1+O2+")) == "O1+U1+O2+U2+"
    assert serialize(parse("O1-;U1-")) == "O1-;U1-"


def test_serialize_parse_idempotent():
    for seed in range(40):
        d = random_knot(seed)
        assert serialize(parse(serialize(d))) == serialize(d)


def _token_order(token):
    """A passage token's rank read off its text: strand O < U, then id,
    then sign + < -."""
    return (token[0] == "U", int(token[1:-1]), token[-1] == "-")


def _oracle_component_text(comp):
    tokens = [p.token() for p in comp]
    if not tokens:
        return "0"
    rotations = [tokens[r:] + tokens[:r] for r in range(len(tokens))]
    return "".join(min(rotations, key=lambda toks: [_token_order(t) for t in toks]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 14), st.integers(1, 4),
       st.lists(st.integers(0, 20), min_size=4, max_size=4))
def test_serialize_matches_least_rotation_oracle(seed, n_chords, n_components, shifts):
    """Up to 14 chords, so that crossing ids pass 9, where the text order of
    tokens (``O10`` < ``O2``) and their order by number differ."""
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    text = serialize(d)
    assert text == ";".join(_oracle_component_text(c) for c in d.components)
    rotated = Diagram(tuple(
        c[r % len(c):] + c[:r % len(c)] if c else c
        for c, r in zip(d.components, shifts)
    ))
    assert serialize(rotated) == text


def test_mirror_flips_everything(vtref):
    m = mirror(vtref)
    assert serialize(m) == "O1-O2-U1-U2-"
    for seed in range(50):
        d = random_knot(seed)
        assert serialize(mirror(mirror(d))) == serialize(d)


def test_crossing_change_involution(vtref, hopf):
    once = crossing_change(vtref, 1)
    assert serialize(crossing_change(once, 1)) == serialize(vtref)
    assert serialize(crossing_change(hopf, 1)) == "U1+;O1+"


def test_crossing_change_everywhere_is_mirror():
    for seed in range(20):
        d = random_knot(seed)
        cur = d
        for cid in d.crossing_ids():
            cur = crossing_change(cur, cid)
        assert serialize(cur) == serialize(mirror(d))


def test_crossing_change_unknown_id(vtref):
    with pytest.raises(PreconditionError):
        crossing_change(vtref, 99)


def test_reverse_component_involution():
    rng = random.Random(5)
    for seed in range(30):
        d = random_chord_diagram(rng, rng.randint(1, 5), rng.randint(1, 3))
        for i in range(1, d.n_components + 1):
            assert serialize(reverse_component(reverse_component(d, i), i)) \
                == serialize(d)


def test_reverse_component_sign_rule(hopf, vtref):
    # one passage on the reversed component: sign flips
    assert reverse_component(hopf, 1).sign(1) == 1
    # both passages on it: sign kept
    rev = reverse_component(vtref, 1)
    assert rev.sign(1) == 1 and rev.sign(2) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 8), st.integers(1, 4))
def test_reverse_component_matches_crossing_table_rule(seed, n_chords, n_components):
    # Independent of one_sided: a crossing flips iff exactly one of its two
    # passages lies on the reversed component, read off the crossing table.
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    for i in range(1, d.n_components + 1):
        t = i - 1
        rev = reverse_component(d, i)
        assert rev.components[t] == tuple(
            Passage(p.crossing, p.strand, rev.sign(p.crossing))
            for p in reversed(d.components[t])
        )
        assert rev.components[:t] + rev.components[t + 1:] == tuple(
            tuple(Passage(p.crossing, p.strand, rev.sign(p.crossing)) for p in comp)
            for comp in d.components[:t] + d.components[t + 1:]
        )
        for cid in d.crossing_ids():
            oc, uc = d.components_of(cid)
            flips = (oc == t) != (uc == t)
            assert rev.sign(cid) == (-d.sign(cid) if flips else d.sign(cid))
    for i in (0, d.n_components + 1):
        with pytest.raises(PreconditionError):
            reverse_component(d, i)
        with pytest.raises(PreconditionError):
            kink_class_fingerprints(d, i, 0, 1)


def test_reorder_components(hopf):
    assert serialize(reorder_components(hopf, (2, 1))) == "U1-;O1-"
    assert serialize(reorder_components(hopf, (1, 2))) == serialize(hopf)
    with pytest.raises(PreconditionError):
        reorder_components(hopf, (1, 1))


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_component_arguments_must_be_ints(hopf, kishino, bad):
    """A component index or permutation entry that is no int, bools
    included, is a precondition error naming the value, not a
    ``TypeError`` and not a silent match of ``1.0 == 1``."""
    for perm in ([2.0, 1.0], [2, bad]):
        with pytest.raises(PreconditionError) as exc:
            reorder_components(hopf, perm)
        assert str(exc.value) == f"{tuple(perm)} is not a permutation of 1..2"
    message = f"component index must be an integer, got {bad!r}"
    with pytest.raises(PreconditionError) as exc:
        b_sum(kishino, bad)
    assert str(exc.value) == message
    vk3 = named("VK3")
    with pytest.raises(PreconditionError) as exc:
        restricted_flatsum_fingerprint(b_sum(vk3, 1), vk3, bad, 1, 2)
    assert str(exc.value) == message


def test_reorder_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        d = random_chord_diagram(rng, 4, 3)
        perm = [1, 2, 3]
        rng.shuffle(perm)
        inverse = [0] * 3
        for slot, old in enumerate(perm):
            inverse[old - 1] = slot + 1
        assert serialize(reorder_components(reorder_components(d, perm), inverse)) \
            == serialize(d)


def test_flat_key_crossing_change_invariance():
    for seed in range(40):
        d = random_knot(seed, 5)
        key = flat_key(d)
        for cid in d.crossing_ids():
            assert flat_key(crossing_change(d, cid)) == key
        assert flat_key(mirror(d)) == key


def test_flat_key_orbit_constant_under_all_change_subsets(vtref, kishino):
    import itertools

    for d in (vtref, kishino):
        key = flat_key(d)
        ids = d.crossing_ids()
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                cur = d
                for cid in subset:
                    cur = crossing_change(cur, cid)
                assert flat_key(cur) == key


def test_flat_key_rotation_invariance(vtref):
    comp = vtref.components[0]
    for r in range(len(comp)):
        rotated = parse("".join(p.token() for p in comp[r:] + comp[:r]))
        assert flat_key(rotated) == flat_key(vtref)


def test_flat_key_separates(unknot, vtref):
    assert flat_key(vtref) != flat_key(unknot)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_ops_preserve_validity(seed):
    d = random_knot(seed, 5)
    # the builders skip validation: the validating constructor checks them
    _assert_valid(mirror(d))
    for cid in d.crossing_ids():
        _assert_valid(crossing_change(d, cid))
    _assert_valid(reverse_component(d, 1))


def _assert_valid(r):
    """``r``, built unchecked, against the validating constructor on its
    components: equal, and every per-crossing query agrees."""
    oracle = Diagram(r.components)
    assert r == oracle and hash(r) == hash(oracle)
    assert r.crossing_ids() == oracle.crossing_ids()
    assert r.n_crossings == oracle.n_crossings
    for c in oracle.crossing_ids():
        assert r.sign(c) == oracle.sign(c)
        assert r.passage_positions(c) == oracle.passage_positions(c)
        assert r.components_of(c) == oracle.components_of(c)
        assert r.is_self_crossing(c) == oracle.is_self_crossing(c)
    return r


def _built(d, rng):
    """Every unchecked builder applied to ``d``: the smoothings and the
    crossing changes at each crossing, each component reversed, the
    mirror, a reordering, and every searched move with a sample of the
    insert moves."""
    for c in d.crossing_ids():
        yield crossing_change(d, c)
        if d.is_self_crossing(c):
            yield from (smooth1(d, c), smooth2(d, c), smooth2_changed(d, c))
        else:
            yield smooth3(d, c)
    for i in range(1, d.n_components + 1):
        yield reverse_component(d, i)
    yield mirror(d)
    yield reorder_components(d, rng.sample(range(1, d.n_components + 1), d.n_components))
    sites = MoveSites(d)
    searched = enumerate_moves(d, KINDS[:3])
    picks = searched + [sites[i] for i in rng.sample(range(len(searched), len(sites)),
                                                     min(8, len(sites) - len(searched)))]
    for m in picks:
        yield apply_move(d, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6), st.integers(1, 3))
def test_unchecked_builders_match_validating_constructor(seed, n_chords, n_components):
    """Along a random walk (itself built by ``apply_move``), every result
    of every unchecked builder, and of a builder applied to such a result,
    equals the validated Diagram of its components and answers every
    per-crossing query alike."""
    rng = random.Random(seed)
    d = random_chord_diagram(rng, n_chords, n_components)
    for cur in walk(d, 8, seed, 9):
        for r in _built(_assert_valid(cur), rng):
            _assert_valid(r)
            for c in r.crossing_ids()[:1]:
                _assert_valid(crossing_change(r, c))


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 3), st.sampled_from("OU"), st.sampled_from((1, -1))),
       st.tuples(st.integers(1, 3), st.sampled_from("OU"), st.sampled_from((1, -1))))
def test_passage_equality_is_field_equality(f, g):
    p, q = Passage(*f), Passage(*g)
    assert (p is q) == (p == q) == (f == g)
    assert hash(p) == hash(q) or f != g
    assert (p.crossing, p.strand, p.sign) == f


def test_passage_is_a_frozen_interned_record():
    p = Passage(1, "O", 1)
    assert Passage(1, "O", 1) is p
    assert repr(p) == "Passage(crossing=1, strand='O', sign=1)"
    for name in ("crossing", "strand", "sign", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, 2)
    with pytest.raises(FrozenInstanceError):
        del p.sign
    assert (p.crossing, p.strand, p.sign) == (1, "O", 1)
    assert copy.copy(p) is p and copy.deepcopy(p) is p


def test_passage_pool_is_bounded():
    """The pool keeps only passages a Diagram accepts: at most four per
    crossing id, also after the catalog and a 200-step walk."""
    for entry in builtin_catalog().values():
        entry.diagram()
    link = "O1-U3+U4-U5+O3+U11-U12+;O2+U2+O4-O5+U1-O11-O12+;0"
    for _ in walk(parse(link), 200, 7, 12):
        pass
    Passage(0, "O", 1), Passage(1, "X", 1), Passage(1, "O", 2)  # never pooled
    keys = list(diagram_module._POOL)
    assert all(c >= 1 and s in "OU" and g in (1, -1) for c, s, g in keys)
    assert len(keys) <= 4 * max(c for c, _, _ in keys)


def test_a_large_crossing_id_is_pooled():
    """An id past any machine word is an int like any other: pooled,
    accepted and queried.  The pool is process-wide and
    ``test_passage_pool_is_bounded`` bounds it by its largest id, so this
    runs in a fresh interpreter."""
    script = """
from vknots import Diagram, Passage, serialize
from vknots.diagram import _passage_error
c = 2**70
assert _passage_error(c, "O", 1) is None and Passage(c, "O", 1) is Passage(c, "O", 1)
d = Diagram(((Passage(c, "O", -1), Passage(c, "U", -1)),))
assert d.sign(c) == -1 and serialize(d) == f"O{c}-U{c}-"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_bool_fields_make_no_pooled_passage():
    """``True == 1`` and both hash alike, so a pooled ``Passage(True, "O",
    1)`` would come back for every later ``Passage(1, "O", 1)``.  The pool
    is process-wide, so this runs in a fresh interpreter."""
    script = """
from vknots import Diagram, Passage, ValidationError, serialize
t = Passage(True, "O", 1)
p = Passage(1, "O", 1)
assert p is not t and repr(p) == "Passage(crossing=1, strand='O', sign=1)", repr(p)
assert Passage(1, "O", True) is not p and Passage(1, "O", 1) is p
assert serialize(Diagram(((Passage(1, "O", 1), Passage(1, "U", 1)),))) == "O1+U1+"
for bad, message in (((t, Passage(1, "U", 1)), "crossing id must be an integer, got True"),
                     ((p, Passage(1, "U", True)), "bad sign True"),
                     ((Passage(True, "O", True), Passage(True, "U", True)), "bad sign True")):
    try:
        Diagram((bad,))
    except ValidationError as exc:
        assert str(exc) == message, (bad, exc)
    else:
        raise AssertionError(bad)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_non_int_fields_make_no_pooled_passage():
    """``1.0 == 1`` and ``2.0 == 2`` hash alike too: a passage with a float
    id or sign is rejected by ``Diagram(...)``, never pooled, and gets no
    pool hit.  The pool is process-wide, so this runs in a fresh
    interpreter."""
    script = """
from vknots import Diagram, Passage, ValidationError, parse, serialize
for bad, message in (
        ((Passage(5, "O", 1.0), Passage(5, "U", 1.0)), "bad sign 1.0"),
        ((Passage(1.5, "O", 1), Passage(1.5, "U", 1)), "crossing id must be an integer, got 1.5"),
        ((Passage(3.0, "O", 1), Passage(3, "U", 1)), "crossing id must be an integer, got 3.0")):
    try:
        Diagram((bad,))
    except ValidationError as exc:
        assert str(exc) == message, (bad, exc)
    else:
        raise AssertionError(bad)
before = Passage(2.0, "O", 1)
p = Passage(2, "O", 1)
after = Passage(2.0, "O", 1)
assert p is not before and p is not after and Passage(2, "O", 1) is p
assert type(p.crossing) is int and type(after.crossing) is float
assert Passage(5, "O", 1) is not Passage(5, "O", 1.0)
assert serialize(parse("O5+U5+")) == "O5+U5+" and parse("O2+U2+").components[0][0] is p
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("wrap", [list, lambda comps: tuple(map(list, comps))],
                         ids=["outer list", "inner lists"])
def test_diagram_stores_tuples(k431, wrap):
    """A Diagram built from lists holds tuples, so it equals and hashes like
    its parse and every memoised invariant can key on it."""
    d = Diagram(wrap(k431.components))
    assert type(d.components) is tuple and all(type(c) is tuple for c in d.components)
    assert d == k431 and hash(d) == hash(k431)
    asked = (("aip", {}), ("djn", {"n": 1}), ("fpoly", {"n": 1}))
    memo.clear()
    values = [compute_invariant(name, d, params) for name, params in asked]
    memo.clear()
    assert values == [compute_invariant(name, k431, params) for name, params in asked]


def _observed(ds):
    """What a caller sees of each Diagram in ``ds`` and of its copy and its
    pickled round trip: the value, its hash and its ``repr``."""
    return [(x, hash(x), repr(x)) for d in ds
            for x in (d, copy.copy(d), pickle.loads(pickle.dumps(d)))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6), st.integers(1, 3))
def test_serialize_writes_a_diagram_once_and_changes_nothing_else(seed, n_chords,
                                                                  n_components):
    """For parsed Diagrams and for every unchecked builder's result,
    ``serialize`` gives the text of a fresh build, writes it once, and
    leaves equality, hashing, ``repr``, copies and pickles as they were."""
    rng = random.Random(seed)
    d = random_chord_diagram(rng, n_chords, n_components)
    ds = [parse(diagram_module._write(d.components)), *_built(d, rng)]
    before = _observed(ds)
    texts = [serialize(r) for r in ds]
    for r, text in zip(ds, texts):
        assert text == diagram_module._write(r.components) == serialize(Diagram(r.components))
        assert serialize(r) is text
    assert _observed(ds) == before
    assert [serialize(x) for x, _, _ in before] == [t for t in texts for _ in range(3)]


def test_a_pickled_diagram_hashes_as_a_fresh_one_in_another_process():
    """Passages hash by identity, so a hash computed in one process means
    nothing in another: a pickle carries the components only."""
    code = "O1+U2+O3+U1+O2+U3+;O4-U4-"
    script = ("import pickle, sys; from vknots import parse, serialize; d = parse(sys.argv[1]); "
              "hash(d), serialize(d), d.sign(1); sys.stdout.buffer.write(pickle.dumps(d))")
    proc = subprocess.run([sys.executable, "-c", script, code], capture_output=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    d, fresh = pickle.loads(proc.stdout), parse(code)
    assert d == fresh and hash(d) == hash(fresh) and {fresh: 1}.get(d) == 1
    assert serialize(d) == serialize(fresh) and d.sign(4) == -1


def test_flat_key_orbit_on_larger_random_diagrams():
    import itertools
    for seed in (3, 17):
        d = random_knot(seed, 6)
        key = flat_key(d)
        ids = d.crossing_ids()
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                cur = d
                for cid in subset:
                    cur = crossing_change(cur, cid)
                assert flat_key(cur) == key
