import itertools

import pytest
from hypothesis import given, strategies as st

from abwscl.errors import (
    AddressOverlap,
    InvalidRestriction,
    NotBijective,
    OverlappingReceptionists,
)
from abwscl.terms import (
    BLOCK,
    Address,
    AddressAllocator,
    AppMessage,
    Event,
    EventMessage,
    Fragment,
    Links,
    LocalState,
    ProcessingState,
    ActorTerm,
    Record,
    blocked,
    call_record,
    canon_value,
    compose,
    fragment_acquaintances,
    members,
    receptionists,
    rename,
    restrict,
)


def make_actor(name: str, kind: str = "AA", **vars) -> ActorTerm:
    addr = Address(name, kind)
    return ActorTerm(
        p=ProcessingState.READY,
        addr=addr,
        state=LocalState(behavior="B", vars=tuple(sorted(vars.items()))),
        last_signal=Event.READY,
        tau=addr,
        links=Links(kind),
    )


def test_canon_value_spellings():
    assert canon_value(None) == "unit"
    assert canon_value(True) == "true"
    assert canon_value(False) == "false"
    assert canon_value(3) == "3"
    assert canon_value(30.0) == "30.0"
    assert canon_value('say "hi"') == '"say \\"hi\\""'
    assert canon_value(Address("x", "AA")) == "x"
    assert canon_value((1, (2,))) == "[1, [2]]"


def test_record_fields_are_order_free():
    r1 = Record.of(b=2, a=1)
    r2 = Record.of(**{"a": 1, "b": 2})
    assert r1 == r2
    assert r1.canon() == "{a: 1, b: 2}"
    assert r1.get("a") == 1
    assert r1.get("missing", "d") == "d"


def test_call_record_carries_method_and_args():
    r = call_record("pay", [1, "x"])
    assert r.get("method") == "pay"
    assert r.get("args") == (1, "x")
    am = AppMessage(dest=Address("a"), value=r)
    assert am.method == "pay"
    assert am.args == (1, "x")


def test_block_relation_is_exactly_the_two_pairs():
    hits = {
        (l, e) for l, e in itertools.product(Event, Event) if blocked(l, e)
    }
    assert hits == BLOCK
    assert (Event.TRANSMIT, Event.COMPLETE) in BLOCK
    assert (Event.READY, Event.DELIVER) in BLOCK
    assert len(list(itertools.product(Event, Event))) == 16


def test_fragment_make_normalizes_order():
    a, b = make_actor("a"), make_actor("b")
    e1 = EventMessage(a.addr, b.addr, Event.READY)
    e2 = EventMessage(b.addr, a.addr, Event.READY)
    f1 = Fragment.make(actors=(a, b), events=(e1, e2))
    f2 = Fragment.make(actors=(b, a), events=(e2, e1))
    assert f1.canon() == f2.canon()
    assert f1 == f2

    c = make_actor("c")
    apps = (AppMessage(a.addr, call_record("m", ())), AppMessage(b.addr, 1, src=c.addr))
    first = Fragment.make((a, b, c), (e1, e2), apps, {a.addr, b.addr})
    for actors, events, msgs in itertools.product(
        itertools.permutations((a, b, c)), itertools.permutations((e1, e2)),
        itertools.permutations(apps),
    ):
        f = Fragment.make(actors, events, msgs, [b.addr, a.addr])
        assert f.key() == first.key()
    # the restriction is part of the key: absent, empty and named all differ
    keys = {Fragment.make((a,), restriction=r).key() for r in (None, (), (a.addr,))}
    assert len(keys) == 3


def test_receptionists_default_to_members():
    a, b = make_actor("a"), make_actor("b")
    f = Fragment.make(actors=(a, b))
    assert receptionists(f) == members(f) == {a.addr, b.addr}
    g = restrict(f, {a.addr})
    assert receptionists(g) == {a.addr}
    assert members(g) == {a.addr, b.addr}


def test_restrict_rejects_non_members():
    f = Fragment.make(actors=(make_actor("a"),))
    with pytest.raises(InvalidRestriction):
        restrict(f, {Address("ghost")})


def test_compose_requires_disjoint_members():
    a = make_actor("a")
    f1 = Fragment.make(actors=(a, make_actor("b")))
    f2 = Fragment.make(actors=(a, make_actor("c")))
    with pytest.raises(OverlappingReceptionists):
        compose(f1, f2)
    # hiding the shared address from both restriction sets exposes the
    # deeper membership clash instead
    g1 = restrict(f1, {Address("b")})
    g2 = restrict(f2, {Address("c")})
    with pytest.raises(AddressOverlap):
        compose(g1, g2)


def test_compose_merges_and_unions_restrictions():
    f1 = restrict(Fragment.make(actors=(make_actor("a"), make_actor("b"))), {Address("a")})
    f2 = Fragment.make(actors=(make_actor("c"),))
    g = compose(f1, f2)
    assert members(g) == {Address("a"), Address("b"), Address("c")}
    assert receptionists(g) == {Address("a"), Address("c")}
    h = compose(Fragment.make(actors=(make_actor("d"),)), Fragment.make())
    assert h.restriction is None


def test_rename_requires_a_bijection():
    f = Fragment.make(actors=(make_actor("a"), make_actor("b")))
    with pytest.raises(NotBijective):
        rename(f, {Address("a"): Address("z"), Address("b"): Address("z")})
    with pytest.raises(NotBijective):
        rename(f, {Address("a"): Address("b")})


def test_rename_round_trips():
    a = make_actor("a", friend=Address("b"))
    b = make_actor("b")
    f = Fragment.make(
        actors=(a, b),
        apps=(AppMessage(dest=Address("b"), value=call_record("m", [Address("a")]), src=Address("a")),),
    )
    mapping = {Address("a"): Address("x"), Address("b"): Address("y")}
    g = rename(f, mapping)
    assert members(g) == {Address("x"), Address("y")}
    assert Address("a") not in fragment_acquaintances(g)
    back = rename(g, {v: k for k, v in mapping.items()})
    assert back.canon() == f.canon()


def test_allocator_is_monotone_and_clonable():
    alloc = AddressAllocator()
    first = alloc.fresh("AA", "aa")
    second = alloc.fresh("WS")
    assert first == Address("aa#0", "AA")
    assert second == Address("ws#1", "WS")
    twin = alloc.clone()
    assert twin.fresh("AA") == alloc.fresh("AA")
    alloc2 = AddressAllocator().advance_past(["aa#7", "plain", "x#2"])
    assert alloc2.fresh("AA").id == "aa#8"


values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.text(max_size=4)
    | st.builds(Address, st.sampled_from(["a", "b", "c"])),
    lambda leaf: st.lists(leaf, max_size=3).map(tuple)
    | st.dictionaries(st.sampled_from(["k1", "k2"]), leaf, max_size=2)
    .map(lambda d: Record.of(**d)),
    max_leaves=8,
)


@given(values)
def test_canon_value_is_stable(v):
    assert canon_value(v) == canon_value(v)


@given(st.dictionaries(st.text(max_size=3), st.integers(-5, 5), max_size=4))
def test_record_canon_ignores_insertion_order(d):
    base = Record.of(**d)
    for order in itertools.islice(itertools.permutations(d.items()), 6):
        assert Record.of(**dict(order)).canon() == base.canon()
