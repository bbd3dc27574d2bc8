"""The delta-maintained ``Network`` caches against a from-scratch build.

Random edit sequences (every mutator, with queries mixed in) run on one
network; after every step each live cache must equal what
``Network._build_adjacency`` computes from the same node dict: fanout
sets set-equal, and the order-bearing caches (reader pins, readers,
in-degrees, topological order and index) exactly equal.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.functions import TruthTable
from repro.netlist.network import Network

EDITS = (
    "add_input",
    "add_node",
    "remove_node",
    "replace_fanin",
    "substitute",
    "insert_buffer",
    "set_function",
    "set_output",
)
QUERIES = ("fanouts", "topological", "topo_index", "reader_pins")


def scratch(net: Network) -> Network:
    """A network sharing ``net``'s nodes with freshly built caches."""
    ref = Network(net.name)
    ref.nodes = net.nodes
    ref.inputs = net.inputs
    ref.outputs = net.outputs
    ref._build_adjacency()
    return ref


def items(cache: dict) -> list:
    """Key order included: the order-bearing caches must match exactly."""
    return list(cache.items())


def assert_caches_match(net: Network) -> Network:
    ref = scratch(net)
    if net._fanouts is not None:
        assert net._fanouts == ref._fanouts
    if net._reader_pins is not None:
        assert items(net._reader_pins) == items(ref._reader_pins)
    if net._readers is not None:
        assert items(net._readers) == items(ref._readers)
    if net._in_degree is not None:
        assert items(net._in_degree) == items(ref._in_degree)
    if net._topo is not None:
        assert net._topo == ref.topological()
    if net._topo_index is not None:
        assert items(net._topo_index) == items(ref.topo_index())
    return ref


def draw_table(data, arity: int) -> TruthTable:
    bits = data.draw(st.integers(0, (1 << (1 << arity)) - 1))
    return TruthTable(arity, bits)


def draw_fanins(data, candidates: list[str]) -> list[str]:
    return data.draw(
        st.lists(st.sampled_from(candidates), min_size=1, max_size=3)
    )


def apply_edit(net: Network, ref: Network, op: str, data) -> None:
    """One random valid edit; ``ref`` answers the cone queries so the
    choice never builds ``net``'s own caches."""
    names = list(net.nodes)
    gates = [n for n in names if not net.nodes[n].is_input]
    if op == "add_input" or not names:
        net.add_input(net.fresh_name("i"))
    elif op == "add_node":
        fanins = draw_fanins(data, names)
        table = draw_table(data, len(fanins))
        net.add_node(net.fresh_name("g"), fanins, table)
    elif op == "remove_node":
        dead = [n for n in names if not ref.fanouts(n)]
        dead = [n for n in dead if n not in net.outputs]
        if dead:
            net.remove_node(data.draw(st.sampled_from(dead)))
    elif op == "replace_fanin":
        if gates:
            name = data.draw(st.sampled_from(gates))
            old = data.draw(st.sampled_from(net.nodes[name].fanins))
            cone = ref.transitive_fanout([name])
            outside = [n for n in names if n not in cone]
            net.replace_fanin(name, old, data.draw(st.sampled_from(outside)))
    elif op == "substitute":
        old = data.draw(st.sampled_from(names))
        cone = ref.transitive_fanout([old])
        outside = [n for n in names if n not in cone]
        if outside:
            net.substitute(old, data.draw(st.sampled_from(outside)))
    elif op == "insert_buffer":
        driver = data.draw(st.sampled_from(names))
        readers = sorted(ref.fanouts(driver))
        if driver in net.outputs:
            readers.append("@output")
        if readers:
            net.insert_buffer(
                driver,
                data.draw(st.sampled_from(readers)),
                net.fresh_name("b"),
                TruthTable.identity(),
            )
    elif op == "set_function":
        if gates:
            name = data.draw(st.sampled_from(gates))
            cone = ref.transitive_fanout([name])
            outside = [n for n in names if n not in cone]
            fanins = draw_fanins(data, outside) if outside else []
            net.set_function(name, fanins, draw_table(data, len(fanins)))
    else:
        net.set_output(data.draw(st.sampled_from(names)))


def apply_query(net: Network, op: str, data) -> None:
    if op == "fanouts":
        net.fanouts(data.draw(st.sampled_from(list(net.nodes))))
    elif op == "topological":
        net.topological()
    elif op == "topo_index":
        net.topo_index()
    else:
        net.reader_pins()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_edit_sequences_keep_caches_exact(data):
    net = Network("journal")
    net.add_input("a")
    net.add_input("b")
    net.add_node("t", ["a", "b"], TruthTable.and_(2))
    net.set_output("t")
    if data.draw(st.booleans()):
        net.fanouts("a")  # start with live caches
    ref = assert_caches_match(net)
    steps = data.draw(st.integers(1, 30))
    for _ in range(steps):
        live = net._fanouts is not None
        op = data.draw(st.sampled_from(EDITS + QUERIES))
        if op in QUERIES:
            apply_query(net, op, data)
        else:
            apply_edit(net, ref, op, data)
        if live:
            assert net._fanouts is not None  # edits never drop fanouts
        ref = assert_caches_match(net)
    # Finally every order query answers from a rebuild that matches.
    net.reader_pins()
    net.topo_index()
    assert_caches_match(net)


def test_edits_drop_order_caches_but_keep_fanouts():
    net = Network()
    net.add_input("a")
    net.add_node("x", ["a"], TruthTable.inverter())
    net.topo_index()
    fanouts_a = net.fanouts("a")
    net.add_node("y", ["a", "x"], TruthTable.or_(2))
    assert net._topo is None and net._topo_index is None
    assert net._readers is None and net._reader_pins is None
    assert net.fanouts("a") is fanouts_a
    assert fanouts_a == {"x", "y"}


class TestSetFunction:
    def make(self) -> Network:
        net = Network()
        net.add_input("a")
        net.add_input("b")
        net.add_node("x", ["a", "b"], TruthTable.and_(2))
        net.set_output("x")
        return net

    def test_rewires_and_keeps_readers(self):
        net = self.make()
        net.add_node("y", ["x"], TruthTable.inverter())
        net.fanouts("a")
        net.set_function("x", ["b"], TruthTable.inverter())
        assert net.nodes["x"].fanins == ["b"]
        assert net.nodes["x"].function == TruthTable.inverter()
        assert net.fanouts("a") == set()
        assert net.fanouts("b") == {"x"}
        assert net.fanouts("x") == {"y"}

    def test_arity_mismatch_rejected(self):
        net = self.make()
        with pytest.raises(ValueError, match="arity"):
            net.set_function("x", ["a"], TruthTable.and_(2))

    def test_unknown_fanin_rejected(self):
        net = self.make()
        with pytest.raises(ValueError, match="unknown fanin"):
            net.set_function("x", ["a", "zz"], TruthTable.and_(2))

    def test_unknown_node_rejected(self):
        net = self.make()
        with pytest.raises(ValueError, match="unknown node"):
            net.set_function("zz", [], TruthTable.const(0, True))

    def test_input_rejected(self):
        net = self.make()
        with pytest.raises(ValueError, match="input"):
            net.set_function("a", [], TruthTable.const(0, True))
