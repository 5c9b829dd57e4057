"""Data model, validation, and the instance file format."""

from fractions import Fraction

import pytest

from conftest import raw_sweep_instance
from tollgate.bigm import compute_bigm
from tollgate.enumeration import enumerate_paths
from tollgate.network import (
    Arc,
    Commodity,
    InstanceError,
    Network,
    ProblemInstance,
    as_fraction,
    format_rational,
    load_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)


def test_as_fraction_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("7/2") == Fraction(7, 2)
    value = Fraction(5, 3)
    assert as_fraction(value) is value
    assert as_fraction(-1) == Fraction(-1)


def test_as_fraction_rejects_floats():
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(TypeError):
            as_fraction(bad)


def test_format_rational_round_trips():
    for value in (Fraction(3), Fraction(7, 2), Fraction(-1, 3)):
        assert as_fraction(format_rational(value)) == value


def test_arc_rejects_self_loop_and_bad_cost():
    with pytest.raises(InstanceError):
        Arc(0, 1, 1, Fraction(1), False)
    with pytest.raises(InstanceError):
        Arc(0, 0, 1, Fraction(0), False)


def test_commodity_validation():
    with pytest.raises(InstanceError):
        Commodity(2, 2, Fraction(1))
    with pytest.raises(InstanceError):
        Commodity(0, 1, Fraction(0))


def test_network_index_and_range_checks():
    with pytest.raises(InstanceError):
        Network(3, [Arc(1, 0, 1, Fraction(1), False)])
    with pytest.raises(InstanceError):
        Network(2, [Arc(0, 0, 5, Fraction(1), False)])


def test_network_adjacency(fig):
    net = fig.network
    assert net.num_arcs == 7
    assert net.out_adj[0] == ((1, 0), (4, 6))
    assert net.in_adj[4] == ((2, 2), (3, 4), (1, 5), (0, 6))
    assert net.tolled_ids == (0, 1, 2)


def test_with_costs_replaces_only_listed(fig):
    net = fig.network.with_costs({0: Fraction(9)})
    assert net.arc(0).cost == 9
    assert net.arc(1).cost == 1
    assert net.arc(0).tolled


def test_path_builder(fig):
    p = fig.network.path([0, 1, 2])
    assert p.nodes == (0, 1, 2, 4)
    assert p.cost == 3
    assert p.tolled_set == frozenset({0, 1, 2})
    assert p.origin == 0 and p.destination == 4
    assert not p.is_toll_free()
    assert len(p) == 3


def test_path_builder_rejects_bad_sequences(fig):
    with pytest.raises(InstanceError):
        fig.network.path([])
    with pytest.raises(InstanceError):
        fig.network.path([0, 2])  # arc 2 does not start where arc 0 ends


def test_path_builder_rejects_revisits():
    arcs = [
        Arc(0, 0, 1, Fraction(1), False),
        Arc(1, 1, 0, Fraction(1), False),
        Arc(2, 0, 2, Fraction(1), False),
    ]
    net = Network(3, arcs)
    with pytest.raises(InstanceError):
        net.path([0, 1, 2])


def test_instance_requires_commodities(fig):
    with pytest.raises(InstanceError):
        ProblemInstance(fig.network, ())


def test_validate_requires_toll_free_route():
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 0, Fraction(1), False),
    ]
    bad = ProblemInstance(Network(2, arcs), (Commodity(0, 1, Fraction(1)),))
    with pytest.raises(InstanceError, match="toll-free"):
        validate_instance(bad)


def test_one_toll_free_row_serves_validation_bigm_and_enumeration(monkeypatch):
    text = serialize_instance(raw_sweep_instance("grid:5x12"))
    # Every toll-free sweep, and every toll-free row read, as (target, row).
    swept, read = [], []
    sweep, row_of = Network.sweep, Network.toll_free_row

    def spy_sweep(self, target, prices):
        row = sweep(self, target, prices)
        if None in prices:
            swept.append((target, row))
        return row

    def spy_read(self, target):
        row = row_of(self, target)
        read.append((target, row))
        return row

    monkeypatch.setattr(Network, "sweep", spy_sweep)
    instance = parse_instance(text)
    net = instance.network
    validated = dict(swept)
    assert len(validated) == len(swept)
    assert set(validated) == {com.destination for com in instance.commodities}
    monkeypatch.setattr(Network, "toll_free_row", spy_read)
    compute_bigm(net, instance.commodities)
    by_bigm = list(read)
    for k, com in enumerate(instance.commodities):
        enumerate_paths(net, com, cap=2, commodity_index=k)
    by_enumeration = read[len(by_bigm):]
    assert by_bigm and by_enumeration
    assert all(row is validated[target] for target, row in read)
    # Neither big-M nor enumeration swept a toll-free row again.
    assert len(swept) == len(validated)


def test_serialize_parse_round_trip(fig):
    text = serialize_instance(fig)
    back = parse_instance(text, label=fig.label)
    assert serialize_instance(back) == text
    assert back.commodities == fig.commodities
    assert [(a.tail, a.head, a.cost, a.tolled) for a in back.network.arcs] == [
        (a.tail, a.head, a.cost, a.tolled) for a in fig.network.arcs
    ]


def test_parse_ignores_comments_and_blanks(fig):
    text = serialize_instance(fig)
    noisy = "# header comment\n\n" + text.replace(
        "npp", "npp", 1
    ) + "\n# trailing\n"
    assert serialize_instance(parse_instance(noisy)) == text


def test_parse_rejects_malformed_lines():
    with pytest.raises(InstanceError):
        parse_instance("")
    with pytest.raises(InstanceError):
        parse_instance("npp 2 1\narc 0 1 1 F\ncommodity 0 1 1")
    with pytest.raises(InstanceError):
        parse_instance("npp 2 1 1\narc 0 1 1 X\ncommodity 0 1 1")
    with pytest.raises(InstanceError):
        parse_instance("npp 2 1 1\narc 0 1 1 F\n")


@pytest.mark.parametrize(
    "text",
    [
        "npp 3 -1 2\ncommodity 0 2 1",
        "npp 3 2 -1\narc 0 1 1 F",
        "npp -3 1 1\narc 0 1 1 F\ncommodity 0 1 1",
    ],
)
def test_parse_rejects_negative_header_counts(text):
    # The body line counts can add up all the same, which must not let a
    # line be read as the wrong kind.
    with pytest.raises(InstanceError, match=r"^bad header counts: 'npp "):
        parse_instance(text)


def test_parse_costs_are_exact():
    text = "npp 2 1 1\narc 0 1 1/3 F\ncommodity 0 1 2\n"
    inst = parse_instance(text)
    assert inst.network.arc(0).cost == Fraction(1, 3)


def test_load_instance_uses_stem_as_label(tmp_path, fig):
    target = tmp_path / "roundtrip.npp"
    target.write_text(serialize_instance(fig))
    assert load_instance(target).label == "roundtrip"
