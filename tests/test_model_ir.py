"""The mixed-integer model container and its self-checks."""

import gc
import random
from fractions import Fraction
from itertools import accumulate, pairwise

import pytest

from conftest import fixture_model, perturbed, raw_sweep_instance, sweep_instance
from tollgate import formulations, lp_format
from tollgate.bigm import compute_bigm
from tollgate.enumeration import enumerate_paths
from tollgate.experiments import prepared
from tollgate.model_ir import Constraint, ModelIR, RowBlock, RowPattern, Variable


def small_model():
    m = ModelIR("demo")
    m.add_variable("x", lower=0, upper=5)
    m.add_variable("b", binary=True, upper=1)
    m.add_variable("f", lower=None)
    m.add_constraint("cap", [(1, "x"), (3, "b")], "<=", 4)
    m.add_constraint("link", [(1, "x"), (-1, "f")], "=", 0)
    m.add_objective_term(2, "x")
    m.add_objective_term(1, "b")
    return m


def test_variable_shape_checks():
    m = ModelIR()
    with pytest.raises(ValueError, match="bounds"):
        m.add_variable("b", binary=True, lower=Fraction(0), upper=Fraction(2))
    with pytest.raises(ValueError, match="crossing"):
        m.add_variable("x", lower=Fraction(3), upper=Fraction(1))
    assert m.names == []


def test_records_keep_their_fields_and_variable_equality():
    m = ModelIR()
    m.add_variable("x", lower=Fraction(1, 2), upper=3)
    m.add_variable("b", 0, 1, binary=True)
    m.add_constraint("cap", [(1, "x")], "<=", 4)
    var = m.variables[0]
    assert (var.name, var.lower, var.upper, var.binary) == ("x", Fraction(1, 2), 3, False)
    assert var == Variable("x", Fraction(1, 2), 3, False)
    assert hash(var) == hash(Variable("x", Fraction(1, 2), 3))
    assert var != Variable("x", Fraction(1, 2), 4)
    assert m.variables[1] == Variable("b", 0, 1, binary=True) != Variable("b", 0, 1)
    assert list(m.constraints) == [Constraint("cap", ((1, "x"),), "<=", 4)]
    row = m.constraints[0]
    assert (row.tag, row.terms, row.sense, row.rhs) == ("cap", ((1, "x"),), "<=", 4)
    assert len(m.constraints) == 1 and m.constraints[-1] == row
    assert m.constraints[1:] == [] and m.constraints[:5] == [row]
    with pytest.raises(IndexError):
        m.constraints[1]
    # The columns and flat rows behind the views.
    assert m.column == {"x": 0, "b": 1}
    assert (m.names, m.lower, m.upper, m.binary) == (
        ["x", "b"], [Fraction(1, 2), 0], [3, 1], [False, True]
    )
    assert (m.tags, m.senses, m.rhs) == (["cap"], ["<="], [4])
    assert (m.starts, m.cols, m.coefs) == ([0, 1], [0], [1])
    # Views are tuples: no per-instance dict.
    assert not hasattr(var, "__dict__") and not hasattr(row, "__dict__")


def _columns(m):
    return (dict(m.column), list(m.names), list(m.lower), list(m.upper), list(m.binary))


def test_redeclare_same_shape_fails():
    m = small_model()
    before = _columns(m)
    with pytest.raises(ValueError, match="variable x re-declared"):
        m.add_variable("x", lower=0, upper=5)
    assert _columns(m) == before


def test_redeclare_different_shape_fails():
    m = small_model()
    with pytest.raises(ValueError, match="re-declared"):
        m.add_variable("x", lower=0, upper=6)


def test_block_declaration_matches_one_call_per_name():
    names = [f"x[{j}]" for j in range(5)]
    flags = [j % 2 == 0 for j in range(5)]
    block, loop = small_model(), small_model()
    block.add_variables(names, 0, 1, flags)
    block.add_variables(["L[0]", "L[1]"], None, None)
    block.add_variables(["t[0]"], 0, Fraction(7, 2), binary=False)
    for name, flag in zip(names, flags):
        loop.add_variable(name, 0, 1, binary=flag)
    loop.add_variable("L[0]", None, None)
    loop.add_variable("L[1]", None, None)
    loop.add_variable("t[0]", 0, Fraction(7, 2))
    assert _columns(block) == _columns(loop)
    assert block.column["x[0]"] == 3 and block.column["t[0]"] == 10
    assert block.binary_names() == ("b", "x[0]", "x[2]", "x[4]")
    block.add_variables([], 0, 1, [])
    assert _columns(block) == _columns(loop)


def test_block_redeclaration_with_the_same_shape_fails():
    m = small_model()
    m.add_variables(["y", "z"], 0, 5)
    before = _columns(m)
    with pytest.raises(ValueError, match="variable x re-declared"):
        m.add_variables(["x", "y", "z"], 0, 5)
    with pytest.raises(ValueError, match="variable y re-declared"):
        m.add_variables(["w", "y"], 0, 5)
    assert _columns(m) == before
    # A new name after the failed calls takes the next id.
    m.add_variables(["w"], 0, 5)
    assert _columns(m)[0] == {"x": 0, "b": 1, "f": 2, "y": 3, "z": 4, "w": 5}


@pytest.mark.parametrize(
    "names, lower, upper, binary, message",
    [
        (["y", "x"], 0, 6, False, "variable x re-declared"),
        (["y", "b"], 0, 1, False, "variable b re-declared"),
        (["y", "z", "y"], 0, 1, False, "variable y given twice in one declaration"),
        (["y", "z"], 0, 2, [False, True], "binary variable z must have bounds"),
        (["y", "z"], None, 1, True, "binary variable y must have bounds"),
        (["y", "z"], Fraction(3), Fraction(1), False, "variable y has crossing bounds"),
        (["y", "z"], 0, 1, [True], "2 variables but 1 binary flags"),
    ],
)
def test_a_failed_block_declaration_leaves_the_model_unchanged(
    names, lower, upper, binary, message
):
    m = small_model()
    before = _columns(m)
    with pytest.raises(ValueError, match=message):
        m.add_variables(names, lower, upper, binary)
    assert _columns(m) == before
    assert list(m.column) == m.names
    m.add_variable("y")
    assert m.column["y"] == 3


def test_duplicate_tag_fails():
    m = small_model()
    with pytest.raises(ValueError, match="duplicate"):
        m.add_constraint("cap", [(1, "x")], "<=", 9)


def test_undeclared_variable_fails():
    m = small_model()
    with pytest.raises(ValueError, match="undeclared"):
        m.add_constraint("ghost", [(1, "nope")], "<=", 1)


def test_terms_merge_and_drop_zeros():
    m = ModelIR()
    m.add_variable("x")
    m.add_variable("y")
    m.add_constraint("merged", [(1, "x"), (2, "x"), (1, "y"), (-1, "y")], "<=", 3)
    assert m.constraints[-1].terms == ((Fraction(3), "x"),)


def test_empty_row_rejected():
    m = ModelIR()
    m.add_variable("x")
    with pytest.raises(ValueError):
        m.add_constraint("empty", [(1, "x"), (-1, "x")], "<=", 0)


def test_bad_sense_rejected():
    m = ModelIR()
    m.add_variable("x")
    with pytest.raises(ValueError, match="sense"):
        m.add_constraint("odd", [(1, "x")], "<", 1)


def test_objective_accumulates_and_evaluates():
    m = small_model()
    m.add_objective_term(1, "x")
    assert dict((n, c) for c, n in m.objective) == {
        "x": Fraction(3),
        "b": Fraction(1),
    }
    assert m.objective_value({"x": 2.0, "b": 1.0}) == pytest.approx(7.0)


def test_binary_names():
    m = small_model()
    assert m.binary_names() == ("b",)


def test_violations_clean_assignment():
    m = small_model()
    assert m.violations({"x": 1.0, "b": 1.0, "f": 1.0}) == []


def test_violations_catch_everything():
    m = small_model()
    bad = m.violations({"x": 6.0, "b": 0.4, "f": 0.0})
    text = "\n".join(bad)
    assert "above upper bound" in text
    assert "not near 0 or 1" in text
    assert "cap" in text and "link" in text


def test_violations_respect_tolerance():
    m = small_model()
    nearly = {"x": 1.0 + 5e-7, "b": 1.0, "f": 1.0 + 5e-7}
    assert m.violations(nearly) == []
    assert m.violations(nearly, tolerance=1e-9) != []


def test_tag_counts_group_by_family():
    m = small_model()
    m.add_constraint("cap[0,1]", [(1, "x")], "<=", 7)
    m.add_constraint("cap[0,2]", [(1, "x")], "<=", 8)
    counts = m.tag_counts()
    assert counts["cap"] == 3
    assert counts["link"] == 1


def test_assembly_and_writer_leave_the_collector_alone(
    monkeypatch, fig, fig_enum, fig_bigm
):
    # A library must not switch off the host process's cyclic collector.
    switched = []
    monkeypatch.setattr(gc, "disable", lambda: switched.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: switched.append("enable"))
    seen = []

    def spy(original):
        def call(*args, **kwargs):
            seen.append((original.__name__, gc.isenabled()))
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(formulations, "_emit_block", spy(formulations._emit_block))
    monkeypatch.setattr(lp_format, "_sums", spy(lp_format._sums))
    assert gc.isenabled()
    assemble = spy(formulations.assemble_hybrid)
    write = spy(lp_format.write_lp)
    write(assemble(fig, None, "STD", "STD", fig_bigm, [fig_enum]).ir)
    assert {name for name, _ in seen} == {
        "assemble_hybrid", "_emit_block", "write_lp", "_sums"
    }
    assert all(enabled for _, enabled in seen)
    assert switched == []
    assert gc.isenabled()


def test_views_copy_a_sweep_scale_model_exactly():
    # As perfbench's relaxed_bound copies a model, through the record views.
    instance = sweep_instance("grid:5x12")
    enum = [
        enumerate_paths(instance.network, com, cap=9, commodity_index=k)
        for k, com in enumerate(instance.commodities)
    ]
    bfsets = {k: r.feasible_set() for k, r in enumerate(enum) if r.feasible_set().exhaustive}
    bigm = compute_bigm(instance.network, instance.commodities, bfsets)
    ir = formulations.assemble_hybrid(instance, 8, "PCS2", "STD", bigm, enum).ir
    copy = ModelIR(ir.label)
    for var in ir.variables:
        copy.add_variable(var.name, var.lower, var.upper, binary=var.binary)
    for con in ir.constraints:
        copy.add_constraint(con.tag, con.terms, con.sense, con.rhs)
    for coef, name in ir.objective:
        copy.add_objective_term(coef, name)
    assert any(type(c) is Fraction for c in ir.coefs)
    assert (copy.cols, copy.coefs, copy.starts) == (ir.cols, ir.coefs, ir.starts)
    assert lp_format.write_lp(copy) == lp_format.write_lp(ir)


# -- rows given by column id ------------------------------------------------------


def _rows(m):
    return (
        list(m.tags), set(m._tag_set), list(m.senses), list(m.rhs),
        list(m.starts), list(m.cols), list(m.coefs),
    )


def _block(tags, senses, rhs, lengths, cols, coefs):
    """The rows in one :class:`RowBlock`, one ``RowBlock.add`` each.

    Rows whose lists disagree in length cannot be added one at a time: they
    are set as the block's run of rows as given, for ``add_block`` to refuse.
    """
    block = RowBlock()
    starts = list(accumulate(lengths, initial=0))
    if len(tags) == len(senses) == len(rhs) == len(lengths) and (
        starts[-1] == len(cols) == len(coefs)
    ):
        for tag, sense, value, a, b in zip(tags, senses, rhs, starts, starts[1:]):
            block.add(tag, cols[a:b], coefs[a:b], sense, value)
    else:
        block.tags, block.senses, block.rhs = list(tags), list(senses), list(rhs)
        block.lengths, block.cols, block.coefs = list(lengths), list(cols), list(coefs)
    return block


def _add_one_row(m):
    block = RowBlock()
    block.add("r", [0], [1], "<=", 1)
    m.add_block(block)
    assert m.tags[-1] == "r" and m.starts[-1] == len(m.cols)


def test_add_rows_matches_one_add_constraint_per_row():
    block, loop = small_model(), small_model()
    block.add_block(_block(
        ["r[0]", "r[1]", "r[2]"], ["<=", "=", ">="], [4, Fraction(1, 3), 0],
        [2, 1, 3], [0, 1, 2, 2, 0, 1], [1, Fraction(-5, 2), -1, 3, 2, Fraction(1, 7)],
    ))
    loop.add_constraint("r[0]", [(1, "x"), (Fraction(-5, 2), "b")], "<=", 4)
    loop.add_constraint("r[1]", [(-1, "f")], "=", Fraction(1, 3))
    loop.add_constraint("r[2]", [(3, "f"), (2, "x"), (Fraction(1, 7), "b")], ">=", 0)
    assert _rows(block) == _rows(loop)
    block.add_block(RowBlock())
    assert _rows(block) == _rows(loop)


@pytest.mark.parametrize(
    "tags, senses, rhs, lengths, cols, coefs, message",
    [
        (["r", "r"], ["<=", "<="], [1, 1], [1, 1], [0, 1], [1, 1], "duplicate constraint tag r"),
        (["r", "cap"], ["<=", "<="], [1, 1], [1, 1], [0, 1], [1, 1], "duplicate constraint tag cap"),
        (["r", "s"], ["<=", "<"], [1, 1], [1, 1], [0, 1], [1, 1], "constraint s: bad sense '<'"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 2], [0, 1, 3], [1, 1, 1], "constraint s: column 3 is not declared"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 1], [0, -1], [1, 1], "constraint s: column -1 is not declared"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 1], [0, 1.0], [1, 1], "constraint s: column 1.0 is not declared"),
        (["r", "s"], ["<=", "="], [1, 1], [2, 1], [0, 1, 2], [1, 0, 1], "constraint r: coefficient 0 is not a nonzero"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 1], [0, 1], [1, Fraction(0)], "constraint s: coefficient Fraction"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 2], [0, 1, 2], [1, 1, 0.5], "constraint s: coefficient 0.5 is not"),
        (["r", "s"], ["<=", "="], [1, 0.5], [1, 1], [0, 1], [1, 1], "constraint s: right-hand side 0.5 is not exact"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 2], [0, 1, 1], [1, 1, 2], "constraint s repeats a column"),
        (["r", "s"], ["<=", "="], [1, 1], [2, 0], [0, 1], [1, 1], "constraint s: no terms"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 2], [0, 1], [1, 1], "row lengths sum to 3 for 2 columns"),
        (["r", "s"], ["<=", "="], [1, 1], [1, 1], [0, 1], [1], "row lengths sum to 2 for 2 columns and 1 coefficients"),
        (["r", "s"], ["<=", "="], [1], [1, 1], [0, 1], [1, 1], "2 tags but 2 senses, 1 right-hand sides"),
    ],
)
def test_a_failed_add_rows_leaves_the_model_unchanged(
    tags, senses, rhs, lengths, cols, coefs, message
):
    m = small_model()
    before = (_columns(m), _rows(m))
    block = _block(tags, senses, rhs, lengths, cols, coefs)
    with pytest.raises(ValueError, match=message.replace("(", r"\(")):
        m.add_block(block)
    assert (_columns(m), _rows(m)) == before
    _add_one_row(m)


def test_add_constraint_passes_merged_rows_to_add_rows(monkeypatch):
    m = small_model()
    seen = []
    add_block = ModelIR.add_block

    def spy(self, block):
        add_block(self, block)
        seen.append(block.parts)

    monkeypatch.setattr(ModelIR, "add_block", spy)
    m.add_constraint("merged", [(1, "x"), (2, "x"), (Fraction(1, 2), "b"), (0, "f")], ">=", "3/2")
    # One block of one run of one row.
    assert seen == [[(["merged"], [">="], [Fraction(3, 2)], [2], [0, 1], [3, Fraction(1, 2)])]]
    assert m.constraints[-1] == Constraint(
        "merged", ((3, "x"), (Fraction(1, 2), "b")), ">=", Fraction(3, 2)
    )


def test_violations_match_a_term_by_term_evaluation(fig):
    # Each distinct coefficient becomes a float once; the sums must come out
    # as float() of every term would make them, down to the last bit.
    rng = random.Random(5)
    for kind in ("STD", "CS1", "PCS2"):
        m = fixture_model(perturbed(fig), kind)
        assert any(type(c) is Fraction and c.denominator > 1 for c in m.coefs)
        point = {name: rng.uniform(-1.5, 1.5) for name in m.names}
        expected = []
        for con in m.constraints:
            lhs = sum(float(c) * point[n] for c, n in con.terms)
            rhs = float(con.rhs)
            if con.sense == "<=" and lhs > rhs:
                expected.append(f"{con.tag}: {lhs} > {rhs}")
            elif con.sense == ">=" and lhs < rhs:
                expected.append(f"{con.tag}: {lhs} < {rhs}")
            elif con.sense == "=" and abs(lhs - rhs) > 0:
                expected.append(f"{con.tag}: {lhs} != {rhs}")
        found = [issue for issue in m.violations(point, 0.0) if issue.split(":")[0] in m._tag_set]
        assert found == expected and expected


def test_float_view_follows_appended_rows():
    # The float view is converted once, then extended by the rows appended
    # after a read; the check must see a row added after its last call.
    m = small_model()
    coefs, rhs = m.float_rows()
    assert (coefs, rhs) == ([1.0, 3.0, 1.0, -1.0], [4.0, 0.0])
    point = {"x": 1.0, "b": 1.0, "f": 1.0}
    assert m.violations(point) == []
    m.add_constraint("third", [(Fraction(1, 3), "x"), (2, "f")], ">=", Fraction(7, 2))
    assert m.float_rows() == (
        [1.0, 3.0, 1.0, -1.0, float(Fraction(1, 3)), 2.0],
        [4.0, 0.0, float(Fraction(7, 2))],
    )
    assert m.float_rows()[0] is coefs
    assert m.violations(point) == [f"third: {1 / 3 + 2.0} < 3.5"]


# -- row patterns and stamps -----------------------------------------------------
#
# small_model() has the columns x = 0, b = 1 and f = 2.  The pattern below
# has two rows over three slots: r[k,0] is the coefficients at positions 0
# and 1 times slots 0 and 1, r[k,1] the coefficient at position 2 times
# slot 2.  With _TABLE that is slot 0 less slot 1, and 2 times slot 2.

_TABLE = (1, -1, 2)


def _pattern():
    return RowPattern([(("r[", ",0]"), [0, 1], [0, 1]), (("r[", ",1]"), [2], [2])])


def test_a_stamped_block_matches_its_rows_added_one_by_one():
    stamped, loop = small_model(), small_model()
    block = RowBlock()
    block.add("first", [2], [1], ">=", 0)
    block.stamp(_pattern(), "7", [0, 1, 2], "<=", [1, Fraction(1, 2)], _TABLE)
    table = (1, -3, Fraction(5, 3))
    block.stamp(_pattern(), "8", [2, 0, 1], "=", [0, 3], table)
    block.add("last", [0, 1], [1, 1], "<=", 1)
    stamped.add_block(block)
    # A stamp's coefficients are its table's objects: the LP writer formats
    # each coefficient object once.
    assert stamped.coefs[-3] is table[2]
    loop.add_constraint("first", [(1, "f")], ">=", 0)
    loop.add_constraint("r[7,0]", [(1, "x"), (-1, "b")], "<=", 1)
    loop.add_constraint("r[7,1]", [(2, "f")], "<=", Fraction(1, 2))
    loop.add_constraint("r[8,0]", [(1, "f"), (-3, "x")], "=", 0)
    loop.add_constraint("r[8,1]", [(Fraction(5, 3), "b")], "=", 3)
    loop.add_constraint("last", [(1, "x"), (1, "b")], "<=", 1)
    assert _rows(stamped) == _rows(loop)


def test_a_zero_in_the_coefficient_table_drops_its_terms():
    m = small_model()
    block = RowBlock()
    block.stamp(_pattern(), "7", [0, 1, 2], "<=", [1, 1], (1, 0, 2))
    m.add_block(block)
    assert m.constraints[-2:] == [
        Constraint("r[7,0]", ((1, "x"),), "<=", 1), Constraint("r[7,1]", ((2, "f"),), "<=", 1)
    ]


def test_slots_of_two_rows_may_share_a_column():
    # Rows given by column id may, since no one row repeats a column; so may a stamp.
    m = small_model()
    block = RowBlock()
    block.stamp(_pattern(), "7", [0, 1, 0], "<=", [1, 1], _TABLE)
    m.add_block(block)
    assert m.constraints[-1] == Constraint("r[7,1]", ((2, "x"),), "<=", 1)


_R0, _R1 = ("r[", ",0]"), ("r[", ",1]")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(_R0, [0, 0], [0, 0])], "row pattern r[k,0] repeats a column"),
        ([(_R0, [0, 1], [0, 1]), (_R1, [], [])], "row pattern r[k,1]: no terms"),
        ([(_R0, [0], [0.5]), (_R1, [1], [0])], "row pattern r[k,0]: coefficient position 0.5 is not"),
        ([(_R0, [0], [0]), (_R1, [1], [-1])], "row pattern r[k,1]: coefficient position -1 is not"),
        ([(_R0, [0], [0]), (_R1, [1], [True])], "row pattern r[k,1]: coefficient position True"),
        ([(_R0, [0], [0]), (_R1, [-1], [0])], "row pattern r[k,1]: column -1 is not declared"),
        ([(_R0, [0], [0]), (_R0, [1], [0])], "row pattern r[k,0] given twice"),
        ([(_R0, [0, 1], [0])], "row pattern r[k,0]: 2 slots but 1 coefficient positions"),
    ],
)
def test_a_pattern_is_checked_when_made(rows, message):
    with pytest.raises(ValueError, match=message.replace("[", r"\[")):
        RowPattern(rows)


@pytest.mark.parametrize(
    "table, sense, rhs, values, message",
    [
        ([0, -1, 2], "<=", [1, 1], None, "constraint r[7,0]: column -1 is not declared"),
        ([0, 1, 3], "<=", [1, 1], None, "constraint r[7,1]: column 3 is not declared"),
        ([0, 1, 2.0], "<=", [1, 1], None, "constraint r[7,1]: column 2.0 is not declared"),
        ([1, 1, 2], "<=", [1, 1], None, "constraint r[7,0] repeats a column"),
        ([0, 1], "<=", [1, 1], None, "constraint r[7,1]: slot 2 is beyond the column table"),
        ([0, 1, 2], "<", [1, 1], None, "constraint r[7,0]: bad sense '<'"),
        ([0, 1, 2], "<=", [1, 0.5], None, "constraint r[7,1]: right-hand side 0.5 is not exact"),
        ([0, 1, 2], "<=", [1], None, "2 tags but 2 senses, 1 right-hand sides"),
        ([0, 1, 2], "<=", [1, 1], (1, -1, 0.5), "constraint r[7,1]: coefficient 0.5 is not"),
        ([0, 1, 2], "<=", [1, 1], (1, -1), "constraint r[7,1]: position 2 is beyond"),
        ([0, 1, 2], "<=", [1, 1], (True, -1, 2), "constraint r[7,0]: coefficient True is not"),
        # The zero drops its term, and the rows left still get every check.
        ([0, 1, 3], "<=", [1, 1], (1, 0, 2), "constraint r[7,1]: column 3 is not declared"),
        ([0, 1, 2], "<=", [1, 1], "twice", "duplicate constraint tag r[7,0]"),
        ([0, 1, 2], "<=", [1, 1], "held", "duplicate constraint tag r[7,1]"),
    ],
)
def test_a_failed_stamp_leaves_the_model_unchanged(table, sense, rhs, values, message):
    # Each stamp follows a valid row and stamp in the same block, which must
    # not reach the model either.  Without values of its own a stamp takes
    # _TABLE.
    m = small_model()
    before = (_columns(m), _rows(m))
    block = RowBlock()
    block.add("first", [2], [1], ">=", 0)
    block.stamp(_pattern(), "6", [0, 1, 2], "<=", [1, 1], _TABLE)
    if values == "twice":
        block.stamp(_pattern(), "7", table, sense, rhs, _TABLE)
    elif values == "held":
        m.add_constraint("r[7,1]", [(1, "x")], "<=", 1)
        before = (_columns(m), _rows(m))
    block.stamp(_pattern(), "7", table, sense, rhs, values if type(values) is tuple else _TABLE)
    with pytest.raises(ValueError, match=message.replace("[", r"\[")):
        m.add_block(block)
    assert (_columns(m), _rows(m)) == before
    _add_one_row(m)


@pytest.fixture(
    scope="module",
    params=[
        ("grid:5x12", True), ("grid:5x12", False), ("delaunay:60", True), ("delaunay:60", False)
    ],
    ids=["grid5x12-raw", "grid5x12", "delaunay60-raw", "delaunay60"],
)
def sweep_scale(request):
    """A sweep-scale instance, at its generated costs (raw) and perturbed."""
    topology, raw = request.param
    return raw_sweep_instance(topology) if raw else sweep_instance(topology)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("kind", ["STD", "PCS2"])
def test_every_stamped_row_passes_the_per_term_checks(sweep_scale, n, kind):
    # Assembly checks a pattern once and each stamp only where copies differ;
    # every row must still pass the per-term checks of a row given by column
    # id, and come out the same.
    prep = prepared(sweep_scale, n)
    ir = formulations.assemble_hybrid(
        sweep_scale, n, kind, "STD", prep.bigm, prep.enum, plan=prep.plan
    ).ir
    copy = ModelIR(ir.label)
    for name, lower, upper, binary in zip(ir.names, ir.lower, ir.upper, ir.binary):
        copy.add_variable(name, lower, upper, binary)
    block = RowBlock()
    for tag, sense, rhs, (a, b) in zip(ir.tags, ir.senses, ir.rhs, pairwise(ir.starts)):
        block.add(tag, ir.cols[a:b], ir.coefs[a:b], sense, rhs)
    copy.add_block(block)
    assert _rows(copy) == _rows(ir)
