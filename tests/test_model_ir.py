"""The mixed-integer model container and its self-checks."""

import gc
import os
import sys
import threading
from fractions import Fraction

import pytest

from tollgate import formulations, lp_format
from tollgate.model_ir import Constraint, ModelIR, Variable, _gc_paused


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
    with pytest.raises(ValueError):
        Variable("b", binary=True, lower=Fraction(0), upper=Fraction(2))
    with pytest.raises(ValueError):
        Variable("x", lower=Fraction(3), upper=Fraction(1))


def test_records_keep_their_fields_and_variable_equality():
    var = Variable("x", lower=Fraction(1, 2), upper=3)
    assert (var.name, var.lower, var.upper, var.binary) == ("x", Fraction(1, 2), 3, False)
    assert var == Variable("x", Fraction(1, 2), 3, False)
    assert hash(var) == hash(Variable("x", Fraction(1, 2), 3))
    assert var != Variable("x", Fraction(1, 2), 4)
    assert Variable("b", 0, 1, binary=True) != Variable("b", 0, 1)
    row = Constraint("cap", ((1, "x"),), "<=", 4)
    assert (row.tag, row.terms, row.sense, row.rhs) == ("cap", ((1, "x"),), "<=", 4)
    with pytest.raises(ValueError, match="no terms"):
        Constraint("empty", (), "<=", 0)
    # Slotted: no per-instance dict.
    assert not hasattr(var, "__dict__") and not hasattr(row, "__dict__")


def test_redeclare_same_shape_is_noop():
    m = small_model()
    m.add_variable("x", lower=0, upper=5)
    assert len(m.variables) == 3


def test_redeclare_different_shape_fails():
    m = small_model()
    with pytest.raises(ValueError, match="re-declared"):
        m.add_variable("x", lower=0, upper=6)


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
    row = m.add_constraint(
        "merged", [(1, "x"), (2, "x"), (1, "y"), (-1, "y")], "<=", 3
    )
    assert row.terms == ((Fraction(3), "x"),)


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


@pytest.fixture
def collector_on():
    """Start with the collector on; restore the state found, whatever happens."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_gc_pause_nests(collector_on):
    with _gc_paused():
        assert not gc.isenabled()
        with _gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_gc_pause_is_lifted_after_an_exception(collector_on):
    with pytest.raises(RuntimeError, match="inside"):
        with _gc_paused():
            raise RuntimeError("inside")
    assert gc.isenabled()


def test_gc_pause_keeps_a_disabled_collector_disabled(collector_on):
    gc.disable()
    with _gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_assembly_and_writer_run_with_the_collector_paused(
    collector_on, monkeypatch, fig, fig_enum, fig_bigm
):
    seen = []

    def spy(original):
        def call(*args, **kwargs):
            seen.append((original.__name__, gc.isenabled()))
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(formulations, "_emit_block", spy(formulations._emit_block))
    monkeypatch.setattr(lp_format, "_terms_text", spy(lp_format._terms_text))
    hybrid = formulations.assemble_hybrid(fig, None, "STD", "STD", fig_bigm, [fig_enum])
    assert gc.isenabled()
    lp_format.write_lp(hybrid.ir)
    assert gc.isenabled()
    assert {name for name, _ in seen} == {"_emit_block", "_terms_text"}
    assert not any(enabled for _, enabled in seen)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_gc_pause_is_restored_under_threads(collector_on, enabled):
    # Threads that each saved and restored the collector's state on their
    # own would turn it back on while another thread is inside, or leave it
    # off for good; the shared count must restore the state found.
    if not enabled:
        gc.disable()
    workers = (os.cpu_count() or 1) + 2  # more threads than cores
    together = threading.Barrier(workers, timeout=30)
    errors = []

    def worker():
        try:
            for _ in range(20):
                together.wait()
                with _gc_paused():
                    together.wait()  # every thread is inside at once
                    if gc.isenabled():
                        errors.append("collector on inside the pause")
            for _ in range(200):  # and unsynchronized entries and exits
                with _gc_paused():
                    if gc.isenabled():
                        errors.append("collector on inside the pause")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert gc.isenabled() is enabled
