"""The package's records and its lazily filled namespace.

The records are plain ``__slots__`` classes, built to behave as the
frozen dataclasses they replace: the repr strings, validation messages
and public names pinned here are those the dataclass versions gave.
"""

import copy
import importlib
import pickle
import sys
from fractions import Fraction as F

import pytest

import digitstats
from digitstats import core
from digitstats import (
    BlockSpec,
    Converged,
    DomainError,
    ExperimentConfig,
    ExperimentSummary,
    FrequencyProfile,
    Oscillating,
    OscillationSchedule,
    PartialStats,
    RadixExpansion,
    Undetermined,
)

CONFIG = dict(base=3, depth=10, trials=2, master_seed=7)

# (type, keyword arguments, fields the arguments do not give, repr)
RECORDS = [
    (
        RadixExpansion,
        dict(base=10, preperiod=(1,), period=(6,)),
        {},
        "RadixExpansion(base=10, preperiod=(1,), period=(6,))",
    ),
    (
        PartialStats,
        dict(base=3, n=4, counts=(2, 1, 1)),
        dict(truncated=False),
        "PartialStats(base=3, n=4, counts=(2, 1, 1), truncated=False)",
    ),
    (
        FrequencyProfile,
        dict(base=3, tau=(F(1, 3),) * 3),
        {},
        "FrequencyProfile(base=3, tau=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))",
    ),
    (
        Converged,
        dict(value=F(1, 2), depth=10, tolerance=F(1, 1000)),
        {},
        "Converged(value=Fraction(1, 2), depth=10, tolerance=Fraction(1, 1000))",
    ),
    (
        Oscillating,
        dict(liminf_estimate=F(1, 3), limsup_estimate=F(2, 3), witness_depths=(4, 8)),
        {},
        "Oscillating(liminf_estimate=Fraction(1, 3), limsup_estimate=Fraction(2, 3), witness_depths=(4, 8))",
    ),
    (Undetermined, dict(depth=5), {}, "Undetermined(depth=5)"),
    (
        OscillationSchedule,
        dict(x1=F(1, 4), x2=F(3, 4), epsilon=F(1, 10), horizon=5, breakpoints=(2, 4), w_at_breakpoints=(F(1, 5), F(2, 3))),
        {},
        "OscillationSchedule(x1=Fraction(1, 4), x2=Fraction(3, 4), epsilon=Fraction(1, 10), horizon=5, "
        "breakpoints=(2, 4), w_at_breakpoints=(Fraction(1, 5), Fraction(2, 3)))",
    ),
    (
        BlockSpec,
        dict(theta=F(1), alphas=(F(1, 4), F(1, 2))),
        dict(rows=((0, 0, 0), (1, 0, 1))),
        "BlockSpec(theta=Fraction(1, 1), alphas=(Fraction(1, 4), Fraction(1, 2)), rows=((0, 0, 0), (1, 0, 1)))",
    ),
    (
        ExperimentConfig,
        CONFIG,
        {},
        "ExperimentConfig(base=3, depth=10, trials=2, master_seed=7)",
    ),
    (
        ExperimentSummary,
        dict(
            config=ExperimentConfig(**CONFIG),
            band=F(1, 30),
            r_values=(F(1), F(1, 2)),
            mean=F(3, 4),
            variance=F(1, 8),
            fraction_in_band=F(1, 2),
        ),
        {},
        "ExperimentSummary(config=ExperimentConfig(base=3, depth=10, trials=2, master_seed=7), "
        "band=Fraction(1, 30), r_values=(Fraction(1, 1), Fraction(1, 2)), mean=Fraction(3, 4), "
        "variance=Fraction(1, 8), fraction_in_band=Fraction(1, 2))",
    ),
]


@pytest.mark.parametrize("cls, kwargs, extra, text", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_behaves_as_a_frozen_dataclass(cls, kwargs, extra, text):
    record = cls(**kwargs)
    assert repr(record) == text
    fields = {**kwargs, **extra}
    values = tuple(fields.values())
    assert tuple(getattr(record, name) for name in fields) == values
    assert record == cls(*kwargs.values()) and not record != cls(**kwargs)
    assert hash(record) == hash(values)

    twin = type("Twin", (cls,), {"__slots__": ()})(**kwargs)  # equal field values, another type
    assert record != twin and twin != record and record != values
    assert twin == type(twin)(**kwargs) and hash(twin) == hash(values) and repr(twin) == "Twin" + text[len(cls.__name__) :]

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text


def test_record_defaults_and_match_args():
    assert PartialStats(3, 4, (2, 1, 1)) == PartialStats(base=3, n=4, counts=[2, 1, 1], truncated=False)
    assert PartialStats(3, 4, (2, 1, 1), truncated=True).truncated is True
    match Converged(F(1, 2), 10, F(1, 1000)):
        case Converged(value, depth, tolerance):
            assert (value, depth, tolerance) == (F(1, 2), 10, F(1, 1000))
    match BlockSpec(F(1), (F(1, 4),)):
        case BlockSpec(theta, alphas):
            assert (theta, alphas) == (F(1), (F(1, 4),))


UNCHECKED = [case[:2] for case in RECORDS if "__init__" not in vars(case[0])]


@pytest.mark.parametrize("twin", [False, True], ids=["record", "Twin"])
@pytest.mark.parametrize("cls, kwargs", UNCHECKED, ids=[cls.__name__ for cls, _ in UNCHECKED])
def test_one_constructor_takes_fields_as_a_dataclass_does(cls, kwargs, twin):
    assert {cls.__name__ for cls, _ in UNCHECKED} == {"Converged", "Oscillating", "Undetermined", "ExperimentSummary"}
    if twin:
        cls = type("Twin", (cls,), {"__slots__": ()})
    names, values = list(kwargs), list(kwargs.values())
    record = cls(**kwargs)
    assert cls(*values) == record and cls(*values[:1], **dict(list(kwargs.items())[1:])) == record
    assert tuple(getattr(record, name) for name in names) == tuple(values)
    wrong = [
        ((), dict(list(kwargs.items())[1:])),  # the first field missing
        (values[:-1], {}),  # the last field missing
        ((), {**kwargs, "extra": 1}),  # an unknown keyword
        (values[:1], kwargs),  # the first field by position and by name
        ((*values, 1), {}),  # a surplus positional argument
    ]
    for args, named in wrong:
        with pytest.raises(TypeError) as caught:
            cls(*args, **named)
        message = f"{cls.__qualname__}() takes its fields {tuple(names)} once each, by position or by name"
        assert str(caught.value) == message, (args, named)


def test_restore_stays_unchecked(monkeypatch):
    # unpickling, copying and expand_rational put the fields back as they are, without the canonical-form checks
    record = RadixExpansion(10, (1,), (6,))

    def no_check(word):
        raise AssertionError("a restored record was checked")

    monkeypatch.setattr(core, "_root", no_check)
    with pytest.raises(AssertionError):
        RadixExpansion(10, (1,), (6,))
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is RadixExpansion and clone == record and repr(clone) == repr(record)
    assert digitstats.expand_rational(1, 6, 10) == record  # built by the same unchecked path


# pickles (protocol 2) made when `_restore` lived in `core`: they name `digitstats.core._restore`
OLD_PICKLES = [
    (
        b"\x80\x02cdigitstats.core\n_restore\nq\x00cdigitstats.stats\nPartialStats\nq\x01"
        b"(K\x03K\x04K\x02K\x01K\x01\x87q\x02\x89tq\x03\x86q\x04Rq\x05.",
        PartialStats(3, 4, (2, 1, 1)),
    ),
    (
        b"\x80\x02cdigitstats.core\n_restore\nq\x00cdigitstats.core\nRadixExpansion\nq\x01"
        b"K\nK\x01\x85q\x02K\x06\x85q\x03\x87q\x04\x86q\x05Rq\x06.",
        RadixExpansion(10, (1,), (6,)),
    ),
    (
        b"\x80\x02cdigitstats.core\n_restore\nq\x00cdigitstats.simulate\nExperimentConfig\nq\x01"
        b"(K\x03K\nK\x02K\x01tq\x02\x86q\x03Rq\x04.",
        ExperimentConfig(base=3, depth=10, trials=2, master_seed=1),
    ),
]


@pytest.mark.parametrize("data, record", OLD_PICKLES, ids=[type(case[1]).__name__ for case in OLD_PICKLES])
def test_pickles_that_name_core_restore_still_load(data, record):
    clone = pickle.loads(data)
    assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)


# every message the dataclass versions raised, unchanged
VALIDATION = [
    (RadixExpansion, (1, (), (0,)), "base must be an integer >= 2, got 1"),
    (RadixExpansion, (3, (), (3,)), "digit 3 out of range for base 3"),
    (RadixExpansion, (3, (), ()), "period must be non-empty; use (0,) for terminating expansions"),
    (RadixExpansion, (3, (), (2, 2)), "period of all 2s is the non-canonical twin representation"),
    (RadixExpansion, (3, (), (1, 1)), "period (1, 1) is a repetition of (1,)"),
    (RadixExpansion, (3, (1,), (0, 1)), "preperiod suffix could be absorbed into the period"),
    (PartialStats, (1, 1, (1,)), "base must be an integer >= 2, got 1"),
    (PartialStats, (3, 4, (2, 1)), "counts must have one entry per digit of base 3"),
    (PartialStats, (3, 4, (2, 1, 2)), "counts (2, 1, 2) do not sum to depth 4"),
    (PartialStats, (3, 0, (0, 0, 0)), "counts (0, 0, 0) do not sum to depth 0"),
    (PartialStats, (3, 4, (3, 2, -1)), "counts (3, 2, -1) do not sum to depth 4"),
    (FrequencyProfile, (3, (F(1, 2), F(1, 2))), "tau must have one entry per digit of base 3"),
    (
        FrequencyProfile,
        (2, (F(3, 2), F(-1, 2))),
        "frequencies must be nonnegative, got (Fraction(3, 2), Fraction(-1, 2))",
    ),
    (FrequencyProfile, (2, (F(1, 3), F(1, 3))), "frequencies must sum to 1, got sum 2/3"),
    (FrequencyProfile, (2, (None, 1)), "cannot interpret None as a rational"),
    (OscillationSchedule, (F(1, 4), F(3, 4), F(1, 10), 5, (2, 4), (F(1, 5),)), "one w value is required per breakpoint"),
    (OscillationSchedule, (F(1, 4), F(3, 4), F(1, 10), 5, (4, 2), (F(1, 5),) * 2), "breakpoints must be strictly ascending"),
    (OscillationSchedule, (F(1, 4), F(3, 4), F(1, 10), 3, (2, 4), (F(1, 5),) * 2), "breakpoints cannot exceed the horizon"),
    (BlockSpec, (F(1), (F(1, 4), F(3, 2))), "block 2: run densities (3/2, -2, 3/2) negative"),
    (ExperimentConfig, (1, 10, 2, 7), "base must be >= 2, got 1"),
    (ExperimentConfig, (3, 0, 2, 7), "depth must be >= 1, got 0"),
    (ExperimentConfig, (3, 10, 0, 7), "trials must be >= 1, got 0"),
    (ExperimentConfig, (3, 10, 2.5, 7), "trials must be an integer, got 2.5"),
    (
        ExperimentConfig,
        (2**64 + 1, 10, 2, 7),
        "base must be <= 2**64 (a 64-bit draw holds no digit of a larger base), got 18446744073709551617",
    ),
]


@pytest.mark.parametrize("cls, args, message", VALIDATION)
def test_record_validation_message_is_unchanged(cls, args, message):
    with pytest.raises(DomainError) as caught:
        cls(*args)
    assert str(caught.value) == message


PUBLIC_NAMES = sorted(
    [
        "BlockSpec", "Converged", "ConvergenceVerdict", "DECIMAL_SIGNIFICANT_DIGITS", "DigitStream",
        "DomainError", "ExperimentConfig", "ExperimentSummary", "FrequencyProfile", "Infeasible", "MASK64",
        "Oscillating", "OscillationSchedule", "PartialStats", "RNG_ID", "RadixExpansion", "Undetermined",
        "__version__", "beatty_construct", "beatty_indicator", "block_boundaries", "block_digit_stream",
        "blockspec_table", "build_oscillating_schedule", "classify_limit", "coerce_rational",
        "construct_mean_without_frequency", "decimal_str", "digits_to_text", "evaluate_expansion",
        "exact_frequencies_rational", "expand_rational", "floor_weighted_average", "format_expansion",
        "geometric_checkpoints", "mean_from_frequencies", "mix64", "no_mean_example", "no_mean_one_run_ends",
        "no_mean_zero_run_ends", "normality_experiment", "parse_expansion", "parse_rational", "quota_construct",
        "ratio_str", "running_stats", "solve_ternary_system", "stats_table", "stats_to_csv", "stats_to_json",
        "summary_to_json", "text_to_digits", "trial_seed", "uniform_digit_trial", "uniform_digits",
        "with_prefix",
    ]
)


def test_package_namespace_is_filled_on_first_use():
    assert sorted(digitstats.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from digitstats import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert namespace["running_stats"] is digitstats.stats.running_stats
    assert set(PUBLIC_NAMES) <= set(dir(digitstats))
    assert importlib.import_module("digitstats.cli") is digitstats.cli
    for name in ("construct", "core", "errors", "rationals", "simulate", "stats"):
        module = getattr(digitstats, name)
        assert module.__name__ == f"digitstats.{name}" and module is sys.modules[module.__name__]
    for name in ("no_such_name", "_MODULES_", "__wrapped__"):
        with pytest.raises(AttributeError, match=name):
            getattr(digitstats, name)
    with pytest.raises(ImportError):
        exec("from digitstats import no_such_name", {})
