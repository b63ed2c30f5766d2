"""Unit tests for the declarative routing-policy registry."""

import pytest

import repro
from repro.routing import (
    DRBPolicy,
    DeterministicPolicy,
    FRDRBPolicy,
    NotifiedAdaptivePolicy,
    PRDRBPolicy,
    UGALPolicy,
    make_policy,
    parse_policy_spec,
    register,
    registered_policies,
)
from repro.routing.drb import DRBConfig
from repro.routing.registry import config_factory


def test_builtin_family_is_registered():
    names = registered_policies()
    for name in (
        "deterministic", "random", "cyclic", "adaptive", "adaptive-hop",
        "drb", "pr-drb", "fr-drb", "pr-fr-drb",
        "notified-adaptive", "ugal",
    ):
        assert name in names


def test_aliases_resolve_to_the_same_policies():
    assert isinstance(make_policy("prdrb"), PRDRBPolicy)
    assert isinstance(make_policy("frdrb"), FRDRBPolicy)
    assert isinstance(make_policy("arn"), NotifiedAdaptivePolicy)
    assert isinstance(make_policy("notified"), NotifiedAdaptivePolicy)


def test_make_policy_basic_names():
    assert isinstance(make_policy("deterministic"), DeterministicPolicy)
    assert isinstance(make_policy("drb"), DRBPolicy)
    assert isinstance(make_policy("ugal"), UGALPolicy)
    # Names are case-insensitive.
    assert isinstance(make_policy("DRB"), DRBPolicy)


def test_make_policy_names():
    names = ["deterministic", "random", "cyclic", "adaptive", "drb",
             "pr-drb", "fr-drb", "pr-fr-drb"]
    for n in names:
        assert repro.make_policy(n) is not None
    with pytest.raises(ValueError):
        repro.make_policy("quantum")


def test_make_policy_unknown_name_lists_registry():
    with pytest.raises(ValueError, match="unknown routing policy 'nope'"):
        make_policy("nope")
    with pytest.raises(ValueError, match="drb"):
        make_policy("nope")


def test_parse_policy_spec_coercion():
    name, kwargs = parse_policy_spec("drb:seed=3,max_paths=2")
    assert name == "drb"
    assert kwargs == {"seed": 3, "max_paths": 2}
    _, kwargs = parse_policy_spec("x:a=0.5,b=true,c=false,d=text")
    assert kwargs == {"a": 0.5, "b": True, "c": False, "d": "text"}


def test_parse_policy_spec_rejects_malformed_args():
    with pytest.raises(ValueError, match="expected key=value"):
        parse_policy_spec("drb:seed")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_policy_spec("drb:=3")


def test_spec_string_routes_into_config_dataclass():
    policy = make_policy("drb:seed=3,max_paths=2")
    assert isinstance(policy, DRBPolicy)
    assert policy.config.seed == 3
    assert policy.config.max_paths == 2
    notified = make_policy("notified-adaptive:hold_s=0.0005")
    assert notified.config.hold_s == pytest.approx(5e-4)


def test_fixed_kwargs_pin_the_predictive_flag():
    assert make_policy("fr-drb").predictive is False
    assert make_policy("pr-fr-drb").predictive is True


def test_explicit_kwargs_win_over_spec_arguments():
    policy = make_policy("drb:seed=3", seed=9)
    assert policy.config.seed == 9


def test_config_object_passes_through():
    config = DRBConfig(max_paths=2)
    policy = make_policy("drb", config=config)
    assert policy.config is config


def test_config_and_field_overrides_conflict():
    with pytest.raises(ValueError, match="not both"):
        make_policy("drb", config=DRBConfig(), seed=1)


def test_register_rejects_collisions_but_tolerates_reimport():
    factory = config_factory(DRBPolicy, DRBConfig)
    register("test-collision-probe", factory)
    # Same factory object again: idempotent (module reimport pattern).
    register("test-collision-probe", factory)
    with pytest.raises(ValueError, match="already registered"):
        register("test-collision-probe", DeterministicPolicy)
    with pytest.raises(ValueError, match="non-empty"):
        register("", DeterministicPolicy)


def test_registered_custom_factory_is_reachable():
    calls = []

    def factory(**kwargs):
        calls.append(kwargs)
        return DeterministicPolicy()

    register("test-custom-probe", factory)
    policy = make_policy("test-custom-probe:knob=7")
    assert isinstance(policy, DeterministicPolicy)
    assert calls == [{"knob": 7}]
