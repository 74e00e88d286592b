"""Priority rule semantics and the rule text format."""

import pytest
from hypothesis import given, settings, strategies as st

from chainacl.engine import (
    ALLOW,
    DENY,
    PriorityRule,
    RuleError,
    RuleParseError,
    apply_priority_rules,
    decide_access,
    format_rules,
    parse_rules,
)
from chainacl.transactions import N_OPERATIONS


def _rule(priority=0, user=None, resource=None, op=None, effect=ALLOW):
    return PriorityRule(
        priority=priority, user_index=user, resource_id=resource, operation=op, effect=effect
    )


def test_no_rules_passes_model_through():
    grants = (True, False, True, False)
    final, overridden = apply_priority_rules([], grants, 1, 2)
    assert final == grants
    assert overridden == (False,) * 4


def test_higher_priority_wins():
    rules = [
        _rule(priority=1, user=3, effect=DENY),
        _rule(priority=9, user=3, effect=ALLOW),
    ]
    final, overridden = apply_priority_rules(rules, (False,) * 4, 3, 0)
    assert final == (True,) * 4
    assert overridden == (True,) * 4


def test_equal_priority_deny_beats_allow():
    rules = [
        _rule(priority=5, user=3, effect=ALLOW),
        _rule(priority=5, user=3, effect=DENY),
    ]
    for ordering in (rules, rules[::-1]):
        final, _ = apply_priority_rules(ordering, (True,) * 4, 3, 0)
        assert final == (False,) * 4


def test_non_matching_rules_are_inert():
    rules = [_rule(priority=9, user=1, effect=DENY), _rule(priority=9, resource=7, effect=DENY)]
    grants = (True, True, False, True)
    final, overridden = apply_priority_rules(rules, grants, user_index=2, resource_id=3)
    assert final == grants and overridden == (False,) * 4


def test_wildcards_match_every_axis():
    deny_all = [_rule(priority=1, effect=DENY)]
    final, _ = apply_priority_rules(deny_all, (True,) * 4, 123, 456)
    assert final == (False,) * 4
    one_op = [_rule(priority=1, op=2, effect=DENY)]
    final, overridden = apply_priority_rules(one_op, (True,) * 4, 123, 456)
    assert final == (True, True, False, True)
    assert overridden == (False, False, True, False)


def test_override_flag_tracks_displacement_only():
    # rule agrees with the model: no override recorded
    rules = [_rule(priority=3, user=1, op=0, effect=ALLOW)]
    final, overridden = apply_priority_rules(rules, (True, False, False, False), 1, 0)
    assert final[0] is True and overridden == (False,) * 4


@settings(max_examples=200)
@given(
    rules=st.lists(
        st.builds(
            PriorityRule,
            priority=st.integers(0, 5),
            user_index=st.one_of(st.none(), st.integers(0, 3)),
            resource_id=st.one_of(st.none(), st.integers(0, 3)),
            operation=st.one_of(st.none(), st.integers(0, N_OPERATIONS - 1)),
            effect=st.sampled_from([ALLOW, DENY]),
        ),
        max_size=6,
    ),
    grants=st.tuples(*[st.booleans()] * N_OPERATIONS),
    user=st.integers(0, 3),
    resource=st.integers(0, 3),
    data=st.data(),
)
def test_outcome_is_order_independent(rules, grants, user, resource, data):
    baseline = apply_priority_rules(rules, grants, user, resource)
    shuffled = data.draw(st.permutations(rules))
    assert apply_priority_rules(shuffled, grants, user, resource) == baseline


def test_decide_access_thresholds_scores():
    decision = decide_access([], (0.5, 0.49, 0.91, 0.0), 1, 1)
    assert decision.access_list == (True, False, True, False)
    assert decision.model_scores == (0.5, 0.49, 0.91, 0.0)
    assert decision.overridden == (False,) * 4


def test_decide_access_with_override():
    decision = decide_access([_rule(priority=2, effect=DENY)], (0.9,) * 4, 1, 1)
    assert decision.access_list == (False,) * 4
    assert decision.overridden == (True,) * 4


def test_rule_validation():
    with pytest.raises(RuleError):
        _rule(priority=-1)
    with pytest.raises(RuleError):
        _rule(op=N_OPERATIONS)
    with pytest.raises(RuleError):
        PriorityRule(0, None, None, None, "maybe")
    with pytest.raises(RuleError):
        apply_priority_rules([], (True,) * 3, 0, 0)


def test_parse_basic_and_comments():
    text = """
    # administrative overrides
    10 3 7 op2 deny
    5 * * * allow   # blanket floor

    0 2 * 3 deny
    """
    rules = parse_rules(text)
    assert rules == [
        PriorityRule(10, 3, 7, 1, DENY),
        PriorityRule(5, None, None, None, ALLOW),
        PriorityRule(0, 2, None, 3, DENY),
    ]


def test_parse_accepts_name_or_index_for_operation():
    assert parse_rules("1 * * op4 deny\n") == parse_rules("1 * * 3 deny\n")


def test_parse_errors_carry_line_numbers():
    bad = "1 * * * allow\n2 * *\n"
    with pytest.raises(RuleParseError) as info:
        parse_rules(bad)
    assert info.value.line_no == 2
    for text, line in (
        ("x * * * allow\n", 1),
        ("1 y * * allow\n", 1),
        ("1 * * op9 allow\n", 1),
        ("1 * * 4 allow\n", 1),
        ("1 * * * maybe\n", 1),
        ("1 * 99999 * allow\n", 1),
        ("\n\n1 * * * allow extra\n", 3),
    ):
        with pytest.raises(RuleParseError) as info:
            parse_rules(text)
        assert info.value.line_no == line


def test_parse_rejects_duplicate_matchers_with_source_line():
    text = "1 2 3 op1 allow\n# ok\n1 2 3 op1 deny\n"
    with pytest.raises(RuleParseError) as info:
        parse_rules(text)
    assert info.value.line_no == 3
    assert "line 1" in str(info.value)


def test_same_matcher_different_priority_is_allowed():
    rules = parse_rules("1 2 3 op1 allow\n2 2 3 op1 deny\n")
    assert len(rules) == 2


def test_format_parse_round_trip():
    rules = [
        PriorityRule(10, 3, 7, 1, DENY),
        PriorityRule(5, None, None, None, ALLOW),
        PriorityRule(0, 2, None, 3, DENY),
    ]
    assert parse_rules(format_rules(rules)) == rules
    assert format_rules([]) == ""


@settings(max_examples=100)
@given(
    st.lists(
        st.builds(
            PriorityRule,
            priority=st.integers(0, 99),
            user_index=st.one_of(st.none(), st.integers(0, 200)),
            resource_id=st.one_of(st.none(), st.integers(0, 500)),
            operation=st.one_of(st.none(), st.integers(0, N_OPERATIONS - 1)),
            effect=st.sampled_from([ALLOW, DENY]),
        ),
        max_size=8,
        unique_by=lambda r: (r.priority, r.user_index, r.resource_id, r.operation),
    )
)
def test_format_parse_round_trip_property(rules):
    assert parse_rules(format_rules(rules)) == rules
