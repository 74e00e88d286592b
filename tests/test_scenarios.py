"""Scripted end-to-end scenarios, the decision matrix, and suite determinism."""

import pytest

from chainacl.contracts import engine_fingerprint, run_authorization
from chainacl.engine import DENY, PriorityRule, binary_repr, zero_model
from chainacl.network import NetworkConfig
from chainacl.scenarios import (
    SCENARIO_NAMES,
    VALIDATOR_NAMES,
    ScenarioScript,
    _grant_table,
    build_world,
    expect_basis,
    expect_payload,
    expect_redeem,
    expect_status,
    expect_trace,
    redeem_at,
    request_at,
    run_matrix,
    run_scenario,
    run_suite,
    shared_fixtures,
    standard_scenario,
)
from chainacl.transactions import (
    RESOURCE_BITS_WIDTH,
    USER_BITS_WIDTH,
    AccessRequestTx,
    RequestInfo,
    VerifiedRequestTx,
)


def test_fixture_cast_is_deterministic(fixtures):
    again = shared_fixtures()
    assert again is fixtures  # cached
    assert fixtures.admin.public_key != fixtures.storage.public_key
    assert len(fixtures.users) == 100
    assert len({u.public_key for u in fixtures.users}) == 100


def test_fixture_engine_quality(fixtures):
    assert fixtures.train_accuracy >= 0.95
    assert fixtures.holdout_accuracy >= 0.95


def test_fixture_pairs_are_disjoint_and_labeled(fixtures):
    assert set(fixtures.pairs) == {
        "model_allows",
        "model_denies",
        "rule_denies",
        "rule_allows",
    }
    cells = {(u, r) for u, r, _ in fixtures.pairs.values()}
    assert len(cells) == 4


def test_grant_table_is_the_decision_block_execution_makes():
    """Fixture and matrix cells come from the fixed-point decisions the chain
    makes. A bias just under zero scores under 0.5 in floating point, but
    quantizes to a logit of 0, which grants op 0."""
    model = zero_model()
    model.biases[-1][0] = -(2**-20)
    grants = _grant_table(model, 2, 3)
    assert grants[:, :, 0].all()
    for u in range(2):
        for r in range(3):
            verified = VerifiedRequestTx(
                time=10,
                user_bits=binary_repr(u, USER_BITS_WIDTH),
                req_bits=binary_repr(r, RESOURCE_BITS_WIDTH),
                request_id=bytes(16),
                locally_derived=True,
            )
            request = AccessRequestTx(
                user_pk=bytes(32), time=10, info=RequestInfo(r, 0, bytes(16)), user_sig=b""
            )
            result = run_authorization(model, [], verified, request, now=10)
            assert tuple(grants[u, r].tolist()) == result.access_list


def test_build_world_pins_the_fingerprint_of_its_rules(fixtures):
    u, r, op = fixtures.pairs["model_allows"]
    rules = [PriorityRule(10, u, r, op, DENY)]
    world = build_world(fixtures, NetworkConfig(seed=5), rules=rules)
    for name in VALIDATOR_NAMES:
        core = world.nodes[name].core
        assert core.runtime.fingerprint() == core.state.config.engine_fingerprint
        assert core.runtime.fingerprint() == engine_fingerprint(fixtures.model, rules)
    assert engine_fingerprint(fixtures.model, rules) != fixtures.config.engine_fingerprint
    assert build_world(fixtures).nodes["v0"].core.state.config == fixtures.config


def test_script_rules_deny_the_model_allows_cell_on_chain(fixtures):
    u, r, op = fixtures.pairs["model_allows"]
    script = ScenarioScript(
        name="ruled",
        description="a deny rule on the cell the model allows",
        actions=(request_at(4, "ruled", resource_id=r, operation=op, user=u),),
        expectations=(
            expect_status("ruled", ("denied",), reason="policy"),
            expect_basis("ruled", "rule_override"),
        ),
        rules=(PriorityRule(10, u, r, op, DENY),),
    )
    report = run_scenario(script, fixtures)
    assert report.passed, report.text()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_standard_scenario_passes(fixtures, name):
    report = run_scenario(standard_scenario(name, fixtures), fixtures)
    detail = "\n".join(report.lines() + report.trace[-30:])
    assert report.passed, detail


def test_scenario_report_shape(fixtures):
    report = run_scenario(standard_scenario("1", fixtures), fixtures)
    lines = report.lines()
    assert lines[0].startswith("=== scenario 1:")
    assert all(l.startswith(("PASS", "FAIL")) for l in lines[1:-1])
    assert lines[-1].startswith("result=")
    assert report.text(with_trace=True).count("--- trace ---") == 1


def test_failing_expectations_report_their_detail(fixtures):
    """Each check that cannot hold reports FAIL with the reason it failed,
    and a script step that cannot run is reported after the checks."""
    u, r, op = fixtures.pairs["model_allows"]
    script = ScenarioScript(
        name="failing",
        description="checks that cannot hold",
        actions=(
            redeem_at(2, "early"),
            request_at(4, "granted", resource_id=r, operation=op, user=u),
            request_at(4, "refused", resource_id=r, operation=op, fresh="mallory"),
            redeem_at(14, "granted"),
        ),
        expectations=(
            expect_status("ghost", ("granted",)),
            expect_basis("ghost", "model"),
            expect_redeem("refused", ok=True),
            expect_redeem("granted", ok=True, index=1),
            expect_payload("refused", r),
            expect_trace("no-such-event"),
        ),
    )
    report = run_scenario(script, fixtures)
    assert not report.passed
    assert report.lines()[1:-1] == [
        "FAIL request 'ghost' ends up granted [request unknown to ledger]",
        "FAIL decision for 'ghost' attributed to model [no decided entry]",
        "FAIL redemption #-1 for 'refused' succeeds [no redeem reply received]",
        "FAIL redemption #1 for 'granted' succeeds [only 1 replies]",
        f"FAIL redeeming 'refused' returns resource {r} bytes [no successful redemption]",
        "FAIL trace contains 'no-such-event' x1 [count=0]",
        "FAIL script step: redeem before request for 'early'",
    ]
    assert report.lines()[-1].startswith("result=FAIL ")


def test_unknown_scenario_name_rejected(fixtures):
    with pytest.raises(KeyError):
        standard_scenario("99", fixtures)


def test_matrix_all_twelve_rows(fixtures):
    report = run_matrix(fixtures)
    assert len(report.rows) == 12
    assert report.passed, report.text()
    combos = {(r.registered, r.model_grant, r.rule_effect) for r in report.rows}
    assert len(combos) == 12
    for row in report.rows:
        if not row.registered:
            assert row.expected == "denied"
        elif row.rule_effect == "allow":
            assert row.expected == "granted"
        elif row.rule_effect == "deny":
            assert row.expected == "denied"
        else:
            assert row.expected == ("granted" if row.model_grant else "denied")
        assert row.outcome == row.expected


def test_suite_passes_and_is_reproducible(fixtures):
    first = run_suite(fixtures)
    assert first.passed
    second = run_suite(fixtures)
    assert first.text(with_traces=True) == second.text(with_traces=True)


def test_suite_varies_with_network_seed(fixtures):
    base = run_suite(fixtures, base_seed=0)
    shifted = run_suite(fixtures, base_seed=1)
    assert base.passed and shifted.passed
    assert base.text(with_traces=True) != shifted.text(with_traces=True)
