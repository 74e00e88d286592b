"""The runtime's per-cell decision cache agrees with an uncached decision."""

import pytest
from hypothesis import given, settings, strategies as st

from chainacl import contracts
from chainacl.contracts import ContractError, ContractRuntime, run_authorization
from chainacl.engine import ALLOW, DENY, PriorityRule, binary_repr, init_model
from chainacl.transactions import (
    AccessRequestTx,
    N_OPERATIONS,
    RESOURCE_BITS_WIDTH,
    USER_BITS_WIDTH,
    RequestInfo,
    VerifiedRequestTx,
    decode_transaction,
    encode_transaction,
)

MODEL = init_model(seed=3)


def _request(user: int, resource: int, op: int, n: int = 0) -> tuple[VerifiedRequestTx, AccessRequestTx]:
    rid = n.to_bytes(16, "big")
    verified = VerifiedRequestTx(
        time=10 + n,
        user_bits=binary_repr(user, USER_BITS_WIDTH),
        req_bits=binary_repr(resource, RESOURCE_BITS_WIDTH),
        request_id=rid,
        locally_derived=True,
    )
    request = AccessRequestTx(
        user_pk=bytes([user]) * 32, time=10 + n, info=RequestInfo(resource, op, rid), user_sig=b""
    )
    return verified, request


# few users and resources, so cells repeat; rules pin some of those cells
cells = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, N_OPERATIONS - 1))
rules = st.lists(
    st.builds(
        PriorityRule,
        priority=st.integers(0, 9),
        user_index=st.none() | st.integers(0, 5),
        resource_id=st.none() | st.integers(0, 5),
        operation=st.none() | st.integers(0, N_OPERATIONS - 1),
        effect=st.sampled_from((ALLOW, DENY)),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(rule_set=rules, requests=st.lists(cells, min_size=1, max_size=30))
def test_cached_authorize_equals_run_authorization(rule_set, requests):
    runtime = ContractRuntime(MODEL, rule_set)
    for n, (user, resource, op) in enumerate(requests):
        verified, request = _request(user, resource, op, n)
        cached = runtime.authorize(verified, request, now=50 + n)
        fresh = run_authorization(MODEL, rule_set, verified, request, now=50 + n)
        assert cached == fresh
        assert cached.overridden == fresh.overridden


def _count_decided_rows(monkeypatch) -> list[int]:
    """``fixed_point_grants`` is looked up on the contracts module when cells
    are decided, so a wrapper installed there sees each batch; the list
    gets each batch's row count."""
    rows = []
    grants = contracts.fixed_point_grants
    monkeypatch.setattr(contracts, "fixed_point_grants", lambda fixed, bits: rows.append(len(bits)) or grants(fixed, bits))
    return rows


def test_each_cell_is_decided_once(monkeypatch):
    rows = _count_decided_rows(monkeypatch)
    runtime = ContractRuntime(MODEL, [])
    for n, (user, resource, op) in enumerate([(1, 2, 0), (1, 2, 3), (2, 1, 0), (1, 2, 1), (2, 1, 2)]):
        runtime.authorize(*_request(user, resource, op, n), now=50)
    assert rows == [1, 1]


def test_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(contracts, "DECISION_CACHE_SIZE", 4)
    deny = [PriorityRule(5, 2, None, 1, DENY), PriorityRule(5, None, 3, 0, ALLOW)]
    sequence = [(u, r, (u + r) % N_OPERATIONS) for _ in range(3) for u in range(4) for r in range(3)]
    requests = [_request(user, resource, op, n) for n, (user, resource, op) in enumerate(sequence)]
    expected = [run_authorization(MODEL, deny, verified, request, now=7) for verified, request in requests]
    rows = _count_decided_rows(monkeypatch)
    runtime = ContractRuntime(MODEL, deny)
    for (verified, request), result in zip(requests, expected):
        assert runtime.authorize(verified, request, now=7) == result
        assert len(runtime._cells) <= 4
    assert sum(rows) > 12  # cells were evicted and decided again


def test_wire_copy_is_refused_for_a_cached_cell():
    runtime = ContractRuntime(MODEL, [])
    verified, request = _request(3, 4, 1)
    runtime.authorize(verified, request, now=10)
    wire_copy = decode_transaction(encode_transaction(verified))
    assert not wire_copy.locally_derived
    with pytest.raises(ContractError):
        runtime.authorize(wire_copy, request, now=10)


def test_runtimes_with_different_rules_share_no_cell():
    allow = [PriorityRule(9, 3, 4, None, ALLOW)]
    deny = [PriorityRule(9, 3, 4, None, DENY)]
    a, b = ContractRuntime(MODEL, allow), ContractRuntime(MODEL, deny)
    verified, request = _request(3, 4, 2)
    for _ in range(2):
        assert a.authorize(verified, request, now=10).access_list == (True,) * N_OPERATIONS
        assert b.authorize(verified, request, now=10).access_list == (False,) * N_OPERATIONS
