"""Fixed-point decisions are exact: the same on every path, or refused."""

import numpy as np
import pytest

from chainacl import contracts
from chainacl.blocks import ConfigurationError
from chainacl.cli import EXIT_USAGE, main
from chainacl.contracts import ContractRuntime
from chainacl.engine import (
    encode_pair,
    encode_pairs,
    fixed_point_grants,
    fixed_point_logits,
    forward,
    init_model,
    quantize_model,
    save_model,
)
from chainacl.engine import model as engine_model
from chainacl.engine.model import GRANT_THRESHOLD, _forward_internals
from chainacl.crypto import Provider
from chainacl.ledger import apply_block, build_block, genesis, slot_leader, submit_to_pool
from chainacl.transactions import RequestInfo, build_access_request_tx, build_register_user_tx

CELLS = [(u, r) for u in (0, 1, 5, 9, 300, 65535) for r in (0, 2, 7, 40, 65535)]


def _float_logits(model, bits):
    return _forward_internals(model, np.asarray(bits, dtype=np.float64))[0][-1]


def _bits(cells):
    return encode_pairs([u for u, _ in cells], [r for _, r in cells])


def _near_threshold_model():
    """A model whose float logits for the cell ``CELLS[7]`` sit within 1e-12
    of the threshold's logit (0), on every operation."""
    model = init_model(seed=5)
    model.biases[-1] -= _float_logits(model, _bits(CELLS[7:8]))[0]
    return model


def _permuted_hidden_units(model, seed):
    """The same function with each hidden layer's units reordered."""
    model = model.copy()
    rng = np.random.default_rng(seed)
    for k in range(len(model.weights) - 1):
        order = rng.permutation(model.weights[k].shape[0])
        model.weights[k] = model.weights[k][order]
        model.biases[k] = model.biases[k][order]
        model.weights[k + 1] = model.weights[k + 1][:, order]
    return model


def test_encode_pairs_matches_encode_pair():
    assert (_bits(CELLS) == np.stack([encode_pair(u, r) for u, r in CELLS])).all()


def test_a_decision_at_the_threshold_is_the_same_on_every_path():
    model = _near_threshold_model()
    assert np.abs(_float_logits(model, _bits(CELLS[7:8]))).max() < 1e-12
    bits = _bits(CELLS)
    fixed = quantize_model(model)
    batched = fixed_point_logits(fixed, bits)
    per_row = np.vstack([fixed_point_logits(fixed, bits[i : i + 1]) for i in range(len(bits))])
    reversed_rows = fixed_point_logits(fixed, bits[::-1])[::-1]
    assert (batched == np.rint(batched)).all()
    assert (per_row == batched).all() and (reversed_rows == batched).all()
    for seed in range(3):
        permuted = _permuted_hidden_units(model, seed)
        assert (fixed_point_logits(quantize_model(permuted), bits) == batched).all()
    grants = fixed_point_grants(fixed, bits)
    assert (grants == (batched >= fixed.threshold)).all()
    # the contracts decide on the same grants, alone or in one batch
    alone = [contracts._decide_cell(fixed, [], u, r)[0] for u, r in CELLS]
    assert contracts._decide_cells(fixed, [], CELLS) == [(a, (False,) * 4) for a in alone]
    assert alone == [tuple(g) for g in grants.tolist()]


def test_threshold_quantizes_to_zero_at_one_half():
    assert GRANT_THRESHOLD == 0.5
    assert quantize_model(init_model(seed=1)).threshold == 0.0


def test_every_fixture_cell_decides_as_the_float_path(fixtures):
    cells = [(u, r) for u in range(len(fixtures.users)) for r in range(fixtures.n_resources)]
    assert len(cells) == 5000
    bits = _bits(cells)
    fixed = quantize_model(fixtures.model)
    assert (fixed_point_grants(fixed, bits) == (forward(fixtures.model, bits) >= GRANT_THRESHOLD)).all()
    assert fixed.bound < 2**44  # the headroom quoted beside FIXED_POINT_BITS


@pytest.mark.parametrize(
    "spoil",
    [
        lambda m: m.weights[1].__setitem__((3, 4), np.nan),
        lambda m: m.biases[0].__setitem__(2, np.inf),
        lambda m: m.weights[0].__setitem__((0, 0), 2.0**40),
        lambda m: [w.__imul__(300.0) for w in m.weights],
    ],
    ids=["nan_weight", "inf_bias", "huge_weight", "accumulators_past_2_53"],
)
def test_a_model_that_cannot_be_decided_exactly_is_refused(spoil):
    model = init_model(seed=4)
    spoil(model)
    with pytest.raises(ConfigurationError):
        quantize_model(model)
    with pytest.raises(ConfigurationError):
        ContractRuntime(model, [])


def test_the_refusal_names_the_bound():
    model = init_model(seed=4)
    for w in model.weights:
        w *= 300.0
    with pytest.raises(ConfigurationError, match=r"2\^\d+\.\d, limit 2\^53"):
        quantize_model(model)


def test_node_start_with_an_unusable_model_is_a_usage_error(tmp_path, capsys):
    directory = tmp_path / "net"
    args = ["--dir", str(directory), "--seed", "9", "--users", "4", "--resources", "3", "--base-port", "9560"]
    assert main(["init", *args]) == 0
    capsys.readouterr()
    model = init_model(seed=4)
    model.weights[2][1, 1] = np.nan
    save_model(model, directory / "model.bin")
    assert main(["node", "start", "--config", str(directory / "v0.cfg"), "--run-seconds", "0"]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "non-finite" in lines[0], lines


def test_block_execution_never_calls_the_float_forward(monkeypatch, fixtures):
    """Sealing and verifying a block of access requests decides every cell
    without the float ``forward``, and in one batch per block for the cells
    of users already registered."""
    def refuse(*args):
        raise AssertionError("float forward on the consensus path")

    # every float forward, by whatever name its caller imported, runs this
    monkeypatch.setattr(engine_model, "_forward_internals", refuse)
    batches = []
    grants = contracts.fixed_point_grants
    monkeypatch.setattr(contracts, "fixed_point_grants", lambda f, bits: batches.append(len(bits)) or grants(f, bits))
    p = Provider(61)
    leaders = {kp.public_key: kp for kp in fixtures.validators}
    users = fixtures.users[:3]
    state = genesis(fixtures.config)
    for user in users:
        assert submit_to_pool(state, build_register_user_tx(p, fixtures.admin, user.public_key, time=1), 1, p) is None
    sealer = fixtures.runtime()
    block, outcome = build_block(state, leaders[slot_leader(1, state.config)], 1, sealer, p)
    state = outcome.state
    requests = [
        build_access_request_tx(p, user, RequestInfo(r, 1, bytes([16 * i + r]) * 16), time=2)
        for i, user in enumerate(users)
        for r in range(4)
    ]
    for tx in requests:
        assert submit_to_pool(state, tx, 2, p) is None
    before = len(batches)
    block, sealed = build_block(state, leaders[slot_leader(2, state.config)], 2, sealer, p)
    assert block is not None and batches[before:] == [12]
    # a replica with a fresh runtime verifies it with one batch too
    verifier = fixtures.runtime()
    replica = genesis(fixtures.config)
    for b in sealed.state.chain[1:]:
        assert apply_block(replica, b, verifier, p).ok
    assert batches[before + 1 :] == [12]
    assert replica.requests == sealed.state.requests
