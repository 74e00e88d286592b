"""Scoring model: forward math, gradient correctness, training, file format."""

import math

import numpy as np
import pytest

from chainacl.engine import (
    DecisionModel,
    ModelFormatError,
    ShapeError,
    SyntheticPolicy,
    TrainConfig,
    forward,
    generate_dataset,
    init_model,
    load_model,
    loss_and_gradient,
    model_to_bytes,
    save_model,
    train,
    zero_model,
)
from chainacl.engine.model import DEFAULT_LAYER_DIMS, model_from_bytes


def _flatten(model):
    return np.concatenate([w.ravel() for w in model.weights] + [b for b in model.biases])


def _assign(model, flat):
    pos = 0
    for w in model.weights:
        w[...] = flat[pos : pos + w.size].reshape(w.shape)
        pos += w.size
    for b in model.biases:
        b[...] = flat[pos : pos + b.size]
        pos += b.size


def _grads_flat(grads):
    return np.concatenate([dw.ravel() for dw, _ in grads] + [db for _, db in grads])


def _hidden_preactivations_clear_of_zero(model, x, margin):
    """FD must not straddle a relu kink; demand |z| > margin everywhere."""
    from chainacl.engine.model import _forward_internals

    pre, _ = _forward_internals(model, x)
    return all(np.min(np.abs(z)) > margin for z in pre[:-1])


def test_gradients_match_finite_differences():
    """Central differences at eps=1e-5 agree to 1e-4 relative, 20 models."""
    eps = 1e-5
    worst = 0.0
    dims = (6, 5, 4, 3)
    trials, candidate = 0, 0
    while trials < 20:
        rng = np.random.default_rng(1000 + candidate)
        model = init_model(dims, seed=2000 + candidate)
        x = rng.random((8, dims[0]))
        y = (rng.random((8, dims[-1])) > 0.5).astype(np.float64)
        candidate += 1
        if not _hidden_preactivations_clear_of_zero(model, x, margin=1e-3):
            continue
        trials += 1
        _, grads = loss_and_gradient(model, x, y)
        analytic = _grads_flat(grads)
        theta = _flatten(model)
        numeric = np.empty_like(theta)
        probe = model.copy()
        for i in range(len(theta)):
            bumped = theta.copy()
            bumped[i] += eps
            _assign(probe, bumped)
            up, _ = loss_and_gradient(probe, x, y)
            bumped[i] -= 2 * eps
            _assign(probe, bumped)
            down, _ = loss_and_gradient(probe, x, y)
            numeric[i] = (up - down) / (2 * eps)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.abs(analytic) + np.abs(numeric), 1e-8
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"


def test_forward_hand_computed():
    model = DecisionModel(
        layer_dims=(2, 2, 1),
        weights=[np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, -1.0]])],
        biases=[np.array([0.5, -1.0]), np.array([0.25])],
    )
    # hidden: relu([1+0.5, 2-1]) = [1.5, 1.0]; logit: 1.5 - 1.0 + 0.25
    score = forward(model, np.array([1.0, 2.0]))
    assert score.shape == (1,)
    assert math.isclose(float(score[0]), 1.0 / (1.0 + math.exp(-0.75)), rel_tol=1e-12)


def test_relu_cuts_negative_preactivations():
    model = DecisionModel(
        layer_dims=(1, 1, 1),
        weights=[np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.array([0.0]), np.array([0.0])],
    )
    # negative input is zeroed by the hidden relu, logit 0 -> score 0.5
    assert float(forward(model, np.array([-3.0]))[0]) == pytest.approx(0.5)


def test_zero_model_scores_half_everywhere():
    model = zero_model()
    rng = np.random.default_rng(2)
    x = (rng.random((64, DEFAULT_LAYER_DIMS[0])) > 0.5).astype(np.float64)
    assert np.allclose(forward(model, x), 0.5)


def test_loss_at_zero_logits_is_ln2():
    model = zero_model((4, 3, 2))
    x = np.ones((10, 4))
    y = np.zeros((10, 2))
    loss, _ = loss_and_gradient(model, x, y)
    assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)


def test_scores_strictly_inside_unit_interval():
    saturated = zero_model((4, 2))
    saturated.biases[0][:] = [1000.0, -1000.0]
    s = forward(saturated, np.ones((1, 4)))
    assert 0.0 < s[0, 0] < 1.0 and 0.0 < s[0, 1] < 1.0


def test_forward_rejects_wrong_width():
    with pytest.raises(ShapeError):
        forward(zero_model((4, 2)), np.ones((3, 5)))


def test_init_model_is_seed_deterministic():
    a, b = init_model(seed=7), init_model(seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_model(seed=8)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_init_model_needs_two_dims():
    with pytest.raises(ShapeError):
        init_model((5,))


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(SyntheticPolicy(seed=6), n_users=16, n_resources=8)


def test_training_is_deterministic(small_dataset):
    cfg = TrainConfig(epochs=5, seed=3)
    r1 = train(init_model(seed=1), small_dataset, cfg)
    r2 = train(init_model(seed=1), small_dataset, cfg)
    assert model_to_bytes(r1.model) == model_to_bytes(r2.model)
    assert [m.train_loss for m in r1.history] == [m.train_loss for m in r2.history]


def test_training_reduces_loss_and_tracks_history(small_dataset):
    report = train(init_model(seed=1), small_dataset, TrainConfig(epochs=30, seed=3))
    assert len(report.history) == 30
    assert report.history[-1].train_loss < report.history[0].train_loss
    assert report.final_train_accuracy >= 0.75
    assert 0.0 <= report.final_holdout_accuracy <= 1.0


def test_zero_epochs_returns_model_unchanged(small_dataset):
    start = init_model(seed=4)
    report = train(start, small_dataset, TrainConfig(epochs=0, seed=3))
    assert report.history == []
    assert model_to_bytes(report.model) == model_to_bytes(start)
    assert report.model is not start  # trained copy, caller's model untouched


def test_train_holds_out_disjoint_fraction(small_dataset):
    cfg = TrainConfig(epochs=1, seed=9, holdout_fraction=0.25)
    report = train(init_model(seed=1), small_dataset, cfg)
    assert report.history[0].holdout_accuracy is not None


def test_model_bytes_round_trip():
    model = init_model(seed=12)
    again = model_from_bytes(model_to_bytes(model))
    assert again.layer_dims == model.layer_dims
    for wa, wb in zip(model.weights, again.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(model.biases, again.biases):
        assert np.array_equal(ba, bb)


def test_model_file_round_trip(tmp_path):
    model = init_model(seed=13)
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    assert model_to_bytes(loaded) == model_to_bytes(model)


def test_default_model_file_fits_one_mebibyte():
    assert len(model_to_bytes(init_model())) <= 1 << 20


def test_model_format_rejections():
    good = model_to_bytes(init_model((4, 3, 2), seed=1))
    with pytest.raises(ModelFormatError):
        model_from_bytes(b"WRONGMA" + good[7:])
    with pytest.raises(ModelFormatError):
        model_from_bytes(good[:7] + b"\x02" + good[8:])  # unknown version
    with pytest.raises(ModelFormatError):
        model_from_bytes(good[:10])  # truncated header
    with pytest.raises(ModelFormatError):
        model_from_bytes(good[:-4])  # truncated weights
    with pytest.raises(ModelFormatError):
        model_from_bytes(good + b"\x00")  # trailing bytes
    with pytest.raises(ModelFormatError):
        model_from_bytes(b"")


def test_loss_rejects_empty_batch():
    with pytest.raises(ValueError):
        loss_and_gradient(zero_model((4, 2)), np.empty((0, 4)), np.empty((0, 2)))
