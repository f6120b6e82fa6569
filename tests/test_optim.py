"""Adam update math, the warmup/decay schedule, and the grad_check contract."""

import numpy as np
import pytest
from conftest import DeterminismError, GradCheckReport, grad_check

from dialoqa import tensor as T
from dialoqa.errors import ConfigError, ShapeError
from dialoqa.optim import AdamState, LRSchedule, adam_step, lr_at_step


def _vector(*values):
    return np.array(values, dtype=np.float64)


class TestAdam:
    def test_zero_grads_no_decay_is_identity(self):
        w = _vector(1.0, -2.0, 3.0)
        state = AdamState(weight_decay=0.0)
        adam_step(w, np.zeros(3), state, lr=0.1, step=1)
        np.testing.assert_array_equal(w, [1.0, -2.0, 3.0])

    def test_first_step_moves_by_lr(self):
        # After bias correction, |delta| = lr * |g| / (|g| + eps) for step 1.
        for g in (0.5, -3.0):
            w = _vector(1.0)
            state = AdamState(weight_decay=0.0)
            adam_step(w, np.array([g]), state, lr=0.1, step=1)
            delta = w[0] - 1.0
            assert abs(abs(delta) - 0.1) < 1e-6
            assert np.sign(delta) == -np.sign(g)

    def test_descends_quadratic(self):
        # 10 steps on f(w) = w^2 from w=1: |w| strictly decreases each step.
        w = _vector(1.0)
        state = AdamState(weight_decay=0.0)
        trace = [1.0]
        for step in range(1, 11):
            adam_step(w, 2.0 * w, state, lr=0.1, step=step)
            trace.append(abs(float(w[0])))
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_decay_is_decoupled(self):
        # zero gradient + weight decay shrinks weights directly by lr*wd*w
        w = _vector(2.0)
        state = AdamState(weight_decay=0.01)
        adam_step(w, np.zeros(1), state, lr=0.5, step=1)
        np.testing.assert_allclose(w, [2.0 - 0.5 * 0.01 * 2.0])

    def test_shape_mismatch(self):
        w = _vector(1.0, 2.0)
        state = AdamState()
        message = r"gradient shape \(3,\) does not match parameter shape \(2,\)"
        with pytest.raises(ShapeError, match=message):
            adam_step(w, np.zeros(3), state, lr=0.1, step=1)
        assert state.first_moment is None
        np.testing.assert_array_equal(w, [1.0, 2.0])

    def test_moments_allocated_once(self, monkeypatch):
        w = _vector(1.0, -2.0)
        state = AdamState()
        adam_step(w, np.array([0.5, 0.25]), state, lr=0.1, step=1)
        first, second = state.first_moment, state.second_moment

        def no_allocation(*args, **kwargs):
            raise AssertionError("moments re-allocated on a later step")

        monkeypatch.setattr(np, "zeros_like", no_allocation)
        adam_step(w, np.array([0.5, 0.25]), state, lr=0.1, step=2)
        assert state.first_moment is first and state.second_moment is second

    def test_two_step_values(self):
        params = _vector(1.0, -2.0)
        state = AdamState(weight_decay=0.01)
        w, m, v = np.array([1.0, -2.0]), np.zeros(2), np.zeros(2)
        for t, g in enumerate((np.array([0.5, -1.5]), np.array([-0.25, 2.0])), start=1):
            adam_step(params, g, state, lr=0.1, step=t)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            update = (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            w = w - 0.1 * (update + 0.01 * w)
        np.testing.assert_allclose(params, w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lr, step, message", [
        (float("nan"), 1, "learning rate"), (float("inf"), 1, "learning rate"),
        (-0.1, 1, "learning rate"), (0.1, 0, "Adam step"), (0.1, -1, "Adam step"),
    ], ids=["lr-nan", "lr-inf", "lr-negative", "step-zero", "step-negative"])
    def test_bad_rate_or_step_raises_before_the_update(self, lr, step, message):
        w = _vector(1.0, 2.0)
        state = AdamState()
        with pytest.raises(ConfigError, match=message):
            adam_step(w, np.ones(2), state, lr=lr, step=step)
        assert state.first_moment is None
        np.testing.assert_array_equal(w, [1.0, 2.0])

    @pytest.mark.parametrize("field, value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", float("nan")), ("epsilon", 0.0),
        ("epsilon", float("inf")), ("weight_decay", -0.01), ("weight_decay", float("nan")),
    ])
    def test_a_setting_out_of_range_raises_naming_it(self, field, value):
        with pytest.raises(ConfigError, match=field):
            AdamState(**{field: value})

    def test_moment_shapes_match_params(self):
        w = np.ones(10)
        state = AdamState()
        adam_step(w, np.ones_like(w), state, lr=0.01, step=1)
        assert state.first_moment.shape == w.shape
        assert state.second_moment.shape == w.shape

    def test_one_vector_step_equals_a_step_per_tensor(self):
        """The update is elementwise, so a step over one vector gives the
        bits of the per-tensor loop it replaced, kept here as the reference."""
        rng = np.random.default_rng(0)
        shapes = {"a": (3, 4), "b": (4,), "c": (2, 2, 2)}
        tensors = {n: rng.normal(size=s) for n, s in shapes.items()}
        moments = {n: [np.zeros(s), np.zeros(s)] for n, s in shapes.items()}
        flat = np.concatenate([tensors[n].ravel() for n in shapes])
        state = AdamState()
        for t in range(1, 6):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            flat_grads = np.concatenate([grads[n].ravel() for n in shapes])
            adam_step(flat, flat_grads, state, lr=0.01, step=t)
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for n, p in tensors.items():
                m, v = moments[n]
                g = grads[n]
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
                update = update + 0.01 * p
                p -= 0.01 * update
        assert flat.tobytes() == np.concatenate([tensors[n].ravel() for n in shapes]).tobytes()
        assert state.first_moment.tobytes() == np.concatenate(
            [moments[n][0].ravel() for n in shapes]
        ).tobytes()


class TestSchedule:
    def test_interpolation_points(self):
        s = LRSchedule(5e-5, 100, 0.1)
        assert lr_at_step(s, 5) == pytest.approx(2.5e-5)
        assert lr_at_step(s, 10) == pytest.approx(5e-5)
        assert lr_at_step(s, 55) == pytest.approx(5e-5 * (100 - 55) / 90)

    def test_endpoints_zero(self):
        s = LRSchedule(3e-4, 200, 0.25)
        assert lr_at_step(s, 0) == 0.0
        assert lr_at_step(s, 200) == 0.0

    def test_out_of_range(self):
        s = LRSchedule(1e-4, 10, 0.1)
        with pytest.raises(ValueError):
            lr_at_step(s, 11)
        with pytest.raises(ValueError):
            lr_at_step(s, -1)

    def test_continuity_bound(self):
        s = LRSchedule(7e-4, 40, 0.2)
        warmup_steps = 0.2 * 40
        bound = s.base_lr / min(warmup_steps, 40 - warmup_steps) + 1e-15
        for step in range(40):
            assert abs(lr_at_step(s, step) - lr_at_step(s, step + 1)) <= bound

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            LRSchedule(1e-4, 0, 0.1)
        with pytest.raises(ConfigError):
            LRSchedule(1e-4, 10, 1.0)

    @pytest.mark.parametrize("base_lr", [float("nan"), float("inf"), -1e-4],
                             ids=["nan", "inf", "negative"])
    def test_a_non_finite_or_negative_rate_raises(self, base_lr):
        with pytest.raises(ConfigError, match="base_lr must be finite and >= 0"):
            LRSchedule(base_lr, 10)


class TestGradCheck:
    def test_quadratic_exact(self):
        w = T.Tensor([3.0], requires_grad=True)

        def loss():
            return T.tsum(w * w)

        report = grad_check(loss, [w], h=1e-4)
        assert abs(report.worst_analytic - 6.0) < 1e-9 or report.max_rel_err < 1e-6
        # central differences are exact for quadratics up to roundoff
        assert report.max_rel_err < 1e-6

    def test_cross_entropy_k5(self):
        logits = T.Tensor(np.linspace(-1, 1, 5)[None], requires_grad=True)

        def loss():
            return T.mean_cross_entropy(logits, [3])

        assert grad_check(loss, [logits], h=1e-4).max_rel_err < 1e-6

    def test_nondeterministic_loss_detected(self):
        rng = np.random.default_rng(0)
        w = T.Tensor([1.0], requires_grad=True)

        def loss():
            return T.tsum(w * rng.random())

        with pytest.raises(DeterminismError):
            grad_check(loss, [w])

    def test_bad_h(self):
        w = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(ConfigError):
            grad_check(lambda: T.tsum(w), [w], h=0.0)

    def test_sampled_subset(self):
        w = T.Tensor(np.random.default_rng(1).normal(size=100), requires_grad=True)

        def loss():
            return T.tsum(w * w)

        report = grad_check(
            loss, {"w": w}, max_coords_per_param=10, rng=np.random.default_rng(2)
        )
        assert report.checked == 10
        assert report.max_rel_err < 1e-6

    def test_report_passed(self):
        assert GradCheckReport(5e-5, "w", 0, 1.0, 1.0, 1).passed(1e-4)
        assert not GradCheckReport(2e-4, "w", 0, 1.0, 1.0, 1).passed(1e-4)
