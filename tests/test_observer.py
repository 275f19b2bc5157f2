import numpy as np
import pytest

from orbitmpc import (
    DimensionError,
    build_state_space,
    kalman_gain,
    synthetic_plant,
    update_fast,
    update_naive,
)
from orbitmpc.design import PartitionedGain
from orbitmpc.observer import ObserverState

from oracles import augmented_observer_matrices


@pytest.fixture
def plant():
    return synthetic_plant(5, 5, 20.0, seed=6, mu=3)


@pytest.fixture
def stack(plant):
    ss = build_state_space(plant)
    gain = kalman_gain(ss)
    return ss, gain


def random_state(ss, gain, rng):
    st = ObserverState.initial(ss, gain)
    return st._replace(
        rng.standard_normal(ss.n_u),
        rng.standard_normal((ss.mu, ss.n_u)),
        rng.standard_normal(ss.n_y),
    )


class TestUpdateNaive:
    def test_zero_innovation_is_pure_prediction(self, stack, rng):
        ss, gain = stack
        st = random_state(ss, gain, rng)
        u = rng.standard_normal(ss.n_u)
        y = ss.C @ st.z_hat[-1] + st.d_hat  # exactly the predicted output
        new = update_naive(st, u, y)
        assert np.allclose(new.x_hat, ss.A * st.x_hat + ss.B * u, atol=1e-12)
        assert np.allclose(new.z_hat[0], st.x_hat, atol=1e-12)
        assert np.allclose(new.d_hat, st.d_hat, atol=1e-12)

    def test_zero_everything_stays_zero(self, stack):
        ss, gain = stack
        st = ObserverState.initial(ss, gain)
        new = update_naive(st, np.zeros(ss.n_u), np.zeros(ss.n_y))
        assert np.all(new.x_hat == 0.0)
        assert np.all(new.z_hat == 0.0)
        assert np.all(new.d_hat == 0.0)

    def test_matches_dense_augmented_formula(self, stack, rng):
        ss, gain = stack
        st = random_state(ss, gain, rng)
        u = rng.standard_normal(ss.n_u)
        y = rng.standard_normal(ss.n_y)
        # independent route: one dense multiply on the stacked state
        F, H = augmented_observer_matrices(ss.A, ss.C, ss.mu)
        s_vec = np.concatenate([st.x_hat, st.z_hat.reshape(-1), st.d_hat])
        Bu = np.zeros(F.shape[0])
        Bu[: ss.n_u] = ss.B * u
        s_next = F @ s_vec + Bu + gain.full @ (y - H @ s_vec)
        new = update_naive(st, u, y)
        got = np.concatenate([new.x_hat, new.z_hat.reshape(-1), new.d_hat])
        assert np.allclose(got, s_next, atol=1e-13 * max(1, np.max(np.abs(s_next))))


class TestUpdateFast:
    def test_matches_naive_over_trajectories(self, stack):
        ss, gain = stack
        for seed in range(10):
            rng = np.random.default_rng(seed)
            fast = ObserverState.initial(ss, gain)
            naive = ObserverState.initial(ss, gain)
            for _ in range(200):
                u = rng.standard_normal(ss.n_u)
                y = rng.standard_normal(ss.n_y)
                fast = update_fast(fast, u, y)
                naive = update_naive(naive, u, y)
            assert np.max(np.abs(fast.x_hat - naive.x_hat)) < 1e-10
            assert np.max(np.abs(fast.z_hat - naive.z_hat)) < 1e-10
            assert np.max(np.abs(fast.d_hat - naive.d_hat)) < 1e-10

    def test_gain_of_another_a_rejected(self, stack):
        # the fast update propagates with the plant's powers of A, so a gain
        # propagated with any other A is refused before the first update
        ss, gain = stack
        other = PartitionedGain(gain.measured, gain.L_d, ss.A * (1.0 - 1e-12), ss.mu)
        with pytest.raises(DimensionError, match="another A"):
            ObserverState.initial(ss, other)

    def test_gain_left_untouched(self, stack, rng):
        # the frozen gain carries no cache written by the fast update
        ss, gain = stack
        before = dict(gain.__dict__)
        st = ObserverState.initial(ss, gain)
        for _ in range(3):
            st = update_fast(st, rng.standard_normal(ss.n_u), rng.standard_normal(ss.n_y))
        assert gain.__dict__.keys() == before.keys()
        assert all(gain.__dict__[key] is value for key, value in before.items())

    def test_constant_disturbance_estimate_converges(self, stack, rng):
        ss, gain = stack
        d_true = rng.standard_normal(ss.n_y)
        st = ObserverState.initial(ss, gain)
        for _ in range(600):
            st = update_fast(st, np.zeros(ss.n_u), d_true)  # x stays 0: y = d
        assert np.linalg.norm(st.d_hat - d_true) < 1e-6 * np.linalg.norm(d_true)

    def test_delay_zero_plant(self, rng):
        plant = synthetic_plant(4, 4, 5.0, seed=1, mu=0)
        ss = build_state_space(plant)
        gain = kalman_gain(ss)
        fast = ObserverState.initial(ss, gain)
        naive = ObserverState.initial(ss, gain)
        for _ in range(100):
            u = rng.standard_normal(4)
            y = rng.standard_normal(4)
            fast = update_fast(fast, u, y)
            naive = update_naive(naive, u, y)
        assert np.max(np.abs(fast.x_hat - naive.x_hat)) < 1e-12


class TestEstimationError:
    def test_noise_free_error_contracts(self, stack, rng):
        ss, gain = stack
        # true plant driven by known inputs; observer starts wrong
        x = np.zeros(ss.n_u)
        history = [np.zeros(ss.n_u) for _ in range(ss.mu + 1)]
        st = ObserverState.initial(ss, gain)
        st = st._replace(rng.standard_normal(ss.n_u), st.z_hat, st.d_hat)
        err0 = np.linalg.norm(st.x_hat - x)
        inn_last = None
        for k in range(500):
            u = 0.3 * np.sin(0.01 * k) * np.ones(ss.n_u)
            y = ss.C @ history[-(ss.mu + 1)] + 0.0
            inn_last = st.innovation(y)
            st = update_fast(st, u, y)
            x = ss.A * x + ss.B * u
            history.append(x.copy())
        err = np.linalg.norm(st.x_hat - x)
        assert err < 1e-8 * err0
        assert np.linalg.norm(inn_last) < 1e-8

    def test_a_powers_invariant(self, stack):
        ss, gain = stack
        st = ObserverState.initial(ss, gain)
        for i in range(ss.mu + 1):
            ref = np.ones(ss.n_u)
            for _ in range(i):
                ref = ref * ss.A
            assert np.allclose(st.A_powers[i], ref, rtol=1e-14, atol=0)

    def test_snapshot_dump(self, stack, tmp_path):
        ss, gain = stack
        st = ObserverState.initial(ss, gain)
        path = tmp_path / "obs.csv"
        st.to_csv(path)
        assert path.exists()


@pytest.mark.parametrize("update", [update_naive, update_fast], ids=["naive", "fast"])
@pytest.mark.parametrize("mu", [0, 1, 3])
def test_update_leaves_the_state_it_is_passed_intact(rng, mu, update):
    plant = synthetic_plant(5, 6, 20.0, seed=6, mu=mu)
    ss = build_state_space(plant)
    st = random_state(ss, kalman_gain(ss), rng)
    arrays = (st.x_hat, st.z_hat, st.d_hat)
    copies = [a.copy() for a in arrays]
    new = update(st, rng.standard_normal(ss.n_u), rng.standard_normal(ss.n_y) * 10.0)
    for array, copy in zip(arrays, copies):
        assert array.tobytes() == copy.tobytes()
    assert not any(np.shares_memory(a, b) for a in arrays for b in (new.x_hat, new.d_hat))
