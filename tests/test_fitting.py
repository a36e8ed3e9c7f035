import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares as scipy_least_squares

from becmemory import fitting
from becmemory.commands import cmd_fig4
from becmemory.config import RunConfig
from becmemory.fitting import (DataSeries, FitResult, fit_damped_sinusoid,
                               fit_gaussian_decay, fit_scaled_model)
from becmemory.memory import (NoiseModel, faraday_frequency, sample_shots,
                              sigma_alpha_from_noise)
from becmemory.polarization import PoincareVector
from prefit_oracle import _explained_by, _zoom, zoomed_frequency

TWO_PI = 2.0 * math.pi


def faraday_grid():
    """Dense windows separated by long gaps, in seconds."""
    return np.concatenate([np.arange(s, s + 25.0 + 0.125, 0.25)
                           for s in (0.0, 495.0, 980.0, 2380.0)]) * 1e-6


def damped_cos(x, amp, omega, phi0, sigma):
    return amp * np.exp(-x**2 / (2 * sigma**2)) * np.cos(omega * x - phi0)


class TestDampedSinusoid:
    def test_noiseless_round_trip(self):
        x = faraday_grid()
        truth = {"amplitude": 1.0, "omega_f": TWO_PI * 0.20e6, "phi0": 0.3,
                 "sigma_alpha": 1.1e-3}
        y = damped_cos(x, truth["amplitude"], truth["omega_f"],
                       truth["phi0"], truth["sigma_alpha"])
        fit = fit_damped_sinusoid(DataSeries(x, y))
        assert fit.converged
        for name, value in truth.items():
            assert fit.params[name] == pytest.approx(value, rel=1e-6)
        assert all(err >= 0 for err in fit.std_errors.values())

    def test_round_trip_other_parameters(self):
        x = np.linspace(0, 40e-6, 400)
        y = damped_cos(x, 0.7, TWO_PI * 0.35e6, -1.1, 15e-6)
        fit = fit_damped_sinusoid(DataSeries(x, y))
        assert fit.params["amplitude"] == pytest.approx(0.7, rel=1e-6)
        assert fit.params["omega_f"] == pytest.approx(TWO_PI * 0.35e6,
                                                      rel=1e-6)
        assert fit.params["phi0"] == pytest.approx(-1.1, rel=1e-6)
        assert fit.params["sigma_alpha"] == pytest.approx(15e-6, rel=1e-6)

    def test_undamped_variant(self):
        x = faraday_grid()
        y = 1.02 * np.cos(TWO_PI * 0.20e6 * x - 0.3)
        fit = fit_damped_sinusoid(DataSeries(x, y), undamped=True)
        assert fit.converged
        assert fit.params["amplitude"] == pytest.approx(1.02, rel=1e-6)
        assert fit.params["sigma_alpha"] == math.inf
        assert fit.std_errors["sigma_alpha"] == 0.0

    @pytest.mark.parametrize("seed", [3, 6, 7])
    def test_noisy_undamped_cosine_converges(self, seed):
        # no envelope under noise: sigma has no finite optimum on these
        # traces, and kappa = 1/(2 sigma^2) has one at or near 0
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 1.0, 100))
        y = np.cos(TWO_PI * 5.0 * x) + 0.1 * rng.normal(size=100)
        fit = fit_damped_sinusoid(DataSeries(x, y))
        assert fit.converged
        sigma = fit.params["sigma_alpha"]
        assert sigma >= 10.0 * np.ptp(x)
        if sigma == math.inf:
            assert fit.std_errors["sigma_alpha"] == math.inf
            assert fit.message == "no envelope resolved"
        assert fit.params["omega_f"] == pytest.approx(TWO_PI * 5.0, rel=0.01)

    def test_errors_match_the_sigma_parametrization(self):
        # the fit solves for kappa and takes sigma's error through
        # d sigma / d kappa = -sigma^3, which the scaled inverse
        # Gauss-Newton matrix in (A, omega, phi0, sigma) must reproduce
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(0.0, 1.0, 200))
        y = damped_cos(x, 0.7, TWO_PI * 8.0, -1.1, 0.4) \
            + 0.05 * rng.normal(size=200)
        fit = fit_damped_sinusoid(DataSeries(x, y))
        assert fit.converged and fit.message == ""
        names = ("amplitude", "omega_f", "phi0", "sigma_alpha")
        amp, omega, phi0, sigma = (fit.params[name] for name in names)
        e = np.exp(-x**2 / (2.0 * sigma**2))
        cos, sin = e * np.cos(omega * x - phi0), e * np.sin(omega * x - phi0)
        jac = np.column_stack([cos, -amp * sin * x, amp * sin,
                               amp * cos * x**2 / sigma**3])
        cov = np.linalg.inv(jac.T @ jac) * fit.chi2_per_dof
        for name, variance in zip(names, np.diag(cov)):
            assert fit.std_errors[name] == pytest.approx(math.sqrt(variance),
                                                         rel=1e-9)

    def test_constant_data_flagged(self):
        x = faraday_grid()
        fit = fit_damped_sinusoid(DataSeries(x, np.ones_like(x)))
        assert not fit.converged
        assert "non-identifiable" in fit.message
        assert fit.std_errors == {}

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_damped_sinusoid(DataSeries([0, 1, 2], [1, 0, -1]))

    def test_reorder_invariance(self, rng):
        x = faraday_grid()
        y = damped_cos(x, 0.9, TWO_PI * 0.2e6, 0.5, 0.9e-3)
        order = rng.permutation(len(x))
        a = fit_damped_sinusoid(DataSeries(x, y))
        b = fit_damped_sinusoid(DataSeries(x[order], y[order]))
        for name in a.params:
            assert a.params[name] == pytest.approx(b.params[name], rel=1e-9)

    def test_explicit_initial_guesses_honored(self):
        # with all four initial guesses supplied the scan is bypassed and
        # the optimizer still lands on the generating parameters
        x = faraday_grid()
        y = damped_cos(x, 1.0, TWO_PI * 0.2e6, 0.3, 1.1e-3)
        fit = fit_damped_sinusoid(
            DataSeries(x, y),
            init={"amplitude": 0.8, "omega_f": TWO_PI * 0.2001e6,
                  "phi0": 0.0, "sigma_alpha": 2e-3})
        assert fit.params["omega_f"] == pytest.approx(TWO_PI * 0.2e6,
                                                      rel=1e-6)
        assert fit.params["sigma_alpha"] == pytest.approx(1.1e-3, rel=1e-6)

    def test_given_initial_guesses_are_not_computed(self, monkeypatch):
        # a start value init supplies is not also guessed: no frequency
        # scan, second-moment width or phase solve runs
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        counted(fitting, "_coarse_scan")
        counted(fitting, "_second_moment_width")
        counted(np.linalg, "lstsq")
        x = faraday_grid()
        y = damped_cos(x, 1.0, TWO_PI * 0.2e6, 0.3, 1.1e-3)
        fit = fit_damped_sinusoid(
            DataSeries(x, y),
            init={"amplitude": 0.8, "omega_f": TWO_PI * 0.2001e6,
                  "phi0": 0.0, "sigma_alpha": 2e-3})
        assert calls == []
        assert fit.params["omega_f"] == pytest.approx(TWO_PI * 0.2e6,
                                                      rel=1e-6)

    def test_monte_carlo_shot_data(self):
        # per-shot Faraday data with line-synced noise: purely phase noise,
        # yet the averaged fit recovers the ensemble damping time
        noise = NoiseModel.from_preset("line-synced", mean_bz=1.0 / 7.0)
        injected = sigma_alpha_from_noise(noise.sigma_b)
        x = faraday_grid()
        u = PoincareVector(1.0, 0.0, 0.0)
        fitted = []
        for rep in range(5):
            s1 = np.empty(len(x))
            for i, t in enumerate(x):
                shot = sample_shots(u, float(t), 0.0, 1.0, noise, 1,
                                    np.random.SeedSequence(
                                        entropy=555, spawn_key=(rep, i)))[0]
                s1[i] = shot[1] / shot[0]
            fit = fit_damped_sinusoid(DataSeries(x, s1))
            assert fit.converged
            fitted.append(fit.params["sigma_alpha"])
        mean = float(np.mean(fitted))
        assert abs(mean - injected) <= 0.2 * injected

    def test_monte_carlo_trace_lands_in_true_basin(self):
        # 16 shots averaged per point on fig3's lattice.  A coarse scan
        # sampled only 1/(4 span) apart ranked the neighbouring basin
        # first on this trace and fitted omega_F 0.94% high, although the
        # true basin's chi^2/dof is 16% lower.
        mean_bz, sigma_b, seed = 0.15514654024769048, 9.524789199209282e-05, \
            134939932
        x = faraday_grid()
        noise = NoiseModel(mean_bz, sigma_b)
        u = PoincareVector(1.0, 0.0, 0.0)
        y = np.empty(x.size)
        for i, t in enumerate(x):
            shots = sample_shots(u, float(t), 0.0, 1.0, noise, 16,
                                 np.random.SeedSequence(seed,
                                                        spawn_key=(i,)))
            y[i] = float(np.mean(shots[:, 1] / shots[:, 0]))
        fit = fit_damped_sinusoid(DataSeries(x, y))
        assert fit.converged
        assert fit.params["omega_f"] == pytest.approx(
            faraday_frequency(mean_bz), rel=5e-3)


def jittered_trace():
    """fig3's grid with each time pushed later by up to 0.6 of a step."""
    rng = np.random.default_rng(20120731)
    x = faraday_grid()
    x = x + rng.uniform(0.0, 0.6, x.size) * 0.25e-6
    y = damped_cos(x, 1.0, TWO_PI * 0.2e6, 0.3, 1.1e-3) \
        + 0.05 * rng.normal(size=x.size)
    return x, y


def direct_scan(x, ye, span, min_step):
    """Reference coarse scan: (best frequency, grid step).

    The diagonal-Gram power |sum ye exp(-2 pi i f x)|^2 summed directly on
    an evenly spaced grid over [0.25/span, 0.5/min_step], 1/(4 span) apart
    but at most 2**18 points, in chunks that bound the memory.
    """
    lo, hi = 0.25 / span, 0.5 / min_step
    n_scan = min(max(int(math.ceil((hi - lo) * 4.0 * span)), 512), 1 << 18)
    freqs = np.linspace(lo, hi, n_scan)
    # centred times keep the phases, and their rounding errors, small
    xc = x - 0.5 * (x.min() + x.max())
    best, best_val = lo, -np.inf
    for start in range(0, n_scan, 8192):
        chunk = freqs[start:start + 8192]
        z = np.einsum("fn,n->f", np.exp(-2j * math.pi * chunk[:, None] * xc),
                      ye)
        values = z.real**2 + z.imag**2
        k = int(np.argmax(values))
        if values[k] > best_val:
            best, best_val = chunk[k], values[k]
    return best, (hi - lo) / max(n_scan - 1, 1)


def scan_against_direct_scan(x, y, env):
    """Frequencies found by zooming ``_coarse_scan``'s peak and the direct
    scan's with the same zoom, and the profiled variance each explains,
    keyed "scan" and "direct"."""
    ye = (y - y.mean()) * env
    span = x.max() - x.min()
    best = {"scan": zoomed_frequency(x, y, env) / TWO_PI,
            "direct": _zoom(x, ye, env**2, *direct_scan(
                x, ye, span, np.diff(np.unique(x)).min()))}
    explained = {name: _explained_by(x, ye, env**2)(np.array([f]))[0]
                 for name, f in best.items()}
    return best, explained


def oracle_trace(seed, n_sites, offset, delta, damped, jitter):
    """(x, y, envelope, drawn frequency) of a random sinusoid sampled on a
    random subset of a lattice of ``n_sites`` + 1 sites, more than half of
    them sampled and a few twice, each site pushed later by up to
    ``jitter`` steps."""
    rng = np.random.default_rng(seed)
    sites = rng.choice(n_sites + 1, int(rng.integers(
        n_sites // 2 + 1, n_sites + 2)), replace=False)
    sites = np.union1d(sites, [0, n_sites])
    sites = rng.permutation(np.concatenate(
        [sites, rng.choice(sites, int(rng.integers(0, 4)))]))
    shift = jitter * rng.uniform(size=n_sites + 1)
    x = offset + (sites + shift[sites]) * delta
    span = x.max() - x.min()
    env = np.exp(-((x - x.min()) / span - rng.uniform())**2) if damped \
        else np.ones_like(x)
    freq = rng.uniform(4.0 / span, 0.4 / delta)
    y = env * np.cos(TWO_PI * freq * x + rng.uniform(0.0, TWO_PI)) \
        + rng.uniform(0.0, 0.3) * rng.normal(size=x.size)
    return x, y, env, freq


# The oracle traces: a damped sinusoid over at least 4 periods on a random
# lattice of at least 16 sites.  Fewer periods or sites let aliases outrank
# the signal, which tests the data rather than the scan.
ORACLE_TRACES = dict(
    seed=st.integers(0, 2**32 - 1), n_sites=st.integers(16, 96),
    offset=st.floats(-1e3, 1e3), delta=st.floats(1e-3, 10.0),
    damped=st.booleans(), jitter=st.floats(0.0, 0.6))


def double_grid_scan(x, ye, span):
    """``fitting._coarse_scan`` before the lattice-length FFT: the grid
    always has 2 round(span / dx) steps, so a lattice's samples sit on its
    even nodes.  Off a lattice no bin past 0.5/dx is ranked."""
    dx = np.diff(np.unique(x)).min()
    u = (x - x.min()) / (span / np.rint(span / dx))
    lattice = np.max(np.abs(u - np.rint(u))) <= 1e-6
    n = int(min(2.0 * np.rint(span / dx), fitting.FFT_MAX_SAMPLES // 4 - 1))
    delta = span / n
    n_fft = max(1 << (4 * (n + 1) - 1).bit_length(), 4096)
    u = (x - x.min()) / delta
    t = u - np.floor(u)
    weights = np.column_stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                               (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                               -(t + 1.0) * t * (t - 2.0) / 2.0,
                               (t + 1.0) * t * (t - 1.0) / 6.0])
    nodes = np.floor(u).astype(np.intp)[:, None] + np.arange(-1, 3)
    grid = np.zeros(n_fft)
    np.add.at(grid, nodes, weights * ye[:, None])
    power = np.abs(np.fft.rfft(grid))**2
    bin_width = 1.0 / (n_fft * delta)
    first = math.ceil(0.25 / (span * bin_width))
    top = n_fft // 4 if lattice else min(n_fft // 4,
                                         int(0.5 / (dx * bin_width)))
    return (first + int(np.argmax(power[first:top + 1]))) * bin_width


@contextlib.contextmanager
def rfft_lengths():
    """The lengths of the rffts taken inside the block."""
    lengths = []
    rfft = np.fft.rfft

    def recorded(a, n=None, *args, **kwargs):
        lengths.append(np.shape(a)[-1] if n is None else n)
        return rfft(a, n, *args, **kwargs)

    np.fft.rfft = recorded
    try:
        yield lengths
    finally:
        np.fft.rfft = rfft


def fig3_trace():
    """(x, y, envelope) of a noisy damped sinusoid on fig3's lattice."""
    x = faraday_grid()
    rng = np.random.default_rng(20121005)
    y = damped_cos(x, 1.0, TWO_PI * 0.2e6, 0.3, 1.1e-3) \
        + 0.05 * rng.normal(size=x.size)
    return x, y, np.exp(-x**2 / (2.0 * 1.0e-3**2))


def zoom_against_window(x, y, env):
    """Profiled variance explained at the oracle ``_zoom``'s result, started
    from the coarse scan, and the largest on 20001 evenly spaced
    frequencies of the zoom's window."""
    ye = (y - y.mean()) * env
    step = 0.25 / np.ptp(x)
    best = fitting._coarse_scan(x, ye, np.ptp(x))
    found = _zoom(x, ye, env**2, best, step)
    window = np.linspace(max(best - 2.0 * step, 0.0), best + 2.0 * step,
                         20001)
    explained = _explained_by(x, ye, env**2)
    return explained(np.array([found]))[0], explained(window).max()


class TestFrequencyScan:
    def test_lattice_result_unchanged(self):
        # value of the lattice-only FFT scan the extirpolated scan replaced,
        # zoomed then by two passes of 512 frequencies; the oracle's
        # bracketed zoom of the coarse scan's peak lands 1e-9 from it and
        # explains as much
        pinned = 1256653.704647717
        x, y, envelope = fig3_trace()
        found = zoomed_frequency(x, y, envelope)
        assert abs(found - pinned) <= 1e-8 * pinned
        ye = (y - y.mean()) * envelope
        explained = _explained_by(x, ye, envelope**2)(
            np.array([found, pinned]) / TWO_PI)
        assert explained[0] >= explained[1] * (1.0 - 1e-12)

    def test_fig3_scan_takes_a_lattice_length_fft(self):
        x, y, envelope = fig3_trace()
        ye = (y - y.mean()) * envelope
        with rfft_lengths() as lengths:
            found = fitting._coarse_scan(x, ye, np.ptp(x))
        assert lengths == [65536]
        assert found == double_grid_scan(x, ye, np.ptp(x))

    # On a lattice the scan's FFT is half the double grid's and has the
    # same bins, so it finds the same frequency; off a lattice it is the
    # double grid's scan, bit for bit.
    @settings(max_examples=200, deadline=None)
    # A lattice whose second sample rounds to just below node 1, which so
    # gets a weight on node -1: the grid then takes the FFT's full length.
    @example(seed=4213142193, n_sites=86, offset=0.1, delta=0.03,
             damped=True, jitter=0.0)
    @given(**dict(ORACLE_TRACES,
                  jitter=st.just(0.0) | ORACLE_TRACES["jitter"]))
    def test_scan_matches_the_double_grid_scan(
            self, seed, n_sites, offset, delta, damped, jitter):
        x, y, env, _ = oracle_trace(seed, n_sites, offset, delta, damped,
                                    jitter)
        ye = (y - y.mean()) * env
        span = np.ptp(x)
        with rfft_lengths() as lengths:
            found = fitting._coarse_scan(x, ye, span)
        with rfft_lengths() as double:
            assert found == double_grid_scan(x, ye, span)
        if jitter == 0.0:
            assert 2 * lengths[0] == double[0]

    @pytest.mark.parametrize("delta, offset, n", [
        (0.25, 0.0, 12), (1.0, 0.0, 16), (0.25, 240.5, 40),
        (0.25e-6, 0.0, 404)])
    def test_explained_at_nyquist_is_the_cosine_projection(
            self, delta, offset, n):
        # The sine column vanishes at a lattice's Nyquist frequency, so
        # only the cosine is left to explain the data; a 2x2 solve through
        # the Gram determinant divides by rounding errors there.
        rng = np.random.default_rng(n)
        x = offset + delta * np.arange(n)
        env = np.exp(-((x - x[0]) / np.ptp(x) - 0.3)**2)
        ye = env * rng.normal(size=n)
        cos = (-1.0) ** np.rint(x / delta)
        value = _explained_by(x, ye, env**2)(np.array([0.5 / delta]))
        assert value[0] == pytest.approx((ye @ cos)**2 / (env**2 @ cos**2),
                                         rel=1e-12)

    def test_zoom_from_an_exact_alias(self):
        # 13 samples on a lattice of step 0.25 whose coarse scan peaks at
        # exactly its Nyquist frequency 2.0, where the cos and sin columns
        # are parallel.  The profiled variance tends to 3.4979161475 there
        # from both sides; a 2x2 solve through the determinant gave 8.0 at
        # 2.0 itself on the zoom's grid, which outranked every neighbour.
        x, y, env, _ = oracle_trace(4023047463, 18, 240.65625, 0.25, True,
                                    0.0)
        ye = (y - y.mean()) * env
        span = np.ptp(x)
        assert x.size == 13 and fitting._coarse_scan(x, ye, span) == 2.0
        found = _zoom(x, ye, env**2, 2.0, 0.25 / span)
        value = _explained_by(x, ye, env**2)(np.array([found]))[0]
        assert value == pytest.approx(3.4979161475, rel=1e-9)

    def test_zoom_reaches_the_window_maximum(self):
        found, window = zoom_against_window(*fig3_trace())
        assert found >= window * (1.0 - 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(**ORACLE_TRACES)
    def test_zoom_reaches_the_window_maximum_on_oracle_traces(
            self, seed, n_sites, offset, delta, damped, jitter):
        x, y, env, _ = oracle_trace(seed, n_sites, offset, delta, damped,
                                    jitter)
        found, window = zoom_against_window(x, y, env)
        assert found >= window * (1.0 - 1e-9)

    def test_off_lattice_scan_explains_as_much_as_direct_scan(self):
        x, y = jittered_trace()
        envelope = np.exp(-x**2 / (2.0 * 1.0e-3**2))
        best, explained = scan_against_direct_scan(x, y, envelope)
        assert explained["scan"] >= explained["direct"] * (1.0 - 1e-9)
        assert abs(best["scan"] - best["direct"]) < 1.0 / np.ptp(x)

    def test_tiny_minimum_gap_keeps_the_fft_within_the_cap(self):
        # random times, free of aliases, and one pair 1e-9 span apart
        span = 1.0
        x = np.sort(np.random.default_rng(7).uniform(0.0, span, 200))
        x = np.concatenate([[0.0, span], x, [x[100] + 1e-9 * span]])
        y = np.cos(TWO_PI * 5.0 / span * x + 0.4)
        with rfft_lengths() as lengths:
            found = fitting._dominant_frequency(x, y, np.ones_like(x)) \
                / TWO_PI
        assert lengths and max(lengths) <= fitting.FFT_MAX_SAMPLES
        assert abs(found - 5.0 / span) < 1.0 / span

    # On 14 samples or fewer the direct scan can pick an alias (a lattice's
    # Nyquist frequency, or one ~10/span away) that explains more variance
    # than the drawn frequency, while the scan stays within 1/span of the
    # drawn one; that is the data's ambiguity, not a fault of the scan.
    @settings(max_examples=300, deadline=None)
    @example(seed=23, n_sites=23, offset=240.65625, delta=0.25, damped=True,
             jitter=0.21875)
    @example(seed=218362, n_sites=16, offset=0.0, delta=1.0, damped=False,
             jitter=0.3125)
    # Both scans pick the Nyquist alias of 11 samples, whose largest value
    # lies at the edge of the band where the sine term is dropped; the
    # direct scan's finer step zoomed 7e-8 Hz closer to it and explained
    # 1e-8 more until the zoom narrowed onto the edge by value.
    @example(seed=600, n_sites=16, offset=834.96875, delta=0.001, damped=True,
             jitter=0.0)
    # Off the lattice span / dx = 19.53 rounds up to 20, and the scan's
    # grid reached 0.634 > 0.5/dx = 0.619, where an alias of the drawn
    # 0.377 outranked it.
    @example(seed=5530, n_sites=16, offset=202.5, delta=1.0, damped=False,
             jitter=0.2265625)
    @given(**ORACLE_TRACES)
    def test_lattice_scan_explains_as_much_as_direct_scan(
            self, seed, n_sites, offset, delta, damped, jitter):
        x, y, env, freq = oracle_trace(seed, n_sites, offset, delta, damped,
                                       jitter)
        best, explained = scan_against_direct_scan(x, y, env)
        assert explained["scan"] >= explained["direct"] * (1.0 - 1e-9) \
            or abs(best["scan"] - freq) < 1.0 / np.ptp(x)

    def test_lattice_scan_alias_draw(self):
        # the oracle above on a fixed draw, whichever draws the hypothesis
        # database holds: 16 samples of a damped sinusoid.  The scan once
        # ranked an alias at f = 0.6817 first, past the band's top
        # 0.5/dx = 0.6651, which explains 2.41; the direct scan finds the
        # drawn 0.3126, which explains 3.07.
        x, y, env, freq = oracle_trace(seed=32519, n_sites=16, offset=0.0,
                                       delta=1.0, damped=True,
                                       jitter=0.3671875)
        best, explained = scan_against_direct_scan(x, y, env)
        assert explained["scan"] >= explained["direct"] * (1.0 - 1e-9) \
            or abs(best["scan"] - freq) < 1.0 / np.ptp(x)


def solver_trace(seed, n, periods, width, noise, undamped, weighted):
    """A random damped (or undamped) sinusoid over ``periods`` periods on
    n random times in [0, 1], its envelope ``width`` wide, with Gaussian
    noise of relative size ``noise``, optionally weighted by per-point
    uncertainties."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    sigma = math.inf if undamped else width
    scale = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
    y = damped_cos(x, rng.uniform(0.2, 2.0), TWO_PI * periods,
                   rng.uniform(-math.pi, math.pi), sigma) \
        + noise * scale * rng.normal(size=n)
    return DataSeries(x, y, noise * scale if weighted and noise else None)


@contextlib.contextmanager
def solver_calls():
    """(residual function, start, result) of each ``fitting.least_squares``
    call inside the block."""
    calls = []
    solver = fitting.least_squares

    def recording(fun, x0, *args, **kwargs):
        result = solver(fun, x0, *args, **kwargs)
        calls.append((fun, np.array(x0, dtype=float), result))
        return result

    fitting.least_squares = recording
    try:
        yield calls
    finally:
        fitting.least_squares = solver


def fit_with_oracle(data, undamped):
    """The fit, and scipy's ``trf`` started from the fit's own start on its
    own residuals: (fit, oracle's chi2/dof, oracle's |omega|, kappa), kappa
    0 where the fit pins it."""
    with solver_calls() as calls:
        fit = fit_damped_sinusoid(data, undamped=undamped)
    fun, x0, _ = calls[0]
    oracle = scipy_least_squares(fun, x0, method="trf", xtol=1e-13,
                                 ftol=1e-13, gtol=1e-13, max_nfev=2000)
    dof = data.n - x0.size
    return (fit, float(oracle.fun @ oracle.fun) / dof, abs(oracle.x[1]),
            oracle.x[3] if x0.size == 4 else 0.0)


def fixed_solver_draws(count):
    """``count`` draws of ``solver_trace``'s arguments from one seeded
    stream, over the domain of the scipy comparison below."""
    rng = np.random.default_rng(20110304)
    return [dict(seed=int(rng.integers(2**32)), n=int(rng.integers(20, 301)),
                 periods=float(rng.uniform(3.0, 40.0)),
                 width=float(rng.uniform(0.3, 3.0)),
                 noise=float(rng.choice([0.0, 0.01, 0.1, 0.5])),
                 undamped=bool(rng.integers(2)),
                 weighted=bool(rng.integers(2))) for _ in range(count)]


class TestSolver:
    def test_linear_problem(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(30, 3)), rng.normal(size=30)
        result = fitting.least_squares(lambda p: a @ p - b, np.zeros(3),
                                       jac=lambda p: a)
        assert result.nfev > 0 and result.status > 0
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        np.testing.assert_allclose(result.x, expected, rtol=1e-10)
        np.testing.assert_array_equal(result.fun, a @ result.x - b)
        np.testing.assert_array_equal(result.jac, a)

    def test_sinusoid_fit_reports_nfev_and_status(self):
        x, y, _ = fig3_trace()
        with solver_calls() as calls:
            fit = fit_damped_sinusoid(DataSeries(x, y))
        assert fit.converged
        assert len(calls) == 1
        result = calls[0][2]
        assert result.nfev > 0 and result.status > 0

    def test_running_out_of_evaluations_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(fitting, "LSQ_MAX_NFEV", 2)
        x, y, _ = fig3_trace()
        fit = fit_damped_sinusoid(DataSeries(x, y))
        assert not fit.converged
        assert fit.message == "did not converge"
        assert fit.std_errors == {}

    def test_parameters_fold_back_into_range(self):
        # started from a negative amplitude and frequency, the unbounded
        # fit ends at (-A, -omega); the result reads (A, omega)
        x = np.linspace(0.0, 40e-6, 400)
        y = damped_cos(x, 0.7, TWO_PI * 0.35e6, -1.1, 15e-6)
        fit = fit_damped_sinusoid(
            DataSeries(x, y), init={"amplitude": -0.7,
                                    "omega_f": -TWO_PI * 0.35e6,
                                    "phi0": 1.1 + math.pi,
                                    "sigma_alpha": -15e-6})
        assert fit.converged
        for name, value in (("amplitude", 0.7), ("omega_f", TWO_PI * 0.35e6),
                            ("phi0", -1.1), ("sigma_alpha", 15e-6)):
            assert fit.params[name] == pytest.approx(value, rel=1e-9)

    # The fit starts at the coarse scan's peak, whose bin is at most
    # 1/(4 span) wide; started at the profiled peak near it instead, the
    # solver ends in the same minimum.  Noiseless data leave residuals of
    # rounding errors, whose squares no start orders, hence the absolute
    # term of the chi2 bound.
    @pytest.mark.parametrize("trace", [
        pytest.param((DataSeries(*fig3_trace()[:2]), False), id="fig3"),
        pytest.param((DataSeries(*jittered_trace()), False), id="jittered"),
        *(pytest.param((solver_trace(**draw), draw["undamped"]),
                       id=f"solver-{k}")
          for k, draw in enumerate(fixed_solver_draws(20)))])
    def test_coarse_start_ends_where_the_zoomed_start_does(self, trace):
        data, undamped = trace
        # the oracle zooms under the fit's own start envelope
        kappa0 = 0.0 if undamped \
            else 0.5 / fitting._second_moment_width(data.x, data.y)**2
        start = zoomed_frequency(data.x, data.y, np.exp(-kappa0 * data.x**2))
        coarse = fit_damped_sinusoid(data, undamped=undamped)
        zoomed = fit_damped_sinusoid(data, {"omega_f": start}, undamped)
        assert coarse.converged and zoomed.converged
        assert abs(coarse.chi2_per_dof - zoomed.chi2_per_dof) \
            <= 1e-9 * zoomed.chi2_per_dof + 1e-24 * float(np.mean(data.y**2))
        assert coarse.params["omega_f"] == pytest.approx(
            zoomed.params["omega_f"], rel=1e-8)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="far from x = 0 the amplitude and kappa trade off along a "
               "near-flat valley, and the fit stops at its 2000 evaluations "
               "(FOUND note on this oracle trace in CHANGES.md; ROADMAP "
               "item 5)")
    def test_trace_far_from_zero_converges(self):
        x, y, _, _ = oracle_trace(seed=1614161814, n_sites=80, offset=995.12,
                                  delta=0.3738, damped=True, jitter=0.4245)
        assert fit_damped_sinusoid(DataSeries(x, y)).converged

    # scipy is only the oracle here: from the same start on the same
    # residuals its trf reaches no lower chi2, and where both land in the
    # drawn frequency's basin (within a quarter of a basin's width,
    # 2 pi / span) they agree on omega.  Both stop once a step lowers chi2
    # by 1e-13 of it, which locates omega to about 1e-6 sqrt(dof / 100) of
    # its standard error, hence the second term of the omega tolerance.
    # Noiseless data leave residuals of rounding errors, ~1e-13 of y, whose
    # squares no solver can order, hence the absolute term of the chi2
    # bound.
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300),
           periods=st.floats(3.0, 40.0), width=st.floats(0.3, 3.0),
           noise=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
           undamped=st.booleans(), weighted=st.booleans())
    def test_matches_scipy_from_the_same_start(
            self, seed, n, periods, width, noise, undamped, weighted):
        data = solver_trace(seed, n, periods, width, noise, undamped,
                            weighted)
        fit, oracle_chi2, oracle_omega, oracle_kappa = fit_with_oracle(
            data, undamped)
        # The model has no finite minimum along omega -> 0 with A -> inf,
        # where A sin(omega x) tends to a line.  From a start that leads
        # there (the prefit miss of a FOUND note in CHANGES.md) the numpy
        # solver walks on until its budget runs out and scipy's stops
        # somewhere along the valley: no minimum to agree on.
        assume(oracle_omega > 0.25 * TWO_PI)
        assert fit.converged
        assert fit.chi2_per_dof <= oracle_chi2 * (1.0 + 1e-9) \
            + 1e-24 * float(np.mean(data.y**2))
        omega, sigma = fit.params["omega_f"], fit.params["sigma_alpha"]
        if max(abs(omega - TWO_PI * periods),
               abs(oracle_omega - TWO_PI * periods)) < 0.25 * TWO_PI:
            assert abs(omega - oracle_omega) <= 1e-8 * oracle_omega \
                + 1e-5 * fit.std_errors["omega_f"]
            if sigma < math.inf:
                # kappa = 1/(2 sigma^2), its error sigma's over sigma^3
                assert abs(0.5 / sigma**2 - oracle_kappa) \
                    <= 1e-8 * abs(oracle_kappa) \
                    + 1e-5 * fit.std_errors["sigma_alpha"] / sigma**3


class TestGaussianDecay:
    @pytest.mark.parametrize("sigma", [0.48e-3, 0.06e-3])
    def test_noiseless_round_trip(self, sigma):
        x = np.linspace(0, 2.2 * sigma, 40)
        y = 0.9 * np.exp(-x**2 / (2 * sigma**2))
        fit = fit_gaussian_decay(DataSeries(x, y))
        assert fit.converged
        assert fit.params["sigma"] == pytest.approx(sigma, rel=1e-6)
        assert fit.params["amplitude"] == pytest.approx(0.9, rel=1e-6)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian_decay(DataSeries([0.0], [1.0]))

    def test_constant_data_flagged(self):
        fit = fit_gaussian_decay(DataSeries(np.linspace(0, 1, 10),
                                            np.full(10, 0.7)))
        assert not fit.converged
        assert "non-identifiable" in fit.message

    def test_weighted_points_change_fit(self):
        x = np.linspace(0, 1e-3, 30)
        y = np.exp(-x**2 / (2 * 0.4e-3**2))
        y[-1] += 0.3
        plain = fit_gaussian_decay(DataSeries(x, y))
        sigma_y = np.ones_like(x)
        sigma_y[-1] = 100.0
        weighted = fit_gaussian_decay(DataSeries(x, y, sigma_y))
        assert abs(weighted.params["sigma"] - 0.4e-3) \
            < abs(plain.params["sigma"] - 0.4e-3)

    def test_bias_below_standard_error(self):
        # noisy estimates converge to the truth as the data count grows
        sigma_true, amp_true = 0.48e-3, 0.9
        rng = np.random.default_rng(7)
        stds = []
        for n in (100, 1000, 10000):
            values = []
            for _ in range(30):
                x = np.linspace(0, 1.2e-3, n)
                y = amp_true * np.exp(-x**2 / (2 * sigma_true**2)) \
                    + 0.02 * rng.standard_normal(n)
                values.append(fit_gaussian_decay(
                    DataSeries(x, y)).params["sigma"])
            values = np.array(values)
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - sigma_true) < se
            stds.append(values.std(ddof=1))
        assert stds[-1] < stds[0]

    # fig4's own fits, three presets at each of four seeds.  scipy is only
    # the oracle: its trf, run from each fit's start on its residuals,
    # uses the same 2-point Jacobian, so the two stop at the same optimum,
    # to 1e-6 as perfbench's fig4 check reads it; or trf stops short of
    # it at a larger sum of squares (seed 2's first fit, by 1.4e-6).
    @pytest.mark.parametrize("seed", range(4))
    def test_fig4_fits_match_scipy_from_the_same_start(self, seed):
        with solver_calls() as calls:
            cmd_fig4(RunConfig.from_mapping({"seed": seed}))
        assert len(calls) == 3
        for fun, x0, result in calls:
            oracle = scipy_least_squares(fun, x0, method="trf", xtol=1e-13,
                                         ftol=1e-13, gtol=1e-13,
                                         max_nfev=2000)
            assert result.status > 0 and oracle.status > 0
            assert np.allclose(np.abs(result.x), np.abs(oracle.x),
                               rtol=1e-6, atol=0.0) \
                or result.fun @ result.fun < oracle.fun @ oracle.fun

    # fig4's fit hands the solver scipy's 2-point forward difference of the
    # unweighted residuals, weighted after it is taken: p_i steps by
    # sqrt(eps) max(1, |p_i|) with p_i's sign (+ at 0), and each column is
    # divided by the step as rounded.  Checked on a noiseless, a noisy
    # fig4-like and a weighted trace, at the fit's start, where sigma is
    # negative, and where every |p_i| < 1 (one of them 0).
    def test_jacobian_is_the_two_point_difference(self, monkeypatch):
        rng = np.random.default_rng(20110629)
        x = np.linspace(0.0, 1.2e-4, 25)
        y = 0.9 * np.exp(-x**2 / (2.0 * 5.6e-5**2)) \
            + 0.02 * rng.normal(size=x.size)
        wide = np.linspace(0.0, 4.0, 30)
        traces = [DataSeries(wide, 2.5 * np.exp(-wide**2 / (2.0 * 1.7**2))),
                  DataSeries(x, y),
                  DataSeries(x, y, rng.uniform(0.01, 0.05, x.size))]
        calls = []
        solver = fitting.least_squares

        def recording(fun, x0, jac=None):
            calls.append((np.array(x0, dtype=float), jac))
            return solver(fun, x0, jac)

        monkeypatch.setattr(fitting, "least_squares", recording)
        root_eps = math.sqrt(np.finfo(float).eps)
        for data in traces:
            calls.clear()
            fit_gaussian_decay(data)
            (p0, jac), = calls
            assert jac is not None
            weights = np.ones(data.n) if data.sigma_y is None \
                else 1.0 / data.sigma_y

            def residuals(p):
                return p[0] * np.exp(-data.x**2 / (2.0 * p[1]**2)) - data.y

            for p in (p0, p0 * [1.0, -1.0],
                      np.array([0.0, 0.5 * min(p0[1], 1.0)])):
                expected = np.empty((data.n, 2))
                for i, value in enumerate(p):
                    moved = p.copy()
                    moved[i] += (1.0 if value >= 0 else -1.0) * root_eps \
                        * max(1.0, abs(value))
                    expected[:, i] = (residuals(moved) - residuals(p)) \
                        / (moved[i] - p[i]) * weights
                np.testing.assert_array_equal(jac(p), expected)

    def test_unresolved_decay_flagged(self):
        # over 1e-4 sigma the decay is far below the noise
        x = np.linspace(0.0, 1e-4 * 5.7e-5, 25)
        y = np.exp(-x**2 / (2 * 5.7e-5**2)) \
            + 0.03 * np.random.default_rng(2).standard_normal(x.size)
        fit = fit_gaussian_decay(DataSeries(x, y))
        assert not fit.converged
        assert fit.message == "the data resolve no decay"
        assert fit.std_errors["sigma"] >= 0.5 * fit.params["sigma"]


def assert_non_identifiable(fit):
    assert not fit.converged and math.isnan(fit.chi2_per_dof)
    assert fit.params == {} and fit.std_errors == {}
    assert fit.message.startswith("non-identifiable: ")


class TestScaledModel:
    def reference(self):
        x = np.linspace(5.0, 60.0, 120)
        y = 0.6 * np.exp(-((x - 15.0) / 9.0)**2) + 0.02
        return DataSeries(x, y)

    def test_identity_scaling(self):
        ref = self.reference()
        data = DataSeries(ref.x[10:100:3], ref.y[10:100:3])
        fit = fit_scaled_model(data, ref)
        assert fit.converged
        assert fit.params["s_eta"] == pytest.approx(1.0, rel=1e-9)
        assert fit.params["s_omega"] == pytest.approx(1.0, rel=1e-9)

    def test_known_scaling_round_trip(self):
        from scipy.interpolate import PchipInterpolator
        ref = self.reference()
        curve = PchipInterpolator(ref.x, ref.y)
        x = np.linspace(6.0, 28.0, 45)
        data = DataSeries(x, 0.5 * curve(2.0 * x))
        fit = fit_scaled_model(data, ref)
        assert fit.params["s_eta"] == pytest.approx(0.5, rel=1e-6)
        assert fit.params["s_omega"] == pytest.approx(2.0, rel=1e-6)

    def test_measured_versus_model_scaling(self):
        # synthetic measured curve peaking near 30% at 20 MHz against a
        # model peaking near 60% at 15 MHz: the efficiency scale comes out
        # around one half
        from scipy.interpolate import PchipInterpolator
        ref = self.reference()
        curve = PchipInterpolator(ref.x, ref.y)
        rng = np.random.default_rng(11)
        x = np.linspace(8.0, 45.0, 25)
        y = 0.5 * curve(0.75 * x) * (1.0 + 0.02 * rng.standard_normal(len(x)))
        fit = fit_scaled_model(DataSeries(x, y), ref)
        assert 0.4 <= fit.params["s_eta"] <= 0.6
        assert fit.params["s_omega"] == pytest.approx(0.75, abs=0.05)

    # The optimum lies beyond s_hi, where the data would leave the table:
    # the fit stops at s_hi with s_eta at its optimum there.  At
    # max(x) = 20.08, 60 / max(x) times max(x) rounds above 60, so s_hi is
    # the float below it.
    @pytest.mark.parametrize("x_max", [28.0, 20.08])
    def test_scaling_stays_on_the_table(self, x_max):
        from scipy.interpolate import PchipInterpolator
        ref = self.reference()
        curve = PchipInterpolator(ref.x, ref.y)
        x = np.linspace(6.0, x_max, 45)
        y = 0.5 * curve(np.minimum(2.5 * 28.0 / x_max * x, 60.0))
        fit = fit_scaled_model(DataSeries(x, y), ref)
        assert fit.converged and math.isfinite(fit.chi2_per_dof)
        s_omega = fit.params["s_omega"]
        assert s_omega == pytest.approx(60.0 / x_max, rel=1e-15)
        assert s_omega * x_max <= 60.0
        c = curve(s_omega * x)
        assert fit.params["s_eta"] == pytest.approx(c @ y / (c @ c),
                                                    rel=1e-10)
        if x_max == 28.0:
            assert fit.params["s_eta"] == pytest.approx(0.3945398721,
                                                        rel=1e-9)

    def test_uncoverable_data_rejected(self):
        ref = self.reference()
        data = DataSeries([0.1, 900.0], [0.1, 0.1])
        with pytest.raises(ValueError, match="x ="):
            fit_scaled_model(data, ref)

    # Zero data leave s_omega free, and so does a reference that is 0
    # wherever the rescaled data can fall: both report as constant data do
    # in the other fits, with no warning on the way.
    @pytest.mark.filterwarnings("error")
    def test_zero_data_are_non_identifiable(self):
        data = DataSeries(np.linspace(6.0, 28.0, 10), np.zeros(10))
        assert_non_identifiable(fit_scaled_model(data, self.reference()))

    @pytest.mark.filterwarnings("error")
    def test_zero_reference_is_non_identifiable(self):
        ref = DataSeries(np.linspace(1.0, 10.0, 20), np.zeros(20))
        data = DataSeries([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert_non_identifiable(fit_scaled_model(data, ref))

    @pytest.mark.filterwarnings("error")
    def test_reference_zero_on_part_of_the_bracket(self):
        # the start grid's nodes where the rescaled reference is 0 at every
        # data point rank last instead of dividing 0 by 0
        ref = DataSeries(np.linspace(1.0, 10.0, 20),
                         np.r_[np.zeros(10), np.linspace(0.0, 1.0, 10)])
        fit = fit_scaled_model(DataSeries([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]),
                               ref)
        assert fit.converged and fit.params["s_eta"] > 0

    def test_reorder_invariance(self, rng):
        from scipy.interpolate import PchipInterpolator
        ref = self.reference()
        curve = PchipInterpolator(ref.x, ref.y)
        x = np.linspace(7.0, 40.0, 31)
        y = 0.8 * curve(1.2 * x)
        order = rng.permutation(len(x))
        a = fit_scaled_model(DataSeries(x, y), ref)
        b = fit_scaled_model(DataSeries(x[order], y[order]), ref)
        assert a.params["s_eta"] == pytest.approx(b.params["s_eta"],
                                                  rel=1e-9)
        assert a.params["s_omega"] == pytest.approx(b.params["s_omega"],
                                                    rel=1e-9)


class TestDataSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DataSeries([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            DataSeries([1, 2], [1, 2], [1.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "sigma_y"])
    def test_non_finite_rejected(self, field, bad):
        values = {"x": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 0.4, -0.6, -0.9],
                  "sigma_y": [0.1, 0.1, 0.1, 0.1]}
        values[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            DataSeries(**values)

    def test_result_is_plain_record(self):
        result = FitResult({"a": 1.0}, {"a": 0.1}, 1.0, True)
        assert result.params["a"] == 1.0
        assert result.converged


def unit_weight_cases():
    """(fit, x, y) for each fit shape, on noisy data that leave residuals."""
    rng = np.random.default_rng(20120402)
    x, y, _ = fig3_trace()
    decay_x = np.linspace(0.0, 1.1e-3, 25)
    decay_y = 0.9 * np.exp(-decay_x**2 / (2.0 * 0.48e-3**2)) \
        + 0.02 * rng.normal(size=decay_x.size)
    ref = TestScaledModel().reference()
    scaled_x = np.linspace(6.0, 28.0, 45)
    scaled_y = 0.5 * np.interp(2.0 * scaled_x, ref.x, ref.y) \
        + 0.01 * rng.normal(size=scaled_x.size)
    return {"sinusoid": (fit_damped_sinusoid, x, y),
            "jittered sinusoid": (fit_damped_sinusoid, *jittered_trace()),
            "gaussian decay": (fit_gaussian_decay, decay_x, decay_y),
            "scaled model": (lambda data: fit_scaled_model(data, ref),
                             scaled_x, scaled_y)}


@pytest.mark.parametrize("case", sorted(unit_weight_cases()))
def test_unit_sigma_y_gives_the_unweighted_fit(case):
    # an unweighted fit is weighted by 1, so sigma_y = 1 must change no
    # bit; repr round-trips every float, so equal reprs are equal bits
    fit, x, y = unit_weight_cases()[case]
    plain = fit(DataSeries(x, y))
    weighted = fit(DataSeries(x, y, np.ones(x.size)))
    assert plain.converged
    assert repr(weighted) == repr(plain)
