import cmath
import math

import numpy as np
import pytest

from pronydec import (
    PronyModel,
    RankDeficiencyError,
    SamplingScheme,
    ValidationError,
    add_noise,
    condition_estimate,
    evaluate_moments,
    jacobian,
    regularity_check,
    stride_separation,
)
from pronydec.forward import _kernel, _model_arrays, _moments
from pronydec.fourier import induced_prony_model


def scalar_moments(model, ks):
    """Independent oracle: plain double loop, no vectorization shared with the library."""
    out = []
    for k in ks:
        total = 0j
        for theta, coeffs in zip(model.node_args, model.coefficients):
            poly = sum(c * k**l for l, c in enumerate(coeffs))
            total += cmath.exp(1j * theta * k) * poly
        out.append(total)
    return out


class TestEvaluateMoments:
    def test_linear_amplitude(self):
        # z = 1, Q(k) = 1 + k  ->  m_k = 1 + k
        m = PronyModel([1.0], [2], [[1.0, 1.0]])
        values = evaluate_moments(m, SamplingScheme(0, 1, 4)).values
        assert values == (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)

    def test_alternating(self):
        m = PronyModel([-1.0], [1], [[1.0]])
        values = evaluate_moments(m, SamplingScheme(0, 1, 4)).values
        for got, want in zip(values, (1, -1, 1, -1)):
            assert abs(got - want) < 1e-14

    def test_two_node_oracle(self):
        m = PronyModel(
            [cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 3)],
            [1, 1],
            [[1.0], [1.0]],
        )
        scheme = SamplingScheme(3, 5, 4)
        got = evaluate_moments(m, scheme).values
        want = scalar_moments(m, [3, 8, 13, 18])
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(5)
        nodes = [cmath.exp(1j * a) for a in rng.uniform(-math.pi, math.pi, 2)]
        c1 = [[complex(*rng.normal(size=2)), complex(*rng.normal(size=2))], [complex(*rng.normal(size=2))]]
        c2 = [[complex(*rng.normal(size=2)), complex(*rng.normal(size=2))], [complex(*rng.normal(size=2))]]
        scheme = SamplingScheme(0, 2, 6)
        ma = evaluate_moments(PronyModel(nodes, [2, 1], c1), scheme).values
        mb = evaluate_moments(PronyModel(nodes, [2, 1], c2), scheme).values
        csum = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(c1, c2)]
        mc = evaluate_moments(PronyModel(nodes, [2, 1], csum), scheme).values
        for a, b, c in zip(ma, mb, mc):
            assert abs((a + b) - c) < 1e-10

    def test_index_limit_enforced(self):
        m = PronyModel([1.0], [1], [[1.0]])
        with pytest.raises(ValidationError):
            evaluate_moments(m, SamplingScheme(0, 10**7, 2))

    def test_multiplicity_limit_enforced(self):
        # the model itself is refused now, so nothing can evaluate it
        with pytest.raises(ValidationError, match="multiplicities above 12 are not supported"):
            evaluate_moments(PronyModel([1.0], [13], [[1.0] * 13]), SamplingScheme(0, 1, 30))

    def test_real_signal_conjugate_symmetry(self):
        # model induced by real jump data satisfies m_{-k} = conj(m_k)
        model = induced_prony_model([0.7, -1.9], [[2.0, -1.5], [0.3, 0.4]], 1)
        ks = np.array([1.0, 5.0, 17.0])
        m = _moments(*_model_arrays(model), np.concatenate([ks, -ks]))
        assert np.max(np.abs(m[3:] - m[:3].conjugate())) < 1e-12


class TestJacobian:
    def test_single_row_by_hand(self):
        # K=1, z=1, mult 1, c0=2: row at k=3 is (dm/dc0, dm/dz) = (1, 6)
        m = PronyModel([1.0], [1], [[2.0]])
        jac = jacobian(m, SamplingScheme(3, 1, 1))
        assert jac.shape == (1, 2)
        assert jac[0, 0] == pytest.approx(1.0)
        assert jac[0, 1] == pytest.approx(6.0)

    def test_zero_index_kills_node_column(self):
        m = PronyModel(
            [cmath.exp(0.4j), cmath.exp(-1.1j)], [2, 1], [[1.0, 2.0], [3.0]]
        )
        jac = jacobian(m, SamplingScheme(0, 3, 4))
        # node-derivative columns close each block: (c00, c10, z0, c01, z1)
        assert jac[0, 2] == 0.0
        assert jac[0, 4] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        args = [0.5, -2.0]
        mults = [2, 1]
        coeffs = [
            [complex(*rng.normal(size=2)) for _ in range(m)] for m in mults
        ]
        model = PronyModel([cmath.exp(1j * a) for a in args], mults, coeffs)
        scheme = SamplingScheme(1, 3, 6)
        jac = jacobian(model, scheme)
        h = 1e-6

        def moments_of(nodes, cs):
            return np.asarray(
                evaluate_moments(PronyModel(nodes, mults, cs), scheme).values
            )

        col = 0
        for j, m in enumerate(mults):
            for l in range(m):
                for direction in (1.0, 1.0j):
                    cp = [list(row) for row in coeffs]
                    cm = [list(row) for row in coeffs]
                    cp[j][l] += h * direction
                    cm[j][l] -= h * direction
                    fd = (moments_of(model.nodes, cp) - moments_of(model.nodes, cm)) / (2 * h)
                    analytic = jac[:, col] * direction
                    scale = np.max(np.abs(analytic)) + 1.0
                    assert np.max(np.abs(fd - analytic)) / scale < 1e-5
                col += 1
            # node derivative via the argument (keeps the node on the circle):
            # dm/dtheta = dm/dz * iz
            ap = [cmath.exp(1j * (a + (h if i == j else 0.0))) for i, a in enumerate(args)]
            am = [cmath.exp(1j * (a - (h if i == j else 0.0))) for i, a in enumerate(args)]
            fd = (moments_of(ap, coeffs) - moments_of(am, coeffs)) / (2 * h)
            analytic = jac[:, col] * (1j * model.nodes[j])
            scale = np.max(np.abs(analytic))
            assert np.max(np.abs(fd - analytic)) / scale < 1e-5
            col += 1


def _kernel_family(rng):
    """Node arguments with theta < 0 and theta = 0 among them, multiplicities
    1-3, strides 1-32, offset 0 in about half the draws (k = 0 rows)."""
    k = int(rng.integers(1, 4))
    mults = tuple(int(m) for m in rng.integers(1, 4, size=k))
    thetas = rng.uniform(-math.pi, math.pi, size=k)
    thetas[rng.random(k) < 0.25] = 0.0
    offset = 0 if rng.random() < 0.5 else int(rng.integers(1, 50))
    stride = int(rng.integers(1, 33))
    count = int(rng.integers(sum(mults), 400))
    coeffs = rng.normal(size=sum(mults)) + 1j * rng.normal(size=sum(mults))
    return thetas, mults, offset + stride * np.arange(count, dtype=float), coeffs


class TestKernel:
    """`_kernel` takes every node's exponential in one np.exp; the oracle is
    one np.exp per node, as the kernel was first written."""

    @staticmethod
    def _per_node(thetas, mults, ks, coeffs=None):
        cols, pos = [], 0
        for theta, m in zip(thetas, mults):
            block = np.stack([np.exp(1j * theta * ks) * ks ** l for l in range(m)], axis=1)
            cols.append(block)
            if coeffs is not None:
                cols.append(((ks * cmath.exp(-1j * theta)) * (block @ coeffs[pos:pos + m]))[:, None])
            pos += m
        return np.concatenate(cols, axis=1)

    def test_equals_the_per_node_formula_bit_for_bit(self):
        rng = np.random.default_rng(30)
        seen = set()
        for _ in range(200):
            thetas, mults, ks, coeffs = _kernel_family(rng)
            seen.update(("theta<0" if t < 0 else "theta=0" if t == 0 else "theta>0") for t in thetas)
            seen.update({f"m={m}" for m in mults} | ({"k=0"} if ks[0] == 0 else set()))
            assert _kernel(thetas, mults, ks).tobytes() == self._per_node(thetas, mults, ks).tobytes()
            assert (_kernel(thetas, mults, ks, coeffs).tobytes()
                    == self._per_node(thetas, mults, ks, coeffs).tobytes())
        assert seen == {"theta<0", "theta=0", "theta>0", "m=1", "m=2", "m=3", "k=0"}

    def test_writes_into_out(self):
        rng = np.random.default_rng(31)
        thetas, mults, ks, _ = _kernel_family(rng)
        work = np.full((len(ks), sum(mults) + 2), np.nan, dtype=complex)
        got = _kernel(thetas, mults, ks, out=work[:, 1:-1])
        assert np.shares_memory(got, work)
        assert got.tobytes() == _kernel(thetas, mults, ks).tobytes()
        assert np.isnan(work[:, 0]).all() and np.isnan(work[:, -1]).all()


class TestRegularity:
    def test_aliased_under_squaring(self):
        m = PronyModel([1.0, -1.0], [1, 1], [[1.0], [1.0]])
        report = regularity_check(m, 2)
        assert not report
        assert report.node_pair_violations

    def test_regular_at_stride_one(self):
        m = PronyModel([1.0, -1.0], [1, 1], [[1.0], [1.0]])
        assert regularity_check(m, 1)

    def test_vanishing_leading_coefficient(self):
        m = PronyModel([1.0], [2], [[1.0, 0.0]])
        for p in (1, 2, 7):
            report = regularity_check(m, p)
            assert not report
            assert report.coefficient_violations == ((0, 0.0),)

    def test_distinct_nodes_regular(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            args = rng.uniform(-math.pi, math.pi, size=3)
            if min(
                abs(args[i] - args[j]) for i in range(3) for j in range(i + 1, 3)
            ) < 1e-3:
                continue
            m = PronyModel(
                [cmath.exp(1j * a) for a in args], [1, 1, 1],
                [[1.0], [1.0 + 1j], [2.0]],
            )
            assert regularity_check(m, 1)

    def test_separation_is_stride_separation(self):
        m = PronyModel([cmath.exp(0.3j), cmath.exp(-1.1j), cmath.exp(2.0j)], [1, 2, 1],
                       [[1.0], [0.5, 1.0], [2.0]])
        for p in (1, 3, 8):
            powered = [cmath.exp(1j * theta * p) for theta in m.node_args]
            pairwise = [abs(powered[i] - powered[j]) for i in range(3) for j in range(i + 1, 3)]
            assert regularity_check(m, p).separation == stride_separation(m, p) == min(pairwise)
        assert stride_separation(PronyModel([1.0], [1], [[1.0]]), 5) == 2.0
        with pytest.raises(ValidationError):
            stride_separation(m, 0)


class TestConditionEstimate:
    def test_two_by_two_by_hand(self):
        # Jacobian ((1,0),(1,1)); inverse ((1,0),(-1,1)); max row sum = 2
        m = PronyModel([1.0], [1], [[1.0]])
        assert condition_estimate(m, SamplingScheme(0, 1, 2)) == pytest.approx(2.0)

    def test_non_regular_point_rejected(self):
        m = PronyModel([1.0, -1.0], [1, 1], [[1.0], [1.0]])
        with pytest.raises(ValidationError):
            condition_estimate(m, SamplingScheme(0, 2, 4))

    def test_singular_jacobian_raises(self):
        # 2e-9 apart: above REGULARITY_TOL, yet the Jacobian is singular to rounding
        m = PronyModel([cmath.exp(1e-9j), cmath.exp(-1e-9j)], [1, 1], [[1.0], [1.0]])
        with pytest.raises(RankDeficiencyError, match="Jacobian is numerically singular"):
            condition_estimate(m, SamplingScheme(0, 1, 4))

    def test_grows_as_nodes_approach(self):
        estimates = []
        for delta in (1e-1, 1e-2, 1e-3):
            m = PronyModel(
                [cmath.exp(1j * delta / 2), cmath.exp(-1j * delta / 2)],
                [1, 1],
                [[1.0], [1.0]],
            )
            estimates.append(condition_estimate(m, SamplingScheme(0, 1, 4)))
        assert estimates[0] < estimates[1] < estimates[2]

    def test_requires_square_system(self):
        m = PronyModel([1.0], [1], [[1.0]])
        with pytest.raises(ValidationError):
            condition_estimate(m, SamplingScheme(0, 1, 5))


class TestAddNoise:
    def _samples(self, n=16):
        m = PronyModel([cmath.exp(0.3j)], [1], [[1.0]])
        return evaluate_moments(m, SamplingScheme(0, 1, n))

    def test_zero_noise_identity(self):
        s = self._samples()
        assert add_noise(s, 0.0, 123).values == s.values

    def test_deterministic(self):
        s = self._samples()
        assert add_noise(s, 1e-3, 7).values == add_noise(s, 1e-3, 7).values
        assert add_noise(s, 1e-3, 7).values != add_noise(s, 1e-3, 8).values

    def test_disk_statistics(self):
        m = PronyModel([1.0], [1], [[0.0]])
        s = evaluate_moments(m, SamplingScheme(0, 1, 10_000))
        eps = 1e-3
        noisy = add_noise(s, eps, 99)
        radii = np.abs(np.asarray(noisy.values))
        assert float(radii.max()) <= eps
        assert float(radii.max()) >= 0.95 * eps

    def test_noise_level_recorded(self):
        assert add_noise(self._samples(), 2e-4, 0).noise_level == 2e-4

    def test_gaussian_flag(self):
        s = self._samples()
        g = add_noise(s, 1e-3, 5, distribution="gaussian")
        assert g.values != add_noise(s, 1e-3, 5).values

    def test_negative_eps_rejected(self):
        with pytest.raises(ValidationError):
            add_noise(self._samples(), -1.0, 0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_nonfinite_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match="finite"):
            add_noise(self._samples(), eps, 0)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValidationError, match="unknown noise distribution 'uniform'"):
            add_noise(self._samples(), 1e-3, 0, distribution="uniform")
