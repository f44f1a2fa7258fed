import numpy as np
import pytest

import graphon_lqr as gl
from graphon_lqr.graphon import midpoint_grid


def eig_2x2(m):
    """Closed-form eigenvalues of a symmetric 2x2 matrix (oracle)."""
    a, b, c = m[0][0], m[0][1], m[1][1]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(half_tr ** 2 - (a * c - b * b))
    return half_tr + disc, half_tr - disc


class TestEval:
    def test_sinusoidal_diagonal(self):
        g = gl.sinusoidal_graphon()
        assert g.eval(0.25, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_sinusoidal_matches_cosine_kernel(self):
        g = gl.sinusoidal_graphon()
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
        np.testing.assert_allclose(g.eval(x, y), np.cos(2 * np.pi * (x - y)),
                                   atol=1e-12)
        np.testing.assert_allclose(g.eval(x, y), g.eval(y, x), atol=1e-14)

    def test_uniform_is_one_everywhere(self):
        g = gl.uniform_graphon()
        assert g.eval(0.0, 1.0) == pytest.approx(1.0)
        assert g.eval(0.37, 0.91) == pytest.approx(1.0)

    def test_step_block_lookup(self):
        g = gl.StepGraphon([[0.0, 1.0], [1.0, 0.0]])
        assert g.eval(0.1, 0.6) == 1.0
        assert g.eval(0.6, 0.6) == 0.0
        # last cell is closed at 1
        assert g.eval(1.0, 0.0) == 1.0

    def test_out_of_range_coordinate(self):
        g = gl.sinusoidal_graphon()
        with pytest.raises(ValueError):
            g.eval(-0.1, 0.5)
        with pytest.raises(ValueError):
            gl.StepGraphon([[0.0]]).eval(0.2, 1.3)


class TestApply:
    def test_uniform_fixes_flat_function(self):
        g = gl.uniform_graphon()
        image = g.apply(lambda x: np.ones_like(np.asarray(x, float)))
        pts = np.linspace(0, 1, 7)
        np.testing.assert_allclose(image(pts), np.ones(7), atol=1e-12)

    def test_step_vector_product(self):
        # (1/2) * [[0,1],[1,0]] @ (1,-1) computed by hand
        g = gl.StepGraphon([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(g.apply(np.array([1.0, -1.0])),
                                   [-0.5, 0.5], atol=1e-15)

    def test_step_shape_mismatch(self):
        g = gl.StepGraphon([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            g.apply(np.ones(3))

    def test_sinusoidal_eigenfunction(self):
        g = gl.sinusoidal_graphon()
        fun = lambda x: np.sqrt(2.0) * np.sin(2 * np.pi * np.asarray(x, float))
        image = g.apply(fun)
        pts = np.linspace(0, 1, 11)
        np.testing.assert_allclose(image(pts), 0.5 * fun(pts), atol=1e-9)

    def test_step_applied_to_function_is_step(self):
        g = gl.StepGraphon([[0.0, 1.0], [1.0, 0.0]])
        image = g.apply(lambda x: np.ones_like(np.asarray(x, float)))
        assert isinstance(image, gl.StepFunction)
        np.testing.assert_allclose(image.values, [0.5, 0.5])


class TestSpectralDecompose:
    def test_two_cell_exchange(self):
        g = gl.StepGraphon([[0.0, 1.0], [1.0, 0.0]])
        mu_hi, mu_lo = eig_2x2(g.entries)  # brute-force 2x2 oracle: +1, -1
        fr = g.spectral_decompose()
        np.testing.assert_allclose(fr.lambdas, [mu_hi / 2, mu_lo / 2], atol=1e-12)
        np.testing.assert_allclose(fr.pairs[0].fun.values, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(fr.pairs[1].fun.values, [1.0, -1.0], atol=1e-12)
        # eigen residual: apply(g, f) == lam * f
        for pair in fr.pairs:
            np.testing.assert_allclose(g.apply(pair.fun.values),
                                       pair.lam * pair.fun.values, atol=1e-12)

    def test_rank_one_all_ones(self):
        g = gl.StepGraphon(np.ones((3, 3)))
        fr = g.spectral_decompose()
        assert fr.rank == 1
        np.testing.assert_allclose(fr.lambdas, [1.0], atol=1e-12)
        np.testing.assert_allclose(fr.pairs[0].fun.values, np.ones(3), atol=1e-12)

    def test_zero_matrix_is_rank_zero(self):
        fr = gl.StepGraphon(np.zeros((4, 4))).spectral_decompose()
        assert fr.rank == 0
        assert fr.eval(0.3, 0.8) == 0.0

    def test_sign_convention_first_nonzero_positive(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (5, 5))
        g = gl.StepGraphon(0.5 * (a + a.T))
        for pair in g.spectral_decompose().pairs:
            vals = pair.fun.values
            lead = vals[np.abs(vals) > 1e-10][0]
            assert lead > 0.0

    @pytest.mark.parametrize("seed,n", [(0, 3), (1, 5), (2, 8)])
    def test_decomposition_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (n, n))
        g = gl.StepGraphon(0.5 * (a + a.T))
        fr = g.spectral_decompose()
        mids = midpoint_grid(n)
        f = fr.eigfun_values(mids)
        # orthonormality under the cell inner product
        np.testing.assert_allclose(f @ f.T / n, np.eye(fr.rank), atol=1e-8)
        # eigen residual in L2 norm
        for pair in fr.pairs:
            resid = g.apply(pair.fun.values) - pair.lam * pair.fun.values
            assert np.sqrt(np.mean(resid ** 2)) <= 1e-8
        # pointwise reconstruction at cell midpoints
        np.testing.assert_allclose(fr.eval(mids[:, None], mids[None, :]),
                                   g.entries, atol=1e-8)
        # Parseval: sum of squared eigenvalues bounded by the kernel norm
        assert np.sum(fr.lambdas ** 2) <= np.mean(g.entries ** 2) + 1e-10

    def test_degenerate_eigenspace_compared_by_projector(self):
        # the sampled sinusoidal coupling has a double eigenvalue; only the
        # span of its eigenfunctions is well defined
        g = gl.sinusoidal_graphon()
        n = 40
        step = gl.StepGraphon(gl.sample_step_entries(g, n))
        fr = step.spectral_decompose()
        np.testing.assert_allclose(fr.lambdas, [0.5, 0.5], atol=1e-12)
        mids = midpoint_grid(n)
        proj_step = fr.eigfun_values(mids)
        proj_true = g.eigfun_values(mids)
        np.testing.assert_allclose(proj_step.T @ proj_step / n,
                                   proj_true.T @ proj_true / n, atol=1e-8)


class TestTruncate:
    def test_keep_leading_pair(self):
        g = gl.sinusoidal_graphon()
        t = g.truncate(1)
        assert t.rank == 1
        assert t.pairs[0].lam == 0.5
        pts = np.linspace(0, 1, 9)
        np.testing.assert_allclose(t.pairs[0].fun(pts),
                                   np.sqrt(2) * np.sin(2 * np.pi * pts), atol=1e-12)

    def test_oversized_level_is_identity(self):
        g = gl.sinusoidal_graphon()
        assert g.truncate(5).pairs == g.pairs

    def test_level_zero_empty(self):
        g = gl.sinusoidal_graphon().truncate(0)
        assert g.rank == 0
        assert g.eval(0.2, 0.9) == 0.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            gl.sinusoidal_graphon().truncate(-1)


class TestL2Distance:
    def test_self_distance_zero(self):
        g = gl.sinusoidal_graphon()
        assert gl.l2_distance(g, g) == 0.0

    def test_truncation_error_is_dropped_eigenvalue(self):
        # |lam_2| for an orthonormal rank-1 remainder
        g = gl.sinusoidal_graphon()
        assert gl.l2_distance(g, g.truncate(1)) == pytest.approx(0.5, abs=1e-9)

    def test_uniform_vs_empty(self):
        g = gl.uniform_graphon()
        assert gl.l2_distance(g, g.truncate(0)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_mixed_kinds(self):
        g = gl.sinusoidal_graphon()
        step = gl.StepGraphon(gl.sample_step_entries(g, 16))
        assert gl.l2_distance(g, step) == pytest.approx(gl.l2_distance(step, g))


class TestValidation:
    def test_asymmetric_entries_listed(self):
        m = np.zeros((3, 3))
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            gl.StepGraphon(m)

    def test_entries_over_bound(self):
        with pytest.raises(ValueError, match="bound"):
            gl.StepGraphon([[2.0]], bound=1.0)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            gl.EigenPair(0.0, lambda x: np.ones_like(x))

    def test_non_unit_eigenfunction_rejected(self):
        pair = gl.EigenPair(0.5, lambda x: 2.0 * np.ones_like(np.asarray(x, float)))
        with pytest.raises(ValueError, match="orthonormal"):
            gl.FiniteRankGraphon([pair])

    def test_non_orthogonal_pairs_rejected(self):
        f = lambda x: np.ones_like(np.asarray(x, float))
        with pytest.raises(ValueError, match="orthonormal"):
            gl.FiniteRankGraphon([gl.EigenPair(0.5, f), gl.EigenPair(0.4, f)])

    def test_eigenvalue_ordering_enforced(self):
        root2 = np.sqrt(2.0)
        pairs = [
            gl.EigenPair(0.2, lambda x: root2 * np.sin(2 * np.pi * np.asarray(x, float))),
            gl.EigenPair(0.5, lambda x: root2 * np.cos(2 * np.pi * np.asarray(x, float))),
        ]
        with pytest.raises(ValueError, match="non-increasing"):
            gl.FiniteRankGraphon(pairs)

    def test_eigenvalue_over_bound_rejected(self):
        pair = gl.EigenPair(1.5, lambda x: np.ones_like(np.asarray(x, float)))
        with pytest.raises(ValueError, match="bound"):
            gl.FiniteRankGraphon([pair], bound=1.0)


class TestFromSpec:
    def test_named_kernels(self):
        g = gl.graphon_from_spec({"type": "sinusoidal"})
        assert g.rank == 2 and g.lambdas[0] == 0.5
        u = gl.graphon_from_spec({"type": "uniform"})
        assert u.rank == 1 and u.lambdas[0] == 1.0

    def test_finite_rank_pairs(self):
        g = gl.graphon_from_spec({"type": "finite_rank", "pairs": [
            {"lambda": 0.5, "fun": "sin", "freq": 1},
            {"lambda": 0.5, "fun": "cos", "freq": 1},
            {"lambda": 0.25, "fun": "const"},
        ]})
        assert g.rank == 3
        np.testing.assert_allclose(g.lambdas, [0.5, 0.5, 0.25])
        assert g.eval(0.25, 0.25) == pytest.approx(1.25, abs=1e-12)

    def test_class_bound_is_analytic_sup(self):
        # cos peaks at the midpoint 1/2 of the middle cell of an odd partition
        g = gl.graphon_from_spec({"type": "finite_rank", "pairs": [
            {"lambda": 0.7, "fun": "cos"}, {"lambda": 0.2, "fun": "const"}]})
        assert g.bound == pytest.approx(1.6, abs=1e-15)
        entries = gl.sample_step_entries(g, 21)
        assert entries[10, 10] == pytest.approx(1.6, abs=1e-12)
        gl.StepGraphon(entries, bound=g.bound)

    def test_step_matrix_csv(self, tmp_path):
        path = tmp_path / "coupling.csv"
        np.savetxt(path, np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
        g = gl.graphon_from_spec({"type": "step", "matrix_csv": "coupling.csv"},
                                 base_dir=str(tmp_path))
        assert isinstance(g, gl.StepGraphon)
        assert g.eval(0.1, 0.9) == 1.0

    def test_missing_csv_names_field(self):
        with pytest.raises(ValueError, match="matrix_csv"):
            gl.graphon_from_spec({"type": "step", "matrix_csv": "absent.csv"},
                                 base_dir="/nonexistent")

    def test_asymmetric_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.array([[0.0, 1.0], [0.5, 0.0]]), delimiter=",")
        with pytest.raises(ValueError, match="symmetric"):
            gl.graphon_from_spec({"type": "step", "matrix_csv": str(path)})

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="type"):
            gl.graphon_from_spec({"type": "mystery"})
