import numpy as np
import pytest

import graphon_lqr as gl
from graphon_lqr.graphon import _AnalyticEigfun, cell_index, midpoint_grid

from conftest import make_rank_kernel


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

    # scales 1e-3 and 1e2 put the largest |entry| far below and above 1; at
    # 1e-12 a cut at an absolute level would drop the whole spectrum
    @pytest.mark.parametrize("seed,n,scale", [(0, 3, 1.0), (1, 5, 1.0), (2, 8, 1.0),
                                              (3, 6, 1e-3), (4, 7, 1e2), (5, 6, 1e-12)],
                             ids=["0-3", "1-5", "2-8", "3-6-1e-3", "4-7-1e2", "5-6-1e-12"])
    def test_decomposition_invariants(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (n, n))
        g = gl.StepGraphon(scale * 0.5 * (a + a.T))
        fr = g.spectral_decompose()
        # the kernel, validated on construction, samples back to the matrix
        # and is the decoupled realization of it
        resampled = gl.sample_step_entries(fr, n).entries
        assert np.abs(resampled - g.entries).max() <= 1e-12 * np.abs(g.entries).max()
        one = gl.CoeffPoly([1.0])
        gl.build_step_system(g, gl.LqrProblem(0.0, one, one, one, fr, 1.0))
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
        step = gl.sample_step_entries(g, n)
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

    def test_reads_the_parent_cell_tables(self, monkeypatch):
        # a truncation takes the leading rows of every table the kernel has
        # made and evaluates no eigenfunction for them
        rng = np.random.default_rng(41)
        g = gl.StepGraphon(make_rank_kernel(rng, 12, 4)[1]).spectral_decompose()
        tables = {n: g.cells(n) for n in (12, 30)}
        calls = []
        step_call = gl.StepFunction.__call__

        def counting(self, x):
            calls.append(self.n)
            return step_call(self, x)

        monkeypatch.setattr(gl.StepFunction, "__call__", counting)
        for level in range(g.rank + 2):
            t = g.truncate(level)
            assert t.pairs == g.pairs[:level]
            for n, f in tables.items():
                np.testing.assert_array_equal(t.cells(n), f[:level])
        assert calls == []


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
        step = gl.sample_step_entries(g, 16)
        assert gl.l2_distance(g, step) == pytest.approx(gl.l2_distance(step, g))


MIXED_PAIRS = [{"lambda": 0.5, "fun": "cos"}, {"lambda": -0.4, "fun": "sin"},
               {"lambda": 0.3, "fun": "cos", "freq": 2},
               {"lambda": -0.2, "fun": "const"}]

SAMPLED_KERNELS = {
    "mixed": lambda: gl.graphon_from_spec({"type": "finite_rank", "pairs": MIXED_PAIRS}),
    "one-positive": gl.uniform_graphon,
    "one-negative": lambda: gl.graphon_from_spec(
        {"type": "finite_rank", "pairs": [{"lambda": -0.6, "fun": "sin", "freq": 2}]}),
    "rank-0": lambda: gl.sinusoidal_graphon().truncate(0),
}


class TestSampleStepEntries:
    @pytest.mark.parametrize("kind", sorted(SAMPLED_KERNELS))
    @pytest.mark.parametrize("n", [1, 2, 17, 64, 65, 1001])
    def test_symmetric_and_equal_to_kernel(self, kind, n):
        g = SAMPLED_KERNELS[kind]()
        a = gl.sample_step_entries(g, n).entries
        mids = midpoint_grid(n)
        ref = g.eval(mids[:, None], mids[None, :])
        assert a.shape == (n, n)
        assert np.array_equal(a, a.T)
        assert np.abs(a - ref).max() <= 1e-14 * max(1.0, np.abs(a).max())

    def test_rank_zero_is_zero(self):
        assert not gl.sample_step_entries(SAMPLED_KERNELS["rank-0"](), 5).entries.any()

    @pytest.mark.parametrize("kind", sorted(SAMPLED_KERNELS))
    def test_eval_and_apply_read_the_kernel(self, kind, monkeypatch):
        # a sampled network is evaluated and applied from its kernel: at small
        # n both agree with the formed matrix, and at n = 10^5, where that
        # matrix would take 80 GB, neither forms it
        g = SAMPLED_KERNELS[kind]()
        formed = {n: gl.sample_step_entries(g, n).entries for n in (1, 17, 64)}

        def fail(*args):
            raise AssertionError("an n x n array was formed")

        monkeypatch.setattr(gl.StepGraphon, "entries", property(fail))
        x = np.linspace(0.0, 1.0, 23)
        for n, a in formed.items():
            network = gl.sample_step_entries(g, n)
            v = np.random.default_rng(n).standard_normal(n)
            cells = cell_index(x, n)
            assert np.abs(network.apply(v) - a @ v / n).max() <= 1e-15
            assert np.abs(network.apply(np.cos).values
                          - a @ np.cos(midpoint_grid(n)) / n).max() <= 1e-15
            assert np.abs(network.eval(x[:, None], x[None, :])
                          - a[np.ix_(cells, cells)]).max() <= 1e-15
            assert abs(network.eval(0.3, 1.0) - a[cell_index(0.3, n), n - 1]) <= 1e-15
        n = 10 ** 5
        network = gl.sample_step_entries(g, n)
        image = network.apply(np.ones(n))
        assert image.shape == (n,) and np.all(np.isfinite(image))
        assert isinstance(network.eval(0.3, 1.0), float)


class TestValidation:
    def test_asymmetric_entries_listed(self):
        m = np.zeros((3, 3))
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            gl.StepGraphon(m)

    # n = 70 leaves a last, partial block of rows and columns in every scan
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        m = np.zeros((70, 70))
        m[69, 3] = m[3, 69] = value
        with pytest.raises(ValueError, match="finite"):
            gl.StepGraphon(m)

    def test_asymmetry_in_last_partial_block_listed(self):
        m = np.zeros((70, 70))
        m[69, 3] = 0.5
        with pytest.raises(ValueError, match=r"not symmetric at indices \(3,69\), \(69,3\)$"):
            gl.StepGraphon(m)

    def test_entries_at_bound_accepted(self):
        # a coupling declares no class bound: entries of any magnitude pass
        for value in (-1.0, 1.5, -1e3):
            assert gl.StepGraphon(np.full((70, 70), value)).n == 70

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            gl.EigenPair(0.0, lambda x: np.ones_like(x))

    def test_non_unit_eigenfunction_rejected(self):
        pair = gl.EigenPair(0.5, lambda x: 2.0 * np.ones_like(np.asarray(x, float)))
        with pytest.raises(ValueError, match="orthonormal"):
            gl.FiniteRankGraphon([pair])

    @pytest.mark.parametrize("scale, accepted", [(1.000004, False), (1.0 + 4e-9, True)])
    def test_every_gram_entry_within_1e_8(self, scale, accepted):
        # norm^2 - 1 = 8.0e-6 passed numpy's default relative 1e-5, and every
        # system of that kernel then failed its 1e-10 decoupling bound
        pair = gl.EigenPair(0.5, lambda x: scale * np.ones_like(np.asarray(x, float)))
        if accepted:
            assert gl.FiniteRankGraphon([pair]).rank == 1
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                gl.FiniteRankGraphon([pair])

    def test_non_orthogonal_pairs_rejected(self):
        f = lambda x: np.ones_like(np.asarray(x, float))
        with pytest.raises(ValueError, match="orthonormal"):
            gl.FiniteRankGraphon([gl.EigenPair(0.5, f), gl.EigenPair(0.4, f)])

    def test_eigenvalue_ordering_enforced(self):
        # the order is checked relative to the eigenvalues' own scale
        root2 = np.sqrt(2.0)
        for scale in (1.0, 1e-13):
            pairs = [
                gl.EigenPair(0.2 * scale,
                             lambda x: root2 * np.sin(2 * np.pi * np.asarray(x, float))),
                gl.EigenPair(0.5 * scale,
                             lambda x: root2 * np.cos(2 * np.pi * np.asarray(x, float))),
            ]
            with pytest.raises(ValueError, match="non-increasing"):
                gl.FiniteRankGraphon(pairs)


def quadrature_gram(funs):
    """``F F'/m`` of the eigenfunctions' values on the m = 4096 midpoints."""
    f = np.stack([np.broadcast_to(fun(midpoint_grid(4096)), (4096,)) for fun in funs])
    return f @ f.T / 4096


def random_analytic_funs(rng):
    """One to six analytic eigenfunctions, each of a random kind, at an integer
    frequency in 1..50 or, one time in two, at a non-integer, near-integer,
    zero, negative, repeated or aliased (>= 2048) one."""
    funs = []
    for _ in range(rng.integers(1, 7)):
        kind, form = str(rng.choice(["sin", "cos", "const"])), rng.integers(12)
        freq = float(rng.integers(1, 51))
        if form == 0:
            freq = rng.uniform(0.0, 50.0)
        elif form == 1:
            freq += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13, -6)
        elif form == 2:
            freq = 0.0
        elif form == 3:
            freq = -freq
        elif form == 4 and funs:
            freq = funs[rng.integers(len(funs))].freq
        elif form == 5:
            freq = float(rng.choice([2047, 2048, 2049, 4095, 4096, 4097, 6144]))
        funs.append(_AnalyticEigfun(kind, freq))
    return funs


class TestClosedFormGram:
    def test_matches_the_midpoint_sum(self):
        # a kernel accepts an analytic pair list by its spec (distinct integer
        # frequencies below 2048, one const at most) or by the Gram matrix on
        # the 4096 midpoints; either way it accepts exactly the lists whose
        # midpoint sum is the identity to 1e-8 in every entry
        rng = np.random.default_rng(34)
        accepted = 0
        for _ in range(3000):
            funs = random_analytic_funs(rng)
            orthonormal = np.abs(quadrature_gram(funs) - np.eye(len(funs))).max() <= 1e-8
            try:
                gl.FiniteRankGraphon([gl.EigenPair(0.5, f) for f in funs])
            except ValueError as exc:
                assert not orthonormal and "orthonormal" in str(exc), [
                    (f.kind, f.freq) for f in funs]
            else:
                assert orthonormal, [(f.kind, f.freq) for f in funs]
                accepted += 1
        assert 1000 < accepted < 2000

    @pytest.mark.parametrize("freq", [2048.0, 4096.0, 6144.0, -2048.0])
    def test_aliased_frequencies_match_the_midpoint_sum(self, freq):
        # at a multiple of m/2 the midpoint samples of cos are 0 or +-sqrt(2),
        # so the midpoint sum is 0 or 2: past the spec rule's range, the
        # quadrature refuses the kernel
        funs = [_AnalyticEigfun("cos", freq)]
        assert quadrature_gram(funs)[0, 0] == pytest.approx(0.0 if freq % 4096 else 2.0, abs=1e-12)
        with pytest.raises(ValueError, match="orthonormal"):
            gl.FiniteRankGraphon([gl.EigenPair(0.5, funs[0])])

    def test_analytic_kernel_evaluates_no_eigenfunction(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("an eigenfunction was evaluated")

        monkeypatch.setattr(_AnalyticEigfun, "__call__", refuse)
        spec = {"type": "finite_rank", "pairs": [
            {"lambda": 0.4, "fun": "cos", "freq": 2}, {"lambda": -0.3, "fun": "sin", "freq": 3},
            {"lambda": 0.2, "fun": "const"}, {"lambda": 0.1, "fun": "cos", "freq": 5}]}
        kernels = [gl.sinusoidal_graphon(), gl.uniform_graphon(), gl.graphon_from_spec(spec)]
        assert all(g._cells == {} for g in kernels)
        monkeypatch.undo()
        g = kernels[-1]
        coords, _ = g.project(lambda x: np.cos(4 * np.pi * np.asarray(x)))
        assert list(g._cells) == [4096]
        np.testing.assert_allclose(coords, [np.sqrt(0.5), 0.0, 0.0, 0.0], atol=1e-12)

    def test_other_callables_keep_the_quadrature(self):
        root2 = np.sqrt(2.0)
        g = gl.FiniteRankGraphon([
            gl.EigenPair(0.5, _AnalyticEigfun("sin", 1.0)),
            gl.EigenPair(0.4, lambda x: root2 * np.cos(2 * np.pi * np.asarray(x, float)))])
        assert list(g._cells) == [4096]
        with pytest.raises(ValueError, match="orthonormal"):
            gl.FiniteRankGraphon([
                gl.EigenPair(0.5, _AnalyticEigfun("sin", 1.0)),
                gl.EigenPair(0.4, lambda x: root2 * np.sin(2 * np.pi * np.asarray(x, float)))])

    def test_values_are_the_closed_expression(self):
        x = midpoint_grid(1000)
        root2 = np.sqrt(2.0)
        np.testing.assert_array_equal(_AnalyticEigfun("sin", 1.3)(x),
                                      root2 * np.sin(2.0 * np.pi * 1.3 * x))
        np.testing.assert_array_equal(_AnalyticEigfun("cos", 7.0)(x),
                                      root2 * np.cos(2.0 * np.pi * 7.0 * x))
        assert _AnalyticEigfun("const", 3.0)(0.25) == 1.0

    def test_compares_by_identity(self):
        # pair equality decides whether a network is a kernel's own samples and
        # whether a law is a truncation of a problem: two kernels built alike
        # are two kernels, as with closures
        f = _AnalyticEigfun("sin", 1.0)
        assert f == f and f != _AnalyticEigfun("sin", 1.0)
        assert gl.sinusoidal_graphon().pairs != gl.sinusoidal_graphon().pairs
        with pytest.raises(ValueError, match="sin|cos|const"):
            _AnalyticEigfun("tan", 1.0)


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
        entries = gl.sample_step_entries(g, 21).entries
        assert entries[10, 10] == pytest.approx(1.6, abs=1e-12)
        assert gl.StepGraphon(entries).n == 21

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


def eigh_fails(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    gl.StepGraphon(np.eye(2)).spectral_decompose()


@pytest.mark.parametrize("make, error, message", [
    (lambda _: gl.StepFunction(np.zeros((2, 2))), ValueError,
     "cell values must be a non-empty 1-d array"),
    (lambda _: gl.StepFunction([0.0, np.nan]), ValueError, "cell values must be finite"),
    (lambda _: gl.uniform_graphon().apply(np.ones((2, 2))), ValueError,
     "expected a 1-d cell-value vector, got shape (2, 2)"),
    (lambda _: gl.StepGraphon(np.ones((2, 3))), ValueError,
     "coupling matrix must be square, got shape (2, 3)"),
    (eigh_fails, gl.NumericError,
     "eigendecomposition of the 2x2 coupling matrix failed: Eigenvalues did not converge"),
    (lambda _: gl.graphon_from_spec({"kind": "uniform"}), ValueError,
     "graphon spec must be an object with a 'type' field"),
    (lambda _: gl.graphon_from_spec({"type": "step"}), ValueError,
     "graphon field 'matrix_csv': missing path for step graphon"),
    (lambda _: gl.graphon_from_spec({"type": "finite_rank", "pairs": {}}), ValueError,
     "graphon field 'pairs': a non-empty list is required for a finite_rank graphon"),
], ids=["step-function-2d", "step-function-nan", "apply-2d", "non-square", "eigh-fails",
        "spec-without-type", "step-without-path", "pairs-not-a-list"])
def test_rejection_names_its_cause(monkeypatch, make, error, message):
    with pytest.raises(error) as info:
        make(monkeypatch)
    assert type(info.value) is error and str(info.value) == message
