import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapfam import char_poly, linalg
from lapfam.linalg import (
    identity,
    mat_mul,
    mat_vec,
    nullity,
    poly_deflate,
    poly_eval,
    rank,
    trace,
)
from helpers import cofactor_charpoly, fraction_rank, poly_mul


def square_matrices(max_n=5, lo=-5, hi=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


class TestBasics:
    def test_identity(self):
        assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_mat_mul(self):
        a = [[1, 2], [3, 4]]
        b = [[0, 1], [1, 0]]
        assert mat_mul(a, b) == [[2, 1], [4, 3]]

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2]])

    def test_mat_vec(self):
        assert mat_vec([[1, 2], [3, 4]], [1, -1]) == [-1, -1]

    def test_mat_vec_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec([[1, 2]], [1, 2, 3])

    def test_trace(self):
        assert trace([[2, 9], [9, 5]]) == 7


class TestCharPoly:
    def test_package_exports_linalg_definition(self):
        assert char_poly is linalg.char_poly

    def test_empty_matrix(self):
        assert char_poly([]) == [1]

    def test_one_by_one(self):
        assert char_poly([[5]]) == [-5, 1]

    def test_complete_graph_laplacians(self):
        # K2: x^2 - 2x, K3: x^3 - 6x^2 + 9x
        assert char_poly([[1, -1], [-1, 1]]) == [0, -2, 1]
        k3 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        assert char_poly(k3) == [0, 9, -6, 1]

    def test_path_three(self):
        p3 = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        assert char_poly(p3) == [0, 3, -4, 1]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2, 3], [4, 5, 6]])

    @settings(max_examples=60, deadline=None)
    @given(m=square_matrices())
    def test_matches_cofactor_expansion(self, m):
        assert char_poly(m) == cofactor_charpoly(m)

    @settings(max_examples=30, deadline=None)
    @given(m=square_matrices())
    def test_leading_coefficients(self, m):
        coeffs = char_poly(m)
        n = len(m)
        assert coeffs[n] == 1
        assert coeffs[n - 1] == -trace(m)


class TestPolyEval:
    def test_horner(self):
        # 3 + 2x + x^2 at x = 4
        assert poly_eval([3, 2, 1], 4) == 27

    def test_roots_of_known_poly(self):
        coeffs = char_poly([[1, -1], [-1, 1]])
        assert poly_eval(coeffs, 0) == 0
        assert poly_eval(coeffs, 2) == 0
        assert poly_eval(coeffs, 1) != 0


class TestPolyDeflate:
    def test_nonzero_remainder_raises(self):
        # x^2 + 1 at x = 1 leaves remainder 2
        with pytest.raises(ArithmeticError):
            poly_deflate([1, 0, 1], 1)
        with pytest.raises(ArithmeticError):
            poly_deflate([1], 0)

    @settings(max_examples=60, deadline=None)
    @given(
        factor=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        root=st.integers(-6, 6),
    )
    def test_undoes_multiplication(self, factor, root):
        product = poly_mul(factor, [-root, 1])
        assert poly_deflate(product, root) == factor

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        root=st.integers(-6, 6),
    )
    def test_raises_exactly_off_roots(self, coeffs, root):
        if poly_eval(coeffs, root):
            with pytest.raises(ArithmeticError):
                poly_deflate(coeffs, root)
        else:
            assert poly_mul(poly_deflate(coeffs, root), [-root, 1]) == coeffs


class TestRank:
    def test_identity_full_rank(self):
        assert rank(identity(4)) == 4

    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_rank_one(self):
        assert rank([[1, 2], [2, 4], [3, 6]]) == 1

    def test_rectangular(self):
        assert rank([[1, 0, 2], [0, 1, 3]]) == 2

    def test_empty(self):
        assert rank([]) == 0

    @settings(max_examples=60, deadline=None)
    @given(m=square_matrices(max_n=6))
    def test_matches_fraction_elimination(self, m):
        assert rank(m) == fraction_rank(m)

    @settings(max_examples=30, deadline=None)
    @given(m=square_matrices(max_n=5))
    def test_nullity_complements_rank(self, m):
        assert nullity(m) == len(m) - rank(m)
