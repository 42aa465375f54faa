from itertools import combinations
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapfam import char_poly, laplacian, linalg, resolver_graph
from lapfam.formats import read_graph6
from lapfam.linalg import (
    MR_LIMIT,
    hadamard_bound,
    is_prime,
    mat_vec,
    poly_deflate,
    poly_eval,
    prime_count,
    rank,
)
from helpers import (
    cofactor_charpoly,
    faddeev_leverrier_charpoly,
    fraction_rank,
    graphs,
    per_prime_charpoly,
    poly_mul,
)

polys = st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=8)


def square_matrices(max_n=5, lo=-5, hi=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@st.composite
def large_matrices(draw, min_n=2, max_n=6):
    """Entries up to 10**30 in size, with a diagonal of at least 10**29 in
    every row, so the Hadamard bound needs 3 or more primes."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    big = st.integers(10**29, 10**30) | st.integers(-(10**30), -(10**29))
    m = [draw(st.lists(st.integers(-(10**30), 10**30), min_size=n, max_size=n)) for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(big)
    return m


def spy_char_poly_mod(monkeypatch, name="_char_poly_mod"):
    """Record the modulus of every call to the modular pass ``name``."""
    calls, real = [], getattr(linalg, name)

    def spy(a, q):
        calls.append(q)
        return real(a, q)

    monkeypatch.setattr(linalg, name, spy)
    return calls


def petersen_laplacian():
    # spectrum 0, 2 (5 times), 5 (4 times)
    return laplacian(read_graph6("IheA@GUAo"))


@st.composite
def symmetric_matrices(draw, max_n=8, lo=-20, hi=20):
    """Symmetric integer matrices, most of them derogatory by construction
    (an eigenvalue with more than one Jordan block): a block repeated down
    the diagonal, c*I + J, or the Petersen graph's Laplacian."""
    def symmetric(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(st.integers(lo, hi))
        return m

    shape = draw(st.sampled_from(["any", "blocks", "c*I+J", "petersen"]))
    if shape == "any":
        return symmetric(draw(st.integers(1, max_n)))
    if shape == "blocks":
        block, copies = symmetric(draw(st.integers(1, 3))), draw(st.integers(2, 3))
        b, n = len(block), len(block) * copies
        return [[block[i % b][j % b] if i // b == j // b else 0 for j in range(n)] for i in range(n)]
    if shape == "c*I+J":
        n, c = draw(st.integers(2, max_n)), draw(st.integers(lo, hi))
        return [[c * (i == j) + 1 for j in range(n)] for i in range(n)]
    return petersen_laplacian()


class TestBasics:
    def test_mat_vec(self):
        assert mat_vec([[1, 2], [3, 4]], [1, -1]) == [-1, -1]

    def test_mat_vec_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec([[1, 2]], [1, 2, 3])


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
        assert coeffs[n - 1] == -sum(m[i][i] for i in range(n))


def minor_sum_bounds(m):
    """e_j(r_1..r_n) for j = 0..n, r_i the ceiling of row i's 2-norm, by
    summing over every j-subset of rows."""
    norms = []
    for row in m:
        s = sum(x * x for x in row)
        r = isqrt(s)
        norms.append(r + 1 if r * r < s else r)
    return [
        sum(prod(norms[i] for i in rows) for rows in combinations(range(len(m)), j))
        for j in range(len(m) + 1)
    ]


def moduli_used(cp):
    return linalg._primes[: cp.moduli]


class TestModularCharPoly:
    @settings(max_examples=80, deadline=None)
    @given(m=square_matrices(max_n=10, lo=-(10**4), hi=10**4))
    def test_matches_faddeev_leverrier(self, m):
        assert char_poly(m) == faddeev_leverrier_charpoly(m)

    @settings(max_examples=60, deadline=None)
    @given(g=graphs(max_n=12))
    def test_laplacians_match_faddeev_leverrier(self, g):
        lap = laplacian(g)
        assert char_poly(lap) == faddeev_leverrier_charpoly(lap)

    @settings(max_examples=60, deadline=None)
    @given(m=square_matrices(max_n=8, lo=-50, hi=50))
    def test_coefficients_within_hadamard_bound(self, m):
        n = len(m)
        bounds = minor_sum_bounds(m)
        coeffs = char_poly(m)
        for j in range(n + 1):
            assert abs(coeffs[n - j]) <= bounds[j]
        assert hadamard_bound(m) == max(bounds)

    @settings(max_examples=40, deadline=None)
    @given(m=square_matrices(max_n=10, lo=-(10**4), hi=10**4))
    def test_moduli_are_the_fewest_certified_primes_past_twice_the_bound(self, m):
        cp = char_poly(m)
        primes = moduli_used(cp)
        assert len(primes) == cp.moduli >= 1
        assert all(is_prime(p) and p < 2**78 < MR_LIMIT for p in primes)
        assert primes == sorted(set(primes), reverse=True)
        bound = hadamard_bound(m)
        assert prod(primes) > 2 * bound >= prod(primes[:-1])

    @settings(max_examples=40, deadline=None)
    @given(m=square_matrices(max_n=10, lo=-(10**4), hi=10**4))
    def test_prime_count_is_the_passes_count(self, m):
        assert prime_count(hadamard_bound(m)) == char_poly(m).moduli

    @pytest.mark.parametrize("c", [24, 32])
    def test_gap_spectrum_closed_form(self, c):
        # gplus:2,c has Laplacian spectrum {0..2c+1} \ {c+1}, all simple
        want = [1]
        for lam in range(2 * c + 2):
            if lam != c + 1:
                want = poly_mul(want, [-lam, 1])
        cp = char_poly(laplacian(resolver_graph(2, c)))
        assert cp == want
        assert cp.moduli >= 3

    @settings(max_examples=40, deadline=None)
    @given(m=square_matrices(max_n=10, lo=-(10**4), hi=10**4) | large_matrices())
    def test_matches_one_pass_per_prime(self, m):
        cp, want = char_poly(m), per_prime_charpoly(m)
        assert cp == want and cp.moduli == want.moduli

    @settings(max_examples=40, deadline=None)
    @given(m=large_matrices())
    def test_large_entries_match_faddeev_leverrier(self, m):
        cp = char_poly(m)
        assert cp == faddeev_leverrier_charpoly(m)
        assert cp.moduli >= 3

    def test_non_unit_pivot_falls_back_per_prime(self, monkeypatch):
        char_poly([[1]])  # certifies the first prime
        p = linalg._primes[0]
        # The first sub-diagonal pivot, p, is zero modulo p and a unit modulo
        # the other prime, so the pass over their product stops there and
        # one pass per prime follows.
        m = [[1, 2, 3, 4], [p, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
        moduli = per_prime_charpoly(m).moduli
        calls = spy_char_poly_mod(monkeypatch)
        cp = char_poly(m)
        assert cp == faddeev_leverrier_charpoly(m)
        assert cp.moduli == moduli == 2
        assert calls[0] == prod(moduli_used(cp))
        assert sorted(calls[1:]) == sorted(moduli_used(cp))

    @settings(max_examples=20, deadline=None)
    @given(m=large_matrices(min_n=3), k=st.integers(1, 10**6))
    def test_non_unit_pivot_takes_one_pass_per_prime_of_many(self, m, k):
        char_poly([[1]])  # certifies the first prime
        m[1][0] = k * linalg._primes[0]  # the first pivot, no unit modulo M
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_char_poly_mod(mp)
            cp = char_poly(m)
        assert cp == faddeev_leverrier_charpoly(m)
        assert cp.moduli >= 3
        assert calls == [prod(moduli_used(cp))] + moduli_used(cp)

    def test_gap_spectrum_takes_one_pass(self, monkeypatch):
        lanczos = spy_char_poly_mod(monkeypatch, "_lanczos_mod")
        hessenberg = spy_char_poly_mod(monkeypatch)
        cp = char_poly(laplacian(resolver_graph(2, 24)))
        assert cp.moduli == 3
        assert lanczos == [prod(moduli_used(cp))]
        assert hessenberg == []

    def test_result_is_a_plain_coefficient_list(self):
        cp = char_poly([[2, -1], [-1, 2]])
        assert isinstance(cp, list) and cp == [3, -4, 1]
        assert cp.moduli == 1
        assert char_poly([]).moduli == 1


class TestLanczos:
    @settings(max_examples=120, deadline=None)
    @given(m=symmetric_matrices())
    def test_symmetric_matrices_match_faddeev_leverrier(self, m):
        assert char_poly(m) == faddeev_leverrier_charpoly(m)

    @settings(max_examples=40, deadline=None)
    @given(m=symmetric_matrices(max_n=6, lo=-(10**20), hi=10**20))
    def test_large_symmetric_entries_match_one_pass_per_prime(self, m):
        cp, want = char_poly(m), per_prime_charpoly(m)
        assert cp == want and cp.moduli == want.moduli

    def test_derogatory_laplacian_falls_back_per_modulus(self, monkeypatch):
        lap = petersen_laplacian()
        lanczos = spy_char_poly_mod(monkeypatch, "_lanczos_mod")
        hessenberg = spy_char_poly_mod(monkeypatch)
        cp = char_poly(lap)
        assert cp == faddeev_leverrier_charpoly(lap)
        # A repeated eigenvalue exhausts the Krylov space modulo every prime,
        # so Lanczos breaks down and Hessenberg runs modulo the same product.
        assert lanczos == hessenberg == [prod(moduli_used(cp))]
        assert linalg._lanczos_mod(lap, linalg._primes[0]) is None

    def test_non_unit_norm_falls_back_to_hessenberg(self, monkeypatch):
        char_poly([[1]])  # certifies the first prime
        p = linalg._primes[0]
        # Modulo p, A v_0 = A (3, 9) = (3p + 27, 81) is 9 v_0, so v_1 and its
        # norm vanish; modulo the other prime they do not.  That norm is no
        # unit modulo their product, so Lanczos stops and Hessenberg runs
        # modulo the same product.
        m = [[p, 3], [3, 8]]
        moduli = per_prime_charpoly(m).moduli
        lanczos = spy_char_poly_mod(monkeypatch, "_lanczos_mod")
        hessenberg = spy_char_poly_mod(monkeypatch)
        cp = char_poly(m)
        assert cp == faddeev_leverrier_charpoly(m)
        assert cp.moduli == moduli == 2
        assert lanczos == hessenberg == [prod(moduli_used(cp))]

    def test_asymmetric_matrix_takes_no_lanczos_pass(self, monkeypatch):
        lanczos = spy_char_poly_mod(monkeypatch, "_lanczos_mod")
        assert char_poly([[1, 2], [3, 4]]) == [-2, -5, 1]
        assert lanczos == []

    @pytest.mark.parametrize("d, c", [(3, 2), (3, 5), (4, 2)])
    def test_prime_laplacian_needs_no_fallback(self, d, c):
        # gplus:d,c for d >= 3 is prime, with every eigenvalue simple
        lap = laplacian(resolver_graph(d, c))
        q = prod(moduli_used(char_poly(lap)))
        assert linalg._lanczos_mod(lap, q) == linalg._char_poly_mod(lap, q)


@st.composite
def sparse_symmetric_matrices(draw, max_n=9):
    """Symmetric matrices with several distinct off-diagonal values per row,
    and at least one zero row and one row with a single off-diagonal entry
    (a one-column getter), at positions drawn like the rest."""
    n = draw(st.integers(3, max_n))
    values = st.sampled_from([0, 0, 0, -1, -1, 2, -3, 5])
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(values)
    zero, single, partner = draw(st.permutations(range(n)))[:3]
    for k in range(n):
        m[zero][k] = m[k][zero] = 0
        if k != single:
            m[single][k] = m[k][single] = 0
    m[single][partner] = m[partner][single] = draw(st.sampled_from([-1, 2, -3]))
    return m


class TestGatheredRows:
    def test_rows_keep_the_diagonal_and_one_getter_per_value(self):
        m = [[4, 2, 0, 2], [2, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, -7]]
        rows = linalg._gather(m)
        assert [diag for diag, _ in rows] == [4, 0, 0, -7]
        assert [sorted(x for x, _ in terms) for _, terms in rows] == [[2], [2], [], [2]]
        v = [10, 20, 30, 40]
        ((_, get),) = rows[0][1]
        assert list(get(v)) == [20, 40]
        ((_, get),) = rows[1][1]  # one column: still a sequence, not an entry
        assert list(get(v)) == [10]
        assert linalg._apply(rows, v) == mat_vec(m, v)

    def test_diagonal_value_also_off_the_diagonal(self):
        m = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
        assert linalg._gather(m)[0][0] == 1
        assert linalg._apply(linalg._gather(m), [1, 2, 3]) == [6, 6, 6]

    @settings(max_examples=60, deadline=None)
    @given(m=square_matrices(max_n=7, lo=-3, hi=3), data=st.data())
    def test_apply_matches_mat_vec(self, m, data):
        v = data.draw(st.lists(st.integers(-(10**30), 10**30), min_size=len(m), max_size=len(m)))
        assert linalg._apply(linalg._gather(m), v) == mat_vec(m, v)

    @settings(max_examples=80, deadline=None)
    @given(m=sparse_symmetric_matrices())
    def test_lanczos_matches_faddeev_leverrier(self, m):
        cp, want = char_poly(m), faddeev_leverrier_charpoly(m)
        assert cp == want
        q = prod(moduli_used(cp))
        res = linalg._lanczos_mod(m, q)
        # Lanczos stops on a repeated eigenvalue (about one draw in six);
        # whatever it returns must be exact
        assert res is None or res == [x % q for x in want]

    def test_zero_row_and_one_column_row_take_the_lanczos_pass(self):
        m = [[0, 0, 0], [0, 2, -1], [0, -1, 3]]  # eigenvalues 0 and (5 +- sqrt 5)/2
        q = prod(moduli_used(char_poly(m)))
        assert linalg._lanczos_mod(m, q) == [x % q for x in faddeev_leverrier_charpoly(m)]


class TestIsPrime:
    def test_matches_trial_division_below_20000(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))

        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if trial(n)
        ]

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2..31
            318665857834031151167461,  # strong pseudoprime to bases 2..37
            2**67 - 1,  # 193707721 * 761838257287, no factor below 41
        ],
    )
    def test_rejects_composites(self, n):
        assert not is_prime(n)

    def test_accepts_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**31 - 1)

    def test_limit_fools_every_base(self):
        # MR_LIMIT is composite yet passes the strong test to all 13 bases,
        # so the test alone would misjudge it.
        assert MR_LIMIT % 1287836182261 == 0
        n, s = MR_LIMIT - 1, 0
        while n % 2 == 0:
            n, s = n // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            powers = [pow(a, n << r, MR_LIMIT) for r in range(s)]
            assert powers[0] == 1 or MR_LIMIT - 1 in powers

    @pytest.mark.parametrize("n", [MR_LIMIT, MR_LIMIT + 2, 2**89 - 1])
    def test_refuses_at_or_above_the_proven_limit(self, n):
        with pytest.raises(ValueError):
            is_prime(n)


class TestPolyEval:
    def test_horner(self):
        # 3 + 2x + x^2 at x = 4
        assert poly_eval([3, 2, 1], 4) == 27

    def test_roots_of_known_poly(self):
        coeffs = char_poly([[1, -1], [-1, 1]])
        assert poly_eval(coeffs, 0) == 0
        assert poly_eval(coeffs, 2) == 0
        assert poly_eval(coeffs, 1) != 0


class TestPolyMul:
    @settings(max_examples=60, deadline=None)
    @given(a=polys, b=polys)
    def test_matches_the_schoolbook_oracle(self, a, b):
        assert linalg.poly_mul(a, b) == poly_mul(a, b)


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
        assert rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4

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
