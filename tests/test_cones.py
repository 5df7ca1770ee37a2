import numpy as np
import pytest

from riskbudget.allocation import AllocationProblem, build_program
from riskbudget.cones import ConeStructure, GramPlan, NonNeg, NTScaling, SecondOrder, Zero
from riskbudget.solver import RowMatrix


def soc_slices(struct):
    """``(lo, hi)`` of each second-order block in a cone vector, from the
    block starts and the block dims."""
    ends = struct.soc_starts + np.bincount(struct.block, minlength=struct.soc_starts.size)
    return list(zip(struct.soc_starts.tolist(), ends.tolist()))


def random_interior(struct, rng, scale=1.0):
    u = rng.standard_normal(struct.dim) * scale
    u[: struct.nnn] = np.abs(u[: struct.nnn]) + 0.1
    for lo, hi in soc_slices(struct):
        u[lo] = np.linalg.norm(u[lo + 1 : hi]) + 0.1 + abs(u[lo])
    return u


def nt_scaling(struct, s, z):
    """The scaling of ``s`` and ``z`` with the determinants of their stack,
    as the solver builds it."""
    sz = np.stack([s, z])
    return NTScaling(struct, s, z, struct.jdot(sz, sz))


def split_rows(prog):
    """``(G, Aeq)``: the cone rows of ``prog`` as a :class:`RowMatrix` on its
    ``K`` and its equality rows dense, as the solver splits them before it
    equilibrates."""
    a, struct = prog.A, prog.structure
    g = RowMatrix(a.K, a.idx[struct.cone_rows], a.scale[struct.cone_rows])
    return g, np.asarray(RowMatrix(a.K, a.idx[struct.zero_rows], a.scale[struct.zero_rows]))


LAYOUTS = [
    [NonNeg(3), SecondOrder(4), Zero(2), SecondOrder(2)],
    # nonneg rows between and after second-order blocks, which the
    # structure moves ahead of them
    [SecondOrder(3), NonNeg(2), SecondOrder(2), NonNeg(1)],
]


@pytest.fixture
def struct():
    return ConeStructure(LAYOUTS[0])


@pytest.fixture
def structs():
    return [ConeStructure(blocks) for blocks in LAYOUTS]


def test_structure_layout(struct):
    assert struct.dim == 9
    assert struct.nnn == 3
    assert soc_slices(struct) == [(3, 7), (7, 9)]
    assert struct.degree == 5


def test_identity_and_margin(structs):
    for struct in structs:
        e = struct.identity()
        assert struct.margin(e) == 1.0
        assert np.all(struct.prod(e, e) == e)


def test_jordan_div_roundtrip(structs):
    rng = np.random.default_rng(0)
    for struct in structs * 20:
        lmbda = random_interior(struct, rng)
        d = rng.standard_normal(struct.dim)
        w = struct.div(lmbda, d)
        assert np.allclose(struct.prod(lmbda, w), d, atol=1e-10)


def test_nt_scaling_identities(structs):
    rng = np.random.default_rng(1)
    for struct in structs * 25:
        s = random_interior(struct, rng, scale=rng.uniform(0.1, 10))
        z = random_interior(struct, rng, scale=rng.uniform(0.1, 10))
        w = nt_scaling(struct, s, z)
        # W z = W^{-1} s = lambda
        assert np.allclose(w.apply(z), w.lmbda, atol=1e-10)
        assert np.allclose(w.apply_inv(s), w.lmbda, atol=1e-10)
        # W (W z) = s, and lambda' lambda = s'z
        assert np.allclose(w.apply(w.apply(z)), s, atol=1e-9)
        assert np.isclose(w.lmbda @ w.lmbda, s @ z, atol=1e-9)
        # lambda stays interior
        assert struct.margin(w.lmbda) > 0
        # W^2 and W^{-2} in one pass agree with two applications
        d = rng.standard_normal(struct.dim)
        assert np.allclose(w.apply_sq(d), w.apply(w.apply(d)), rtol=1e-10, atol=1e-10)
        assert np.allclose(w.apply_inv_sq(d), w.apply_inv(w.apply_inv(d)), rtol=1e-10, atol=1e-10)


def test_w_squared_in_one_vector_form(structs):
    # W^2 = eta^2 (2 (v o v)(v o v)' - J) from the stored Jordan square,
    # which has unit determinant like v; checked on well-centred points and
    # on points of very unequal size (eta far from 1) near the boundary
    rng = np.random.default_rng(7)
    for struct in structs * 20:
        for size in (1.0, 1e-6, 1e6):
            s = random_interior(struct, rng, scale=size)
            z = random_interior(struct, rng, scale=1.0 / size)
            if size != 1.0:
                for lo, hi in soc_slices(struct):
                    s[lo] = np.linalg.norm(s[lo + 1 : hi]) * 1.01
            w = nt_scaling(struct, s, z)
            # v and v o v cover the second-order suffix
            pad = np.zeros(struct.nnn)
            v, vsq = np.concatenate([pad, w.v]), np.concatenate([pad, w.vsq])
            assert np.allclose(vsq, struct.prod(v, v), rtol=1e-14, atol=1e-14)
            assert np.allclose(struct.jdot(vsq, vsq), 1.0, rtol=1e-12, atol=0.0)
            u = rng.standard_normal(struct.dim)
            twice = w.apply(w.apply(u))
            assert np.linalg.norm(w.apply_sq(u) - twice) <= 1e-12 * np.linalg.norm(twice)
            assert np.linalg.norm(w.apply_inv_sq(w.apply_sq(u)) - u) <= 1e-12 * np.linalg.norm(u)


def test_gram_plan_finds_the_diagonal_columns():
    # the allocation program's turnover split is eliminated, one turnover
    # row to each column
    n = 4
    rng = np.random.default_rng(8)
    a = rng.standard_normal((n, n))
    for mu in (0.001, 0.0):
        prog = build_program(AllocationProblem(cov=a @ a.T / n + np.eye(n), budgets=np.full(n, 0.1),
                                               mu=mu))
        plan = GramPlan(prog.structure, *split_rows(prog))
        # x and t are kept, and the 2n turnover columns after them go
        assert (plan.k, plan.ncols) == (n + 1, 3 * n + 1 if mu else n + 1)
    # one-entry rows only: as nonneg rows every column is eliminable, but
    # once they also feed a second-order block (||x_0:3|| <= x_3) none is
    g = RowMatrix.dense(np.vstack([-np.eye(4), -np.eye(4)[[3, 0, 1, 2]]]))
    no_eq = np.zeros((0, 4))
    assert GramPlan(ConeStructure([NonNeg(8)]), g, no_eq).k == 0
    assert GramPlan(ConeStructure([NonNeg(4), SecondOrder(4)]), g, no_eq).k == 4
    # a column that two equality rows share stays, and so does the
    # eliminable column ahead of it: only the trailing run is eliminated
    aeq = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 2.0, -1.0, 0.0]])
    plan = GramPlan(ConeStructure([NonNeg(8)]), g, aeq)
    assert plan.k == 2
    # the Schur input: the squares of the eliminated columns' equality
    # entries, where column 2 meets the second row alone and column 3 none
    assert plan.aeq_elim_sq.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    # a column whose one-entry rows all carry a zero factor has no diagonal
    # to divide by, so it stays
    g = RowMatrix(-np.eye(2), [0, 1], [0.0, 1.0])
    assert GramPlan(ConeStructure([NonNeg(2)]), g, np.zeros((0, 2))).k == 1


def eliminable(struct, g, aeq):
    """The columns the KKT solve could eliminate, read off the dense cone
    rows ``g`` and equality rows ``aeq``: reached by some one-entry nonneg
    row, by no other cone row, and by at most one equality row."""
    reach = g != 0
    unit = (reach.sum(axis=1) == 1) & (np.arange(struct.dim) < struct.nnn)
    return (reach[unit].any(axis=0) & ~reach[~unit].any(axis=0)
            & (np.count_nonzero(aeq, axis=0) <= 1))


@pytest.mark.parametrize("n", [1, 2, 3, 16])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("mu", [0.0, 1e-3])
def test_allocation_program_lies_in_canonical_order(n, lam, mu):
    # the solver addresses nonneg rows as a prefix and eliminates only a
    # trailing run of columns: the allocation program lists its nonneg
    # rows ahead of its second-order blocks, so the canonical order leaves
    # its cone rows in place, and every eliminable column trails
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    prog = build_program(AllocationProblem(cov=a @ a.T / n + np.eye(n),
                                           budgets=0.5 * rng.dirichlet(np.ones(n)),
                                           forecasts=rng.normal(0.0, 0.01, n), lam=lam, mu=mu,
                                           prev_weights=rng.dirichlet(np.ones(n))))
    struct = prog.structure
    assert np.all(np.diff(struct.cone_rows) > 0)
    g, aeq = split_rows(prog)
    plan = GramPlan(struct, g, aeq)
    elim = eliminable(struct, np.asarray(g), aeq)
    assert not elim[: plan.k].any() and elim[plan.k :].all()
    # the turnover split columns, and no others
    assert plan.ncols - plan.k == (2 * n if mu else 0)


def brute_gram(w, g):
    dense = np.asarray(g)
    return dense.T @ np.column_stack([w.apply_inv(w.apply_inv(col)) for col in dense.T])


def full_gram(w, plan):
    """The Gram over all columns, from the kept block and eliminated diagonal."""
    h, h_elim = w.gram(plan)
    out = np.zeros((plan.ncols, plan.ncols))
    k = plan.k
    out[:k, :k] = h
    out[np.arange(k, plan.ncols), np.arange(k, plan.ncols)] = h_elim
    return out


def test_gram_matches_bruteforce(structs):
    rng = np.random.default_rng(2)
    # K with an all-zero row (0), single-entry rows (1, 2), rows with more
    # entries (3, 5) and a row no cone row copies (4), the only one that
    # reaches column 0; only row 2 reaches column 4
    kmat = np.zeros((6, 5))
    kmat[1, 2] = 1.5
    kmat[2, 4] = -0.5
    kmat[3, 1:4] = rng.standard_normal(3)
    kmat[4] = rng.standard_normal(5)
    kmat[5, [1, 3]] = rng.standard_normal(2)
    for struct in structs:
        s = random_interior(struct, rng)
        z = random_interior(struct, rng)
        w = nt_scaling(struct, s, z)
        g = RowMatrix.dense(rng.standard_normal((struct.dim, 5)))
        no_eq = np.zeros((0, 5))
        assert np.allclose(full_gram(w, GramPlan(struct, g, no_eq)), brute_gram(w, g), atol=1e-9)
        # rows stored as scaled copies of a few rows of K give the same answer
        rows = RowMatrix(kmat[:3], rng.integers(0, 3, struct.dim), rng.standard_normal(struct.dim))
        assert np.allclose(full_gram(w, GramPlan(struct, rows, no_eq)), brute_gram(w, rows), atol=1e-9)
        # every kind of K row on nonneg and second-order rows alike, except
        # that only nonneg rows copy row 2, so its column 4 is eliminated
        idx = rng.choice([0, 1, 2, 3, 5], struct.dim)
        idx[struct.nnn :] = rng.choice([0, 1, 3, 5], struct.dim - struct.nnn)
        idx[struct.soc_starts] = 1
        idx[:2] = [2, 5]
        rows = RowMatrix(kmat, idx, rng.standard_normal(struct.dim))
        plan = GramPlan(struct, rows, no_eq)
        assert plan.k == 4
        h = full_gram(w, plan)
        brute = brute_gram(w, rows)
        assert np.allclose(h, brute, atol=1e-9)
        assert not h[0].any() and not h[:, 0].any()
        # what the plan leaves out is zero: the eliminated columns meet
        # nothing off the diagonal
        off = brute[:, 4].copy()
        off[4] = 0.0
        assert not off.any() and not brute[4, :4].any()


def near_boundary(struct, rng):
    """A point whose second-order blocks have determinants from 1e-12 to
    1e-2 of their squared head, and nonneg rows over six orders."""
    u = rng.standard_normal(struct.dim)
    u[: struct.nnn] = 10.0 ** rng.uniform(-3, 3, struct.nnn)
    for lo, hi in soc_slices(struct):
        u[lo] = np.linalg.norm(u[lo + 1 : hi]) * np.sqrt(1.0 + 10.0 ** rng.uniform(-12, -2))
    return u


def test_gram_matches_the_scalings_own_inverse_square_near_the_boundary():
    # on allocation programs, at scalings whose blocks sit close to the cone
    # boundary (eta and v far from the centre), the Gram agrees with
    # G' (W^-2 G) taken column by column through apply_inv_sq
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n))
        prog = build_program(AllocationProblem(
            cov=a @ a.T / n + 0.1 * np.eye(n), budgets=0.5 * rng.dirichlet(np.ones(n)),
            forecasts=rng.normal(0.0, 0.01, n), lam=float(rng.choice([0.0, 1.0])),
            mu=float(rng.choice([0.0, 1e-3])), prev_weights=rng.dirichlet(np.ones(n))))
        struct = prog.structure
        g, aeq = split_rows(prog)
        w = nt_scaling(struct, near_boundary(struct, rng), near_boundary(struct, rng))
        plan = GramPlan(struct, g, aeq)
        dense = np.asarray(g)
        ref = dense.T @ np.column_stack([w.apply_inv_sq(col) for col in dense.T])
        scale = np.abs(ref).max()
        assert np.abs(full_gram(w, plan) - ref).max() <= 1e-13 * scale


def test_max_step(structs):
    rng = np.random.default_rng(3)
    for struct in structs * 50:
        u = random_interior(struct, rng)
        du = rng.standard_normal(struct.dim)
        alpha = struct.max_step(u, du)
        if np.isinf(alpha):
            assert struct.margin(u + 1e3 * du) >= 0
        else:
            assert struct.margin(u + 0.999 * alpha * du) >= -1e-9
            assert struct.margin(u + 1.01 * (alpha + 1e-12) * du) <= 1e-9


def test_max_step_pure_nonneg():
    struct = ConeStructure([NonNeg(3)])
    u = np.array([1.0, 2.0, 3.0])
    du = np.array([-1.0, 1.0, -6.0])
    assert struct.max_step(u, du) == pytest.approx(0.5)
    assert struct.max_step(u, np.ones(3)) == np.inf


# the solver's one pass over the stack [s; z]; the long blocks beside
# nonneg rows give segments of eight or more terms, where numpy's pairwise
# summation would round a block's sum differently if other rows joined it
PAIR_LAYOUTS = LAYOUTS + [
    [NonNeg(9), SecondOrder(12), SecondOrder(12)],
    [SecondOrder(12), NonNeg(10)],
    [NonNeg(4)],
]


@pytest.mark.parametrize("blocks", PAIR_LAYOUTS)
def test_pair_pass_equals_the_per_vector_calls(blocks):
    struct = ConeStructure(blocks)
    rng = np.random.default_rng(11)
    for _ in range(40):
        s = random_interior(struct, rng, scale=rng.uniform(0.1, 10))
        z = random_interior(struct, rng, scale=rng.uniform(0.1, 10))
        ds, dz = rng.standard_normal(struct.dim), rng.standard_normal(struct.dim)
        sz, dsz = np.stack([s, z]), np.stack([ds, dz])
        dets = struct.jdot(sz, sz)
        each = np.stack([struct.jdot(s, s), struct.jdot(z, z)])
        assert np.array_equal(dets, each)
        for step in (dsz, -dsz, 1e-3 * dsz):
            want = min(struct.max_step(s, step[0]), struct.max_step(z, step[1]))
            assert struct.max_step(sz, step) == want
            assert struct.max_step(sz, step, dets) == want
        # margins of interior points and of points past the boundary
        for u in (sz, dsz):
            assert struct.margin(u) == min(struct.margin(u[0]), struct.margin(u[1]))
        shared, own = NTScaling(struct, s, z, dets), NTScaling(struct, s, z, each)
        for name in ("eta", "v", "vsq", "w", "lmbda"):
            assert np.array_equal(getattr(shared, name), getattr(own, name)), name


# Per-block loop versions of the cone primitives, the reference for the
# segmented reductions in ConeStructure and NTScaling


def loop_prod(struct, u, v):
    out = u * v
    for lo, hi in soc_slices(struct):
        out[lo] = u[lo] * v[lo] + u[lo + 1 : hi] @ v[lo + 1 : hi]
        out[lo + 1 : hi] = u[lo] * v[lo + 1 : hi] + v[lo] * u[lo + 1 : hi]
    return out


def loop_div(struct, lmbda, d):
    out = d / lmbda
    for lo, hi in soc_slices(struct):
        l0, l1, d0, d1 = lmbda[lo], lmbda[lo + 1 : hi], d[lo], d[lo + 1 : hi]
        w0 = (l0 * d0 - l1 @ d1) / (l0 * l0 - l1 @ l1)
        out[lo] = w0
        out[lo + 1 : hi] = (d1 - w0 * l1) / l0
    return out


def loop_margin(struct, u):
    socs = [u[lo] - np.linalg.norm(u[lo + 1 : hi]) for lo, hi in soc_slices(struct)]
    return min(socs + list(u[: struct.nnn]))


def loop_soc_step(u0, u1, d0, d1):
    a = d0 * d0 - d1 @ d1
    b = 2.0 * (u0 * d0 - u1 @ d1)
    c = u0 * u0 - u1 @ u1
    if c <= 0:
        return 0.0
    if abs(a) < 1e-300:
        return -c / b if b < 0 else np.inf
    disc = b * b - 4.0 * a * c
    if a > 0:
        if disc < 0 or b >= 0:
            return np.inf
        return c / (-0.5 * (b - np.sqrt(disc)))
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0 else 1.0))
    roots = [r for r in (q / a, c / q if q != 0 else np.inf) if r > 0]
    return min(roots) if roots else np.inf


def loop_max_step(struct, u, du):
    alpha = np.inf
    un, dn = u[: struct.nnn], du[: struct.nnn]
    neg = dn < 0
    if np.any(neg):
        alpha = float(np.min(-un[neg] / dn[neg]))
    for lo, hi in soc_slices(struct):
        alpha = min(alpha, loop_soc_step(u[lo], u[lo + 1 : hi], du[lo], du[lo + 1 : hi]))
    return alpha


def loop_scaling_point(struct, s, z):
    eta, v_all = [], np.zeros(struct.dim)
    for lo, hi in soc_slices(struct):
        ds = np.sqrt(s[lo] ** 2 - s[lo + 1 : hi] @ s[lo + 1 : hi])
        dz = np.sqrt(z[lo] ** 2 - z[lo + 1 : hi] @ z[lo + 1 : hi])
        sb, zb = s[lo:hi] / ds, z[lo:hi] / dz
        wb = sb.copy()
        wb[0] += zb[0]
        wb[1:] -= zb[1:]
        wb /= 2.0 * np.sqrt(0.5 * (1.0 + sb @ zb))
        v = wb.copy()
        v[0] = np.sqrt(0.5 * (wb[0] + 1.0))
        v[1:] = wb[1:] / (2.0 * v[0])
        eta.append(np.sqrt(ds / dz))
        v_all[lo:hi] = v
    return np.asarray(eta), v_all


@pytest.mark.parametrize("blocks", [
    [NonNeg(3), SecondOrder(4), Zero(2), SecondOrder(2)],
    [SecondOrder(3), NonNeg(2), SecondOrder(5), NonNeg(1)],
    [SecondOrder(6)],
])
def test_segmented_primitives_match_block_loops(blocks):
    struct = ConeStructure(blocks)
    rng = np.random.default_rng(4)
    for _ in range(30):
        u, v = random_interior(struct, rng), random_interior(struct, rng)
        d = rng.standard_normal(struct.dim)
        assert np.allclose(struct.prod(u, d), loop_prod(struct, u, d), rtol=1e-12, atol=1e-14)
        assert np.allclose(struct.div(u, d), loop_div(struct, u, d), rtol=1e-12, atol=1e-14)
        assert np.isclose(struct.max_step(u, d), loop_max_step(struct, u, d), rtol=1e-12)
        assert np.isclose(struct.max_step(u, -d), loop_max_step(struct, u, -d), rtol=1e-12)
        assert np.isclose(struct.margin(d), loop_margin(struct, d), rtol=1e-12)
        w = nt_scaling(struct, u, v)
        eta, v_all = loop_scaling_point(struct, u, v)
        assert np.allclose(w.eta, eta, rtol=1e-12)
        assert np.allclose(w.v, v_all[struct.nnn :], rtol=1e-12, atol=1e-14)


def test_soc_step_boundary_cases():
    struct = ConeStructure([SecondOrder(3)])
    u = np.array([2.0, 1.0, 0.0])
    cases = [
        np.array([1.0, 1.0, 0.0]),    # along the boundary ray: a = 0, b > 0
        np.array([-1.0, -1.0, 0.0]),  # a = 0, b < 0: linear crossing
        np.array([1.0, 0.0, 0.0]),    # toward the axis: never leaves
        np.array([0.0, 3.0, 0.0]),    # a < 0: one positive root
        np.array([0.0, 0.0, 0.0]),    # no move
    ]
    for du in cases:
        assert struct.max_step(u, du) == pytest.approx(loop_max_step(struct, u, du), rel=1e-12)
    # a point on the boundary already allows no step
    assert struct.max_step(np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])) == 0.0
