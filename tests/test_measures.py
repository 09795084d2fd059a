import json
import math
import tracemalloc

import numpy as np
import pytest

import projlog as pl
from oracles import chart_measure, measure_json, random_measure, to_chart
from projlog.errors import ValidationError
from projlog import analytic
from projlog.geometry import CANONICAL_TOL, canonicalize_batch, sample_fs_array
from projlog.measures import _riesz_sum, _uniform_ball, support_threshold


# ---------- validation -------------------------------------------------------

def test_single_atom_ok():
    mu = pl.dirac(pl.normalize([1, 0]))
    assert mu.num_atoms == 1 and mu.weights[0] == 1.0
    assert assert_merge_matches_reference(mu.points, [1.0]).num_atoms == 1


def test_duplicate_atoms_merge():
    p = pl.normalize([1, 2j])
    mu = pl.build_measure([p.coords, (2.0 * p.coords)], [0.5, 0.5])
    assert mu.num_atoms == 1
    assert abs(mu.weights[0] - 1.0) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fortran_ordered_points_build_the_c_ordered_measure(n):
    # (U @ pts.T).T is Fortran-ordered: rotated atoms, two of them duplicates
    pts = sample_fs_array(31 + n, 6, n)
    pts[4] = 1j * pts[1]
    rng = np.random.default_rng(n)
    U, _ = np.linalg.qr(rng.standard_normal((n + 1, n + 1))
                        + 1j * rng.standard_normal((n + 1, n + 1)))
    rotated = (U @ pts.T).T
    assert not rotated.flags.c_contiguous
    w = np.full(6, 1.0 / 6)
    mu = pl.build_measure(rotated, w)
    ref = pl.build_measure(np.ascontiguousarray(rotated), w)
    assert mu.num_atoms == ref.num_atoms == 5
    assert mu.points.tobytes() == ref.points.tobytes()
    assert mu.weights.tobytes() == ref.weights.tobytes()


def test_weight_sum_mismatch():
    p, q = pl.normalize([1, 0]), pl.normalize([0, 1])
    with pytest.raises(ValidationError, match="weights sum to"):
        pl.build_measure([p.coords, q.coords], [0.5, 0.4])


def test_negative_weight():
    p, q = pl.normalize([1, 0]), pl.normalize([0, 1])
    with pytest.raises(ValidationError, match="must be > 0"):
        pl.build_measure([p.coords, q.coords], [1.5, -0.5])


def test_empty_measure():
    with pytest.raises(ValidationError, match="at least one atom"):
        pl.build_measure(np.empty((0, 2), dtype=complex), np.empty(0))


def test_measure_json_round_trip_and_errors():
    mu = random_measure(2, 5, seed=31)
    back = pl.AtomicMeasure.from_json(measure_json(mu))
    assert back.num_atoms == mu.num_atoms
    np.testing.assert_allclose(back.weights, mu.weights)

    bad = json.loads(measure_json(mu))
    bad["atoms"][2]["weight"] = -1.0
    with pytest.raises(ValidationError) as err:
        pl.AtomicMeasure.from_json(json.dumps(bad))
    assert "atoms[2].weight" in str(err.value)


# ---------- duplicate merge ---------------------------------------------------

def greedy_merge(points, weights):
    """Reference merge: compare each row with every kept row, in input order."""
    keep_rows, keep_w = [], []
    for row, w in zip(canonicalize_batch(np.asarray(points, dtype=complex)), weights):
        for j, existing in enumerate(keep_rows):
            if np.max(np.abs(existing - row)) <= CANONICAL_TOL:
                keep_w[j] += w
                break
        else:
            keep_rows.append(row)
            keep_w.append(float(w))
    return np.stack(keep_rows), np.array(keep_w)


def assert_merge_matches_reference(points, weights):
    mu = pl.build_measure(points, weights)
    ref_points, ref_weights = greedy_merge(points, weights)
    assert mu.points.tobytes() == ref_points.tobytes()
    assert mu.weights.tobytes() == ref_weights.tobytes()
    return mu


def offset_rows(n, steps, seed=0):
    """A canonical point moved along one non-pivot coordinate by steps * tol.

    The move is orthogonal to that coordinate's value, so the norm changes at
    second order only and the canonical distance is |step| * tol to rounding.
    """
    rng = np.random.default_rng(seed)
    base = canonicalize_batch(np.concatenate([[2.0], rng.uniform(-1, 1, n)]) + 0j)
    direction = 1j * base[1] / abs(base[1])
    rows = np.repeat(base[None, :], len(steps), axis=0)
    rows[:, 1] += np.asarray(steps) * CANONICAL_TOL * direction
    return rows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_merge_matches_greedy_reference_on_random_duplicates(n):
    rng = np.random.default_rng(100 + n)
    unique = rng.standard_normal((200, n + 1)) + 1j * rng.standard_normal((200, n + 1))
    idx = rng.choice(200, size=120)
    # the same projective points again, under a random phase and scale
    scale = rng.uniform(0.5, 2.0, idx.size) * np.exp(2j * np.pi * rng.uniform(size=idx.size))
    rows = np.concatenate([unique, unique[idx] * scale[:, None]])
    rows = rows[rng.permutation(rows.shape[0])]
    w = rng.uniform(0.2, 1.0, rows.shape[0])
    mu = assert_merge_matches_reference(rows, w / w.sum())
    assert mu.num_atoms == 200


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("step, atoms", [(0.99, 1), (1.01, 2), (1e3, 2)])
def test_merge_tolerance_edge(n, step, atoms):
    # at 1e3 tol the two rows are distinct and share no projection window
    rows = offset_rows(n, [0.0, step], seed=n)
    canon = canonicalize_batch(rows)
    assert abs(np.max(np.abs(canon[0] - canon[1])) / CANONICAL_TOL - step) < 1e-3
    assert assert_merge_matches_reference(rows, [0.25, 0.75]).num_atoms == atoms


@pytest.mark.parametrize("n", [1, 2, 3])
def test_merge_near_tolerance_in_random_directions(n):
    # partners moved by 0.6-1.2 tol in every non-pivot coordinate, with random
    # phases: many pairs sit near the edge of the projection window
    rng = np.random.default_rng(200 + n)
    base = canonicalize_batch(rng.standard_normal((300, n + 1))
                              + 1j * rng.standard_normal((300, n + 1)))
    step = rng.uniform(0.6, 1.2, base.shape) * np.exp(2j * np.pi * rng.uniform(size=base.shape))
    step[np.arange(300), np.argmax(np.abs(base), axis=1)] = 0.0
    rows = np.concatenate([base, base + CANONICAL_TOL * step])
    rows = rows[rng.permutation(rows.shape[0])]
    mu = assert_merge_matches_reference(rows, np.full(600, 1.0 / 600))
    assert 300 < mu.num_atoms < 600


@pytest.mark.parametrize("order, atoms", [((0, 1, 2), 2), ((1, 0, 2), 1), ((0, 2, 1), 2),
                                          ((2, 1, 0), 2), ((1, 2, 0), 1), ((2, 0, 1), 2)])
def test_merge_chain_keeps_first_match(order, atoms):
    # a ~ b and b ~ c but a !~ c: the outcome depends on which row is kept first
    chain = offset_rows(2, [0.0, 0.7, 1.4])[list(order)]
    mu = assert_merge_matches_reference(chain, [0.2, 0.3, 0.5])
    assert mu.num_atoms == atoms


def test_merge_of_many_copies_stays_small():
    rng = np.random.default_rng(7)
    point = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    scale = rng.uniform(0.5, 2.0, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
    rows = point[None, :] * scale[:, None]
    w = np.full(2000, 1.0 / 2000)
    tracemalloc.start()
    try:
        pl.build_measure(rows, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all pairs would need 2000^2 complex differences (192 MB at n = 2)
    assert peak < 4 << 20
    mu = assert_merge_matches_reference(rows, w)
    assert mu.num_atoms == 1


# ---------- partition of unity ----------------------------------------------

def chi_at(p):
    """The partition of unity at one point, through the batch function."""
    return pl.partition_of_unity(p.coords[None])[0]


def test_partition_at_basis_point():
    chi = chi_at(pl.normalize([0, 1, 0]))
    np.testing.assert_allclose(chi, [0, 1, 0], atol=1e-15)


def test_partition_balanced_point():
    for n in (1, 2, 3):
        v = np.ones(n + 1) / math.sqrt(n + 1)
        chi = chi_at(pl.normalize(v))
        np.testing.assert_allclose(chi, np.full(n + 1, 1.0 / (n + 1)), atol=1e-14)


def test_partition_sums_to_one_and_support():
    pts = sample_fs_array(17, 10_000, 2)
    chi = pl.partition_of_unity(pts)
    np.testing.assert_allclose(chi.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(chi >= 0)
    t = np.abs(pts) ** 2
    thresh = support_threshold(2)
    assert np.all(chi[t <= thresh] == 0.0)


def test_partition_smooth_in_zeta():
    # finite-difference continuity along a path crossing the support knots
    for s in np.linspace(0.0, 1.0, 50):
        v = np.array([1.0, s, 0.3])
        a = chi_at(pl.normalize(v))
        b = chi_at(pl.normalize(v + [0, 1e-7, 0]))
        assert np.max(np.abs(a - b)) < 1e-5


# ---------- decomposition -----------------------------------------------------

def test_decompose_dirac():
    mu = pl.dirac(pl.normalize([1, 0, 0]))
    dec = pl.decompose(mu)
    assert set(dec.components) == {0}
    assert abs(dec.masses[0] - 1.0) < 1e-15


def test_decompose_two_basis_atoms():
    mu = pl.build_measure([pl.normalize([1, 0]).coords, pl.normalize([0, 1]).coords],
                          [0.5, 0.5])
    dec = pl.decompose(mu)
    np.testing.assert_allclose(dec.masses, [0.5, 0.5])
    for j, comp in dec.components.items():
        assert comp.num_atoms == 1


def test_decompose_reassembly_random_100():
    mu = random_measure(2, 100, seed=41)
    dec = pl.decompose(mu)
    assert abs(float(np.sum(dec.masses)) - 1.0) < 1e-12
    back = dec.reassemble()
    assert back.num_atoms == mu.num_atoms
    # match atoms pairwise and compare weights
    for i in range(mu.num_atoms):
        diffs = np.max(np.abs(back.points - mu.points[i][None, :]), axis=1)
        j = int(np.argmin(diffs))
        assert diffs[j] < 1e-12
        assert abs(back.weights[j] - mu.weights[i]) < 1e-12


def test_decompose_components_inside_charts():
    mu = random_measure(3, 50, seed=43)
    dec = pl.decompose(mu)
    thresh = support_threshold(3)
    for j, comp in dec.components.items():
        t = np.abs(comp.points[:, j]) ** 2
        assert np.all(t > thresh)
        # hence convertible to chart coordinates without error
        pl.chart_coordinates(comp, j)


def per_atom_chart_coords(mu, chart):
    """The chart coordinates of each atom through to_chart, one at a time."""
    rows = []
    for i in range(mu.num_atoms):
        try:
            rows.append(to_chart(mu.point(i), chart))
        except ValidationError as exc:
            raise ValidationError(f"atom {i} is not inside chart {chart}: {exc}") from exc
    return np.stack(rows)


def test_chart_coordinates_match_per_atom_loop():
    for n in (1, 2, 3):
        mu = random_measure(n, 300, seed=80 + n)
        for chart in range(n + 1):
            assert (pl.chart_coordinates(mu, chart).tobytes()
                    == per_atom_chart_coords(mu, chart).tobytes())
    # atoms 2 and 4 have zeta_1 = 0, atom 3 is just above the chart floor
    pts = [[1, 0.5], [1, -2j], [1, 0], [1e-9, 1], [2j, 0], [1, 3]]
    mu = pl.build_measure([pl.normalize(p).coords for p in pts], np.full(6, 1 / 6))
    for chart in (0, 1):
        try:
            per_atom_chart_coords(mu, chart)
        except ValidationError as exc:
            expected = str(exc)
        else:
            expected = None
        if expected is None:
            assert (pl.chart_coordinates(mu, chart).tobytes()
                    == per_atom_chart_coords(mu, chart).tobytes())
            continue
        with pytest.raises(ValidationError) as got:
            pl.chart_coordinates(mu, chart)
        assert str(got.value) == expected
    with pytest.raises(ValidationError, match="atom 2 is not inside chart 1"):
        pl.chart_coordinates(mu, 1)
    # an out-of-range chart fails geometry's chart rule before any atom is read
    for chart in (2, -1):
        with pytest.raises(ValidationError, match=f"chart index {chart} out of range"):
            per_atom_chart_coords(mu, chart)
        with pytest.raises(ValidationError, match=f"^chart {chart} is out of range 0..1 "):
            pl.chart_coordinates(mu, chart)


# ---------- Riesz potential -----------------------------------------------------

def riesz_potential(nu, alpha, z):
    """J(z) = sum w_i |z - w_i|^(-alpha) at one point through the scans' batch sum."""
    z = np.asarray(z, dtype=complex)
    return float(_riesz_sum(z[None, :], pl.chart_coordinates(nu, 0), nu.weights, alpha)[0])


def test_riesz_single_atom_value():
    nu = chart_measure([[0.0]], [1.0])
    val = riesz_potential(nu, 1.0, np.array([2.0 + 0j]))
    assert abs(val - 0.5) < 1e-15


def test_riesz_at_atom_infinite():
    nu = chart_measure([[0.0, 0.0]], [1.0])
    assert riesz_potential(nu, 1.5, np.zeros(2)) == math.inf


def test_riesz_two_atom_hand_value():
    nu = chart_measure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    val = riesz_potential(nu, 2.0, np.array([0.0, 1.0], dtype=complex))
    assert abs(val - 0.75) < 1e-15


def test_riesz_alpha_range():
    nu = chart_measure([[0.0]], [1.0])
    with pytest.raises(ValidationError, match="alpha = 2.0"):
        pl.riesz_lp_scan(nu, 0, 2.0, 1.0, radius=1.0, seed=0, samples=10)
    with pytest.raises(ValidationError, match="alpha = -0.5"):
        pl.riesz_refinement_scan(nu, 0, -0.5, 1.0, atom_index=0, r0=0.5, levels=2, seed=0)


def test_riesz_scaling_exact_for_pow2():
    nu = chart_measure([[0.0, 0.0]], [1.0])
    z = np.array([0.3 + 0.4j, -0.1j])
    for alpha in (0.5, 1.0, 3.0):
        v1 = riesz_potential(nu, alpha, z)
        v2 = riesz_potential(nu, alpha, 2.0 * z)
        assert v2 == 2.0 ** (-alpha) * v1  # exact for power-of-two scaling


def test_riesz_disc_integral_matches_polar_oracle():
    # int over unit disc of |z|^-1 = 2 pi (polar coordinates)
    nu = chart_measure([[0.0]], [1.0])
    res = pl.riesz_lp_scan(nu, 0, alpha=1.0, p=1.0, radius=1.0,
                           seed=3, samples=400_000)
    assert abs(res.estimate - 2 * math.pi) / (2 * math.pi) < 0.01


def test_riesz_subcritical_stable_under_doubling():
    nu = chart_measure([[0.0]], [1.0])
    a = pl.riesz_lp_scan(nu, 0, alpha=1.0, p=1.5, radius=1.0,
                         seed=5, samples=200_000)
    # a second seed gives independent draws for the second half
    b = pl.riesz_lp_scan(nu, 0, alpha=1.0, p=1.5, radius=1.0,
                         seed=6, samples=200_000)
    est2 = 0.5 * (a.estimate + b.estimate)
    assert abs(est2 - a.estimate) / a.estimate < 0.05


def test_riesz_refinement_critical_grows_tenfold():
    nu = chart_measure([[0.0]], [1.0])
    ests = pl.riesz_refinement_scan(nu, 0, alpha=1.0, p=2.0, atom_index=0,
                                    r0=0.5, levels=4, seed=7)
    for a, b in zip(ests, ests[1:]):
        assert b >= 9.9 * a


def test_riesz_refinement_subcritical_converges():
    nu = chart_measure([[0.0]], [1.0])
    ests = pl.riesz_refinement_scan(nu, 0, alpha=1.0, p=1.5, atom_index=0,
                                    r0=0.5, levels=4, seed=7)
    # deeper levels add vanishing contributions once the integral converges
    assert ests[-1] / ests[-2] < 1.05


def test_riesz_refinement_multi_atom():
    nu = chart_measure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    ests = pl.riesz_refinement_scan(nu, 0, alpha=2.0, p=2.0, atom_index=0,
                                    r0=0.1, levels=3, seed=9)
    assert ests[1] >= 9.5 * ests[0] and ests[2] >= 9.5 * ests[1]


def test_riesz_refinement_deep_power_stays_finite():
    # alpha p = 5.7: the deepest decade is 280 / 5.7, so s^(-alpha p) stays
    # inside float64; 60 decades used to overflow with a RuntimeWarning
    nu = chart_measure([[0.0]], [1.0])
    ests = pl.riesz_refinement_scan(nu, 0, alpha=1.9, p=3.0, atom_index=0,
                                    r0=0.5, levels=3, seed=7)
    assert all(map(math.isfinite, ests))
    assert ests[0] < ests[1] < ests[2]


def unblocked_riesz_lp(mu, alpha, p, radius, seed, samples):
    """riesz_lp_scan's estimate from one (samples, atoms, n) difference array."""
    n = mu.n
    pts = _uniform_ball(seed, samples, 2 * n)
    z = radius * (pts[:, :n] + 1j * pts[:, n:])
    d = np.linalg.norm(z[:, None, :] - pl.chart_coordinates(mu, 0)[None, :, :], axis=2)
    vals = np.sum(mu.weights[None, :] * d ** (-alpha), axis=1) ** p
    return math.pi**n / math.factorial(n) * radius ** (2 * n) * float(np.mean(vals))


def test_riesz_scans_blocked_over_atoms_match_one_block(monkeypatch):
    rng = np.random.default_rng(93)
    w = rng.uniform(0.2, 1.0, 40)
    nu = chart_measure(rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)),
                  w / w.sum())

    def scans():
        lp = pl.riesz_lp_scan(nu, 0, alpha=1.0, p=1.5, radius=2.0,
                              seed=11, samples=5000)
        levels = pl.riesz_refinement_scan(nu, 0, alpha=1.0, p=1.5, atom_index=3,
                                          r0=0.5, levels=3, seed=13)
        return lp.estimate, levels

    lp, levels = scans()
    # all 40 atoms fit in one block: the same bits as the unblocked array
    assert lp == unblocked_riesz_lp(nu, 1.0, 1.5, 2.0, 11, 5000)
    monkeypatch.setattr(analytic, "_BLOCK_ENTRIES", 1)
    assert len(analytic.atom_blocks(40, 5000, 2)) == 40
    lp_blocked, levels_blocked = scans()
    # one atom per block only reorders each point's sum over the atoms
    assert lp_blocked == pytest.approx(lp, rel=1e-13)
    assert levels_blocked == pytest.approx(levels, rel=1e-13)
